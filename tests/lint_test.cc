// Tests for ring-lint (src/analysis/lint.h): each text rule on inline
// snippets, the seeded-violation and allowlist fixtures, the build-graph
// orphan and test-only-api rules on synthetic trees, and the real repo
// staying clean.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/lint.h"

#ifndef RING_SOURCE_ROOT
#error "lint_test requires RING_SOURCE_ROOT (set in tests/CMakeLists.txt)"
#endif

namespace ring::analysis {
namespace {

std::vector<std::string> RulesOf(const std::vector<LintFinding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const auto& f : findings) {
    rules.push_back(f.rule);
  }
  return rules;
}

bool HasRule(const std::vector<LintFinding>& findings,
             const std::string& rule) {
  for (const auto& f : findings) {
    if (f.rule == rule) {
      return true;
    }
  }
  return false;
}

std::vector<LintFinding> LintSnippet(const std::string& code,
                                     const std::string& relpath = "src/ring/"
                                                                  "x.cc") {
  SourceInput in;
  in.relpath = relpath;
  in.content = code;
  return LintSource(in, /*force_all_rules=*/true);
}

TEST(LintRulesTest, WallclockFires) {
  const auto f =
      LintSnippet("uint64_t T() {\n"
                  "  return std::chrono::steady_clock::now()\n"
                  "      .time_since_epoch().count();\n"
                  "}\n");
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "wallclock");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintRulesTest, RandFires) {
  const auto f = LintSnippet("int a = rand();\nstd::mt19937 gen(42);\n");
  EXPECT_EQ(f.size(), 2u) << FormatFindings(f);
  EXPECT_TRUE(HasRule(f, "rand"));
}

TEST(LintRulesTest, CommentsAndStringsAreStripped) {
  const auto f = LintSnippet(
      "// std::mt19937 would be bad\n"
      "const char* kMsg = \"call rand() for std::random_device\";\n"
      "int x = 0;  // time(NULL) in a comment\n");
  EXPECT_TRUE(f.empty()) << FormatFindings(f);
}

TEST(LintRulesTest, UnorderedIterOverMemberFromPairedHeader) {
  SourceInput in;
  in.relpath = "src/ring/x.cc";
  in.paired_header = "class T {\n  std::unordered_map<int, int> live_;\n};\n";
  in.content =
      "void T::Sweep() {\n"
      "  for (const auto& [k, v] : live_) {\n"
      "    Use(k, v);\n"
      "  }\n"
      "}\n";
  const auto f = LintSource(in, /*force_all_rules=*/true);
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintRulesTest, OrderedContainersAreFine) {
  SourceInput in;
  in.relpath = "src/ring/x.cc";
  in.paired_header = "class T {\n  std::map<int, int> live_;\n};\n";
  in.content = "void T::Sweep() {\n  for (auto& [k, v] : live_) {}\n}\n";
  EXPECT_TRUE(LintSource(in, true).empty());
}

TEST(LintRulesTest, RawScheduleFiresOutsideSimOnly) {
  const std::string code = "void F(sim::Simulator* s) {\n"
                           "  s->Schedule(Event{});\n"
                           "}\n";
  SourceInput ring_file;
  ring_file.relpath = "src/ring/x.cc";
  ring_file.content = code;
  EXPECT_TRUE(HasRule(LintSource(ring_file), "raw-schedule"));
  SourceInput sim_file;
  sim_file.relpath = "src/sim/event_queue.cc";
  sim_file.content = code;
  EXPECT_FALSE(HasRule(LintSource(sim_file), "raw-schedule"));
}

TEST(LintRulesTest, BoxedCallbackFiresInScopedFilesOnly) {
  const std::string code = "void Post(std::function<void()> fn);\n";
  SourceInput sim_file;
  sim_file.relpath = "src/sim/x.cc";
  sim_file.content = code;
  EXPECT_TRUE(HasRule(LintSource(sim_file), "boxed-callback"));
  SourceInput net_file;
  net_file.relpath = "src/net/x.cc";
  net_file.content = code;
  EXPECT_TRUE(HasRule(LintSource(net_file), "boxed-callback"));
  // RingClient's in-flight table owns all per-op state.
  for (const char* path : {"src/ring/client.h", "src/ring/client.cc"}) {
    SourceInput client_file;
    client_file.relpath = path;
    client_file.content = code;
    EXPECT_TRUE(HasRule(LintSource(client_file), "boxed-callback")) << path;
  }
  // Protocol layers may still take std::function across public APIs.
  SourceInput ring_file;
  ring_file.relpath = "src/ring/x.cc";
  ring_file.content = code;
  EXPECT_FALSE(HasRule(LintSource(ring_file), "boxed-callback"));
  // Mentions in comments don't count.
  SourceInput comment_only;
  comment_only.relpath = "src/sim/y.cc";
  comment_only.content = "// carried a std::function<void()> per event\n";
  EXPECT_FALSE(HasRule(LintSource(comment_only), "boxed-callback"));
}

TEST(LintRulesTest, ServerAdmissionFiresInServerFilesOnly) {
  const std::string code = "void F() {\n"
                           "  cpu().Execute(100, [] {});\n"
                           "  obs::ScopedOp scope(hub(), 7);\n"
                           "}\n";
  for (const char* path : {"src/ring/server.h", "src/ring/server_recovery.cc",
                           "src/ring/server_rebalance.cc"}) {
    SourceInput server_file;
    server_file.relpath = path;
    server_file.content = code;
    const auto f = LintSource(server_file);
    ASSERT_EQ(f.size(), 2u) << path << "\n" << FormatFindings(f);
    EXPECT_EQ(f[0].rule, "server-admission");
    EXPECT_EQ(f[0].line, 2);
    EXPECT_EQ(f[1].line, 3);
  }
  // The client scopes its own ops; the fabric and the CPU model are where
  // the context is carried.
  for (const char* path : {"src/ring/client.cc", "src/net/fabric.cc",
                           "src/sim/simulator.cc"}) {
    SourceInput other;
    other.relpath = path;
    other.content = code;
    EXPECT_FALSE(HasRule(LintSource(other), "server-admission")) << path;
  }
}

TEST(LintRulesTest, UseAfterMoveFires) {
  const auto f = LintSnippet(
      "void F(Req req) {\n"
      "  Send(ReqBytes(req.key.size(), 0), std::move(req));\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "use-after-move");
  EXPECT_EQ(f[0].line, 2);
  // A capture-init move races a sibling argument that reads the same
  // object: argument evaluation order is unspecified, so the read may see
  // a moved-from key.
  const auto g = LintSnippet(
      "void F(Req req) {\n"
      "  Post(Home(req.key), cost,\n"
      "       [this, req = std::move(req)]() mutable {\n"
      "    Handle(req);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(g.size(), 1u) << FormatFindings(g);
  EXPECT_EQ(g[0].rule, "use-after-move");
  EXPECT_EQ(g[0].line, 3);
}

TEST(LintRulesTest, UseAfterMoveHoistedReadIsFine) {
  const auto f = LintSnippet(
      "void F(Req req) {\n"
      "  const uint64_t bytes = ReqBytes(req.key.size(), 0);\n"
      "  Send(bytes, std::move(req));\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << FormatFindings(f);
}

TEST(LintRulesTest, UseAfterMoveLambdaBodyIsSequenced) {
  // The capture's move races sibling *arguments*; the lambda body runs after
  // the call, so reads of the captured copy inside it must not fire.
  const auto f = LintSnippet(
      "void F(Req req) {\n"
      "  Send(addr, [req = std::move(req)]() mutable {\n"
      "    Handle(req.key);\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << FormatFindings(f);
}

TEST(LintRulesTest, UseAfterMoveDoubleMoveFires) {
  const auto f = LintSnippet(
      "void F(T t) {\n"
      "  G(std::move(t), std::move(t));\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "use-after-move");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintRulesTest, UncheckedStatusFires) {
  const auto f = LintSnippet(
      "Status Flush();\n"
      "void F() {\n"
      "  Flush();\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "unchecked-status");
  EXPECT_EQ(f[0].line, 3);
}

TEST(LintRulesTest, UncheckedStatusConsumedOrDiscardedIsFine) {
  const auto f = LintSnippet(
      "Status Flush();\n"
      "void F() {\n"
      "  (void)Flush();\n"
      "  Status s = Flush();\n"
      "  if (!Flush().ok()) {\n"
      "    return;\n"
      "  }\n"
      "  return Flush();\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << FormatFindings(f);
}

TEST(LintRulesTest, UncheckedStatusUsesPairedHeaderDecls) {
  SourceInput in;
  in.relpath = "src/ring/x.cc";
  in.paired_header = "struct W {\n  Status Flush();\n};\n";
  in.content = "void F(W* w) {\n  w->Flush();\n}\n";
  const auto f = LintSource(in, /*force_all_rules=*/true);
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "unchecked-status");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintRulesTest, AllowlistSilencesNamedRuleOnly) {
  const auto same_line =
      LintSnippet("int a = rand();  // ring-lint: ok(rand)\n");
  EXPECT_TRUE(same_line.empty()) << FormatFindings(same_line);
  const auto prev_line = LintSnippet(
      "// ring-lint: ok(rand)\n"
      "int a = rand();\n");
  EXPECT_TRUE(prev_line.empty()) << FormatFindings(prev_line);
  // An ok(...) for a different rule must not silence this one.
  const auto wrong_rule =
      LintSnippet("int a = rand();  // ring-lint: ok(wallclock)\n");
  ASSERT_EQ(wrong_rule.size(), 1u);
  EXPECT_EQ(wrong_rule[0].rule, "rand");
}

// ---- fixtures -------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(LintFixtureTest, SeededViolationsAllFire) {
  SourceInput in;
  in.relpath = "tests/lint/fixture_bad.cc";
  in.content = ReadFile(std::string(RING_SOURCE_ROOT) +
                        "/tests/lint/fixture_bad.cc");
  const auto f = LintSource(in, /*force_all_rules=*/true);
  EXPECT_TRUE(HasRule(f, "wallclock")) << FormatFindings(f);
  EXPECT_TRUE(HasRule(f, "rand"));
  EXPECT_TRUE(HasRule(f, "unordered-iter"));
  EXPECT_TRUE(HasRule(f, "raw-schedule"));
  EXPECT_TRUE(HasRule(f, "boxed-callback"));
  EXPECT_TRUE(HasRule(f, "use-after-move"));
  EXPECT_TRUE(HasRule(f, "unchecked-status"));
  EXPECT_TRUE(HasRule(f, "server-admission"));
  EXPECT_GE(f.size(), 10u) << FormatFindings(f);
}

// Scanned at the client's own path, not with force_all_rules: the waived
// public callback type passes, the per-op closure member fires.
TEST(LintFixtureTest, ClientFixtureFlagsOnlyTheClosureMember) {
  SourceInput in;
  in.relpath = "src/ring/client.h";
  in.content = ReadFile(std::string(RING_SOURCE_ROOT) +
                        "/tests/lint/fixture_client.h");
  const auto f = LintSource(in);
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "boxed-callback");
  EXPECT_EQ(f[0].line, 17);  // the `send` member, not the waived alias
}

// Scanned at a server path, not with force_all_rules: the waived admission
// point and waiter scope pass, the handler's own scope and charge fire.
TEST(LintFixtureTest, ServerFixtureFlagsOnlyUnwaivedAdmission) {
  SourceInput in;
  in.relpath = "src/ring/server.cc";
  in.content = ReadFile(std::string(RING_SOURCE_ROOT) +
                        "/tests/lint/fixture_server.cc");
  const auto f = LintSource(in);
  ASSERT_EQ(f.size(), 2u) << FormatFindings(f);
  EXPECT_EQ(f[0].rule, "server-admission");
  EXPECT_EQ(f[0].line, 16);  // the handler's ScopedOp
  EXPECT_EQ(f[1].rule, "server-admission");
  EXPECT_EQ(f[1].line, 17);  // the handler's direct charge
}

TEST(LintFixtureTest, AllowlistedFixtureIsClean) {
  SourceInput in;
  in.relpath = "tests/lint/fixture_allowlisted.cc";
  in.content = ReadFile(std::string(RING_SOURCE_ROOT) +
                        "/tests/lint/fixture_allowlisted.cc");
  const auto f = LintSource(in, /*force_all_rules=*/true);
  EXPECT_TRUE(f.empty()) << FormatFindings(f);
}

// ---- build graph ----------------------------------------------------------

TEST(LintBuildGraphTest, ReportsOrphanSourcesAndTargets) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "ring_lint_orphan_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  fs::create_directories(root / "tests");
  auto write = [](const fs::path& p, const std::string& text) {
    std::ofstream(p) << text;
  };
  write(root / "CMakeLists.txt",
        "add_subdirectory(src/core)\nadd_subdirectory(tests)\n");
  write(root / "src" / "core" / "CMakeLists.txt",
        "add_library(core linked.cc)\n"
        "add_library(island island.cc)\n");
  write(root / "src" / "core" / "linked.cc", "int L() { return 1; }\n");
  write(root / "src" / "core" / "island.cc", "int I() { return 2; }\n");
  write(root / "src" / "core" / "orphan.cc", "int O() { return 3; }\n");
  write(root / "tests" / "CMakeLists.txt",
        "ring_add_test(core_test core)\n");
  write(root / "tests" / "core_test.cc", "int main() { return 0; }\n");

  const auto f = LintBuildGraph(root.string());
  ASSERT_EQ(f.size(), 2u) << FormatFindings(f);
  EXPECT_EQ(RulesOf(f), (std::vector<std::string>{"orphan-cc", "orphan-cc"}));
  const std::string text = FormatFindings(f);
  EXPECT_NE(text.find("island.cc"), std::string::npos) << text;
  EXPECT_NE(text.find("orphan.cc"), std::string::npos) << text;
  EXPECT_EQ(text.find("linked.cc"), std::string::npos) << text;
  fs::remove_all(root);
}

// ---- test-only-api ----------------------------------------------------------

TEST(LintTestOnlyApiTest, FlagsOnlyWhatNoNonTestRootReaches) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "ring_lint_test_only_api";
  fs::remove_all(root);
  for (const char* dir : {"src/core", "tools", "tests"}) {
    fs::create_directories(root / dir);
  }
  auto write = [](const fs::path& p, const std::string& text) {
    std::ofstream(p) << text;
  };
  write(root / "src" / "core" / "api.h",
        ReadFile(std::string(RING_SOURCE_ROOT) +
                 "/tests/lint/fixture_test_only_api.h"));
  write(root / "src" / "core" / "api.cc",
        "#include \"src/core/api.h\"\n"
        "namespace fixture {\n"
        "int Engine::Run() const { return Helper() + Internal(); }\n"
        "int Engine::Helper() const {\n"
        "  switch (options_.mode) {\n"
        "    case Mode::kTestOnly: return 2;\n"
        "    default: return 1;\n"
        "  }\n"
        "}\n"
        "int Engine::Probe() const { return 3; }\n"
        "int Engine::Unnamed() const { return 5; }\n"
        "int Engine::Internal() const { return 6; }\n"
        "int Engine::Hook() const { return 7; }\n"
        "int TestOnlyFree() { return 4; }\n"
        "}  // namespace fixture\n");
  write(root / "tools" / "main.cc",
        "#include \"src/core/api.h\"\n"
        "int main() { return fixture::Engine({}).Run(); }\n");
  write(root / "tests" / "api_test.cc",
        "using fixture::Mode; Mode a = Mode::kUsed, b = Mode::kTestOnly;\n"
        "fixture::Options o; fixture::Engine e(o);\n"
        "int v = e.Run() + e.Helper() + e.Probe() + e.Oracle() +\n"
        "        fixture::TestOnlyFree();\n");

  const auto f = LintTestOnlyApi(root.string());
  std::vector<std::string> flagged;
  for (const auto& finding : f) {
    EXPECT_EQ(finding.rule, "test-only-api");
    EXPECT_EQ(finding.file, "src/core/api.h");
    flagged.push_back(finding.message.substr(0, finding.message.find(' ')));
    // A declaration no test names either is flagged as named by nothing.
    EXPECT_EQ(finding.message.find("own .h/.cc") != std::string::npos,
              flagged.back() == "'Unnamed'")
        << finding.message;
  }
  EXPECT_EQ(flagged, (std::vector<std::string>{"'kTestOnly'", "'Probe'",
                                               "'Unnamed'", "'TestOnlyFree'"}))
      << FormatFindings(f);
  fs::remove_all(root);
}

// A root file reaches a header's names only through its #include closure: a
// token in a file that cannot see the header (a local variable, another
// class's member of the same name) reaches nothing.
TEST(LintTestOnlyApiTest, CountsANameOnlyWhereItsHeaderIsIncluded) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "ring_lint_include_reach";
  fs::remove_all(root);
  for (const char* dir : {"src/core", "tools", "tests"}) {
    fs::create_directories(root / dir);
  }
  auto write = [](const fs::path& p, const std::string& text) {
    std::ofstream(p) << text;
  };
  write(root / "src" / "core" / "api.h",
        "namespace fixture {\n"
        "class Engine {\n"
        " public:\n"
        "  int Direct() const;\n"
        "  int Transitive() const;\n"
        "  int running() const;\n"
        "};\n"
        "}  // namespace fixture\n");
  write(root / "src" / "core" / "wrap.h",
        "#include \"src/core/api.h\"\n"
        "namespace fixture {\n"
        "inline int Wrapped() { return 1; }\n"
        "}  // namespace fixture\n");
  write(root / "tools" / "main.cc",
        "#include \"src/core/api.h\"\n"
        "int main() { return fixture::Engine().Direct(); }\n");
  write(root / "tools" / "other.cc",
        "#include \"src/core/wrap.h\"\n"
        "int Other() {\n"
        "  return fixture::Wrapped() + fixture::Engine().Transitive();\n"
        "}\n");
  write(root / "tools" / "unrelated.cc",
        "int Unrelated() { bool running = true; return running ? 1 : 0; }\n");
  write(root / "tests" / "api_test.cc",
        "#include \"src/core/api.h\"\n"
        "int v = fixture::Engine().running();\n");

  const auto f = LintTestOnlyApi(root.string());
  ASSERT_EQ(f.size(), 1u) << FormatFindings(f);
  EXPECT_EQ(f[0].file, "src/core/api.h");
  EXPECT_EQ(f[0].line, 6);
  EXPECT_EQ(f[0].message.substr(0, f[0].message.find(' ')), "'running'")
      << f[0].message;
  fs::remove_all(root);
}

// ---- the gate: the repo itself stays clean --------------------------------

TEST(LintTreeTest, RepositoryIsClean) {
  const auto f = LintTree(RING_SOURCE_ROOT);
  EXPECT_TRUE(f.empty()) << FormatFindings(f);
}

TEST(LintTreeTest, FormatIsFileLineRuleMessage) {
  LintFinding a{"src/ring/x.cc", 12, "rand", "msg"};
  LintFinding b{"src/sim/y.cc", 0, "orphan-cc", "file-level"};
  EXPECT_EQ(FormatFindings({a, b}),
            "src/ring/x.cc:12: [rand] msg\n"
            "src/sim/y.cc: [orphan-cc] file-level\n");
}

}  // namespace
}  // namespace ring::analysis
