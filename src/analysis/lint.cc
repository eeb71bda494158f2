#include "src/analysis/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace ring::analysis {
namespace {

namespace fs = std::filesystem;

// Directories the text rules police. src/analysis is deliberately excluded:
// the lint rules themselves spell out the forbidden tokens.
constexpr const char* kScannedDirs[] = {"src/sim/", "src/net/", "src/ring/",
                                        "src/srs/", "src/policy/"};

bool InScannedDir(const std::string& relpath) {
  for (const char* dir : kScannedDirs) {
    if (relpath.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos <= content.size()) {
    const size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      if (pos < content.size()) {
        lines.push_back(content.substr(pos));
      }
      break;
    }
    lines.push_back(content.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

// `// ring-lint: ok(rule-a, rule-b)` on the access line or the line above.
bool Allowlisted(const std::vector<std::string>& lines, size_t index,
                 const std::string& rule) {
  static const std::regex kOk(R"(//\s*ring-lint:\s*ok\(([^)]*)\))");
  for (size_t i = index; i + 1 >= index && i < lines.size(); --i) {
    std::smatch m;
    if (std::regex_search(lines[i], m, kOk)) {
      std::stringstream list(m[1].str());
      std::string item;
      while (std::getline(list, item, ',')) {
        const size_t b = item.find_first_not_of(" \t");
        const size_t e = item.find_last_not_of(" \t");
        if (b != std::string::npos && item.substr(b, e - b + 1) == rule) {
          return true;
        }
      }
    }
    if (i == 0) {
      break;
    }
  }
  return false;
}

// Strips // comments and the contents of string literals so rule regexes
// don't fire on prose or quoted text; the allowlist check runs on the raw
// line before this.
std::string CodeOnly(const std::string& line) {
  std::string out;
  out.reserve(line.size());
  bool in_string = false;
  char quote = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == quote) {
        in_string = false;
        out += quote;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      in_string = true;
      quote = c;
      out += c;
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      break;
    }
    out += c;
  }
  return out;
}

struct TextRule {
  const char* name;
  const char* message;
  std::regex pattern;
};

const std::vector<TextRule>& WallclockAndRandRules() {
  static const std::vector<TextRule>* rules = new std::vector<TextRule>{
      {"wallclock",
       "host clock read in simulation code; derive time from sim::Simulator",
       std::regex(R"(std::chrono::(system_clock|steady_clock|high_resolution_clock))"
                  R"(|\bgettimeofday\s*\()"
                  R"(|\bclock_gettime\s*\()"
                  R"(|[^\w.:>]time\s*\(\s*(NULL|nullptr|0)?\s*\))")},
      {"rand",
       "non-simulator randomness; route through the simulator-owned "
       "ring::Rng",
       std::regex(R"(\brand\s*\(\s*\))"
                  R"(|\bsrand\s*\()"
                  R"(|std::random_device)"
                  R"(|std::mt19937)"
                  R"(|\bdrand48\s*\()")},
  };
  return *rules;
}

const TextRule& RawScheduleRule() {
  static const TextRule* rule = new TextRule{
      "raw-schedule",
      "direct event-queue Schedule() outside src/sim; use net::Fabric or "
      "Simulator At/After",
      std::regex(R"((\.|->)\s*Schedule\s*\(|\bqueue\(\)\s*\.\s*Schedule\b)")};
  return *rule;
}

const TextRule& BoxedCallbackRule() {
  static const TextRule* rule = new TextRule{
      "boxed-callback",
      "std::function in scheduler-adjacent code boxes every capture on the "
      "general heap, bypassing the pooled sim::Task allocator; take a "
      "sim::Task (or a deduced callable template parameter) instead",
      std::regex(R"(\bstd\s*::\s*function\s*<)")};
  return *rule;
}

// Member/local names declared as std::unordered_{map,set}. Single-line
// declarations only — an AST-lite compromise that covers this codebase.
std::set<std::string> UnorderedNames(const std::string& content) {
  static const std::regex kDecl(
      R"(\bunordered_(?:map|set)\s*<.*>\s+([A-Za-z_]\w*)\s*[;={])");
  std::set<std::string> names;
  for (const std::string& raw : SplitLines(content)) {
    const std::string line = CodeOnly(raw);
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

void LintUnorderedIter(const SourceInput& in,
                       const std::vector<std::string>& lines,
                       std::vector<LintFinding>* findings) {
  std::set<std::string> names = UnorderedNames(in.content);
  if (!in.paired_header.empty()) {
    std::set<std::string> from_header = UnorderedNames(in.paired_header);
    names.insert(from_header.begin(), from_header.end());
  }
  if (names.empty()) {
    return;
  }
  std::string alt;
  for (const std::string& n : names) {
    if (!alt.empty()) {
      alt += '|';
    }
    alt += n;
  }
  // Range-for over the container, or explicit .begin() iteration.
  const std::regex use(R"(for\s*\([^;)]*:\s*[^)]*\b(?:)" + alt +
                       R"()\b\s*\)|\b(?:)" + alt + R"()\s*\.\s*begin\s*\()");
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = CodeOnly(lines[i]);
    if (!std::regex_search(code, use)) {
      continue;
    }
    if (Allowlisted(lines, i, "unordered-iter")) {
      continue;
    }
    findings->push_back(
        {in.relpath, static_cast<int>(i + 1), "unordered-iter",
         "iteration over an unordered container can feed hash-order into "
         "sim-visible decisions; use an ordered container or allowlist "
         "after review"});
  }
}

// ---- statement-scoped rules (use-after-move, unchecked-status) -------------
//
// Both rules reason about one *statement* at a time, so they join physical
// lines until a balanced-paren terminator. Brace-enclosed regions inside a
// statement (lambda bodies, init-lists) are blanked before analysis: a lambda
// body is sequenced after the enclosing call, so reads inside it are not
// racing the capture's move. Statements *inside* a multi-line function body
// still arrive individually because block openers flush the accumulator.

struct LintLine {
  std::string code;  // CodeOnly'd
  size_t line;       // source line index
};

struct Statement {
  std::string text;  // code lines joined with '\n'
  // (offset-in-text, source-line-index) per joined line, offsets ascending.
  std::vector<std::pair<size_t, size_t>> offsets;
};

size_t LineAt(const Statement& stmt, size_t offset) {
  size_t line = stmt.offsets.empty() ? 0 : stmt.offsets.front().second;
  for (const auto& [off, idx] : stmt.offsets) {
    if (off > offset) {
      break;
    }
    line = idx;
  }
  return line;
}

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  const size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<LintLine> CodeLines(const std::vector<std::string>& lines) {
  std::vector<LintLine> out;
  out.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    out.push_back({CodeOnly(lines[i]), i});
  }
  return out;
}

std::vector<Statement> JoinStatements(const std::vector<LintLine>& lines) {
  std::vector<Statement> stmts;
  Statement cur;
  int paren = 0;
  auto flush = [&stmts, &cur, &paren]() {
    if (!cur.text.empty()) {
      stmts.push_back(std::move(cur));
    }
    cur = Statement{};
    paren = 0;
  };
  for (const LintLine& ll : lines) {
    const std::string trimmed = Trim(ll.code);
    if (trimmed.empty()) {
      continue;
    }
    if (trimmed[0] == '#') {
      continue;  // preprocessor lines never join a statement
    }
    cur.offsets.emplace_back(cur.text.size(), ll.line);
    cur.text += ll.code;
    cur.text += '\n';
    for (const char c : ll.code) {
      paren += c == '(' ? 1 : c == ')' ? -1 : 0;
    }
    const char last = trimmed.back();
    if (paren <= 0 &&
        (last == ';' || last == '{' || last == '}' || last == ':')) {
      flush();
    }
  }
  flush();
  return stmts;
}

// Top-level brace regions inside one statement — lambda bodies and inline
// member bodies — returned as line-sets so their interior statements can be
// analyzed in their own right (they are sequenced code, just nested).
std::vector<std::vector<LintLine>> BraceRegions(const Statement& stmt) {
  std::vector<std::vector<LintLine>> regions;
  std::vector<LintLine> region;
  std::string partial;
  int depth = 0;
  size_t frag = 0;  // index into stmt.offsets
  for (size_t j = 0; j < stmt.text.size(); ++j) {
    const char c = stmt.text[j];
    while (frag + 1 < stmt.offsets.size() &&
           j >= stmt.offsets[frag + 1].first) {
      ++frag;
    }
    if (c == '\n') {
      if (depth > 0 && !Trim(partial).empty()) {
        region.push_back({partial, stmt.offsets[frag].second});
      }
      partial.clear();
      continue;
    }
    if (c == '{') {
      if (depth == 0) {
        region.clear();
        partial.clear();
      } else {
        partial += c;
      }
      ++depth;
      continue;
    }
    if (c == '}') {
      if (depth > 1) {
        partial += c;
        --depth;
      } else if (depth == 1) {
        if (!Trim(partial).empty()) {
          region.push_back({partial, stmt.offsets[frag].second});
        }
        partial.clear();
        regions.push_back(std::move(region));
        region.clear();
        depth = 0;
      }
      continue;
    }
    if (depth > 0) {
      partial += c;
    }
  }
  return regions;
}

// Every statement in the line-set, recursing into nested brace regions.
std::vector<Statement> AllStatements(const std::vector<LintLine>& lines) {
  std::vector<Statement> out;
  for (Statement& stmt : JoinStatements(lines)) {
    for (const std::vector<LintLine>& region : BraceRegions(stmt)) {
      std::vector<Statement> sub = AllStatements(region);
      out.insert(out.end(), std::make_move_iterator(sub.begin()),
                 std::make_move_iterator(sub.end()));
    }
    out.push_back(std::move(stmt));
  }
  return out;
}

// Blanks every brace-enclosed region (preserving length and newlines) so
// offsets computed on the result still map back to source lines.
std::string StripBraceRegions(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  int depth = 0;
  for (const char c : text) {
    if (c == '{') {
      ++depth;
      out += ' ';
    } else if (c == '}') {
      depth -= depth > 0 ? 1 : 0;
      out += ' ';
    } else if (depth == 0 || c == '\n') {
      out += c;
    } else {
      out += ' ';
    }
  }
  return out;
}

void LintUseAfterMove(const SourceInput& in,
                      const std::vector<std::string>& lines,
                      std::vector<LintFinding>* findings) {
  static const std::regex kMove(R"(\bstd\s*::\s*move\s*\()");
  // The whole move argument must be a plain object path (`x`, `*x`,
  // `x.y->z`); complex arguments are skipped rather than guessed at.
  static const std::regex kPath(
      R"(^\s*\*?\s*([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*$)");
  static const std::regex kBindsFromMove(R"(^\s*=\s*std\s*::\s*move\b)");
  for (const Statement& stmt : AllStatements(CodeLines(lines))) {
    const std::string text = StripBraceRegions(stmt.text);
    struct MoveSite {
      size_t begin, end;  // span of the whole std::move(...) expression
      std::string path;
    };
    std::vector<MoveSite> moves;
    for (std::sregex_iterator it(text.begin(), text.end(), kMove), end;
         it != end; ++it) {
      const size_t open = it->position() + it->length() - 1;
      int depth = 0;
      size_t close = std::string::npos;
      for (size_t j = open; j < text.size(); ++j) {
        depth += text[j] == '(' ? 1 : text[j] == ')' ? -1 : 0;
        if (text[j] == ')' && depth == 0) {
          close = j;
          break;
        }
      }
      if (close == std::string::npos) {
        continue;
      }
      const std::string arg = text.substr(open + 1, close - open - 1);
      std::smatch m;
      if (std::regex_match(arg, m, kPath)) {
        moves.push_back(
            {static_cast<size_t>(it->position()), close + 1, m[1].str()});
      }
    }
    if (moves.empty()) {
      continue;
    }
    // Innermost-enclosing paren group per offset: only *sibling* reads in the
    // same argument list race the move. C++17 sequences the object/callee
    // expression (`queue_[ev.slot].push_back(std::move(ev))`) and a
    // constructor's earlier member-inits before the arguments, so reads
    // outside the move's own group are ordered and must not fire.
    std::vector<std::pair<size_t, size_t>> groups;  // (open, close) spans
    {
      std::vector<size_t> stack;
      for (size_t j = 0; j < text.size(); ++j) {
        if (text[j] == '(') {
          stack.push_back(j);
        } else if (text[j] == ')' && !stack.empty()) {
          groups.emplace_back(stack.back(), j);
          stack.pop_back();
        }
      }
    }
    auto enclosing = [&groups, &text](size_t offset) {
      std::pair<size_t, size_t> best{0, text.size()};
      for (const auto& [open, close] : groups) {
        if (open < offset && offset <= close &&
            close - open < best.second - best.first) {
          best = {open + 1, close};
        }
      }
      return best;
    };
    std::set<std::string> flagged;
    for (const MoveSite& mv : moves) {
      if (!flagged.insert(mv.path).second) {
        continue;
      }
      const auto [scope_begin, scope_end] = enclosing(mv.begin);
      bool used_elsewhere = false;
      for (size_t p = text.find(mv.path, scope_begin);
           p != std::string::npos && p < scope_end;
           p = text.find(mv.path, p + 1)) {
        if (p >= mv.begin && p < mv.end) {
          continue;  // the move's own argument
        }
        const char before = p == 0 ? '\0' : text[p - 1];
        if (std::isalnum(static_cast<unsigned char>(before)) ||
            before == '_' || before == '.' || before == '>' || before == ':') {
          continue;  // member of something else, or a qualified name
        }
        const size_t after = p + mv.path.size();
        if (after < text.size() &&
            (std::isalnum(static_cast<unsigned char>(text[after])) ||
             text[after] == '_')) {
          continue;  // longer identifier
        }
        // `x = std::move(x)` (capture-init / self-assign): the left side is
        // a fresh binding, not a read of the moved object.
        std::smatch bind;
        if (std::regex_search(text.cbegin() + static_cast<long>(after),
                              text.cend(), bind, kBindsFromMove,
                              std::regex_constants::match_continuous)) {
          continue;
        }
        used_elsewhere = true;
        break;
      }
      if (!used_elsewhere) {
        continue;
      }
      const size_t line = LineAt(stmt, mv.begin);
      if (Allowlisted(lines, line, "use-after-move")) {
        continue;
      }
      findings->push_back(
          {in.relpath, static_cast<int>(line + 1), "use-after-move",
           "'" + mv.path + "' is read elsewhere in the statement that moves "
           "it; sibling arguments evaluate in unspecified order — hoist the "
           "read before the move"});
    }
  }
}

// Function names declared (in this file or its paired header) as returning
// Status or Result<...>; calls to anything else are invisible to the rule.
std::set<std::string> StatusReturningNames(const std::string& content) {
  static const std::regex kDecl(
      R"(\b(?:Status|Result\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>)\s+)"
      R"((?:[A-Za-z_]\w*\s*::\s*)?([A-Za-z_]\w*)\s*\()");
  std::set<std::string> names;
  for (const std::string& raw : SplitLines(content)) {
    const std::string line = CodeOnly(raw);
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

void LintUncheckedStatus(const SourceInput& in,
                         const std::vector<std::string>& lines,
                         std::vector<LintFinding>* findings) {
  std::set<std::string> names = StatusReturningNames(in.content);
  if (!in.paired_header.empty()) {
    std::set<std::string> from_header = StatusReturningNames(in.paired_header);
    names.insert(from_header.begin(), from_header.end());
  }
  if (names.empty()) {
    return;
  }
  // A statement that *begins* with a call to a Status-returning function
  // discards the result unless the call's value feeds something after the
  // closing paren. `(void)Foo(...)` fails the leading-identifier match, so an
  // explicit discard is always accepted.
  static const std::regex kLeadingCall(
      R"(^\s*((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*)([A-Za-z_]\w*)\s*\()");
  for (const Statement& stmt : AllStatements(CodeLines(lines))) {
    const std::string text = StripBraceRegions(stmt.text);
    std::smatch m;
    if (!std::regex_search(text, m, kLeadingCall,
                           std::regex_constants::match_continuous)) {
      continue;
    }
    if (names.find(m[2].str()) == names.end()) {
      continue;
    }
    const size_t open = m.position() + m.length() - 1;
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t j = open; j < text.size(); ++j) {
      depth += text[j] == '(' ? 1 : text[j] == ')' ? -1 : 0;
      if (text[j] == ')' && depth == 0) {
        close = j;
        break;
      }
    }
    if (close == std::string::npos) {
      continue;
    }
    const size_t next = text.find_first_not_of(" \t\n", close + 1);
    if (next == std::string::npos || text[next] != ';') {
      continue;  // chained / consumed (e.g. `Foo(x).ok()`)
    }
    const size_t line = LineAt(stmt, static_cast<size_t>(m.position(2)));
    if (Allowlisted(lines, line, "unchecked-status")) {
      continue;
    }
    findings->push_back(
        {in.relpath, static_cast<int>(line + 1), "unchecked-status",
         "result of Status/Result-returning '" + m[2].str() +
             "' is silently discarded; handle it or cast to (void) after "
             "review"});
  }
}

// ---- build-graph rule ------------------------------------------------------

struct CmakeCommand {
  std::string name;
  std::vector<std::string> args;
};

std::vector<CmakeCommand> ParseCmake(const std::string& content) {
  std::vector<CmakeCommand> commands;
  // Strip comments.
  std::string text;
  text.reserve(content.size());
  for (const std::string& line : SplitLines(content)) {
    const size_t hash = line.find('#');
    text += hash == std::string::npos ? line : line.substr(0, hash);
    text += '\n';
  }
  static const std::regex kCall(R"(([A-Za-z_]\w*)\s*\(([^()]*)\))");
  for (std::sregex_iterator it(text.begin(), text.end(), kCall), end;
       it != end; ++it) {
    CmakeCommand cmd;
    cmd.name = (*it)[1].str();
    std::stringstream args((*it)[2].str());
    std::string arg;
    while (args >> arg) {
      cmd.args.push_back(arg);
    }
    commands.push_back(std::move(cmd));
  }
  return commands;
}

bool IsCmakeKeyword(const std::string& arg) {
  return arg == "PUBLIC" || arg == "PRIVATE" || arg == "INTERFACE" ||
         arg == "STATIC" || arg == "SHARED" || arg == "OBJECT";
}

std::vector<LintFinding> BuildGraphFindings(const std::string& root) {
  std::vector<LintFinding> findings;
  std::map<std::string, std::vector<std::string>> target_sources;  // rel .cc
  std::map<std::string, std::vector<std::string>> target_deps;
  std::vector<std::string> test_roots;

  std::vector<fs::path> cmake_files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      break;
    }
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory() &&
        (name == "build" || name.rfind("build-", 0) == 0 ||
         name == ".git" || name == "third_party")) {
      it.disable_recursion_pending();
      continue;
    }
    if (name == "CMakeLists.txt") {
      cmake_files.push_back(p);
    }
  }
  std::sort(cmake_files.begin(), cmake_files.end());

  for (const fs::path& path : cmake_files) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string dir =
        fs::relative(path.parent_path(), root).generic_string();
    for (const CmakeCommand& cmd : ParseCmake(ss.str())) {
      if (cmd.args.empty() || cmd.args[0].find("${") != std::string::npos) {
        continue;  // function bodies parameterize the target name
      }
      const std::string& target = cmd.args[0];
      if (cmd.name == "add_library" || cmd.name == "add_executable") {
        for (size_t i = 1; i < cmd.args.size(); ++i) {
          const std::string& arg = cmd.args[i];
          if (IsCmakeKeyword(arg) || arg.size() < 4 ||
              arg.compare(arg.size() - 3, 3, ".cc") != 0) {
            continue;
          }
          target_sources[target].push_back(dir == "." ? arg : dir + "/" + arg);
        }
      } else if (cmd.name == "target_link_libraries") {
        for (size_t i = 1; i < cmd.args.size(); ++i) {
          if (!IsCmakeKeyword(cmd.args[i])) {
            target_deps[target].push_back(cmd.args[i]);
          }
        }
      } else if (cmd.name == "ring_add_test" || cmd.name == "ring_add_bench") {
        target_sources[target].push_back(dir + "/" + target + ".cc");
        for (size_t i = 1; i < cmd.args.size(); ++i) {
          target_deps[target].push_back(cmd.args[i]);
        }
        if (cmd.name == "ring_add_test") {
          test_roots.push_back(target);
        }
      }
    }
  }

  // Link closure from the test executables.
  std::set<std::string> reachable;
  std::vector<std::string> frontier = test_roots;
  while (!frontier.empty()) {
    const std::string target = frontier.back();
    frontier.pop_back();
    if (!reachable.insert(target).second) {
      continue;
    }
    const auto deps = target_deps.find(target);
    if (deps != target_deps.end()) {
      for (const std::string& dep : deps->second) {
        frontier.push_back(dep);
      }
    }
  }

  std::map<std::string, std::string> cc_to_target;
  for (const auto& [target, sources] : target_sources) {
    for (const std::string& source : sources) {
      cc_to_target[source] = target;
    }
  }

  std::vector<fs::path> src_ccs;
  for (fs::recursive_directory_iterator it(fs::path(root) / "src", ec), end;
       it != end; it.increment(ec)) {
    if (ec) {
      break;
    }
    if (it->is_regular_file() && it->path().extension() == ".cc") {
      src_ccs.push_back(it->path());
    }
  }
  std::sort(src_ccs.begin(), src_ccs.end());
  for (const fs::path& cc : src_ccs) {
    const std::string rel = fs::relative(cc, root).generic_string();
    const auto owner = cc_to_target.find(rel);
    if (owner == cc_to_target.end()) {
      findings.push_back({rel, 0, "orphan-cc",
                          "not listed in any CMake target; dead code or a "
                          "missing add_library entry"});
    } else if (reachable.find(owner->second) == reachable.end()) {
      findings.push_back({rel, 0, "orphan-cc",
                          "target '" + owner->second +
                              "' is not linked (directly or transitively) "
                              "by any test executable"});
    }
  }
  return findings;
}

}  // namespace

std::vector<LintFinding> LintSource(const SourceInput& in,
                                    bool force_all_rules) {
  std::vector<LintFinding> findings;
  const bool scanned = force_all_rules || InScannedDir(in.relpath);
  if (!scanned) {
    return findings;
  }
  const std::vector<std::string> lines = SplitLines(in.content);
  for (const TextRule& rule : WallclockAndRandRules()) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(CodeOnly(lines[i]), rule.pattern) &&
          !Allowlisted(lines, i, rule.name)) {
        findings.push_back(
            {in.relpath, static_cast<int>(i + 1), rule.name, rule.message});
      }
    }
  }
  const bool sim_internal = !force_all_rules &&
                            in.relpath.rfind("src/sim/", 0) == 0;
  if (!sim_internal) {
    const TextRule& rule = RawScheduleRule();
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(CodeOnly(lines[i]), rule.pattern) &&
          !Allowlisted(lines, i, rule.name)) {
        findings.push_back(
            {in.relpath, static_cast<int>(i + 1), rule.name, rule.message});
      }
    }
  }
  // Only the scheduler-adjacent trees must stay pool-pure: protocol layers
  // may still hand std::function across public APIs, but src/sim and src/net
  // sit on the event hot path where a boxed callable costs an allocation per
  // scheduled event. RingClient's in-flight table is the only owner of
  // per-op state; a std::function there would let the per-op closure chain
  // back in, so only its public callback types carry waivers.
  const bool pool_scoped = force_all_rules ||
                           in.relpath.rfind("src/sim/", 0) == 0 ||
                           in.relpath.rfind("src/net/", 0) == 0 ||
                           in.relpath == "src/ring/client.h" ||
                           in.relpath == "src/ring/client.cc";
  if (pool_scoped) {
    const TextRule& rule = BoxedCallbackRule();
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(CodeOnly(lines[i]), rule.pattern) &&
          !Allowlisted(lines, i, rule.name)) {
        findings.push_back(
            {in.relpath, static_cast<int>(i + 1), rule.name, rule.message});
      }
    }
  }
  LintUnorderedIter(in, lines, &findings);
  LintUseAfterMove(in, lines, &findings);
  LintUncheckedStatus(in, lines, &findings);
  std::sort(findings.begin(), findings.end());
  return findings;
}

std::vector<LintFinding> LintBuildGraph(const std::string& root) {
  return BuildGraphFindings(root);
}

std::vector<LintFinding> LintTree(const std::string& root) {
  std::vector<LintFinding> findings;
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(fs::path(root) / "src", ec), end;
       it != end; it.increment(ec)) {
    if (ec) {
      break;
    }
    if (!it->is_regular_file()) {
      continue;
    }
    const std::string ext = it->path().extension().string();
    if (ext == ".cc" || ext == ".h") {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    SourceInput in;
    in.relpath = fs::relative(path, root).generic_string();
    if (!InScannedDir(in.relpath)) {
      continue;
    }
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    in.content = ss.str();
    if (path.extension() == ".cc") {
      fs::path header = path;
      header.replace_extension(".h");
      if (fs::exists(header, ec)) {
        std::ifstream hf(header);
        std::stringstream hs;
        hs << hf.rdbuf();
        in.paired_header = hs.str();
      }
    }
    std::vector<LintFinding> file_findings = LintSource(in);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  std::vector<LintFinding> graph = LintBuildGraph(root);
  findings.insert(findings.end(), graph.begin(), graph.end());
  std::sort(findings.begin(), findings.end());
  return findings;
}

std::string FormatFindings(const std::vector<LintFinding>& findings) {
  std::ostringstream os;
  for (const LintFinding& f : findings) {
    os << f.file;
    if (f.line > 0) {
      os << ":" << f.line;
    }
    os << ": [" << f.rule << "] " << f.message << "\n";
  }
  return os.str();
}

}  // namespace ring::analysis
