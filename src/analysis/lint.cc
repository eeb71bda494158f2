#include "src/analysis/lint.h"

#include <algorithm>
#include <cctype>
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

std::string ReadText(const fs::path& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
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

const TextRule& ServerAdmissionRule() {
  static const TextRule* rule = new TextRule{
      "server-admission",
      "server work reaches the CPU only through RingServer::OnCpu, which "
      "checks liveness and carries the op context; a direct cpu().Execute "
      "or obs::ScopedOp restates what OnCpu and the fabric already do",
      std::regex(R"(\bcpu\s*\(\s*\)\s*\.\s*Execute\s*\()"
                 R"(|\bobs\s*::\s*ScopedOp\b)")};
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
    const std::string dir =
        fs::relative(path.parent_path(), root).generic_string();
    for (const CmakeCommand& cmd : ParseCmake(ReadText(path))) {
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

// ---- test-only-api rule ----------------------------------------------------
//
// Token-level reachability. A file splits into units: a function (signature
// and body), a class or enum head, a data member (reached with its class)
// or any other namespace-scope statement (always reached). A src/ header's
// function, class or enumerator is reached when a non-test root file other
// than its own .h/.cc names it and has the header in its #include closure,
// or a reached unit of the own .h/.cc does; one nothing reaches is a
// finding, whether tests name it or not. Case labels do not reach:
// handling a value nobody produces is no use of it. A name shared by two
// classes whose headers one file sees reaches both, so the scan can miss
// but never invent a finding. A private member, or anything declared in a
// class's private section, is reached from outside its own .h/.cc only by a
// file that defines a member of that class or of one of its friends (a
// `Class::` definition or the class head): nothing else may name it.

struct Tok {
  std::string text;
  size_t line;  // 0-based
};

bool IsIdent(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 ||
                        t[0] == '_');
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Words, "::" and single punctuation characters; comments, literals and
// preprocessor lines are dropped.
std::vector<Tok> Tokenize(const std::string& s) {
  std::vector<Tok> out;
  size_t line = 0;
  size_t i = 0;
  auto skip_past = [&](size_t end, size_t len) {
    end = end == std::string::npos ? s.size() : end + len;
    line += static_cast<size_t>(
        std::count(s.begin() + i, s.begin() + end, '\n'));
    i = end;
  };
  while (i < s.size()) {
    const char c = s[i];
    const size_t bol = s.find_last_not_of(" \t", i == 0 ? 0 : i - 1);
    if (c == '#' && (i == 0 || bol == std::string::npos || s[bol] == '\n')) {
      size_t end = s.find('\n', i);
      while (end != std::string::npos && s[end - 1] == '\\') {
        end = s.find('\n', end + 1);
      }
      skip_past(end, 0);
    } else if (s.compare(i, 2, "//") == 0) {
      skip_past(s.find('\n', i), 0);
    } else if (s.compare(i, 2, "/*") == 0) {
      skip_past(s.find("*/", i + 2), 2);
    } else if (c == '"' && i > 0 && s[i - 1] == 'R') {  // raw string
      const size_t open = s.find('(', i);
      const std::string close = ")" + s.substr(i + 1, open - i - 1) + "\"";
      skip_past(s.find(close, open), close.size());
    } else if (c == '"' || (c == '\'' && (i == 0 || !IsWordChar(s[i - 1])))) {
      size_t j = i + 1;
      while (j < s.size() && s[j] != c && s[j] != '\n') {
        j += s[j] == '\\' ? 2 : 1;
      }
      skip_past(j, 1);
    } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      skip_past(i, 1);
    } else {
      size_t j = i + (s.compare(i, 2, "::") == 0 ? 2 : 1);
      while (IsWordChar(c) && j < s.size() && IsWordChar(s[j])) {
        ++j;
      }
      out.push_back({s.substr(i, j - i), line});
      i = j;
    }
  }
  return out;
}

struct Unit {
  std::string name;   // function/class/enum; empty: always reached
  std::string owner;  // a data member's class
  std::vector<std::string> uses;
};

// A declared function, class, enum or enumerator. `private_to` names the
// outermost class whose private section holds it; empty when it is public.
struct Decl {
  Tok tok;
  std::string private_to;
};

// What ParseUnits learns about a file beyond its units.
struct FileFacts {
  std::vector<Decl> decls;
  // Classes whose members the file defines: `A::B::f` definitions name A
  // and B, and a class head names its class.
  std::set<std::string> defines;
  // Class -> the classes it declares friends.
  std::map<std::string, std::vector<std::string>> friends;
};

size_t MatchingClose(const std::vector<Tok>& toks, size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  for (int depth = 0; open < toks.size(); ++open) {
    depth += toks[open].text == o ? 1 : toks[open].text == c ? -1 : 0;
    if (depth == 0) {
      break;
    }
  }
  return open;
}

// Index of the function name in a declaration: the word before the first
// '(' outside template brackets and attribute groups, unless an '=' comes
// first. stmt.size() when there is none; `operator`'s index for operators.
size_t Declarator(const std::vector<Tok>& stmt) {
  static const std::set<std::string> kNotAName = {
      "return", "sizeof", "static_assert", "noexcept", "throw", "new",
      "delete", "if", "for", "while", "switch", "explicit", "requires"};
  int angle = 0;
  for (size_t k = 0; k < stmt.size(); ++k) {
    const std::string& t = stmt[k].text;
    const std::string& p = k > 0 ? stmt[k - 1].text : t;
    angle += t == "<" ? 1 : (t == ">" && angle > 0 ? -1 : 0);
    if (t == "operator") {
      return k;
    }
    if ((t == "=" && angle == 0) ||
        (t == "(" && angle == 0 && k > 0 && !IsIdent(p))) {
      break;
    }
    if (t != "(" || angle != 0 || k == 0) {
      continue;
    }
    if (p == "alignas" || p == "decltype" || p.rfind("__", 0) == 0) {
      k = MatchingClose(stmt, k);
    } else {
      return kNotAName.count(p) == 0 ? k - 1 : stmt.size();
    }
  }
  return stmt.size();
}

// Splits one file into units and collects its facts.
void ParseUnits(const std::string& content, std::vector<Unit>* units,
                FileFacts* facts) {
  const std::vector<Tok> toks = Tokenize(content);
  struct Scope {
    char kind;         // 'n'amespace, 'c'lass or 'e'num
    std::string name;  // a class's
    bool in_private;   // a class's current access section
    std::string private_to;  // what its own declaration is private to
  };
  std::vector<Scope> scopes;
  // What a declaration in the innermost scope is private to.
  const auto private_to = [&scopes]() -> std::string {
    if (scopes.empty() || scopes.back().kind == 'n') {
      return "";
    }
    const Scope& s = scopes.back();
    return !s.private_to.empty() ? s.private_to
                                 : (s.in_private ? s.name : "");
  };
  std::vector<Tok> stmt;
  // One unit from `from`, named by from[name_at] unless that is out of range
  // or `operator`; the `A::B::` qualifier of a definition is no use.
  auto add = [&](const std::vector<Tok>& from, size_t name_at) {
    Unit u;
    size_t qualifier = name_at;
    if (name_at < from.size() && from[name_at].text != "operator") {
      u.name = from[name_at].text;
      while (qualifier >= 2 && from[qualifier - 1].text == "::" &&
             IsIdent(from[qualifier - 2].text)) {
        qualifier -= 2;
        facts->defines.insert(from[qualifier].text);
      }
      facts->decls.push_back({from[name_at], private_to()});
    } else if (!scopes.empty() && scopes.back().kind == 'c') {
      u.owner = scopes.back().name;
    }
    bool in_case = false;
    for (size_t k = 0; k < from.size(); ++k) {
      in_case = from[k].text == "case" || (in_case && from[k].text != ":");
      if (!in_case && IsIdent(from[k].text) &&
          (k < qualifier || k >= name_at)) {
        u.uses.push_back(from[k].text);
      }
    }
    units->push_back(std::move(u));
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (!scopes.empty() && scopes.back().kind == 'e') {  // enumerators
      for (; i < toks.size() && toks[i].text != "}"; ++i) {
        if (IsIdent(toks[i].text) &&
            (toks[i - 1].text == "{" || toks[i - 1].text == ",")) {
          facts->decls.push_back({toks[i], scopes.back().private_to});
        }
      }
      scopes.pop_back();
    } else if ((t == "public" || t == "private" || t == "protected") &&
               i + 1 < toks.size() && toks[i + 1].text == ":") {
      if (!scopes.empty()) {
        scopes.back().in_private = t == "private";
      }
      ++i;
    } else if (t == "}" || t == ";") {
      if (t == ";" && !stmt.empty()) {
        if (stmt[0].text == "friend" && !scopes.empty() &&
            IsIdent(stmt.back().text)) {
          facts->friends[scopes.back().name].push_back(stmt.back().text);
        }
        add(stmt, Declarator(stmt));
      } else if (t == "}" && !scopes.empty()) {
        scopes.pop_back();
      }
      stmt.clear();
    } else if (t != "{") {
      stmt.push_back(toks[i]);
    } else {
      const size_t fn = Declarator(stmt);
      size_t kw = 0;  // class-key or `enum` outside template brackets
      for (int angle = 0; kw < stmt.size(); ++kw) {
        const std::string& x = stmt[kw].text;
        angle += x == "<" ? 1 : (x == ">" && angle > 0 ? -1 : 0);
        if (angle == 0 && (x == "class" || x == "struct" || x == "union" ||
                           x == "enum")) {
          break;
        }
      }
      const bool is_enum = kw < stmt.size() && stmt[kw].text == "enum";
      if (std::any_of(stmt.begin(), stmt.end(),
                      [](const Tok& x) { return x.text == "namespace"; }) ||
          (!stmt.empty() && stmt[0].text == "extern")) {
        scopes.push_back({'n', "", false, ""});
      } else if (is_enum || (fn == stmt.size() && kw < stmt.size())) {
        size_t at = kw + 1;
        while (at < stmt.size() &&
               (!IsIdent(stmt[at].text) || stmt[at].text == "alignas" ||
                stmt[at].text == "class" || stmt[at].text == "struct")) {
          // An alignas argument or an attribute group is no class name.
          at = stmt[at].text == "(" || stmt[at].text == "["
                   ? MatchingClose(stmt, at) + 1
                   : at + 1;
        }
        add(stmt, at);
        const std::string name = at < stmt.size() ? stmt[at].text : "";
        if (!is_enum) {
          facts->defines.insert(name);
        }
        scopes.push_back({is_enum ? 'e' : 'c', name,
                          !is_enum && stmt[kw].text == "class",
                          private_to()});
      } else {
        // A body follows a complete declarator, except that in a
        // constructor's initializer list `member{` opens a brace init.
        int paren = 0;
        bool init_list = false;
        for (size_t k = 0; k < stmt.size(); ++k) {
          paren += stmt[k].text == "(" ? 1 : stmt[k].text == ")" ? -1 : 0;
          init_list |= k > fn && paren == 0 && stmt[k].text == ":";
        }
        const std::string& last = stmt.empty() ? t : stmt.back().text;
        const bool body = fn < stmt.size() && paren == 0 &&
                          !(init_list && (IsIdent(last) || last == ">"));
        const size_t close = std::min(MatchingClose(toks, i) + 1, toks.size());
        stmt.insert(stmt.end(), toks.begin() + i, toks.begin() + close);
        if (body) {
          add(stmt, fn);
        }
        i = close - 1;
        if (!body) {
          continue;
        }
      }
      stmt.clear();
    }
  }
}

// The root-relative paths a file names in `#include "..."` lines.
std::vector<std::string> QuotedIncludes(const std::string& content) {
  std::vector<std::string> out;
  for (const std::string& line : SplitLines(content)) {
    const std::string t = Trim(line);
    const size_t open = t.find('"');
    if (t.rfind("#include", 0) == 0 && open != std::string::npos) {
      out.push_back(t.substr(open + 1, t.find('"', open + 1) - open - 1));
    }
  }
  return out;
}

std::vector<LintFinding> TestOnlyApiFindings(const std::string& root) {
  // Non-test file -> the files it #includes, and the classes whose members
  // it defines.
  std::map<std::string, std::vector<std::string>> includes;
  std::map<std::string, std::set<std::string>> defines;
  std::map<std::string, std::vector<std::string>> files_naming;
  std::set<std::string> test_words;
  for (const std::string dir :
       {"src", "bench", "tools", "e2e_bench", "examples", "tests"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(fs::path(root) / dir, ec), end;
         it != end; it.increment(ec)) {
      const std::string ext = it->path().extension().string();
      if (!it->is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp")) {
        continue;
      }
      const std::string text = ReadText(it->path());
      std::set<std::string> words;
      for (const Tok& tok : Tokenize(text)) {
        words.insert(tok.text);
      }
      if (dir == "tests") {
        test_words.insert(words.begin(), words.end());
        continue;
      }
      const std::string rel = fs::relative(it->path(), root).generic_string();
      for (const std::string& w : words) {
        files_naming[w].push_back(rel);
      }
      includes[rel] = QuotedIncludes(text);
      std::vector<Unit> units;
      FileFacts facts;
      ParseUnits(text, &units, &facts);
      defines[rel] = std::move(facts.defines);
    }
  }
  // Each file's #include closure, by a walk over the direct includes.
  std::map<std::string, std::set<std::string>> sees;
  for (const auto& [file, direct] : includes) {
    std::set<std::string>& seen = sees[file];
    std::vector<std::string> todo = direct;
    while (!todo.empty()) {
      const std::string h = std::move(todo.back());
      todo.pop_back();
      if (!seen.insert(h).second) {
        continue;
      }
      if (const auto it = includes.find(h); it != includes.end()) {
        todo.insert(todo.end(), it->second.begin(), it->second.end());
      }
    }
  }
  std::vector<LintFinding> findings;
  for (const auto& file_includes : includes) {
    const std::string& header = file_includes.first;
    if (header.rfind("src/", 0) != 0 || fs::path(header).extension() != ".h") {
      continue;
    }
    const std::string text = ReadText(fs::path(root) / header);
    const auto cc = includes.find(header.substr(0, header.size() - 2) + ".cc");
    std::vector<Unit> units;
    FileFacts facts;
    ParseUnits(text, &units, &facts);
    if (cc != includes.end()) {
      FileFacts cc_facts;
      ParseUnits(ReadText(fs::path(root) / cc->first), &units, &cc_facts);
    }
    // Reached through the own .h/.cc; a waived oracle keeps what it uses.
    const std::vector<std::string> lines = SplitLines(text);
    std::set<std::string> reached;
    // Name -> the class it is private to, for names only private members
    // of one class carry.
    std::map<std::string, std::string> private_to;
    std::set<std::string> public_names;
    for (const Decl& d : facts.decls) {
      if (Allowlisted(lines, d.tok.line, "test-only-api")) {
        reached.insert(d.tok.text);
      }
      if (d.private_to.empty()) {
        public_names.insert(d.tok.text);
      } else if (!private_to.emplace(d.tok.text, d.private_to).second &&
                 private_to[d.tok.text] != d.private_to) {
        public_names.insert(d.tok.text);  // two classes: count it as public
      }
    }
    for (const std::string& name : public_names) {
      private_to.erase(name);
    }
    // `file`, not the header's own .h/.cc, has the header in its closure,
    // and may name `w`: anything public, or a private member of a class
    // whose (or whose friend's) members the file defines.
    const auto may_name = [&](const std::string& file, const std::string& w) {
      if (file == header || (cc != includes.end() && file == cc->first) ||
          sees.at(file).count(header) == 0) {
        return false;
      }
      const auto p = private_to.find(w);
      if (p == private_to.end()) {
        return true;
      }
      std::vector<std::string> classes = facts.friends[p->second];
      classes.push_back(p->second);
      return std::any_of(
          classes.begin(), classes.end(),
          [&](const std::string& c) { return defines.at(file).count(c) != 0; });
    };
    auto is_reached = [&](const std::string& w) {
      const auto n = files_naming.find(w);
      return reached.count(w) != 0 ||
             (n != files_naming.end() &&
              std::any_of(
                  n->second.begin(), n->second.end(),
                  [&](const std::string& f) { return may_name(f, w); }));
    };
    std::vector<bool> live(units.size(), false);
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t u = 0; u < units.size(); ++u) {
        const std::string& key =
            units[u].name.empty() ? units[u].owner : units[u].name;
        if (!live[u] && (key.empty() || is_reached(key))) {
          live[u] = changed = true;
          reached.insert(units[u].uses.begin(), units[u].uses.end());
        }
      }
    }
    for (const Decl& decl : facts.decls) {
      const Tok& d = decl.tok;
      if (is_reached(d.text)) {
        continue;
      }
      findings.push_back(
          {header, static_cast<int>(d.line + 1), "test-only-api",
           "'" + d.text +
               (test_words.count(d.text) != 0
                    ? "' is named by tests but by no non-test code that "
                      "includes its header; delete it, or waive it naming "
                      "the production code it cross-checks"
                    : "' is named by no file that includes its header but "
                      "its own .h/.cc; delete it, or waive it naming its "
                      "user")});
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
  const auto apply = [&](const TextRule& rule) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (std::regex_search(CodeOnly(lines[i]), rule.pattern) &&
          !Allowlisted(lines, i, rule.name)) {
        findings.push_back(
            {in.relpath, static_cast<int>(i + 1), rule.name, rule.message});
      }
    }
  };
  for (const TextRule& rule : WallclockAndRandRules()) {
    apply(rule);
  }
  const bool sim_internal = !force_all_rules &&
                            in.relpath.rfind("src/sim/", 0) == 0;
  if (!sim_internal) {
    apply(RawScheduleRule());
  }
  // Only the scheduler-adjacent trees must stay pool-pure: protocol layers
  // may still hand std::function across public APIs, but src/sim and src/net
  // sit on the event hot path where a boxed callable costs an allocation per
  // scheduled event. RingClient's in-flight table and RingServer's op table
  // are the only owners of per-op state; a std::function in either would
  // let the per-op closure chain back in, so only the client's public
  // callback types and the rebalance driver's two return addresses carry
  // waivers.
  const bool pool_scoped = force_all_rules ||
                           in.relpath.rfind("src/sim/", 0) == 0 ||
                           in.relpath.rfind("src/net/", 0) == 0 ||
                           in.relpath == "src/ring/client.h" ||
                           in.relpath == "src/ring/client.cc" ||
                           in.relpath.rfind("src/ring/server", 0) == 0;
  if (pool_scoped) {
    apply(BoxedCallbackRule());
  }
  // RingServer admits work in one place (OnCpu); its op context rides the
  // fabric and the CPU queue. Only the reviewed sites may touch either.
  if (force_all_rules || in.relpath.rfind("src/ring/server", 0) == 0) {
    apply(ServerAdmissionRule());
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

std::vector<LintFinding> LintTestOnlyApi(const std::string& root) {
  return TestOnlyApiFindings(root);
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
    in.content = ReadText(path);
    if (path.extension() == ".cc") {
      fs::path header = path;
      header.replace_extension(".h");
      if (fs::exists(header, ec)) {
        in.paired_header = ReadText(header);
      }
    }
    std::vector<LintFinding> file_findings = LintSource(in);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  std::vector<LintFinding> graph = LintBuildGraph(root);
  findings.insert(findings.end(), graph.begin(), graph.end());
  std::vector<LintFinding> test_only = LintTestOnlyApi(root);
  findings.insert(findings.end(), test_only.begin(), test_only.end());
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
