// test-only-api fixture for lint_test: installed as src/core/api.h of a
// synthetic tree whose tools/ file includes it and calls Engine::Run, and
// whose tests/ file names every symbol here but Unnamed, Internal and Hook.
// Never compiled into any target. The rule must flag exactly the four
// symbols marked FLAGGED.
#ifndef FIXTURE_API_H_
#define FIXTURE_API_H_

namespace fixture {

enum class Mode { kUsed, kTestOnly /* FLAGGED: only a case label */ };

// Reached through Engine's constructor signature.
struct Options {
  Mode mode = Mode::kUsed;
};

class Engine {
 public:
  explicit Engine(Options options) : options_(options) {}
  int Run() const;     // named by tools/
  int Helper() const;  // reached through Run's body in api.cc
  int Probe() const;   // FLAGGED
  // ring-lint: ok(test-only-api) an independent oracle for Run
  int Oracle() const { return 1; }
  int Unnamed() const;   // FLAGGED: only api.h and api.cc name it
  int Internal() const;  // reached through Run's body in api.cc
  // ring-lint: ok(test-only-api) a debugger hook for Run
  int Hook() const;

 private:
  Options options_;
};

int TestOnlyFree();  // FLAGGED

}  // namespace fixture

#endif  // FIXTURE_API_H_
