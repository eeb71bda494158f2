// Allowlist fixture for lint_test: the same hazards as fixture_bad.cc, each
// silenced with a reviewed `ring-lint: ok(<rule>)` comment. The lint must
// report nothing here even with force_all_rules.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>

namespace fixture {

struct Sim {
  void Schedule(int) {}
};

struct Status {
  bool ok() const { return true; }
};

inline Status MightFail() { return Status{}; }

struct Worker {
  struct Cpu {
    template <typename Fn>
    void Execute(int, Fn) {}
  };
  Cpu& cpu() { return cpu_; }
  Cpu cpu_;
};
inline void Consume(unsigned long, std::string) {}

inline unsigned long long OkWallclock() {
  auto t = std::chrono::steady_clock::now();  // ring-lint: ok(wallclock)
  (void)t;
  // ring-lint: ok(wallclock)
  return static_cast<unsigned long long>(time(nullptr));
}

inline int OkRand() {
  std::random_device rd;  // ring-lint: ok(rand)
  (void)rd;
  return rand();  // ring-lint: ok(rand)
}

inline int OkUnorderedIter() {
  std::unordered_map<int, int> counts;
  int total = 0;
  // ring-lint: ok(unordered-iter)
  for (const auto& [k, v] : counts) {
    total += v;
  }
  return total;
}

inline void OkRawSchedule(Sim* sim) {
  sim->Schedule(7);  // ring-lint: ok(raw-schedule)
}

// ring-lint: ok(boxed-callback)
inline void OkBoxedCallback(std::function<void()> fn) {
  fn();
}

inline void OkUseAfterMove(std::string s) {
  // ring-lint: ok(use-after-move)
  Consume(s.size(), std::move(s));
}

inline void OkUncheckedStatus() {
  MightFail();  // ring-lint: ok(unchecked-status)
}

inline void OkServerAdmission(Worker& worker) {
  worker.cpu().Execute(100, [] {});  // ring-lint: ok(server-admission)
}

}  // namespace fixture
