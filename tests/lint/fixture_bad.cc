// Seeded-violation fixture for lint_test: every text rule must fire on this
// file (scanned with force_all_rules). Never compiled into any target.
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

inline unsigned long long BadWallclock() {
  auto t = std::chrono::steady_clock::now();  // wallclock
  (void)t;
  return static_cast<unsigned long long>(time(nullptr));  // wallclock
}

inline int BadRand() {
  std::random_device rd;  // rand
  (void)rd;
  return rand();  // rand
}

inline int BadUnorderedIter() {
  std::unordered_map<int, int> counts;
  int total = 0;
  for (const auto& [k, v] : counts) {  // unordered-iter
    total += v;
  }
  return total;
}

inline void BadRawSchedule(Sim* sim) {
  sim->Schedule(7);  // raw-schedule
}

inline void BadBoxedCallback(std::function<void()> fn) {  // boxed-callback
  fn();
}

inline void BadUseAfterMove(std::string s) {
  Consume(s.size(), std::move(s));  // use-after-move
}

inline void BadUncheckedStatus() {
  MightFail();  // unchecked-status
}

inline void BadServerAdmission(Worker& worker) {
  worker.cpu().Execute(100, [] {});  // server-admission
}

}  // namespace fixture
