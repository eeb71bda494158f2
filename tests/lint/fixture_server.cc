// Path-scoped fixture for lint_test: scanned as src/ring/server.cc, where
// server-admission applies. The admission point and the waiter loop carry
// the reviewed waivers; the handler's own op scope and direct CPU charge do
// not and must fire. Never compiled into any target.
namespace fixture {

class Server {
 public:
  template <typename Fn>
  void OnCpu(unsigned long cost_ns, Fn fn) {
    // ring-lint: ok(server-admission) the one CPU admission point
    cpu().Execute(cost_ns, fn);
  }

  void HandlePut(unsigned long op_id) {
    obs::ScopedOp scope(hub(), op_id);  // server-admission
    cpu().Execute(100, [] {});          // server-admission
  }

  void ReleaseWaiters(unsigned long op_id) {
    // ring-lint: ok(server-admission) a waiter runs under its own op
    obs::ScopedOp scope(hub(), op_id);
  }
};

}  // namespace fixture
