// Path-scoped fixture for lint_test: scanned as src/ring/client.h, where
// boxed-callback applies. The public callback type carries the reviewed
// waiver; the per-op closure member does not and must fire. Never compiled
// into any target.
#include <functional>

namespace fixture {

class Client {
 public:
  // ring-lint: ok(boxed-callback) public callback type
  using PutCallback = std::function<void(int status, long version)>;

 private:
  struct Outstanding {
    PutCallback cb;
    std::function<void(bool broadcast)> send;  // boxed-callback
  };
};

}  // namespace fixture
