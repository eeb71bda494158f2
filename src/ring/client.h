// RingClient: the client-side library (paper §5 API).
//
// Clients map keys to coordinators with `h(key) mod s` and talk to them
// directly over the fabric. When a request times out (coordinator failure),
// the client re-sends it to every KVS node — the paper's multicast — and
// only the responsible node answers (§5.5).
#ifndef RING_SRC_RING_CLIENT_H_
#define RING_SRC_RING_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/ring/runtime.h"
#include "src/ring/server.h"

namespace ring {

class RingClient {
 public:
  // `index` selects one of the runtime's client endpoints.
  RingClient(RingRuntime* runtime, uint32_t index);

  net::NodeId node() const { return node_; }

  using PutCallback = std::function<void(Status, Version)>;
  using GetCallback = std::function<void(GetResult)>;
  using StatusCallback = std::function<void(Status)>;
  using AdminCallback = std::function<void(Result<MemgestId>)>;

  // Control-plane tap on the op issue path: (key, op, memgest, value bytes).
  // `memgest` is the put/move target (kDefaultMemgest when not applicable)
  // and `bytes` the value size (0 when unknown). Observers run at issue time
  // in zero simulated time and must not call back into the client.
  using AccessObserver =
      std::function<void(const Key&, obs::OpKind, MemgestId, uint64_t)>;
  void set_access_observer(AccessObserver observer) {
    access_observer_ = std::move(observer);
  }

  // put(key, object[, memgestID]) — paper §5.
  void Put(const Key& key, std::shared_ptr<Buffer> value,
           MemgestId memgest, PutCallback cb);
  void Put(const Key& key, std::shared_ptr<Buffer> value, PutCallback cb) {
    Put(key, std::move(value), kDefaultMemgest, std::move(cb));
  }
  void Get(const Key& key, GetCallback cb) {
    Get(key, ReadMode::kStrong, std::move(cb));
  }
  // §16: kNonBlocking gets serve the newest committed version instead of
  // waiting out a concurrent commit or an in-flight reconfiguration.
  void Get(const Key& key, ReadMode mode, GetCallback cb);
  void Move(const Key& key, MemgestId dst, PutCallback cb);
  void Delete(const Key& key, StatusCallback cb);

  // Storage scheme management (leader-processed).
  void CreateMemgest(const MemgestDescriptor& desc, AdminCallback cb);
  void DeleteMemgest(MemgestId id, AdminCallback cb);
  void SetDefaultMemgest(MemgestId id, AdminCallback cb);
  void GetMemgestDescriptor(
      MemgestId id, std::function<void(Result<MemgestDescriptor>)> cb);

  // ---- statistics ----
  uint64_t completed() const { return completed_; }
  uint64_t timeouts() const { return timeouts_; }
  // Requests in flight (issued, not yet answered).
  size_t outstanding() const { return outstanding_.size(); }
  // Re-reads the cluster configuration (normally done lazily on retry;
  // benches call it after a controlled failover so measurements exclude the
  // stale-routing discovery timeout).
  void RefreshConfigNow() { RefreshConfig(); }
  // Per-operation latencies in microseconds, measured NIC-to-NIC (request
  // posted -> reply delivered), matching the paper's measurement point.
  Samples& latencies() { return latencies_; }
  void ResetStats() {
    completed_ = 0;
    timeouts_ = 0;
    latencies_.Clear();
  }

 private:
  struct Outstanding {
    bool done = false;
    uint32_t retries = 0;
    // Absolute give-up time (0: bounded by the retry count only).
    sim::SimTime deadline = 0;
    // Previous backoff wait; seeds the decorrelated-jitter draw.
    uint64_t prev_wait = 0;
    std::function<void(bool broadcast)> send;
    std::function<void()> fail;
  };

  sim::CpuWorker& cpu() { return rt_->fabric().cpu(node_); }
  net::NodeId CoordinatorFor(const HashedKey& key) const;
  void RefreshConfig();
  // Registers the request, sends it, and arms the retry timer.
  void Launch(uint64_t req_id, std::function<void(bool)> send,
              std::function<void()> fail);
  void CheckTimeout(uint64_t req_id);
  // Next retry wait: flat once, then decorrelated jitter up to the cap.
  uint64_t NextRetryWait(Outstanding* o);
  // Wraps a user callback: completes the request, records latency, and
  // closes the operation's end-to-end trace span.
  template <typename Fn>
  auto Complete(uint64_t req_id, sim::SimTime start, const char* opname,
                obs::OpKind kind, MemgestId memgest, Fn cb);
  // Trace id for one of this client's requests.
  uint64_t OpId(uint64_t req_id) const {
    return obs::MakeOpId(node_, static_cast<uint32_t>(req_id));
  }

  void NotifyObserver(const Key& key, obs::OpKind op, MemgestId memgest,
                      uint64_t bytes) {
    if (access_observer_) {
      access_observer_(key, op, memgest, bytes);
    }
  }

  RingRuntime* rt_;
  net::NodeId node_;
  AccessObserver access_observer_;
  consensus::ClusterConfig config_;
  uint64_t next_req_ = 1;
  // Keyed find/emplace/erase only (never iterated): deterministic despite
  // the unordered layout, and O(1) on the per-request hot path.
  std::unordered_map<uint64_t, Outstanding> outstanding_;
  uint64_t completed_ = 0;
  uint64_t timeouts_ = 0;
  // Private backoff-jitter stream: client retry spacing must not perturb
  // (or be perturbed by) the simulator's global rng.
  Rng rng_;
  Samples latencies_;
};

}  // namespace ring

#endif  // RING_SRC_RING_CLIENT_H_
