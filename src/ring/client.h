// RingClient: the client-side library (paper §5 API).
//
// Clients map keys to coordinators with `h(key) mod s` and talk to them
// directly over the fabric. When a request times out (coordinator failure),
// the client re-sends it to every KVS node — the paper's multicast — and
// only the responsible node answers (§5.5).
//
// The in-flight table is the only owner of an op's state: the request every
// (re)send posts, the user callback, and the retry state. Servers answer by
// value to (client node, req_id), and one simulator event per client serves
// the retry checks of all its ops (DESIGN.md §11.2).
#ifndef RING_SRC_RING_CLIENT_H_
#define RING_SRC_RING_CLIENT_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/ring/runtime.h"
#include "src/ring/server.h"

namespace ring {

class RingClient {
 public:
  // `index` selects one of the runtime's client endpoints; the client
  // attaches itself there, so servers reach it by node id.
  RingClient(RingRuntime* runtime, uint32_t index);
  ~RingClient();
  RingClient(const RingClient&) = delete;
  RingClient& operator=(const RingClient&) = delete;

  net::NodeId node() const { return node_; }

  // The public callback types. An op's callback lives in its in-flight
  // entry and nowhere else.
  // ring-lint: ok(boxed-callback) public callback type
  using PutCallback = std::function<void(Status, Version)>;
  // ring-lint: ok(boxed-callback) public callback type
  using GetCallback = std::function<void(GetResult)>;
  // ring-lint: ok(boxed-callback) public callback type
  using StatusCallback = std::function<void(Status)>;
  // ring-lint: ok(boxed-callback) public callback type
  using AdminCallback = std::function<void(Result<MemgestId>)>;
  // ring-lint: ok(boxed-callback) public callback type
  using DescriptorCallback = std::function<void(Result<MemgestDescriptor>)>;

  // Control-plane tap on the op issue path: (key, op, memgest, value bytes).
  // `memgest` is the put/move target (kDefaultMemgest when not applicable)
  // and `bytes` the value size (0 when unknown). Observers run at issue time
  // in zero simulated time and must not call back into the client.
  using AccessObserver =  // ring-lint: ok(boxed-callback) public callback type
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
  void GetMemgestDescriptor(MemgestId id, DescriptorCallback cb);

  // Server replies (RingServer::ReplyToClient), one shape per op kind: a
  // WriteReply answers a put, move or delete. Each completes op `req_id`
  // unless it has already finished, which drops a duplicate reply.
  void OnReply(uint64_t req_id, WriteReply reply);
  void OnReply(uint64_t req_id, GetResult result);
  void OnReply(uint64_t req_id, Result<MemgestId> result);
  void OnReply(uint64_t req_id, Result<MemgestDescriptor> result);

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
  using Request = std::variant<PutRequest, GetRequest, MoveRequest,
                               DeleteRequest, AdminRequest>;
  using Callback = std::variant<PutCallback, GetCallback, StatusCallback,
                                AdminCallback, DescriptorCallback>;

  // One in-flight op, from launch until its reply or its give-up.
  struct Outstanding {
    Request req;  // what the first send and every retry post
    Callback cb;
    sim::SimTime start = 0;
    uint32_t retries = 0;
    // Absolute give-up time (0: bounded by the retry count only).
    sim::SimTime deadline = 0;
    // Previous backoff wait; seeds the decorrelated-jitter draw.
    uint64_t prev_wait = 0;
  };

  // A place in the event queue's total order: (time, seq).
  using Slot = std::pair<sim::SimTime, uint64_t>;
  // An op's next retry check. Its seq is reserved when the check is filed,
  // so it runs where an event scheduled at that moment would run.
  struct Check {
    Slot at;
    uint64_t req_id = 0;
  };
  // Min-heap order on `at` (std::push_heap builds max-heaps).
  static bool Later(const Check& a, const Check& b) { return a.at > b.at; }

  sim::CpuWorker& cpu() { return rt_->fabric().cpu(node_); }
  net::NodeId CoordinatorFor(const HashedKey& key) const;
  void RefreshConfig();
  // Charges the client's issue cost, then launches the op.
  void Submit(uint64_t cost_ns, Request req, Callback cb);
  // Submits a memgest management request under the next req_id.
  void SubmitAdmin(AdminRequest req, Callback cb);
  // Registers the op, sends it, and files its first retry check.
  void Launch(Request req, Callback cb);
  // Sends `req` to its coordinator, or with `broadcast` to every live
  // member; admin requests always go to the current leader.
  void Post(const Request& req, bool broadcast);
  template <auto Handle, typename Req>
  void PostKeyed(Req req, uint64_t bytes, bool broadcast);
  void CheckTimeout(uint64_t req_id);
  // Next retry wait: flat once, then decorrelated jitter up to the cap.
  uint64_t NextRetryWait(Outstanding* o);
  // Finishes op `req_id` with `reply` (see OnReply): records latency,
  // metrics and the op's trace span, then runs its callback.
  template <typename Reply>
  void Complete(uint64_t req_id, Reply reply);
  // Completes op `req_id` with `status`, in the reply shape it expects.
  void CompleteWithStatus(uint64_t req_id, Status status);

  // ---- retry checks: one pending simulator event per client ----
  // Files op `req_id`'s next check at `time`, reserving its seq now.
  // First checks (launch + one constant timeout) arrive in order and queue
  // in launch order; backoff re-arms go to a heap.
  void FileCheck(sim::SimTime time, uint64_t req_id, bool rearm);
  // Pops the checks of finished ops off both fronts: they drop out here,
  // with no cancel.
  void DropFinishedChecks();
  // The earliest check of a live op, or null.
  const Check* EarliestCheck();
  // Schedules the timer event at the earliest check unless a pending timer
  // event comes no later (that one re-arms when it fires).
  void ArmTimer();
  void OnTimer(Slot at);

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
  std::deque<Check> first_checks_;  // launch order, so (time, seq) order
  std::vector<Check> rearm_checks_;  // heap on Later
  // The slot of every timer event in the queue: at most one, or briefly
  // more after a re-arm lands ahead of the pending event. An event that
  // finds no live check at its slot does nothing.
  std::vector<Slot> timer_events_;
  uint64_t completed_ = 0;
  uint64_t timeouts_ = 0;
  // Private backoff-jitter stream: client retry spacing must not perturb
  // (or be perturbed by) the simulator's global rng.
  Rng rng_;
  Samples latencies_;
};

}  // namespace ring

#endif  // RING_SRC_RING_CLIENT_H_
