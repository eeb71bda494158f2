// RingCluster: the top-level convenience facade — one simulated deployment
// plus synchronous wrappers that drive the simulator until an operation
// completes. This is the entry point examples and tests use.
#ifndef RING_SRC_RING_CLUSTER_H_
#define RING_SRC_RING_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ring/client.h"
#include "src/ring/runtime.h"

namespace ring {

class RingCluster {
 public:
  explicit RingCluster(RingOptions options = {});

  RingRuntime& runtime() { return *runtime_; }
  sim::Simulator& simulator() { return runtime_->simulator(); }
  RingClient& client(uint32_t i = 0) { return *clients_[i]; }
  RingServer& server(net::NodeId id) { return *runtime_->server(id); }
  uint32_t s() const { return runtime_->options().s; }

  // ---- synchronous wrappers (drive the simulation until completion) ----
  Result<MemgestId> CreateMemgest(const MemgestDescriptor& desc);
  // ring-lint: ok(test-only-api) drives RingClient::SetDefaultMemgest
  Status SetDefaultMemgest(MemgestId id);
  // ring-lint: ok(test-only-api) drives RingClient::DeleteMemgest
  Status DeleteMemgest(MemgestId id);
  // ring-lint: ok(test-only-api) drives RingClient::GetMemgestDescriptor
  Result<MemgestDescriptor> GetMemgestDescriptor(MemgestId id);

  Status Put(const Key& key, const Buffer& value,
             MemgestId memgest = kDefaultMemgest, uint32_t client = 0);
  Status Put(const Key& key, const std::string& value,
             MemgestId memgest = kDefaultMemgest, uint32_t client = 0) {
    return Put(key, ToBuffer(value), memgest, client);
  }
  Result<Buffer> Get(const Key& key, uint32_t client = 0);
  Status Move(const Key& key, MemgestId dst, uint32_t client = 0);
  Status Delete(const Key& key, uint32_t client = 0);

  // Advances simulated time.
  void RunFor(sim::SimTime duration);

  // Fail-stop a node; detection via heartbeats (`force_detect` skips the
  // timeout, as the paper's recovery measurements do).
  void KillNode(net::NodeId node, bool force_detect = false);

  // Crash-recovery: brings a killed node back memory-less; it petitions the
  // cluster for readmission and rebuilds via the spare/recovery path.
  void RestartNode(net::NodeId node) { runtime_->RestartNode(node); }

  // RingServer::CheckKeyDirectory over every live server node: "" when the
  // audit holds everywhere, else the first failure.
  std::string CheckKeyDirectories();

  // Runs the simulation until `done` returns true (or the event budget is
  // exhausted). Returns true on success.
  bool RunUntilDone(const std::function<bool()>& done,
                    uint64_t max_events = 200'000'000);

 private:
  std::unique_ptr<RingRuntime> runtime_;
  std::vector<std::unique_ptr<RingClient>> clients_;
};

}  // namespace ring

#endif  // RING_SRC_RING_CLUSTER_H_
