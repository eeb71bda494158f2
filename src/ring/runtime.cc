#include "src/ring/runtime.h"

#include <cassert>

namespace ring {
namespace {

// Under a fault plan, lost backup messages must not strand quorum rounds:
// turn on coordinator retransmission unless the caller picked a period.
// Fault-free deployments keep it off so their schedules stay byte-identical.
RingOptions WithChaosDefaults(RingOptions o) {
  if (!o.fault_plan.empty() && o.params.write_retransmit_ns == 0) {
    o.params.write_retransmit_ns = o.params.client_retry_timeout_ns / 2;
  }
  return o;
}

}  // namespace

RingRuntime::RingRuntime(const RingOptions& options)
    : options_(WithChaosDefaults(options)),
      simulator_(options_.seed, options_.params),
      fabric_(&simulator_, options.s + options.d + options.spares +
                               options.clients),
      membership_(&fabric_, options.s, options.d,
                  options.s + options.d + options.spares, options.groups),
      registry_(options.s, options.d, options.stripe_unit, options.groups) {
  if (options.analyze_races) {
    simulator_.EnableRaceDetection();
  }
  for (net::NodeId id = 0; id < num_server_nodes(); ++id) {
    servers_.push_back(std::make_unique<RingServer>(this, id));
  }
  clients_.assign(options.clients, nullptr);
  membership_.SetOnConfig(
      [this](net::NodeId node, const consensus::ClusterConfig& config) {
        if (auto* srv = server(node)) {
          srv->OnConfig(config);
        }
      });
  if (!options.fault_plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        &simulator_, fabric_.num_nodes(), options.fault_plan,
        options.seed ^ options.fault_seed);
    fault::FaultInjector::Hooks hooks;
    hooks.crash = [this](uint32_t node) { fabric_.Kill(node); };
    hooks.recover = [this](uint32_t node) { RestartNode(node); };
    hooks.resumed = [this](uint32_t node) { membership_.NoteResumed(node); };
    // §16: a chaos `revoke` is a suspicion report — possibly false — fed
    // straight into revoke-then-promote.
    hooks.revoke = [this](uint32_t node) { membership_.ReportSuspect(node); };
    injector_->set_hooks(std::move(hooks));
    injector_->set_crash_guard([this](uint32_t node) {
      // Fail-stopping a node that holds a slot in either live shape is only
      // survivable when a spare can absorb the promotion; otherwise the
      // injector downgrades the crash to a pause.
      const consensus::ClusterConfig& cfg =
          membership_.ConfigView(membership_.CurrentLeader());
      if (node >= cfg.num_nodes()) {
        return true;  // clients and non-members may die freely
      }
      const bool holds_slot =
          cfg.slot_of_node[node] >= 0 ||
          (cfg.rebalancing() &&
           cfg.Previous().SlotOfNode(node) != consensus::kSpareSlot);
      return !holds_slot || cfg.FindSpare() >= 0;
    });
    fabric_.set_injector(injector_.get());
    injector_->Arm();
  }
  membership_.Start();
}

void RingRuntime::AttachClient(net::NodeId id, RingClient* client) {
  assert(id >= num_server_nodes() &&
         id - num_server_nodes() < clients_.size());
  RingClient*& slot = clients_[id - num_server_nodes()];
  assert((client == nullptr || slot == nullptr) &&
         "one RingClient per client node");
  slot = client;
}

void RingRuntime::RestartNode(net::NodeId node) {
  fabric_.Revive(node);
  if (auto* srv = server(node)) {
    srv->Restart();
  }
  if (node < membership_.num_members()) {
    membership_.Rejoin(node);
  }
}

}  // namespace ring
