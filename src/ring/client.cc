#include "src/ring/client.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/common/hash.h"

namespace ring {
namespace {
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kAdminBytes = 192;

// How an op shows up in its trace span and metrics.
struct OpLabel {
  const char* name;
  obs::OpKind kind;
  MemgestId memgest;
};
OpLabel LabelOf(const PutRequest& r) {
  return {"put", obs::OpKind::kPut, r.memgest};
}
OpLabel LabelOf(const GetRequest&) {
  return {"get", obs::OpKind::kGet, obs::kNoMemgest};
}
OpLabel LabelOf(const MoveRequest& r) {
  return {"move", obs::OpKind::kMove, r.dst};
}
OpLabel LabelOf(const DeleteRequest&) {
  return {"delete", obs::OpKind::kDelete, obs::kNoMemgest};
}
OpLabel LabelOf(const AdminRequest&) {
  return {"admin", obs::OpKind::kAdmin, obs::kNoMemgest};
}

// The status an op completes with once its retry budget runs out.
template <typename Req>
Status GiveUpStatus(const Req& r) {
  return UnavailableError(std::string(LabelOf(r).name) +
                          " retry budget exhausted");
}
Status GiveUpStatus(const AdminRequest& r) {
  switch (r.op) {
    case AdminRequest::Op::kCreateMemgest:
      return TimeoutError("createMemgest timed out");
    case AdminRequest::Op::kDeleteMemgest:
      return TimeoutError("deleteMemgest timed out");
    case AdminRequest::Op::kSetDefaultMemgest:
      return TimeoutError("setDefaultMemgest timed out");
    case AdminRequest::Op::kGetMemgestDescriptor:
      return TimeoutError("getMemgestDescriptor timed out");
  }
  return InternalError("unknown admin op");
}

// Did this reply carry a success? Feeds the windowed SLIs.
bool Succeeded(const WriteReply& r) { return r.status.ok(); }
bool Succeeded(const GetResult& r) { return r.status.ok(); }
template <typename T>
bool Succeeded(const Result<T>& r) {
  return r.ok();
}

// Runs an op's callback with its reply. Only the pairs below can meet:
// req_ids are unique per client, so a reply reaches the op that sent it.
void Deliver(RingClient::PutCallback& cb, WriteReply r) {
  cb(std::move(r.status), r.version);
}
void Deliver(RingClient::StatusCallback& cb, WriteReply r) {
  cb(std::move(r.status));
}
void Deliver(RingClient::GetCallback& cb, GetResult r) { cb(std::move(r)); }
void Deliver(RingClient::AdminCallback& cb, Result<MemgestId> r) {
  cb(std::move(r));
}
void Deliver(RingClient::DescriptorCallback& cb,
             Result<MemgestDescriptor> r) {
  cb(std::move(r));
}
}  // namespace

RingClient::RingClient(RingRuntime* runtime, uint32_t index)
    : rt_(runtime),
      node_(runtime->client_node(index)),
      config_(runtime->membership().ConfigView(0)),
      rng_(runtime->options().seed * 0x9e3779b97f4a7c15ULL + node_) {
  rt_->AttachClient(node_, this);
}

RingClient::~RingClient() { rt_->AttachClient(node_, nullptr); }

net::NodeId RingClient::CoordinatorFor(const HashedKey& key) const {
  const consensus::Placement placement = config_.Current();
  return placement.CoordinatorOfShard(key.Shard(placement.num_shards()));
}

void RingClient::RefreshConfig() {
  config_ = rt_->membership().ConfigView(rt_->leader_node());
}

void RingClient::OnReply(uint64_t req_id, WriteReply reply) {
  Complete(req_id, std::move(reply));
}

void RingClient::OnReply(uint64_t req_id, GetResult result) {
  Complete(req_id, std::move(result));
}

void RingClient::OnReply(uint64_t req_id, Result<MemgestId> result) {
  Complete(req_id, std::move(result));
}

void RingClient::OnReply(uint64_t req_id, Result<MemgestDescriptor> result) {
  Complete(req_id, std::move(result));
}

template <typename Reply>
void RingClient::Complete(uint64_t req_id, Reply reply) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) {
    return;  // duplicate reply (multicast raced with the original)
  }
  Outstanding op = std::move(it->second);
  outstanding_.erase(it);
  if (!first_checks_.empty() && first_checks_.front().req_id == req_id) {
    DropFinishedChecks();
  }
  ++completed_;
  const sim::SimTime end = rt_->simulator().now();
  latencies_.Add(static_cast<double>(end - op.start) / 1000.0);
  const OpLabel label =
      std::visit([](const auto& r) { return LabelOf(r); }, op.req);
  obs::Hub& hub = rt_->simulator().hub();
  hub.tracer().Record(label.name, obs::Category::kOp, node_, OpId(req_id),
                      op.start, end);
  hub.metrics().Inc("client.ops", 1, node_, label.memgest, label.kind);
  hub.metrics().Observe("client.op_latency_ns", end - op.start, node_,
                        label.memgest, label.kind);
  // Ok/error split feeds the windowed SLIs (goodput and error rate).
  const bool ok = Succeeded(reply);
  hub.metrics().Inc(ok ? obs::kSliOpsOk : obs::kSliOpErrors, 1, node_,
                    label.memgest, label.kind);
  if (!ok) {
    hub.recorder().Record(obs::RecKind::kClient, "op_failed", node_,
                          OpId(req_id), label.memgest);
  }
  // The reply arrived under this op; the callback is the application's, and
  // whatever it issues next is not part of this op.
  obs::ScopedOp outside_op(hub, 0);
  std::visit(
      [&reply](auto& cb) {
        if constexpr (requires { Deliver(cb, std::move(reply)); }) {
          Deliver(cb, std::move(reply));
        } else {
          assert(false && "reply shape does not match the op");
        }
      },
      op.cb);
}

void RingClient::CompleteWithStatus(uint64_t req_id, Status status) {
  const Callback& cb = outstanding_.at(req_id).cb;
  if (std::holds_alternative<GetCallback>(cb)) {
    Complete(req_id, GetResult{std::move(status), 0, nullptr});
  } else if (std::holds_alternative<AdminCallback>(cb)) {
    Complete(req_id, Result<MemgestId>(std::move(status)));
  } else if (std::holds_alternative<DescriptorCallback>(cb)) {
    Complete(req_id, Result<MemgestDescriptor>(std::move(status)));
  } else {
    Complete(req_id, WriteReply{std::move(status)});
  }
}

void RingClient::Submit(uint64_t cost_ns, Request req, Callback cb) {
  cpu().Execute(cost_ns, [this, req = std::move(req),
                          cb = std::move(cb)]() mutable {
    Launch(std::move(req), std::move(cb));
  });
}

void RingClient::Launch(Request req, Callback cb) {
  const auto& p = rt_->simulator().params();
  const sim::SimTime now = rt_->simulator().now();
  const uint64_t req_id =
      std::visit([](const auto& r) { return r.req_id; }, req);
  Outstanding& o =
      outstanding_
          .emplace(req_id, Outstanding{std::move(req), std::move(cb), now})
          .first->second;
  if (p.client_retry_budget_ns > 0) {
    o.deadline = now + p.client_retry_budget_ns;
  }
  Post(o.req, /*broadcast=*/false);
  FileCheck(now + p.client_retry_timeout_ns, req_id, /*rearm=*/false);
}

template <auto Handle, typename Req>
void RingClient::PostKeyed(Req req, uint64_t bytes, bool broadcast) {
  obs::ScopedOp scope(rt_->simulator().hub(), OpId(req.req_id));
  if (!broadcast) {
    RingServer* peer = rt_->server(CoordinatorFor(req.key));
    rt_->fabric().Send(node_, peer->id(), bytes,
                       [peer, req = std::move(req)]() mutable {
                         (peer->*Handle)(std::move(req));
                       });
    return;
  }
  for (net::NodeId n = 0; n < rt_->membership().num_members(); ++n) {
    if (config_.failed[n] || !rt_->fabric().alive(n)) {
      continue;
    }
    RingServer* peer = rt_->server(n);
    rt_->fabric().Send(node_, n, bytes, [peer, req]() mutable {
      (peer->*Handle)(std::move(req));
    });
  }
}

void RingClient::Post(const Request& req, bool broadcast) {
  if (const auto* r = std::get_if<PutRequest>(&req)) {
    const uint64_t len = r->value ? r->value->size() : 0;
    PostKeyed<&RingServer::HandlePut>(
        *r, kHeaderBytes + r->key.str().size() + len, broadcast);
  } else if (const auto* r = std::get_if<GetRequest>(&req)) {
    PostKeyed<&RingServer::HandleGet>(
        *r, kHeaderBytes + r->key.str().size(), broadcast);
  } else if (const auto* r = std::get_if<MoveRequest>(&req)) {
    PostKeyed<&RingServer::HandleMove>(
        *r, kHeaderBytes + r->key.str().size(), broadcast);
  } else if (const auto* r = std::get_if<DeleteRequest>(&req)) {
    PostKeyed<&RingServer::HandleDelete>(
        *r, kHeaderBytes + r->key.str().size(), broadcast);
  } else {
    // Memgest management always goes to the leader, retries included.
    RefreshConfig();
    RingServer* peer = rt_->server(config_.leader);
    rt_->fabric().Send(node_, config_.leader, kAdminBytes,
                       [peer, r = std::get<AdminRequest>(req)]() mutable {
                         peer->HandleAdmin(std::move(r));
                       });
  }
}

uint64_t RingClient::NextRetryWait(Outstanding* o) {
  const auto& p = rt_->simulator().params();
  const uint64_t base = p.client_retry_timeout_ns;
  if (o->prev_wait == 0) {
    // First re-arm stays flat: a single clean retry keeps the same timing
    // as the pre-backoff client (and the fault-free benchmarks).
    o->prev_wait = base;
    return base;
  }
  // Decorrelated jitter: uniform in [base, 3 * prev), clipped to the cap.
  const uint64_t span =
      o->prev_wait * 3 > base ? o->prev_wait * 3 - base : 1;
  uint64_t wait = base + rng_.NextBelow(span);
  if (wait > p.client_backoff_cap_ns) {
    wait = p.client_backoff_cap_ns;
  }
  o->prev_wait = wait;
  return wait;
}

void RingClient::CheckTimeout(uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) {
    return;
  }
  if (!rt_->fabric().alive(node_)) {
    return;  // a dead client drops the check; nothing re-arms it
  }
  Outstanding& o = it->second;
  const auto& p = rt_->simulator().params();
  const sim::SimTime now = rt_->simulator().now();
  if (++o.retries > p.client_max_retries ||
      (o.deadline != 0 && now >= o.deadline)) {
    // Budget exhausted: surface unavailability instead of retrying forever.
    ++timeouts_;
    rt_->simulator().hub().metrics().Inc("client.unavailable", 1, node_);
    rt_->simulator().hub().recorder().Record(obs::RecKind::kClient,
                                             "retry_budget_exhausted", node_,
                                             OpId(req_id), o.retries);
    Status status =
        std::visit([](const auto& r) { return GiveUpStatus(r); }, o.req);
    CompleteWithStatus(req_id, std::move(status));
    return;
  }
  // Re-learn the configuration and multicast: only the responsible node
  // will answer (§5.5).
  rt_->simulator().hub().recorder().Record(obs::RecKind::kClient,
                                           "client_retry", node_,
                                           OpId(req_id), o.retries);
  RefreshConfig();
  // The retry timer runs at op 0; the re-post is the op's own CPU work.
  obs::ScopedOp scope(rt_->simulator().hub(), OpId(req_id));
  cpu().Execute(p.client_base_ns +
                    rt_->membership().num_members() * p.client_post_ns,
                [this, req = o.req] { Post(req, /*broadcast=*/true); });
  FileCheck(now + NextRetryWait(&o), req_id, /*rearm=*/true);
}

void RingClient::FileCheck(sim::SimTime time, uint64_t req_id, bool rearm) {
  const Check check{{time, rt_->simulator().ReserveSeq()}, req_id};
  if (!rearm &&
      (first_checks_.empty() || first_checks_.back().at < check.at)) {
    first_checks_.push_back(check);
  } else {
    rearm_checks_.push_back(check);
    std::push_heap(rearm_checks_.begin(), rearm_checks_.end(), Later);
  }
  for (const Slot& pending : timer_events_) {
    if (pending <= check.at) {
      return;  // that event fires first and re-arms the timer
    }
  }
  ArmTimer();
}

void RingClient::DropFinishedChecks() {
  while (!first_checks_.empty() &&
         !outstanding_.contains(first_checks_.front().req_id)) {
    first_checks_.pop_front();
  }
  while (!rearm_checks_.empty() &&
         !outstanding_.contains(rearm_checks_.front().req_id)) {
    std::pop_heap(rearm_checks_.begin(), rearm_checks_.end(), Later);
    rearm_checks_.pop_back();
  }
}

const RingClient::Check* RingClient::EarliestCheck() {
  DropFinishedChecks();
  if (first_checks_.empty()) {
    return rearm_checks_.empty() ? nullptr : &rearm_checks_.front();
  }
  if (rearm_checks_.empty() ||
      first_checks_.front().at < rearm_checks_.front().at) {
    return &first_checks_.front();
  }
  return &rearm_checks_.front();
}

void RingClient::ArmTimer() {
  const Check* next = EarliestCheck();
  if (next == nullptr) {
    return;
  }
  const Slot at = next->at;
  for (const Slot& pending : timer_events_) {
    if (pending <= at) {
      return;
    }
  }
  timer_events_.push_back(at);
  rt_->simulator().AtReserved(at.first, at.second,
                              [this, at] { OnTimer(at); });
}

void RingClient::OnTimer(Slot at) {
  std::erase(timer_events_, at);
  // The check this event was armed for may belong to an op that finished
  // since; then the event does nothing but re-arm.
  const Check* next = EarliestCheck();
  assert((next == nullptr || !(next->at < at)) && "a retry check was missed");
  if (next != nullptr && next->at == at) {
    const uint64_t req_id = next->req_id;
    if (!first_checks_.empty() && next == &first_checks_.front()) {
      first_checks_.pop_front();
    } else {
      std::pop_heap(rearm_checks_.begin(), rearm_checks_.end(), Later);
      rearm_checks_.pop_back();
    }
    CheckTimeout(req_id);
  }
  ArmTimer();
}

void RingClient::Put(const Key& key, std::shared_ptr<Buffer> value,
                     MemgestId memgest, PutCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint32_t len = value ? static_cast<uint32_t>(value->size()) : 0;
  PutRequest r;
  r.key = HashedKey(key);
  r.value = std::move(value);
  r.memgest = memgest;
  r.client = node_;
  r.req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kPut, memgest, len);
  Submit(p.client_base_ns + p.client_post_ns +
            static_cast<uint64_t>(p.client_put_byte_ns * len),
        std::move(r), std::move(cb));
}

void RingClient::Get(const Key& key, ReadMode mode, GetCallback cb) {
  const auto& p = rt_->simulator().params();
  GetRequest r;
  r.key = HashedKey(key);
  r.mode = mode;
  r.client = node_;
  r.req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kGet, kDefaultMemgest, 0);
  Submit(p.client_base_ns + p.client_post_ns, std::move(r), std::move(cb));
}

void RingClient::Move(const Key& key, MemgestId dst, PutCallback cb) {
  const auto& p = rt_->simulator().params();
  MoveRequest r;
  r.key = HashedKey(key);
  r.dst = dst;
  r.client = node_;
  r.req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kMove, dst, 0);
  Submit(p.client_base_ns + p.client_post_ns, std::move(r), std::move(cb));
}

void RingClient::Delete(const Key& key, StatusCallback cb) {
  const auto& p = rt_->simulator().params();
  DeleteRequest r;
  r.key = HashedKey(key);
  r.client = node_;
  r.req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kDelete, kDefaultMemgest, 0);
  Submit(p.client_base_ns + p.client_post_ns, std::move(r), std::move(cb));
}

void RingClient::CreateMemgest(const MemgestDescriptor& desc,
                               AdminCallback cb) {
  AdminRequest r;
  r.op = AdminRequest::Op::kCreateMemgest;
  r.desc = desc;
  SubmitAdmin(std::move(r), std::move(cb));
}

void RingClient::DeleteMemgest(MemgestId id, AdminCallback cb) {
  AdminRequest r;
  r.op = AdminRequest::Op::kDeleteMemgest;
  r.id = id;
  SubmitAdmin(std::move(r), std::move(cb));
}

void RingClient::SetDefaultMemgest(MemgestId id, AdminCallback cb) {
  AdminRequest r;
  r.op = AdminRequest::Op::kSetDefaultMemgest;
  r.id = id;
  SubmitAdmin(std::move(r), std::move(cb));
}

void RingClient::GetMemgestDescriptor(MemgestId id, DescriptorCallback cb) {
  AdminRequest r;
  r.op = AdminRequest::Op::kGetMemgestDescriptor;
  r.id = id;
  SubmitAdmin(std::move(r), std::move(cb));
}

void RingClient::SubmitAdmin(AdminRequest req, Callback cb) {
  const auto& p = rt_->simulator().params();
  req.client = node_;
  req.req_id = next_req_++;
  Submit(p.client_base_ns + p.client_post_ns, std::move(req), std::move(cb));
}

}  // namespace ring
