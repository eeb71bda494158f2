#include "src/ring/client.h"

#include "src/common/hash.h"

namespace ring {
namespace {
constexpr uint64_t kHeaderBytes = 64;

// Did this completion carry a success? Overloads cover every callback shape
// routed through Complete (puts/moves, gets, deletes, admin ops).
bool CompletionOk() { return false; }
bool CompletionOk(const Status& status) { return status.ok(); }
bool CompletionOk(const Status& status, Version /*version*/) {
  return status.ok();
}
bool CompletionOk(const GetResult& result) { return result.status.ok(); }
template <typename T>
bool CompletionOk(const Result<T>& result) {
  return result.ok();
}
}  // namespace

RingClient::RingClient(RingRuntime* runtime, uint32_t index)
    : rt_(runtime),
      node_(runtime->client_node(index)),
      config_(runtime->membership().ConfigView(0)),
      rng_(runtime->options().seed * 0x9e3779b97f4a7c15ULL + node_) {}

net::NodeId RingClient::CoordinatorFor(const HashedKey& key) const {
  return config_.CoordinatorOfShard(key.Shard(config_.num_shards()));
}

void RingClient::RefreshConfig() {
  config_ = rt_->membership().ConfigView(rt_->leader_node());
}

template <typename Fn>
auto RingClient::Complete(uint64_t req_id, sim::SimTime start,
                          const char* opname, obs::OpKind kind,
                          MemgestId memgest, Fn cb) {
  return [this, req_id, start, opname, kind, memgest, cb](auto&&... args) {
    auto it = outstanding_.find(req_id);
    if (it == outstanding_.end() || it->second.done) {
      return;  // duplicate reply (multicast raced with the original)
    }
    outstanding_.erase(it);
    ++completed_;
    const sim::SimTime end = rt_->simulator().now();
    latencies_.Add(static_cast<double>(end - start) / 1000.0);
    obs::Hub& hub = rt_->simulator().hub();
    hub.tracer().Record(opname, obs::Category::kOp, node_, OpId(req_id),
                        start, end);
    hub.metrics().Inc("client.ops", 1, node_, memgest, kind);
    hub.metrics().Observe("client.op_latency_ns", end - start, node_, memgest,
                          kind);
    // Ok/error split feeds the windowed SLIs (goodput and error rate).
    const bool ok = CompletionOk(args...);
    hub.metrics().Inc(ok ? obs::kSliOpsOk : obs::kSliOpErrors, 1, node_,
                      memgest, kind);
    if (!ok) {
      hub.recorder().Record(obs::RecKind::kClient, "op_failed", node_,
                            OpId(req_id), memgest);
    }
    cb(std::forward<decltype(args)>(args)...);
  };
}

void RingClient::Launch(uint64_t req_id, std::function<void(bool)> send,
                        std::function<void()> fail) {
  const auto& p = rt_->simulator().params();
  Outstanding o;
  o.send = send;
  o.fail = std::move(fail);
  if (p.client_retry_budget_ns > 0) {
    o.deadline = rt_->simulator().now() + p.client_retry_budget_ns;
  }
  outstanding_.emplace(req_id, std::move(o));
  send(false);
  rt_->simulator().After(p.client_retry_timeout_ns,
                         [this, req_id] { CheckTimeout(req_id); });
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
  if (it == outstanding_.end() || it->second.done) {
    return;
  }
  if (!rt_->fabric().alive(node_)) {
    return;
  }
  const auto& p = rt_->simulator().params();
  const sim::SimTime now = rt_->simulator().now();
  if (++it->second.retries > p.client_max_retries ||
      (it->second.deadline != 0 && now >= it->second.deadline)) {
    // Budget exhausted: surface unavailability instead of retrying forever.
    ++timeouts_;
    rt_->simulator().hub().metrics().Inc("client.unavailable", 1, node_);
    rt_->simulator().hub().recorder().Record(obs::RecKind::kClient,
                                             "retry_budget_exhausted", node_,
                                             OpId(req_id),
                                             it->second.retries);
    auto fail = it->second.fail;
    fail();  // marks done + erases via the Complete wrapper
    return;
  }
  // Re-learn the configuration and multicast: only the responsible node
  // will answer (§5.5).
  rt_->simulator().hub().recorder().Record(obs::RecKind::kClient,
                                           "client_retry", node_,
                                           OpId(req_id), it->second.retries);
  RefreshConfig();
  auto send = it->second.send;
  cpu().Execute(p.client_base_ns +
                    rt_->membership().num_members() * p.client_post_ns,
                [send] { send(true); });
  rt_->simulator().After(NextRetryWait(&it->second),
                         [this, req_id] { CheckTimeout(req_id); });
}

void RingClient::Put(const Key& key, std::shared_ptr<Buffer> value,
                     MemgestId memgest, PutCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint32_t len = value ? static_cast<uint32_t>(value->size()) : 0;
  const uint64_t req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kPut, memgest, len);
  const uint64_t issue_cost =
      p.client_base_ns + p.client_post_ns +
      static_cast<uint64_t>(p.client_put_byte_ns * len);
  cpu().Execute(issue_cost, [this, key = HashedKey(key),
                             value = std::move(value), memgest,
                             cb = std::move(cb), req_id, len] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "put", obs::OpKind::kPut, memgest,
                          cb);
    const uint64_t bytes = kHeaderBytes + key.str().size() + len;
    auto send = [this, key, value, memgest, req_id, reply,
                 bytes](bool broadcast) {
      obs::ScopedOp scope(rt_->simulator().hub(), OpId(req_id));
      PutRequest r;
      r.key = key;
      r.value = value;
      r.memgest = memgest;
      r.client = node_;
      r.req_id = req_id;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.reply = reply;
      if (!broadcast) {
        auto* peer = rt_->server(CoordinatorFor(key));
        rt_->fabric().Send(node_, peer->id(), bytes,
                           [peer, r] { peer->HandlePut(r); });
        return;
      }
      for (net::NodeId n = 0; n < rt_->membership().num_members(); ++n) {
        if (config_.failed[n] || !rt_->fabric().alive(n)) {
          continue;
        }
        auto* peer = rt_->server(n);
        rt_->fabric().Send(node_, n, bytes,
                           [peer, r] { peer->HandlePut(r); });
      }
    };
    auto fail = [reply] {
      reply(UnavailableError("put retry budget exhausted"), 0);
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

void RingClient::Get(const Key& key, ReadMode mode, GetCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint64_t req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kGet, kDefaultMemgest, 0);
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, key = HashedKey(key), mode, cb = std::move(cb),
                 req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "get", obs::OpKind::kGet,
                          obs::kNoMemgest, cb);
    const uint64_t bytes = kHeaderBytes + key.str().size();
    auto send = [this, key, mode, req_id, reply, bytes](bool broadcast) {
      obs::ScopedOp scope(rt_->simulator().hub(), OpId(req_id));
      GetRequest r;
      r.key = key;
      r.client = node_;
      r.req_id = req_id;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.mode = mode;
      r.reply = reply;
      if (!broadcast) {
        auto* peer = rt_->server(CoordinatorFor(key));
        rt_->fabric().Send(node_, peer->id(), bytes,
                           [peer, r] { peer->HandleGet(r); });
        return;
      }
      for (net::NodeId n = 0; n < rt_->membership().num_members(); ++n) {
        if (config_.failed[n] || !rt_->fabric().alive(n)) {
          continue;
        }
        auto* peer = rt_->server(n);
        rt_->fabric().Send(node_, n, bytes,
                           [peer, r] { peer->HandleGet(r); });
      }
    };
    auto fail = [reply] {
      reply(GetResult{UnavailableError("get retry budget exhausted"), 0,
                      nullptr});
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

void RingClient::Move(const Key& key, MemgestId dst, PutCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint64_t req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kMove, dst, 0);
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, key = HashedKey(key), dst, cb = std::move(cb),
                 req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "move", obs::OpKind::kMove, dst, cb);
    const uint64_t bytes = kHeaderBytes + key.str().size();
    auto send = [this, key, dst, req_id, reply, bytes](bool broadcast) {
      obs::ScopedOp scope(rt_->simulator().hub(), OpId(req_id));
      MoveRequest r;
      r.key = key;
      r.dst = dst;
      r.client = node_;
      r.req_id = req_id;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.reply = reply;
      if (!broadcast) {
        auto* peer = rt_->server(CoordinatorFor(key));
        rt_->fabric().Send(node_, peer->id(), bytes,
                           [peer, r] { peer->HandleMove(r); });
        return;
      }
      for (net::NodeId n = 0; n < rt_->membership().num_members(); ++n) {
        if (config_.failed[n] || !rt_->fabric().alive(n)) {
          continue;
        }
        auto* peer = rt_->server(n);
        rt_->fabric().Send(node_, n, bytes,
                           [peer, r] { peer->HandleMove(r); });
      }
    };
    auto fail = [reply] {
      reply(UnavailableError("move retry budget exhausted"), 0);
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

void RingClient::Delete(const Key& key, StatusCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint64_t req_id = next_req_++;
  NotifyObserver(key, obs::OpKind::kDelete, kDefaultMemgest, 0);
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, key = HashedKey(key), cb = std::move(cb), req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "delete", obs::OpKind::kDelete,
                          obs::kNoMemgest, cb);
    const uint64_t bytes = kHeaderBytes + key.str().size();
    auto send = [this, key, req_id, reply, bytes](bool broadcast) {
      obs::ScopedOp scope(rt_->simulator().hub(), OpId(req_id));
      DeleteRequest r;
      r.key = key;
      r.client = node_;
      r.req_id = req_id;
      r.op_id = OpId(req_id);
      r.retry = broadcast;
      r.reply = reply;
      if (!broadcast) {
        auto* peer = rt_->server(CoordinatorFor(key));
        rt_->fabric().Send(node_, peer->id(), bytes,
                           [peer, r] { peer->HandleDelete(r); });
        return;
      }
      for (net::NodeId n = 0; n < rt_->membership().num_members(); ++n) {
        if (config_.failed[n] || !rt_->fabric().alive(n)) {
          continue;
        }
        auto* peer = rt_->server(n);
        rt_->fabric().Send(node_, n, bytes,
                           [peer, r] { peer->HandleDelete(r); });
      }
    };
    auto fail = [reply] {
      reply(UnavailableError("delete retry budget exhausted"));
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

void RingClient::CreateMemgest(const MemgestDescriptor& desc,
                               AdminCallback cb) {
  const auto& p = rt_->simulator().params();
  const uint64_t req_id = next_req_++;
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, desc, cb = std::move(cb), req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "admin", obs::OpKind::kAdmin,
                          obs::kNoMemgest, cb);
    auto send = [this, desc, req_id, reply](bool broadcast) {
      (void)broadcast;
      RefreshConfig();
      AdminRequest r;
      r.op = AdminRequest::Op::kCreateMemgest;
      r.desc = desc;
      r.client = node_;
      r.reply = reply;
      auto* peer = rt_->server(config_.leader);
      rt_->fabric().Send(node_, config_.leader, 192,
                         [peer, r] { peer->HandleAdmin(r); });
    };
    auto fail = [reply] {
      reply(Result<MemgestId>(TimeoutError("createMemgest timed out")));
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

void RingClient::DeleteMemgest(MemgestId id, AdminCallback cb) {
  const uint64_t req_id = next_req_++;
  const auto& p = rt_->simulator().params();
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, id, cb = std::move(cb), req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "admin", obs::OpKind::kAdmin,
                          obs::kNoMemgest, cb);
    auto send = [this, id, reply](bool) {
      RefreshConfig();
      AdminRequest r;
      r.op = AdminRequest::Op::kDeleteMemgest;
      r.id = id;
      r.client = node_;
      r.reply = reply;
      auto* peer = rt_->server(config_.leader);
      rt_->fabric().Send(node_, config_.leader, 192,
                         [peer, r] { peer->HandleAdmin(r); });
    };
    auto fail = [reply] {
      reply(Result<MemgestId>(TimeoutError("deleteMemgest timed out")));
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

void RingClient::SetDefaultMemgest(MemgestId id, AdminCallback cb) {
  const uint64_t req_id = next_req_++;
  const auto& p = rt_->simulator().params();
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, id, cb = std::move(cb), req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "admin", obs::OpKind::kAdmin,
                          obs::kNoMemgest, cb);
    auto send = [this, id, reply](bool) {
      RefreshConfig();
      AdminRequest r;
      r.op = AdminRequest::Op::kSetDefaultMemgest;
      r.id = id;
      r.client = node_;
      r.reply = reply;
      auto* peer = rt_->server(config_.leader);
      rt_->fabric().Send(node_, config_.leader, 192,
                         [peer, r] { peer->HandleAdmin(r); });
    };
    auto fail = [reply] {
      reply(Result<MemgestId>(TimeoutError("setDefaultMemgest timed out")));
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

}  // namespace ring

namespace ring {

void RingClient::GetMemgestDescriptor(
    MemgestId id, std::function<void(Result<MemgestDescriptor>)> cb) {
  const uint64_t req_id = next_req_++;
  const auto& p = rt_->simulator().params();
  cpu().Execute(p.client_base_ns + p.client_post_ns,
                [this, id, cb = std::move(cb), req_id] {
    const sim::SimTime start = rt_->simulator().now();
    auto reply = Complete(req_id, start, "admin", obs::OpKind::kAdmin,
                          obs::kNoMemgest, cb);
    auto send = [this, id, reply](bool) {
      RefreshConfig();
      AdminRequest r;
      r.op = AdminRequest::Op::kGetMemgestDescriptor;
      r.id = id;
      r.client = node_;
      r.descriptor_reply = reply;
      auto* peer = rt_->server(config_.leader);
      rt_->fabric().Send(node_, config_.leader, 192,
                         [peer, r] { peer->HandleAdmin(r); });
    };
    auto fail = [reply] {
      reply(Result<MemgestDescriptor>(
          TimeoutError("getMemgestDescriptor timed out")));
    };
    Launch(req_id, std::move(send), std::move(fail));
  });
}

}  // namespace ring
