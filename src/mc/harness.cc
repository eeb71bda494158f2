#include "src/mc/harness.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/ring/cluster.h"

namespace ring::mc {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashMix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
}

// Deterministic put payload: recognizable pattern keyed by (key, nonce), so
// a corrupt read shows *whose* bytes leaked in.
Buffer EncodeValue(const Key& key, uint64_t nonce, size_t size) {
  Buffer out = MakePatternBuffer(size, HashKey(key) ^ nonce);
  const std::string tag = key + "#" + std::to_string(nonce) + ";";
  for (size_t i = 0; i < tag.size() && i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(tag[i]);
  }
  return out;
}

Result<MemgestDescriptor> ParseScheme(const std::string& scheme) {
  auto digits = [&](size_t at) -> uint32_t {
    return at < scheme.size() && scheme[at] >= '0' && scheme[at] <= '9'
               ? static_cast<uint32_t>(scheme[at] - '0')
               : 0;
  };
  if (scheme.rfind("rep", 0) == 0 && scheme.size() == 4) {
    return MemgestDescriptor::Replicated(digits(3), "mc");
  }
  if (scheme.rfind("fsync", 0) == 0 && scheme.size() == 6) {
    return MemgestDescriptor::FullSyncReplicated(digits(5), "mc");
  }
  if (scheme.rfind("srs", 0) == 0 && scheme.size() == 5) {
    return MemgestDescriptor::ErasureCoded(digits(3), digits(4), "mc");
  }
  return InvalidArgumentError("mc: unknown scheme '" + scheme + "'");
}

}  // namespace

struct TraceRunner::Impl : public sim::ScheduleController,
                           public net::DeliveryTagger {
  McConfig config;
  Options opts;
  std::map<uint32_t, McDecision> plan;  // step -> decision

  RingCluster* cluster = nullptr;
  std::vector<analysis::VectorClock> clocks;
  std::map<uint64_t, McTagMeta> tags;
  std::set<uint64_t> consumed;         // delivered or dropped tags
  uint64_t frontier_ns = 0;            // scheduler time at the latest choice
  std::map<uint64_t, uint32_t> sleep;  // tag -> dst
  uint64_t next_tag = 1;
  uint32_t step = 0;

  struct KeyTruth {
    std::map<Version, Buffer> acked;
    Version highest_read = 0;
    bool deleted = false;
  };
  std::map<Key, KeyTruth> truth;
  int outstanding = 0;

  TraceResult result;

  // ---- DeliveryTagger ----
  uint64_t OnDelivery(net::NodeId issuer, net::NodeId dst,
                      uint8_t kind) override {
    const uint64_t tag = next_tag++;
    McTagMeta meta;
    meta.issuer = issuer;
    meta.dst = dst;
    meta.kind = kind;
    if (issuer < clocks.size()) {
      meta.msg_clock = clocks[issuer];
    }
    tags.emplace(tag, std::move(meta));
    return tag;
  }

  // ---- ScheduleController ----
  Decision Choose(const std::vector<sim::DeliveryChoice>& raw) override {
    // RC-FIFO filter: a delivery is only schedulable when no earlier-posted
    // delivery of the same (issuer, dst) pair is also pending — reliable
    // connections never reorder one flow, so neither may the explorer.
    std::vector<size_t> keep;
    keep.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      const McTagMeta& m = tags.at(raw[i].tag);
      bool head = true;
      for (size_t j = 0; j < raw.size(); ++j) {
        if (raw[j].tag < raw[i].tag) {
          const McTagMeta& o = tags.at(raw[j].tag);
          if (o.issuer == m.issuer && o.dst == m.dst) {
            head = false;
            break;
          }
        }
      }
      if (head) {
        keep.push_back(i);
      }
    }
    std::vector<uint64_t> cands;
    cands.reserve(keep.size());
    for (size_t i : keep) {
      cands.push_back(raw[i].tag);
    }
    const uint32_t this_step = step++;
    frontier_ns = raw.empty() ? frontier_ns : raw.front().time;
    for (uint64_t t : cands) {
      HashMix(result.schedule_hash, t);
    }
    if (this_step == opts.fingerprint_at_step) {
      result.state_fingerprint = StateFingerprint();
    }

    McDecision done;
    done.step = this_step;
    size_t chosen = static_cast<size_t>(-1);
    bool drop = false;
    const auto planned = plan.find(this_step);
    if (planned != plan.end()) {
      const McDecision& d = planned->second;
      if (d.kind == McDecision::Kind::kCrash ||
          d.kind == McDecision::Kind::kRecover) {
        if (d.kind == McDecision::Kind::kCrash) {
          cluster->KillNode(d.node, /*force_detect=*/true);
        } else {
          cluster->RestartNode(d.node);
        }
        done.kind = d.kind;
        done.node = d.node;
        Record(cands, done, nullptr);
        Decision out;
        out.action = Decision::Action::kRescan;
        return out;
      }
      const auto pos = std::find(cands.begin(), cands.end(), d.tag);
      if (pos != cands.end()) {
        chosen = static_cast<size_t>(pos - cands.begin());
        drop = d.kind == McDecision::Kind::kDrop;
      } else {
        result.diverged = true;  // plan refers to a delivery this run lacks
      }
    }
    if (chosen == static_cast<size_t>(-1)) {
      // Default policy: the earliest non-sleeping candidate (a sleeping one
      // leads into an already-explored subtree). Beyond the recorded window
      // sleep steering is off, so a replay of the recorded prefix — which
      // carries no sleep set — reproduces the tail byte-identically.
      chosen = 0;
      if (this_step < config.max_steps) {
        for (size_t i = 0; i < cands.size(); ++i) {
          if (sleep.find(cands[i]) == sleep.end()) {
            chosen = i;
            break;
          }
        }
      }
    }

    const uint64_t tag = cands[chosen];
    const McTagMeta& meta = tags.at(tag);
    done.kind = drop ? McDecision::Kind::kDrop : McDecision::Kind::kDeliver;
    done.tag = tag;
    Decision out;
    out.index = keep[chosen];
    consumed.insert(tag);
    if (drop) {
      out.action = Decision::Action::kDrop;
      Record(cands, done, nullptr);
      return out;
    }
    out.action = Decision::Action::kDeliver;
    // Happens-before bookkeeping: the delivery joins the message's causal
    // past into the destination and advances its clock.
    if (meta.dst < clocks.size()) {
      clocks[meta.dst].MergeFrom(meta.msg_clock);
      clocks[meta.dst].Tick(meta.dst);
    }
    Record(cands, done, &meta);
    // Wake sleeping deliveries this one is dependent with: their subtree is
    // no longer guaranteed explored once a same-destination event ran.
    for (auto it = sleep.begin(); it != sleep.end();) {
      it = it->second == meta.dst ? sleep.erase(it) : std::next(it);
    }
    return out;
  }

  void Record(const std::vector<uint64_t>& cands, const McDecision& done,
              const McTagMeta* meta) {
    HashMix(result.schedule_hash, static_cast<uint64_t>(done.kind));
    HashMix(result.schedule_hash, done.tag);
    HashMix(result.schedule_hash, done.node);
    if (!opts.record || result.trail.size() >= config.max_steps) {
      return;
    }
    McStepRecord rec;
    rec.candidates = cands;
    rec.time_ns = frontier_ns;
    rec.decision = done;
    if (meta != nullptr) {
      rec.dst = meta->dst;
      rec.msg_clock = meta->msg_clock;
      rec.delivered = clocks[meta->dst];
    }
    rec.sleep.reserve(sleep.size());
    for (const auto& [t, dst] : sleep) {
      rec.sleep.push_back(t);
    }
    result.trail.push_back(std::move(rec));
  }

  void Violate(const char* name, std::string detail) {
    if (result.violation.empty()) {
      result.violation = name;
      result.violation_detail = std::move(detail);
    }
  }

  void CheckRead(const Key& key, Version floor, const GetResult& r) {
    if (!r.status.ok()) {
      return;  // clean failure under schedule stress is legal mid-run
    }
    KeyTruth& t = truth[key];
    const auto it = t.acked.find(r.version);
    if (it != t.acked.end() && *r.data != it->second) {
      Violate(kViolationCorruptRead,
              key + " v" + std::to_string(r.version) + " bytes mismatch");
    }
    if (r.version < floor) {
      Violate(kViolationTimeTravel,
              key + " v" + std::to_string(r.version) + " after v" +
                  std::to_string(floor));
    }
    t.highest_read = std::max(t.highest_read, r.version);
  }

  void Issue(const McOp& op, MemgestId gid) {
    switch (op.kind) {
      case McOp::Kind::kPut: {
        Buffer value = EncodeValue(op.key, op.nonce, op.value_size);
        ++outstanding;
        cluster->client(op.client).Put(
            op.key, std::make_shared<Buffer>(value), gid,
            [this, key = op.key, value](Status s, Version v) {
              --outstanding;
              if (!s.ok()) {
                return;
              }
              auto [it, fresh] = truth[key].acked.emplace(v, value);
              if (!fresh && it->second != value) {
                Violate(kViolationVersionReuse,
                        key + " v" + std::to_string(v) + " acked twice");
              }
            });
        return;
      }
      case McOp::Kind::kGet: {
        ++outstanding;
        const Version floor = truth[op.key].highest_read;
        const ReadMode mode = config.nonblocking_reads
                                  ? ReadMode::kNonBlocking
                                  : ReadMode::kStrong;
        cluster->client(op.client).Get(
            op.key, mode, [this, key = op.key, floor](GetResult r) {
              --outstanding;
              CheckRead(key, floor, r);
            });
        return;
      }
      case McOp::Kind::kDelete: {
        ++outstanding;
        cluster->client(op.client).Delete(op.key,
                                          [this, key = op.key](Status s) {
                                            --outstanding;
                                            if (s.ok()) {
                                              truth[key].deleted = true;
                                            }
                                          });
        return;
      }
    }
  }

  void FinalSweep() {
    for (auto& [key, t] : truth) {
      if (t.acked.empty() || t.deleted) {
        continue;
      }
      bool got = false;
      GetResult r;
      cluster->client(0).Get(key, [&](GetResult g) {
        r = std::move(g);
        got = true;
      });
      if (!cluster->RunUntilDone([&] { return got; }, 4'000'000)) {
        result.completed = false;
        return;
      }
      const Version top = t.acked.rbegin()->first;
      if (!r.status.ok()) {
        // Only a *definitive* miss is data loss. kUnavailable / kTimeout
        // mean the cluster never answered — under unrepaired message loss
        // that is an expected liveness failure, not a safety violation.
        if (r.status.code() == StatusCode::kNotFound ||
            r.status.code() == StatusCode::kDataLoss) {
          Violate(kViolationDurability,
                  key + " acked v" + std::to_string(top) +
                      " unreadable: " + r.status.message());
        }
        continue;
      }
      if (r.version < top) {
        Violate(kViolationDurability,
                key + " regressed to v" + std::to_string(r.version) +
                    " (acked v" + std::to_string(top) + ")");
        continue;
      }
      const auto it = t.acked.find(r.version);
      if (it != t.acked.end() && *r.data != it->second) {
        Violate(kViolationCorruptRead,
                key + " v" + std::to_string(r.version) +
                    " bytes mismatch in final sweep");
      }
    }
  }

  uint64_t Digest() {
    uint64_t h = kFnvOffset;
    for (uint32_t n = 0; n < config.num_server_nodes(); ++n) {
      const bool alive = cluster->runtime().fabric().alive(n);
      HashMix(h, alive ? 1 : 0);
      HashMix(h, alive ? cluster->server(n).McStateDigest() : 0);
    }
    return h;
  }

  // Committed state plus the in-flight delivery multiset: two schedule
  // prefixes that reach the same fingerprint lead into the same subtree, so
  // the explorer only descends from one of them.
  uint64_t StateFingerprint() {
    uint64_t h = Digest();
    std::vector<uint64_t> inflight;
    for (const auto& [t, meta] : tags) {
      if (consumed.find(t) == consumed.end()) {
        inflight.push_back((uint64_t{meta.issuer} << 40) |
                           (uint64_t{meta.dst} << 8) | meta.kind);
      }
    }
    std::sort(inflight.begin(), inflight.end());
    HashMix(h, inflight.size());
    for (uint64_t v : inflight) {
      HashMix(h, v);
    }
    return h;
  }

  TraceResult Run() {
    result.schedule_hash = kFnvOffset;
    for (const McDecision& d : opts.plan) {
      plan.emplace(d.step, d);
    }
    sleep = opts.sleep;

    RingOptions options;
    options.s = config.s;
    options.d = config.d;
    options.spares = config.spares;
    options.clients = config.clients;
    options.seed = config.seed;
    if (config.write_retransmit_ns != 0) {
      options.params.write_retransmit_ns = config.write_retransmit_ns;
    }
    options.multiversion_depth = config.multiversion_depth;
    options.test_bugs.no_write_retransmit = config.bug_no_write_retransmit;
    options.test_bugs.single_source_recovery =
        config.bug_single_source_recovery;
    options.test_bugs.no_gc_revalidate = config.bug_no_gc_revalidate;

    RingCluster cl(options);
    cluster = &cl;
    clocks.assign(config.num_server_nodes() + config.clients,
                  analysis::VectorClock());

    const Result<MemgestDescriptor> desc = ParseScheme(config.scheme);
    if (!desc.ok()) {
      Violate("config-error", desc.status().message());
      return std::move(result);
    }
    // Admin traffic runs under the default schedule: the memgest exists
    // before the first choice point, identically in every run.
    const Result<MemgestId> gid = cl.CreateMemgest(*desc);
    if (!gid.ok()) {
      Violate("config-error", gid.status().message());
      return std::move(result);
    }

    cl.runtime().fabric().set_mc_tagger(this);
    cl.simulator().queue().set_controller(this, config.reorder_window_ns);

    const sim::SimTime base = cl.simulator().now();
    sim::SimTime workload_end = base;
    for (const McOp& op : config.ops) {
      workload_end = std::max(workload_end, base + op.at_ns);
      cl.simulator().At(base + op.at_ns,
                        [this, op, g = *gid] { Issue(op, g); });
    }
    // §16 scripted suspicion reports: fed straight into revoke-then-promote,
    // like a chaos `revoke` directive.
    for (const McRevoke& r : config.revokes) {
      workload_end = std::max(workload_end, base + r.at_ns);
      cl.simulator().At(base + r.at_ns, [&cl, node = r.node] {
        cl.runtime().membership().ReportSuspect(node);
      });
    }
    result.completed = cl.RunUntilDone(
        [&] {
          return outstanding == 0 && cl.simulator().now() >= workload_end;
        },
        6'000'000);
    cl.RunFor(config.quiesce_ns);
    if (result.completed) {
      FinalSweep();
    }
    // Wedged-write oracle: with retransmission configured on, no write may
    // still be waiting on redundancy acks after full quiescence, and no
    // server op on anything. (With it off, a lost append legitimately parks
    // a write, and the ops waiting on it, forever.)
    if (result.violation.empty() && result.completed &&
        cl.simulator().params().write_retransmit_ns != 0) {
      uint64_t wedged = 0;
      for (uint32_t n = 0; n < config.num_server_nodes(); ++n) {
        if (cl.runtime().fabric().alive(n)) {
          wedged += cl.server(n).PendingWrites();
        }
      }
      if (wedged != 0) {
        Violate(kViolationWedgedWrite,
                std::to_string(wedged) + " write(s) still pending acks");
      } else if (const size_t ops = cl.OpsInFlight(); ops != 0) {
        Violate(kViolationWedgedWrite,
                std::to_string(ops) + " server op(s) still in flight");
      }
    }
    // Key-directory oracle: every final state passes the audit, whether or
    // not the workload completed.
    if (result.violation.empty()) {
      if (std::string why = cl.CheckKeyDirectories(); !why.empty()) {
        Violate(kViolationDirectory, std::move(why));
      }
    }
    result.final_digest = Digest();
    result.steps = step;
    result.tags = std::move(tags);
    // The cluster (and its queue, with this controller installed) dies with
    // this scope; parked tagged deliveries are freed by the destructors.
    cluster = nullptr;
    return std::move(result);
  }
};

TraceRunner::TraceRunner(const McConfig& config, Options options)
    : impl_(new Impl) {
  impl_->config = config;
  impl_->opts = std::move(options);
}

TraceRunner::~TraceRunner() { delete impl_; }

TraceResult TraceRunner::Run() { return impl_->Run(); }

}  // namespace ring::mc
