#include "src/fault/fault.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/common/parse.h"
#include "src/obs/hub.h"

namespace ring::fault {

namespace {

// RandomFaultPlan's link-fault bounds: a drop or duplicate probability is
// 0.02 plus at most this much.
constexpr double kMaxDropProb = 0.3;
constexpr double kMaxDupProb = 0.3;

// --- Text-form helpers -----------------------------------------------------

std::vector<std::string> SplitDirectives(std::string_view spec) {
  std::vector<std::string> out;
  std::string cur;
  bool in_comment = false;
  for (char c : spec) {
    if (c == '\n') {
      in_comment = false;
      out.push_back(cur);
      cur.clear();
      continue;
    }
    if (in_comment) {
      continue;
    }
    if (c == '#') {
      in_comment = true;
      continue;
    }
    if (c == ';') {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    cur.push_back(c);
  }
  out.push_back(cur);
  return out;
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream is(line);
  std::string w;
  while (is >> w) {
    words.push_back(w);
  }
  return words;
}

// Times accept ns/us/ms/s suffixes (decimal values allowed); bare = ns.
bool ParseTime(std::string_view text, uint64_t* out) {
  double scale = 1.0;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ns") {
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    scale = 1e3;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1e6;
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    scale = 1e9;
    text.remove_suffix(1);
  }
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const std::string body(text);
  const double v = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size() || v < 0) {
    return false;
  }
  *out = static_cast<uint64_t>(v * scale);
  return true;
}

bool ParseProb(std::string_view text, double* out) {
  char* end = nullptr;
  const std::string body(text);
  const double v = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size() || v < 0.0 || v > 1.0) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseNode(std::string_view text, uint32_t* out) {
  if (text == "*") {
    *out = kAnyNode;
    return true;
  }
  uint64_t v = 0;
  if (!ParseUnsigned(text, &v, kAnyNode - 1)) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseNodeList(std::string_view text, std::vector<uint32_t>* out) {
  out->clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) {
      comma = text.size();
    }
    uint64_t v = 0;
    if (!ParseUnsigned(text.substr(start, comma - start), &v, kAnyNode - 1)) {
      return false;
    }
    out->push_back(static_cast<uint32_t>(v));
    start = comma + 1;
    if (comma == text.size()) {
      break;
    }
  }
  return !out->empty();
}

std::string NodeText(uint32_t node) {
  return node == kAnyNode ? "*" : std::to_string(node);
}

std::string TimeText(uint64_t ns) {
  if (ns != 0 && ns % 1000000 == 0) {
    return std::to_string(ns / 1000000) + "ms";
  }
  if (ns != 0 && ns % 1000 == 0) {
    return std::to_string(ns / 1000) + "us";
  }
  return std::to_string(ns) + "ns";
}

std::string ListText(const std::vector<uint32_t>& nodes) {
  std::string out;
  for (uint32_t n : nodes) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(n);
  }
  return out;
}

struct KeyValues {
  std::vector<std::pair<std::string, std::string>> kv;

  const std::string* Find(std::string_view key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

bool ParseKeyValues(const std::vector<std::string>& words, KeyValues* out) {
  for (size_t i = 1; i < words.size(); ++i) {
    const size_t eq = words[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= words[i].size()) {
      return false;
    }
    out->kv.emplace_back(words[i].substr(0, eq), words[i].substr(eq + 1));
  }
  return true;
}

}  // namespace

std::string_view NodeEventKindName(NodeEvent::Kind kind) {
  switch (kind) {
    case NodeEvent::Kind::kPartition:
      return "partition";
    case NodeEvent::Kind::kHeal:
      return "heal";
    case NodeEvent::Kind::kPause:
      return "pause";
    case NodeEvent::Kind::kResume:
      return "resume";
    case NodeEvent::Kind::kCrash:
      return "crash";
    case NodeEvent::Kind::kRecover:
      return "recover";
    case NodeEvent::Kind::kRevoke:
      return "revoke";
  }
  return "unknown";
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  for (const LinkFault& f : links) {
    const std::string link = " src=" + NodeText(f.src) + " dst=" +
                             NodeText(f.dst);
    std::string window;
    if (f.from_ns != 0) {
      window += " from=" + TimeText(f.from_ns);
    }
    if (f.until_ns != UINT64_MAX) {
      window += " until=" + TimeText(f.until_ns);
    }
    if (f.drop_prob > 0) {
      os << "drop" << link << " p=" << f.drop_prob << window << "\n";
    }
    if (f.dup_prob > 0) {
      os << "dup" << link << " p=" << f.dup_prob << window << "\n";
    }
    if (f.delay_ns > 0 || f.delay_jitter_ns > 0) {
      os << "delay" << link << " ns=" << TimeText(f.delay_ns);
      if (f.delay_jitter_ns > 0) {
        os << " jitter=" << TimeText(f.delay_jitter_ns);
      }
      os << window << "\n";
    }
    if (f.reorder_prob > 0) {
      os << "reorder" << link << " p=" << f.reorder_prob
         << " window=" << TimeText(f.reorder_window_ns) << window << "\n";
    }
  }
  // Pair start events with their scheduled end so the text form stays one
  // line per fault episode (the grammar's heal=/resume=/recover= keys).
  std::vector<bool> consumed(events.size(), false);
  for (size_t i = 0; i < events.size(); ++i) {
    if (consumed[i]) {
      continue;
    }
    const NodeEvent& ev = events[i];
    switch (ev.kind) {
      case NodeEvent::Kind::kPartition: {
        os << "partition a=" << ListText(ev.side_a)
           << " b=" << ListText(ev.side_b) << " at=" << TimeText(ev.at_ns);
        for (size_t j = i + 1; j < events.size(); ++j) {
          if (!consumed[j] && events[j].kind == NodeEvent::Kind::kHeal &&
              events[j].side_a == ev.side_a && events[j].side_b == ev.side_b) {
            os << " heal=" << TimeText(events[j].at_ns);
            consumed[j] = true;
            break;
          }
        }
        os << "\n";
        break;
      }
      case NodeEvent::Kind::kPause: {
        os << "pause node=" << ev.node << " at=" << TimeText(ev.at_ns);
        for (size_t j = i + 1; j < events.size(); ++j) {
          if (!consumed[j] && events[j].kind == NodeEvent::Kind::kResume &&
              events[j].node == ev.node) {
            os << " resume=" << TimeText(events[j].at_ns);
            consumed[j] = true;
            break;
          }
        }
        os << "\n";
        break;
      }
      case NodeEvent::Kind::kCrash: {
        os << "crash node=" << ev.node << " at=" << TimeText(ev.at_ns);
        for (size_t j = i + 1; j < events.size(); ++j) {
          if (!consumed[j] && events[j].kind == NodeEvent::Kind::kRecover &&
              events[j].node == ev.node) {
            os << " recover=" << TimeText(events[j].at_ns);
            consumed[j] = true;
            break;
          }
        }
        os << "\n";
        break;
      }
      case NodeEvent::Kind::kHeal:
        os << "partition a=" << ListText(ev.side_a)
           << " b=" << ListText(ev.side_b) << " at=0ns heal="
           << TimeText(ev.at_ns) << "\n";
        break;
      case NodeEvent::Kind::kResume:
        os << "pause node=" << ev.node << " at=0ns resume="
           << TimeText(ev.at_ns) << "\n";
        break;
      case NodeEvent::Kind::kRecover:
        os << "crash node=" << ev.node << " at=0ns recover="
           << TimeText(ev.at_ns) << "\n";
        break;
      case NodeEvent::Kind::kRevoke:
        // Unpaired: a suspicion report has no scheduled end (readmission is
        // the cluster's own doing, not the plan's).
        os << "revoke node=" << ev.node << " at=" << TimeText(ev.at_ns)
           << "\n";
        break;
    }
  }
  return os.str();
}

Result<FaultPlan> ParseFaultPlan(std::string_view spec) {
  FaultPlan plan;
  for (const std::string& line : SplitDirectives(spec)) {
    const std::vector<std::string> words = SplitWords(line);
    if (words.empty()) {
      continue;
    }
    KeyValues kv;
    if (!ParseKeyValues(words, &kv)) {
      return InvalidArgumentError("bad key=value in fault directive: " + line);
    }
    const std::string& verb = words[0];
    auto bad = [&line](const char* what) {
      return InvalidArgumentError(std::string("fault directive ") + what +
                                  ": " + line);
    };
    if (verb == "drop" || verb == "dup" || verb == "delay" ||
        verb == "reorder") {
      LinkFault f;
      const std::string* src = kv.Find("src");
      const std::string* dst = kv.Find("dst");
      if (src == nullptr || dst == nullptr || !ParseNode(*src, &f.src) ||
          !ParseNode(*dst, &f.dst)) {
        return bad("needs src= and dst=");
      }
      if (const std::string* from = kv.Find("from");
          from != nullptr && !ParseTime(*from, &f.from_ns)) {
        return bad("has bad from=");
      }
      if (const std::string* until = kv.Find("until");
          until != nullptr && !ParseTime(*until, &f.until_ns)) {
        return bad("has bad until=");
      }
      if (verb == "drop") {
        const std::string* p = kv.Find("p");
        if (p == nullptr || !ParseProb(*p, &f.drop_prob)) {
          return bad("needs p= in [0,1]");
        }
      } else if (verb == "dup") {
        const std::string* p = kv.Find("p");
        if (p == nullptr || !ParseProb(*p, &f.dup_prob)) {
          return bad("needs p= in [0,1]");
        }
      } else if (verb == "delay") {
        const std::string* ns = kv.Find("ns");
        if (ns == nullptr || !ParseTime(*ns, &f.delay_ns)) {
          return bad("needs ns=");
        }
        if (const std::string* jitter = kv.Find("jitter");
            jitter != nullptr && !ParseTime(*jitter, &f.delay_jitter_ns)) {
          return bad("has bad jitter=");
        }
      } else {  // reorder
        const std::string* p = kv.Find("p");
        const std::string* window = kv.Find("window");
        if (p == nullptr || !ParseProb(*p, &f.reorder_prob) ||
            window == nullptr || !ParseTime(*window, &f.reorder_window_ns)) {
          return bad("needs p= and window=");
        }
      }
      plan.links.push_back(f);
    } else if (verb == "partition") {
      NodeEvent ev;
      ev.kind = NodeEvent::Kind::kPartition;
      const std::string* a = kv.Find("a");
      const std::string* b = kv.Find("b");
      const std::string* at = kv.Find("at");
      if (a == nullptr || b == nullptr || at == nullptr ||
          !ParseNodeList(*a, &ev.side_a) || !ParseNodeList(*b, &ev.side_b) ||
          !ParseTime(*at, &ev.at_ns)) {
        return bad("needs a=, b= and at=");
      }
      plan.events.push_back(ev);
      if (const std::string* heal = kv.Find("heal"); heal != nullptr) {
        NodeEvent h = plan.events.back();
        h.kind = NodeEvent::Kind::kHeal;
        if (!ParseTime(*heal, &h.at_ns) || h.at_ns < ev.at_ns) {
          return bad("has bad heal=");
        }
        plan.events.push_back(std::move(h));
      }
    } else if (verb == "pause" || verb == "crash") {
      NodeEvent ev;
      ev.kind = verb == "pause" ? NodeEvent::Kind::kPause
                                : NodeEvent::Kind::kCrash;
      const std::string* node = kv.Find("node");
      const std::string* at = kv.Find("at");
      if (node == nullptr || at == nullptr || !ParseNode(*node, &ev.node) ||
          ev.node == kAnyNode || !ParseTime(*at, &ev.at_ns)) {
        return bad("needs node= and at=");
      }
      plan.events.push_back(ev);
      const std::string* end =
          verb == "pause" ? kv.Find("resume") : kv.Find("recover");
      if (end != nullptr) {
        NodeEvent e = plan.events.back();
        e.kind = verb == "pause" ? NodeEvent::Kind::kResume
                                 : NodeEvent::Kind::kRecover;
        if (!ParseTime(*end, &e.at_ns) || e.at_ns < ev.at_ns) {
          return bad("has bad end time");
        }
        plan.events.push_back(std::move(e));
      }
    } else if (verb == "revoke") {
      NodeEvent ev;
      ev.kind = NodeEvent::Kind::kRevoke;
      const std::string* node = kv.Find("node");
      const std::string* at = kv.Find("at");
      if (node == nullptr || at == nullptr || !ParseNode(*node, &ev.node) ||
          ev.node == kAnyNode || !ParseTime(*at, &ev.at_ns)) {
        return bad("needs node= and at=");
      }
      plan.events.push_back(std::move(ev));
    } else {
      return InvalidArgumentError("unknown fault directive: " + verb);
    }
  }
  return plan;
}

FaultPlan RandomFaultPlan(uint64_t seed, const ChaosShape& shape) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xfau);
  FaultPlan plan;
  const uint64_t quiet =
      shape.quiet_after_ns != 0 ? shape.quiet_after_ns : shape.horizon_ns;
  if (quiet == 0 || shape.num_nodes == 0) {
    return plan;
  }
  for (uint32_t i = 0; i < shape.link_faults; ++i) {
    LinkFault f;
    f.src = rng.NextBelow(4) == 0 ? kAnyNode
                                  : static_cast<uint32_t>(
                                        rng.NextBelow(shape.num_nodes));
    f.dst = rng.NextBelow(4) == 0 ? kAnyNode
                                  : static_cast<uint32_t>(
                                        rng.NextBelow(shape.num_nodes));
    f.from_ns = rng.NextBelow(quiet / 2 + 1);
    f.until_ns =
        std::min(quiet, f.from_ns + quiet / 8 + rng.NextBelow(quiet / 4 + 1));
    switch (rng.NextBelow(4)) {
      case 0:
        f.drop_prob = 0.02 + rng.NextDouble() * kMaxDropProb;
        break;
      case 1:
        f.dup_prob = 0.02 + rng.NextDouble() * kMaxDupProb;
        break;
      case 2:
        f.delay_ns = 1000 + rng.NextBelow(20000);
        f.delay_jitter_ns = rng.NextBelow(20000);
        break;
      default:
        f.reorder_prob = 0.05 + rng.NextDouble() * 0.4;
        f.reorder_window_ns = 2000 + rng.NextBelow(30000);
        break;
    }
    plan.links.push_back(f);
  }
  if (shape.faultable.empty() || shape.node_events == 0) {
    return plan;
  }
  // Node events run in disjoint slots (at most one impaired server at a
  // time) and every episode ends strictly before the quiet point, leaving
  // time for re-integration before a post-run consistency sweep.
  const uint64_t slot = quiet / shape.node_events;
  bool crashed_once = false;
  for (uint32_t i = 0; i < shape.node_events; ++i) {
    const uint64_t lo = static_cast<uint64_t>(i) * slot;
    const uint64_t at = lo + rng.NextBelow(slot / 8 + 1);
    const uint64_t end =
        std::min(lo + slot - 1, at + slot / 2 + rng.NextBelow(slot / 4 + 1));
    const uint32_t node = shape.faultable[rng.NextBelow(shape.faultable.size())];
    std::vector<NodeEvent::Kind> kinds = {NodeEvent::Kind::kPartition,
                                          NodeEvent::Kind::kPause};
    // One crash-recovery episode per plan: the rejoined node needs the rest
    // of the schedule to finish background data recovery. Crashes are only
    // safe when a spare can absorb the promotion (spare_capacity).
    if (shape.spare_capacity != 0 && !crashed_once) {
      kinds.push_back(NodeEvent::Kind::kCrash);
    }
    const NodeEvent::Kind kind = kinds[rng.NextBelow(kinds.size())];
    NodeEvent start;
    start.kind = kind;
    start.at_ns = at;
    start.node = node;
    NodeEvent stop = start;
    stop.at_ns = end;
    switch (kind) {
      case NodeEvent::Kind::kPartition: {
        start.side_a = {node};
        for (uint32_t n = 0; n < shape.num_nodes; ++n) {
          if (n != node) {
            start.side_b.push_back(n);
          }
        }
        stop = start;
        stop.kind = NodeEvent::Kind::kHeal;
        stop.at_ns = end;
        break;
      }
      case NodeEvent::Kind::kPause:
        stop.kind = NodeEvent::Kind::kResume;
        break;
      case NodeEvent::Kind::kCrash:
        crashed_once = true;
        stop.kind = NodeEvent::Kind::kRecover;
        break;
      default:
        break;
    }
    plan.events.push_back(std::move(start));
    plan.events.push_back(std::move(stop));
  }
  // §16 suspicion events: each revoke may fence a healthy node out until
  // readmission, and its promotion consumes a spare exactly like a crash —
  // so the revoke budget is the spare pool minus the crash the plan already
  // spent. Placed in the first half of the horizon so readmission and
  // re-integration finish before the quiet point.
  if (shape.revocations > 0) {
    uint64_t budget = shape.revocations;
    if (shape.spare_capacity != kAnyNode) {
      const uint32_t left =
          shape.spare_capacity - (crashed_once ? 1u : 0u);
      budget = std::min<uint64_t>(budget, left);
    }
    for (uint64_t i = 0; i < budget; ++i) {
      NodeEvent ev;
      ev.kind = NodeEvent::Kind::kRevoke;
      ev.node = shape.faultable[rng.NextBelow(shape.faultable.size())];
      ev.at_ns = rng.NextBelow(quiet / 2 + 1);
      plan.events.push_back(std::move(ev));
    }
  }
  return plan;
}

// --- FaultInjector ---------------------------------------------------------

FaultInjector::FaultInjector(sim::Simulator* simulator, uint32_t num_nodes,
                             FaultPlan plan, uint64_t seed)
    : sim_(simulator),
      num_nodes_(num_nodes),
      plan_(std::move(plan)),
      rng_(seed ^ 0xc4a5u),
      paused_(num_nodes, 0),
      downgraded_(num_nodes, 0),
      cut_(static_cast<size_t>(num_nodes) * num_nodes, 0),
      deferred_(num_nodes) {}

void FaultInjector::Arm() {
  for (const NodeEvent& ev : plan_.events) {
    sim_->At(ev.at_ns, [this, ev] { ApplyEvent(ev); });
  }
}

void FaultInjector::Note(const char* name, uint32_t node) {
  obs::Hub& hub = sim_->hub();
  if (hub.metrics_enabled()) {
    hub.metrics().Inc(name, 1, node);
  }
}

void FaultInjector::CutPartition(const NodeEvent& ev, bool cut) {
  for (uint32_t a : ev.side_a) {
    for (uint32_t b : ev.side_b) {
      if (a >= num_nodes_ || b >= num_nodes_) {
        continue;
      }
      uint32_t& ab = cut_[static_cast<size_t>(a) * num_nodes_ + b];
      uint32_t& ba = cut_[static_cast<size_t>(b) * num_nodes_ + a];
      if (cut) {
        ++ab;
        ++ba;
        cut_active_ += 2;
      } else {
        if (ab > 0) {
          --ab;
          --cut_active_;
        }
        if (ba > 0) {
          --ba;
          --cut_active_;
        }
      }
    }
  }
}

void FaultInjector::ApplyEvent(const NodeEvent& ev) {
  obs::Hub& hub = sim_->hub();
  if (hub.tracing_enabled()) {
    hub.tracer().Record(NodeEventKindName(ev.kind).data(),
                        obs::Category::kFault,
                        ev.node == kAnyNode ? 0 : ev.node, hub.current_op(),
                        sim_->now(), sim_->now());
  }
  // Injector actions land in the flight recorder too, so protocol anomalies
  // in the ring are causally adjacent to the fault that triggered them.
  hub.recorder().Record(obs::RecKind::kFault,
                        NodeEventKindName(ev.kind).data(),
                        ev.node == kAnyNode ? 0 : ev.node, hub.current_op());
  switch (ev.kind) {
    case NodeEvent::Kind::kPartition:
      ++counters_.partitions;
      Note("fault.partition", ev.node == kAnyNode ? 0 : ev.node);
      CutPartition(ev, /*cut=*/true);
      break;
    case NodeEvent::Kind::kHeal:
      Note("fault.heal", ev.node == kAnyNode ? 0 : ev.node);
      CutPartition(ev, /*cut=*/false);
      break;
    case NodeEvent::Kind::kPause:
      if (ev.node < num_nodes_ && paused_[ev.node] == 0) {
        ++counters_.pauses;
        Note("fault.pause", ev.node);
        paused_[ev.node] = 1;
      }
      break;
    case NodeEvent::Kind::kResume:
      if (ev.node < num_nodes_ && paused_[ev.node] != 0) {
        Note("fault.resume", ev.node);
        paused_[ev.node] = 0;
        if (hooks_.resumed) {
          hooks_.resumed(ev.node);
        }
        // RX buffers survived the stall: deliver in arrival order.
        std::vector<std::function<void()>> pending;
        pending.swap(deferred_[ev.node]);
        for (auto& fn : pending) {
          fn();
        }
      }
      break;
    case NodeEvent::Kind::kCrash:
      if (ev.node < num_nodes_) {
        if (crash_guard_ && !crash_guard_(ev.node)) {
          // No spare to absorb the promotion: a fail-stop here would wedge
          // the cluster unrecoverably. Downgrade to a gray-failure pause;
          // the paired recover becomes the resume.
          ++counters_.downgraded_crashes;
          Note("fault.crash_downgraded", ev.node);
          hub.recorder().Record(obs::RecKind::kFault, "crash_downgraded",
                                ev.node, hub.current_op());
          if (paused_[ev.node] == 0) {
            ++counters_.pauses;
            paused_[ev.node] = 1;
          }
          downgraded_[ev.node] = 1;
          break;
        }
        ++counters_.crashes;
        Note("fault.crash", ev.node);
        paused_[ev.node] = 0;
        deferred_[ev.node].clear();  // RX buffers die with the process
        if (hooks_.crash) {
          hooks_.crash(ev.node);
        }
      }
      break;
    case NodeEvent::Kind::kRecover:
      if (ev.node < num_nodes_) {
        if (downgraded_[ev.node] != 0) {
          // The crash never happened: resume the downgraded pause instead.
          downgraded_[ev.node] = 0;
          if (paused_[ev.node] != 0) {
            Note("fault.resume", ev.node);
            paused_[ev.node] = 0;
            if (hooks_.resumed) {
              hooks_.resumed(ev.node);
            }
            std::vector<std::function<void()>> pending;
            pending.swap(deferred_[ev.node]);
            for (auto& fn : pending) {
              fn();
            }
          }
          break;
        }
        ++counters_.recoveries;
        Note("fault.recover", ev.node);
        if (hooks_.recover) {
          hooks_.recover(ev.node);
        }
      }
      break;
    case NodeEvent::Kind::kRevoke:
      if (ev.node < num_nodes_) {
        ++counters_.revocations;
        Note("fault.revoke", ev.node);
        if (hooks_.revoke) {
          hooks_.revoke(ev.node);
        }
      }
      break;
  }
}

Verdict FaultInjector::Roll(uint32_t src, uint32_t dst, bool one_sided) {
  Verdict v;
  if (partitioned(src, dst)) {
    v.drop = true;
    ++counters_.partition_dropped;
    Note("fault.partition_dropped", src);
    return v;
  }
  if (plan_.links.empty()) {
    return v;
  }
  const uint64_t now = sim_->now();
  for (const LinkFault& f : plan_.links) {
    if ((f.src != kAnyNode && f.src != src) ||
        (f.dst != kAnyNode && f.dst != dst) || now < f.from_ns ||
        now >= f.until_ns) {
      continue;
    }
    if (f.drop_prob > 0 && rng_.NextBernoulli(f.drop_prob)) {
      v.drop = true;
      ++counters_.dropped;
      Note("fault.dropped", src);
      return v;
    }
    if (f.dup_prob > 0 && !one_sided && rng_.NextBernoulli(f.dup_prob)) {
      v.duplicate = true;
    }
    if (f.delay_ns > 0 || f.delay_jitter_ns > 0) {
      v.extra_delay_ns +=
          f.delay_ns +
          (f.delay_jitter_ns != 0 ? rng_.NextBelow(f.delay_jitter_ns) : 0);
    }
    if (f.reorder_prob > 0 && rng_.NextBernoulli(f.reorder_prob) &&
        f.reorder_window_ns != 0) {
      v.extra_delay_ns += rng_.NextBelow(f.reorder_window_ns);
    }
  }
  if (v.extra_delay_ns != 0) {
    ++counters_.delayed;
    Note("fault.delayed", src);
  }
  if (v.duplicate) {
    ++counters_.duplicated;
    Note("fault.duplicated", src);
    // The stale copy trails the original by up to a few wire times.
    v.dup_delay_ns = v.extra_delay_ns + 1 +
                     rng_.NextBelow(4 * sim_->params().wire_latency_ns + 1);
  }
  return v;
}

void FaultInjector::Defer(uint32_t node, std::function<void()> delivery) {
  ++counters_.deferred;
  Note("fault.deferred", node);
  obs::Hub& hub = sim_->hub();
  hub.recorder().Record(obs::RecKind::kFault, "rx_deferred", node,
                        hub.current_op(), deferred_[node].size());
  deferred_[node].push_back(std::move(delivery));
}

}  // namespace ring::fault
