#include "src/mc/spec.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace ring::mc {

namespace {

const char* OpKindName(McOp::Kind kind) {
  switch (kind) {
    case McOp::Kind::kPut:
      return "put";
    case McOp::Kind::kGet:
      return "get";
    case McOp::Kind::kDelete:
      return "del";
  }
  return "?";
}

bool ParseOpKind(const std::string& s, McOp::Kind* out) {
  if (s == "put") {
    *out = McOp::Kind::kPut;
  } else if (s == "get") {
    *out = McOp::Kind::kGet;
  } else if (s == "del") {
    *out = McOp::Kind::kDelete;
  } else {
    return false;
  }
  return true;
}

bool ParseDecisionKind(const std::string& s, McDecision::Kind* out) {
  if (s == "deliver") {
    *out = McDecision::Kind::kDeliver;
  } else if (s == "drop") {
    *out = McDecision::Kind::kDrop;
  } else if (s == "crash") {
    *out = McDecision::Kind::kCrash;
  } else if (s == "recover") {
    *out = McDecision::Kind::kRecover;
  } else {
    return false;
  }
  return true;
}

// "key=value" tokens on config-style lines.
bool SplitKv(const std::string& tok, std::string* k, std::string* v) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  *k = tok.substr(0, eq);
  *v = tok.substr(eq + 1);
  return true;
}

uint64_t ParseU64(const std::string& v) {
  return std::strtoull(v.c_str(), nullptr, 0);
}

}  // namespace

const char* McDecisionKindName(McDecision::Kind kind) {
  switch (kind) {
    case McDecision::Kind::kDeliver:
      return "deliver";
    case McDecision::Kind::kDrop:
      return "drop";
    case McDecision::Kind::kCrash:
      return "crash";
    case McDecision::Kind::kRecover:
      return "recover";
  }
  return "?";
}

std::string ScheduleSpec::ToString() const {
  std::ostringstream os;
  os << "mc-spec v1\n";
  os << "config s=" << config.s << " d=" << config.d
     << " spares=" << config.spares << " clients=" << config.clients
     << " seed=" << config.seed << " scheme=" << config.scheme << "\n";
  os << "bounds reorder_window_ns=" << config.reorder_window_ns
     << " max_steps=" << config.max_steps << " max_drops=" << config.max_drops
     << " max_crashes=" << config.max_crashes
     << " quiesce_ns=" << config.quiesce_ns
     << " write_retransmit_ns=" << config.write_retransmit_ns;
  // §16 keys only when non-default so pre-existing spec texts round-trip
  // unchanged.
  if (config.multiversion_depth != 0) {
    os << " multiversion_depth=" << config.multiversion_depth;
  }
  if (config.nonblocking_reads) {
    os << " nonblocking_reads=1";
  }
  os << "\n";
  for (uint32_t node : config.crash_nodes) {
    os << "crashable node=" << node << "\n";
  }
  if (config.bug_no_write_retransmit) {
    os << "bug no_write_retransmit\n";
  }
  if (config.bug_single_source_recovery) {
    os << "bug single_source_recovery\n";
  }
  if (config.bug_no_gc_revalidate) {
    os << "bug no_gc_revalidate\n";
  }
  for (const McRevoke& r : config.revokes) {
    os << "revoke node=" << r.node << " at=" << r.at_ns << "\n";
  }
  for (const McOp& op : config.ops) {
    os << "op " << OpKindName(op.kind) << " key=" << op.key;
    if (op.kind == McOp::Kind::kPut) {
      os << " size=" << op.value_size << " nonce=" << op.nonce;
    }
    os << " at=" << op.at_ns << " client=" << op.client << "\n";
  }
  for (const McDecision& d : decisions) {
    os << "step " << d.step << " " << McDecisionKindName(d.kind);
    if (d.kind == McDecision::Kind::kDeliver ||
        d.kind == McDecision::Kind::kDrop) {
      os << " tag=" << d.tag;
    } else {
      os << " node=" << d.node;
    }
    os << "\n";
  }
  if (!expect_violation.empty() || expect_digest != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, expect_digest);
    os << "expect violation="
       << (expect_violation.empty() ? "none" : expect_violation)
       << " digest=" << buf << "\n";
  }
  return os.str();
}

Result<ScheduleSpec> ScheduleSpec::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "mc-spec v1") {
    return InvalidArgumentError("mc-spec: missing 'mc-spec v1' header");
  }
  ScheduleSpec spec;
  spec.config.ops.clear();
  uint32_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    const std::string at_line = " at line " + std::to_string(lineno);
    if (word == "config" || word == "bounds") {
      std::string tok, k, v;
      while (ls >> tok) {
        if (!SplitKv(tok, &k, &v)) {
          return InvalidArgumentError("mc-spec: bad token '" + tok + "'" +
                                      at_line);
        }
        if (k == "s") {
          spec.config.s = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "d") {
          spec.config.d = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "spares") {
          spec.config.spares = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "clients") {
          spec.config.clients = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "seed") {
          spec.config.seed = ParseU64(v);
        } else if (k == "scheme") {
          spec.config.scheme = v;
        } else if (k == "reorder_window_ns") {
          spec.config.reorder_window_ns = ParseU64(v);
        } else if (k == "max_steps") {
          spec.config.max_steps = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "max_drops") {
          spec.config.max_drops = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "max_crashes") {
          spec.config.max_crashes = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "quiesce_ns") {
          spec.config.quiesce_ns = ParseU64(v);
        } else if (k == "write_retransmit_ns") {
          spec.config.write_retransmit_ns = ParseU64(v);
        } else if (k == "multiversion_depth") {
          spec.config.multiversion_depth = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "nonblocking_reads") {
          spec.config.nonblocking_reads = ParseU64(v) != 0;
        } else {
          return InvalidArgumentError("mc-spec: unknown key '" + k + "'" +
                                      at_line);
        }
      }
    } else if (word == "crashable") {
      std::string tok, k, v;
      if (!(ls >> tok) || !SplitKv(tok, &k, &v) || k != "node") {
        return InvalidArgumentError("mc-spec: bad crashable line" + at_line);
      }
      spec.config.crash_nodes.push_back(static_cast<uint32_t>(ParseU64(v)));
    } else if (word == "revoke") {
      McRevoke r;
      std::string tok, k, v;
      bool have_node = false, have_at = false;
      while (ls >> tok) {
        if (!SplitKv(tok, &k, &v)) {
          return InvalidArgumentError("mc-spec: bad token '" + tok + "'" +
                                      at_line);
        }
        if (k == "node") {
          r.node = static_cast<uint32_t>(ParseU64(v));
          have_node = true;
        } else if (k == "at") {
          r.at_ns = ParseU64(v);
          have_at = true;
        } else {
          return InvalidArgumentError("mc-spec: unknown revoke key '" + k +
                                      "'" + at_line);
        }
      }
      if (!have_node || !have_at) {
        return InvalidArgumentError("mc-spec: revoke needs node= and at=" +
                                    at_line);
      }
      spec.config.revokes.push_back(r);
    } else if (word == "bug") {
      std::string name;
      ls >> name;
      if (name == "no_write_retransmit") {
        spec.config.bug_no_write_retransmit = true;
      } else if (name == "single_source_recovery") {
        spec.config.bug_single_source_recovery = true;
      } else if (name == "no_gc_revalidate") {
        spec.config.bug_no_gc_revalidate = true;
      } else {
        return InvalidArgumentError("mc-spec: unknown bug '" + name + "'" +
                                    at_line);
      }
    } else if (word == "op") {
      McOp op;
      std::string kind;
      ls >> kind;
      if (!ParseOpKind(kind, &op.kind)) {
        return InvalidArgumentError("mc-spec: unknown op '" + kind + "'" +
                                    at_line);
      }
      std::string tok, k, v;
      while (ls >> tok) {
        if (!SplitKv(tok, &k, &v)) {
          return InvalidArgumentError("mc-spec: bad token '" + tok + "'" +
                                      at_line);
        }
        if (k == "key") {
          op.key = v;
        } else if (k == "size") {
          op.value_size = static_cast<uint32_t>(ParseU64(v));
        } else if (k == "nonce") {
          op.nonce = ParseU64(v);
        } else if (k == "at") {
          op.at_ns = ParseU64(v);
        } else if (k == "client") {
          op.client = static_cast<uint32_t>(ParseU64(v));
        } else {
          return InvalidArgumentError("mc-spec: unknown op key '" + k + "'" +
                                      at_line);
        }
      }
      spec.config.ops.push_back(std::move(op));
    } else if (word == "step") {
      McDecision d;
      std::string kind;
      ls >> d.step >> kind;
      if (!ParseDecisionKind(kind, &d.kind)) {
        return InvalidArgumentError("mc-spec: unknown decision '" + kind +
                                    "'" + at_line);
      }
      std::string tok, k, v;
      while (ls >> tok) {
        if (!SplitKv(tok, &k, &v)) {
          return InvalidArgumentError("mc-spec: bad token '" + tok + "'" +
                                      at_line);
        }
        if (k == "tag") {
          d.tag = ParseU64(v);
        } else if (k == "node") {
          d.node = static_cast<uint32_t>(ParseU64(v));
        } else {
          return InvalidArgumentError("mc-spec: unknown step key '" + k +
                                      "'" + at_line);
        }
      }
      if (!spec.decisions.empty() && spec.decisions.back().step >= d.step) {
        return InvalidArgumentError("mc-spec: steps out of order" + at_line);
      }
      spec.decisions.push_back(d);
    } else if (word == "expect") {
      std::string tok, k, v;
      while (ls >> tok) {
        if (!SplitKv(tok, &k, &v)) {
          return InvalidArgumentError("mc-spec: bad token '" + tok + "'" +
                                      at_line);
        }
        if (k == "violation") {
          spec.expect_violation = v == "none" ? "" : v;
        } else if (k == "digest") {
          spec.expect_digest = ParseU64(v);
        } else {
          return InvalidArgumentError("mc-spec: unknown expect key '" + k +
                                      "'" + at_line);
        }
      }
    } else {
      return InvalidArgumentError("mc-spec: unknown directive '" + word +
                                  "'" + at_line);
    }
  }
  return spec;
}

}  // namespace ring::mc
