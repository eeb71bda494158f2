#include "src/mc/spec.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/parse.h"

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

// Reads `v`, the value in token `tok`, into the unsigned field `*out` in the
// form ToString writes it: decimal, or 0x-hex with `hex` (the digest), within
// the field's range. Keeps the first token that does not read in `*bad`.
template <typename T>
void ReadNumber(const std::string& tok, const std::string& v, T* out,
                std::string* bad, bool hex = false) {
  uint64_t x = 0;
  if (ParseUnsigned(v, &x, std::numeric_limits<T>::max(), hex)) {
    *out = static_cast<T>(x);
  } else if (bad->empty()) {
    *bad = tok;
  }
}

Status BadNumber(const std::string& tok, const std::string& at_line) {
  return InvalidArgumentError("mc-spec: bad number in '" + tok + "'" +
                              at_line);
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
    std::string bad;  // the line's first token whose number does not read
    if (word == "config" || word == "bounds") {
      std::string tok, k, v;
      while (ls >> tok) {
        if (!SplitKv(tok, &k, &v)) {
          return InvalidArgumentError("mc-spec: bad token '" + tok + "'" +
                                      at_line);
        }
        if (k == "s") {
          ReadNumber(tok, v, &spec.config.s, &bad);
        } else if (k == "d") {
          ReadNumber(tok, v, &spec.config.d, &bad);
        } else if (k == "spares") {
          ReadNumber(tok, v, &spec.config.spares, &bad);
        } else if (k == "clients") {
          ReadNumber(tok, v, &spec.config.clients, &bad);
        } else if (k == "seed") {
          ReadNumber(tok, v, &spec.config.seed, &bad);
        } else if (k == "scheme") {
          spec.config.scheme = v;
        } else if (k == "reorder_window_ns") {
          ReadNumber(tok, v, &spec.config.reorder_window_ns, &bad);
        } else if (k == "max_steps") {
          ReadNumber(tok, v, &spec.config.max_steps, &bad);
        } else if (k == "max_drops") {
          ReadNumber(tok, v, &spec.config.max_drops, &bad);
        } else if (k == "max_crashes") {
          ReadNumber(tok, v, &spec.config.max_crashes, &bad);
        } else if (k == "quiesce_ns") {
          ReadNumber(tok, v, &spec.config.quiesce_ns, &bad);
        } else if (k == "write_retransmit_ns") {
          ReadNumber(tok, v, &spec.config.write_retransmit_ns, &bad);
        } else if (k == "multiversion_depth") {
          ReadNumber(tok, v, &spec.config.multiversion_depth, &bad);
        } else if (k == "nonblocking_reads") {
          ReadNumber(tok, v, &spec.config.nonblocking_reads, &bad);
        } else {
          return InvalidArgumentError("mc-spec: unknown key '" + k + "'" +
                                      at_line);
        }
      }
    } else if (word == "crashable") {
      std::string tok, k, v;
      uint32_t node = 0;
      if (!(ls >> tok) || !SplitKv(tok, &k, &v) || k != "node") {
        return InvalidArgumentError("mc-spec: bad crashable line" + at_line);
      }
      ReadNumber(tok, v, &node, &bad);
      spec.config.crash_nodes.push_back(node);
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
          ReadNumber(tok, v, &r.node, &bad);
          have_node = true;
        } else if (k == "at") {
          ReadNumber(tok, v, &r.at_ns, &bad);
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
          ReadNumber(tok, v, &op.value_size, &bad);
        } else if (k == "nonce") {
          ReadNumber(tok, v, &op.nonce, &bad);
        } else if (k == "at") {
          ReadNumber(tok, v, &op.at_ns, &bad);
        } else if (k == "client") {
          ReadNumber(tok, v, &op.client, &bad);
        } else {
          return InvalidArgumentError("mc-spec: unknown op key '" + k + "'" +
                                      at_line);
        }
      }
      spec.config.ops.push_back(std::move(op));
    } else if (word == "step") {
      McDecision d;
      std::string step, kind;
      ls >> step >> kind;
      ReadNumber(step, step, &d.step, &bad);
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
          ReadNumber(tok, v, &d.tag, &bad);
        } else if (k == "node") {
          ReadNumber(tok, v, &d.node, &bad);
        } else {
          return InvalidArgumentError("mc-spec: unknown step key '" + k +
                                      "'" + at_line);
        }
      }
      if (!bad.empty()) {
        return BadNumber(bad, at_line);
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
          ReadNumber(tok, v, &spec.expect_digest, &bad, /*hex=*/true);
        } else {
          return InvalidArgumentError("mc-spec: unknown expect key '" + k +
                                      "'" + at_line);
        }
      }
    } else {
      return InvalidArgumentError("mc-spec: unknown directive '" + word +
                                  "'" + at_line);
    }
    if (!bad.empty()) {
      return BadNumber(bad, at_line);
    }
  }
  return spec;
}

}  // namespace ring::mc
