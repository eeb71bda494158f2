#include "src/ring/registry.h"

namespace ring {

MemgestRegistry::MemgestRegistry(uint32_t s, uint32_t d, uint64_t stripe_unit,
                                 uint32_t groups)
    : s_(s), d_(d), groups_(groups), stripe_unit_(stripe_unit) {}

Result<MemgestId> MemgestRegistry::Create(const MemgestDescriptor& desc) {
  if (desc.kind == SchemeKind::kReplicated) {
    if (desc.r < 1 || desc.r > s_ + d_) {
      return InvalidArgumentError("Rep(r) requires 1 <= r <= s+d");
    }
  } else {
    if (desc.k < 1 || desc.k > s_) {
      return InvalidArgumentError("SRS(k,m,s) requires 1 <= k <= s");
    }
    if (desc.m < 1 || desc.m > d_) {
      return InvalidArgumentError("SRS(k,m,s) requires 1 <= m <= d");
    }
  }
  auto info = std::make_unique<MemgestInfo>();
  info->id = static_cast<MemgestId>(memgests_.size());
  info->desc = desc;
  if (desc.kind == SchemeKind::kErasureCoded) {
    auto code = srs::SrsCode::Create(desc.k, desc.m, s_);
    if (!code.ok()) {
      return code.status();
    }
    info->code = std::make_unique<srs::SrsCode>(std::move(code).value());
    info->map =
        std::make_unique<srs::SrsAddressMap>(info->code.get(), stripe_unit_);
  }
  const MemgestId id = info->id;
  memgests_.push_back(std::move(info));
  if (default_id_ == kDefaultMemgest) {
    default_id_ = id;  // first memgest becomes the default
  }
  return id;
}

Status MemgestRegistry::Delete(MemgestId id) {
  if (id >= memgests_.size() || memgests_[id]->deleted) {
    return NotFoundError("no such memgest");
  }
  if (id == default_id_) {
    return FailedPreconditionError("cannot delete the default memgest");
  }
  memgests_[id]->deleted = true;
  return OkStatus();
}

const MemgestInfo* MemgestRegistry::Get(MemgestId id) const {
  if (id >= memgests_.size() || memgests_[id]->deleted) {
    return nullptr;
  }
  return memgests_[id].get();
}

Status MemgestRegistry::SetDefault(MemgestId id) {
  if (Get(id) == nullptr) {
    return NotFoundError("no such memgest");
  }
  default_id_ = id;
  return OkStatus();
}

std::vector<uint32_t> MemgestRegistry::ReplicaSlotsFor(const MemgestInfo& info,
                                                       uint32_t shard,
                                                       uint32_t s, uint32_t d) {
  std::vector<uint32_t> slots;
  if (info.desc.kind != SchemeKind::kReplicated) {
    return slots;
  }
  const uint32_t sigma = shard % s;   // in-group coordinator index
  const uint32_t group = shard / s;   // rotation offset (§5.4)
  for (uint32_t t = 0; t + 1 < info.desc.r; ++t) {
    slots.push_back((sigma + 1 + t + group) % (s + d));
  }
  return slots;
}

std::vector<uint32_t> MemgestRegistry::ParitySlotsFor(const MemgestInfo& info,
                                                      uint32_t group,
                                                      uint32_t s, uint32_t d) {
  std::vector<uint32_t> slots;
  if (info.desc.kind != SchemeKind::kErasureCoded) {
    return slots;
  }
  for (uint32_t j = 0; j < info.desc.m; ++j) {
    slots.push_back((s + j + group) % (s + d));
  }
  return slots;
}

Status MemgestRegistry::Resize(uint32_t new_s) {
  if (new_s == s_) {
    return OkStatus();
  }
  for (const auto& m : memgests_) {
    if (m->deleted) {
      continue;
    }
    if (m->erasure_coded() && m->desc.k > new_s) {
      return FailedPreconditionError("memgest " + m->desc.name +
                                     " needs k <= s at the new shape");
    }
    if (!m->erasure_coded() && m->desc.r > new_s + d_) {
      return FailedPreconditionError("memgest " + m->desc.name +
                                     " needs r <= s+d at the new shape");
    }
  }
  for (auto& m : memgests_) {
    if (m->deleted || !m->erasure_coded()) {
      continue;
    }
    // Park the outgoing geometry, then adopt (or build) the new one.
    m->geoms[s_] = MemgestGeometry{std::move(m->code), std::move(m->map)};
    if (auto it = m->geoms.find(new_s); it != m->geoms.end()) {
      m->code = std::move(it->second.code);
      m->map = std::move(it->second.map);
      m->geoms.erase(it);
    } else {
      auto code = srs::SrsCode::Create(m->desc.k, m->desc.m, new_s);
      if (!code.ok()) {
        return code.status();
      }
      m->code = std::make_unique<srs::SrsCode>(std::move(code).value());
      m->map =
          std::make_unique<srs::SrsAddressMap>(m->code.get(), stripe_unit_);
    }
  }
  s_ = new_s;
  return OkStatus();
}

const srs::SrsCode* MemgestRegistry::CodeFor(const MemgestInfo& info,
                                             uint32_t geom_s) const {
  if (!info.erasure_coded()) {
    return nullptr;
  }
  if (geom_s == s_) {
    return info.code.get();
  }
  const auto it = info.geoms.find(geom_s);
  return it == info.geoms.end() ? nullptr : it->second.code.get();
}

const srs::SrsAddressMap* MemgestRegistry::MapFor(const MemgestInfo& info,
                                                  uint32_t geom_s) const {
  if (!info.erasure_coded()) {
    return nullptr;
  }
  if (geom_s == s_) {
    return info.map.get();
  }
  const auto it = info.geoms.find(geom_s);
  return it == info.geoms.end() ? nullptr : it->second.map.get();
}

size_t MemgestRegistry::count() const {
  size_t n = 0;
  for (const auto& m : memgests_) {
    if (!m->deleted) {
      ++n;
    }
  }
  return n;
}

void MemgestRegistry::ForEach(
    const std::function<void(const MemgestInfo&)>& fn) const {
  for (const auto& m : memgests_) {
    if (!m->deleted) {
      fn(*m);
    }
  }
}

}  // namespace ring
