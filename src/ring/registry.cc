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
  if (info->erasure_coded()) {
    if (Status added = AddGeometry(*info, s_); !added.ok()) {
      return added;
    }
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
    if (Status added = AddGeometry(*m, new_s); !added.ok()) {
      return added;
    }
  }
  s_ = new_s;
  return OkStatus();
}

Status MemgestRegistry::AddGeometry(MemgestInfo& info, uint32_t s) const {
  if (info.geoms.contains(s)) {
    return OkStatus();
  }
  auto code = srs::SrsCode::Create(info.desc.k, info.desc.m, s);
  if (!code.ok()) {
    return code.status();
  }
  MemgestGeometry& geom = info.geoms[s];
  geom.code = std::make_unique<srs::SrsCode>(std::move(code).value());
  geom.map =
      std::make_unique<srs::SrsAddressMap>(geom.code.get(), stripe_unit_);
  return OkStatus();
}

const srs::SrsCode* MemgestRegistry::CodeFor(const MemgestInfo& info,
                                             uint32_t geom_s) const {
  const auto it = info.geoms.find(geom_s);
  return it == info.geoms.end() ? nullptr : it->second.code.get();
}

const srs::SrsAddressMap* MemgestRegistry::MapFor(const MemgestInfo& info,
                                                  uint32_t geom_s) const {
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
