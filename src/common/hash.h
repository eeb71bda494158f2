// Key hashing for the key-to-node mapping `i = h(key) mod s` (paper §5.1).
#ifndef RING_SRC_COMMON_HASH_H_
#define RING_SRC_COMMON_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace ring {

// 64-bit FNV-1a over the key bytes followed by a splitmix64 finalizer. The
// finalizer matters: `mod s` for small s exposes the weak low bits of plain
// FNV-1a, and shard balance (paper §5.1, §5.4) depends on a well-mixed hash.
uint64_t HashKey(std::string_view key);

// Shard for a key in a group with `s` coordinator shards.
inline uint32_t KeyShard(std::string_view key, uint32_t s) {
  return static_cast<uint32_t>(HashKey(key) % s);
}

// A key together with its HashKey, computed once where the key enters the
// system (the client routing an op) and carried with it from then on. Only
// the key bytes build one, so the hash a site reads always matches the key
// it reads.
class HashedKey {
 public:
  // The empty key. Request structs default-construct one before the
  // client assigns the real key, so it must not cost a hash.
  HashedKey() = default;
  explicit HashedKey(std::string key)
      : key_(std::move(key)), hash_(HashKey(key_)) {}

  // Full-hash collisions cannot be found by search; tests build them here.
  // ring-lint: ok(test-only-api) VolatileIndex's collision probing
  static HashedKey WithHashForTesting(std::string key, uint64_t hash) {
    HashedKey k;
    k.key_ = std::move(key);
    k.hash_ = hash;
    return k;
  }

  const std::string& str() const { return key_; }
  uint64_t hash() const { return hash_; }
  // KeyShard(str(), s) without rehashing.
  uint32_t Shard(uint32_t s) const { return static_cast<uint32_t>(hash_ % s); }

 private:
  // HashKey(""); common_test checks the constant.
  static constexpr uint64_t kEmptyHash = 0xf52a15e9a9b5e89bull;

  std::string key_;
  uint64_t hash_ = kEmptyHash;
};

}  // namespace ring

#endif  // RING_SRC_COMMON_HASH_H_
