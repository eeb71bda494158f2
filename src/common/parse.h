// Strict number parsing for the repository's text grammars (fault plans,
// ring-mc schedule specs): a value reads only in a form their printers
// write, so a typo fails the parse instead of becoming another number.
#ifndef RING_SRC_COMMON_PARSE_H_
#define RING_SRC_COMMON_PARSE_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>

namespace ring {

// Parses all of `text` as an unsigned decimal no greater than `max` into
// `*out`; with `hex`, a 0x-prefixed hexadecimal too. A sign, a space, any
// other prefix or suffix, an empty text and a value above `max` fail, and
// leave `*out` unchanged.
inline bool ParseUnsigned(std::string_view text, uint64_t* out,
                          uint64_t max = std::numeric_limits<uint64_t>::max(),
                          bool hex = false) {
  const int base = hex && text.starts_with("0x") ? 16 : 10;
  text.remove_prefix(base == 16 ? 2 : 0);
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, v, base);
  if (error != std::errc() || stop != end || v > max) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace ring

#endif  // RING_SRC_COMMON_PARSE_H_
