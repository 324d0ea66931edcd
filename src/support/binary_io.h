// Little-endian byte-buffer writers and a bounds-checked reader.
//
// Shared by the on-disk cache header (support/cache_store.cpp), the
// model serializer (model/serialize.cpp), and the driver's cached-value
// codec (driver/batch.cpp) so all on-disk bytes use one encoding:
// fixed-width little-endian integers and u32-length-prefixed strings.
// The Reader never trusts input: every accessor returns false instead of
// reading past the buffer, which is what makes truncated cache entries a
// recoverable miss rather than UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mira::bio {

inline void putU8(std::string &out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void putU32(std::string &out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void putU64(std::string &out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void putI64(std::string &out, std::int64_t v) {
  putU64(out, static_cast<std::uint64_t>(v));
}

inline void putString(std::string &out, const std::string &s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Cursor over a byte buffer; every read is bounds-checked and fails
/// (returns false) instead of running off the end.
struct Reader {
  const std::string &bytes;
  std::size_t offset = 0;

  std::size_t remaining() const { return bytes.size() - offset; }

  bool u8(std::uint8_t &v) {
    if (remaining() < 1)
      return false;
    v = static_cast<std::uint8_t>(bytes[offset++]);
    return true;
  }

  bool u32(std::uint32_t &v) {
    if (remaining() < 4)
      return false;
    v = 0;
    for (int i = 3; i >= 0; --i)
      v = (v << 8) | static_cast<std::uint8_t>(bytes[offset + i]);
    offset += 4;
    return true;
  }

  bool u64(std::uint64_t &v) {
    if (remaining() < 8)
      return false;
    v = 0;
    for (int i = 7; i >= 0; --i)
      v = (v << 8) | static_cast<std::uint8_t>(bytes[offset + i]);
    offset += 8;
    return true;
  }

  bool i64(std::int64_t &v) {
    std::uint64_t u = 0;
    if (!u64(u))
      return false;
    std::memcpy(&v, &u, sizeof(v));
    return true;
  }

  /// A length-prefixed string, borrowed from the buffer (valid while
  /// `bytes` is).
  bool view(std::string_view &s) {
    std::uint32_t len = 0;
    if (!u32(len) || remaining() < len)
      return false;
    s = std::string_view(bytes).substr(offset, len);
    offset += len;
    return true;
  }

  bool str(std::string &s) {
    std::string_view v;
    if (!view(v))
      return false;
    s.assign(v);
    return true;
  }
};

} // namespace mira::bio
