// hpcc/util/bytes.h
//
// Byte-buffer aliases and helpers shared by the image, crypto and
// registry layers. A container layer blob, a manifest, a signature — all
// are just Bytes in transit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hpcc {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;
/// An immutable buffer shared by reference. A blob travels this way
/// from a registry through a proxy into a node's store, so no hop
/// copies its bytes.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Copies a string's characters into a byte buffer (no encoding changes).
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Copies a byte buffer into a std::string (useful for text payloads such
/// as manifests that are stored as blobs).
inline std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Little-endian fixed-width integer append/read, used by the archive and
/// image container formats. All hpcc on-"disk" formats are little-endian.
inline void append_u32(Bytes& dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void append_u64(Bytes& dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline std::uint32_t read_u32(BytesView b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(b[off + i]) << (8 * i);
  return v;
}
inline std::uint64_t read_u64(BytesView b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(b[off + i]) << (8 * i);
  return v;
}

}  // namespace hpcc
