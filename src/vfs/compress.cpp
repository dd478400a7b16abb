#include "vfs/compress.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace hpcc::vfs {

namespace {
constexpr std::size_t kWindow = 4096;      // 12-bit distances
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;      // kMinMatch + 15
constexpr std::size_t kHashSize = 1 << 13;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes.
  const std::uint32_t v =
      std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) | (std::uint32_t(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 13);
}

// Length of the common prefix of `a` and `b`, at most `limit` bytes,
// compared a word at a time.
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (x != y) {
      const std::uint64_t diff = x ^ y;
      return len + static_cast<std::size_t>(
                       std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff)) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}
}  // namespace

Bytes lzss_compress(BytesView input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  append_u64(out, input.size());

  // Hash chains: head[h] = most recent position with hash h, and
  // prev[p & ring_mask] = the position before p in its chain. The chain
  // walk only follows positions within kWindow of the current one, so a
  // ring of 2 * kWindow slots still holds every link it reads; shorter
  // inputs need only one slot per position.
  std::array<std::int64_t, kHashSize> head;
  head.fill(-1);
  const std::size_t ring_size = std::min(
      2 * kWindow, std::bit_ceil(std::max<std::size_t>(input.size(), 1)));
  const std::size_t ring_mask = ring_size - 1;
  std::vector<std::int64_t> prev(ring_size, -1);

  std::size_t pos = 0;
  std::size_t flag_pos = 0;
  int flag_bit = 8;  // force new flag byte on first token

  auto begin_token = [&](bool literal) {
    if (flag_bit == 8) {
      flag_pos = out.size();
      out.push_back(0);
      flag_bit = 0;
    }
    if (literal) out[flag_pos] |= static_cast<std::uint8_t>(1u << flag_bit);
    ++flag_bit;
  };

  while (pos < input.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;

    if (pos + kMinMatch <= input.size()) {
      const std::uint32_t h = hash3(input.data() + pos);
      const std::size_t limit = std::min(kMaxMatch, input.size() - pos);
      std::int64_t cand = head[h];
      int chain = 32;  // bounded chain walk keeps compression O(n)
      while (cand >= 0 && chain-- > 0 &&
             pos - static_cast<std::size_t>(cand) <= kWindow) {
        const std::size_t c = static_cast<std::size_t>(cand);
        // Only a strictly longer match replaces the best, and a candidate
        // that differs at byte best_len cannot give one.
        if (input[c + best_len] == input[pos + best_len]) {
          const std::size_t len =
              match_length(input.data() + c, input.data() + pos, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = pos - c;
            if (len == limit) break;  // nothing longer fits
          }
        }
        cand = prev[c & ring_mask];
      }
      // Insert current position into the chain.
      prev[pos & ring_mask] = head[h];
      head[h] = static_cast<std::int64_t>(pos);
    }

    if (best_len >= kMinMatch) {
      begin_token(/*literal=*/false);
      const std::uint16_t dist_code = static_cast<std::uint16_t>(best_dist - 1);
      const std::uint8_t len_code = static_cast<std::uint8_t>(best_len - kMinMatch);
      out.push_back(static_cast<std::uint8_t>(dist_code & 0xff));
      out.push_back(static_cast<std::uint8_t>(((dist_code >> 8) & 0x0f) |
                                              (len_code << 4)));
      // Register skipped positions in the hash chains for better matches.
      for (std::size_t k = 1; k < best_len && pos + k + kMinMatch <= input.size();
           ++k) {
        const std::uint32_t h2 = hash3(input.data() + pos + k);
        prev[(pos + k) & ring_mask] = head[h2];
        head[h2] = static_cast<std::int64_t>(pos + k);
      }
      pos += best_len;
    } else {
      begin_token(/*literal=*/true);
      out.push_back(input[pos]);
      ++pos;
    }
  }
  return out;
}

Result<std::uint64_t> lzss_declared_size(BytesView input) {
  if (input.size() < 8) return err_invalid("lzss: buffer too short for header");
  return read_u64(input, 0);
}

Result<Bytes> lzss_decompress(BytesView input) {
  HPCC_TRY(const std::uint64_t expected, lzss_declared_size(input));
  Bytes out;
  // Reserve the full declared size up front (no reallocation churn on
  // large blobs), but never more than the format's maximum expansion of
  // the remaining stream — a corrupt header must not trigger a giant
  // allocation before the truncation checks below reject it.
  const std::uint64_t max_expansion =
      static_cast<std::uint64_t>(input.size()) * kMaxMatch;
  out.reserve(static_cast<std::size_t>(std::min(expected, max_expansion)));

  std::size_t pos = 8;
  std::uint8_t flags = 0;
  int flag_bit = 8;

  while (out.size() < expected) {
    if (flag_bit == 8) {
      if (pos >= input.size()) return err_integrity("lzss: truncated stream");
      flags = input[pos++];
      flag_bit = 0;
    }
    const bool literal = (flags >> flag_bit) & 1;
    ++flag_bit;
    if (literal) {
      if (pos >= input.size()) return err_integrity("lzss: truncated literal");
      out.push_back(input[pos++]);
    } else {
      if (pos + 2 > input.size()) return err_integrity("lzss: truncated match");
      const std::uint8_t b0 = input[pos];
      const std::uint8_t b1 = input[pos + 1];
      pos += 2;
      const std::size_t dist = (std::size_t(b0) | (std::size_t(b1 & 0x0f) << 8)) + 1;
      const std::size_t len = std::size_t(b1 >> 4) + kMinMatch;
      if (dist > out.size())
        return err_integrity("lzss: match reference before window start");
      const std::size_t start = out.size() - dist;
      const std::size_t take =
          std::min<std::uint64_t>(len, expected - out.size());
      if (dist >= take) {
        // Non-overlapping: one bulk append (the common case).
        const std::size_t old_size = out.size();
        out.resize(old_size + take);
        std::memcpy(out.data() + old_size, out.data() + start, take);
      } else {
        // Overlapping matches (dist < len) are legal and reproduce
        // run-length behaviour; they must copy byte-by-byte.
        for (std::size_t i = 0; i < take; ++i) out.push_back(out[start + i]);
      }
    }
  }
  return out;
}

}  // namespace hpcc::vfs
