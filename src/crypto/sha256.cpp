#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hpcc::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t n) {
  // The kernel is picked once per process: the CPU does not change.
  static const detail::CompressFn compress =
#if defined(__x86_64__) || defined(__i386__)
      detail::cpu_has_shani() ? detail::compress_shani :
#endif
                              detail::compress_scalar;
  compress(h_, data, n);
}

namespace detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t n) {
  for (; n > 0; --n, data += 64) {
    const std::uint8_t* block = data;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(block[i * 4]) << 24) |
             (std::uint32_t(block[i * 4 + 1]) << 16) |
             (std::uint32_t(block[i * 4 + 2]) << 8) |
             std::uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)
bool cpu_has_shani() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

// SHA-NI keeps the state as two vectors, ABEF and CDGH (high lane
// first). _mm_sha256rnds2_epu32 runs two rounds on the low two words of
// its message+constant operand; each group of four rounds adds
// W[4r..4r+3] to K[4r..4r+3] and calls it twice, shifting the upper pair
// down in between. _mm_sha256msg1/msg2 expand the schedule four words at
// a time.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t n) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);               // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);       // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);            // CDGH

  for (; n > 0; --n, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[r % 4] holds W[4r..4r+3]
#pragma GCC unroll 16
    for (int r = 0; r < 16; ++r) {
      if (r < 4) {
        w[r] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * r)),
            kByteSwap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        const __m128i w7 =
            _mm_alignr_epi8(w[(r + 3) % 4], w[(r + 2) % 4], 4);
        w[r % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[r % 4], w[(r + 1) % 4]), w7),
            w[(r + 3) % 4]);
      }
      const __m128i wk = _mm_add_epi32(
          w[r % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * r)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);                // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);               // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));     // HGFE
}
#endif

}  // namespace detail

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  // Stage into buffer_ only for a partial leading block; block-aligned
  // input below is hashed in place with no copy.
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (off + 64 <= data.size()) {
    const std::size_t blocks = (data.size() - off) / 64;
    process_blocks(data.data() + off, blocks);
    off += blocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

void Sha256::update(std::string_view text) {
  update(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()));
}

Sha256::DigestBytes Sha256::digest() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian bit length.
  std::uint8_t pad[72];
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  const std::size_t rem = (buffer_len_ + 1) % 64;
  const std::size_t zeros = (rem <= 56) ? (56 - rem) : (120 - rem);
  for (std::size_t i = 0; i < zeros; ++i) pad[pad_len++] = 0;
  for (int i = 7; i >= 0; --i)
    pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  update(BytesView(pad, pad_len));
  // total_len_ changed by the padding update, but we're done hashing.

  DigestBytes out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha256::DigestBytes Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.digest();
}

Sha256::DigestBytes Sha256::hash(std::string_view text) {
  Sha256 h;
  h.update(text);
  return h.digest();
}

}  // namespace hpcc::crypto
