// hpcc/crypto/sha256.h
//
// SHA-256 (FIPS 180-4). This is a real, test-vector-verified
// implementation: content addressing is the backbone of the OCI image
// model the survey describes (layers are "identified by a hash calculated
// from the data in that layer", §3.1), and layer deduplication in
// registries depends on digests being collision-resistant in practice.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace hpcc::crypto {

/// Incremental SHA-256. Feed data with update(), finish with digest().
/// A Sha256 object may be reused after reset().
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using DigestBytes = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  void update(std::string_view text);

  /// Finalizes and returns the 32-byte digest. The object must be
  /// reset() before further use.
  DigestBytes digest();

  /// One-shot convenience.
  static DigestBytes hash(BytesView data);
  static DigestBytes hash(std::string_view text);

 private:
  /// Folds `n` whole 64-byte blocks into h_ with the kernel this CPU
  /// supports (see detail below).
  void process_blocks(const std::uint8_t* data, std::size_t n);

  std::uint32_t h_[8];
  std::uint8_t buffer_[64];
  std::size_t buffer_len_;
  std::uint64_t total_len_;
};

/// The compression kernels behind Sha256. Each folds `n` 64-byte blocks
/// into the eight state words. Sha256 uses compress_shani when the CPU
/// has the SHA extensions and compress_scalar otherwise; the scalar
/// kernel is also the tests' oracle. Callers hash through Sha256.
namespace detail {
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t n);
void compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t n);
#if defined(__x86_64__) || defined(__i386__)
/// True when this CPU has SHA-NI and SSE4.1.
bool cpu_has_shani();
/// Only valid to call when cpu_has_shani().
void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t n);
#endif
}  // namespace detail

}  // namespace hpcc::crypto
