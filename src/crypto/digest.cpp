#include "crypto/digest.h"

#include "obs/obs.h"
#include "util/strings.h"

namespace hpcc::crypto {

Digest Digest::of(BytesView data) {
  // Every content hash passes here, so this counts the bytes the fleet
  // hashes wherever it does so, pool workers included.
  obs::count("crypto.bytes_hashed", data.size());
  const auto raw = Sha256::hash(data);
  Digest d;
  d.hex_ = strings::hex_encode(raw);
  return d;
}

Digest Digest::of(std::string_view text) {
  return of(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()));
}

Result<Digest> Digest::parse(std::string_view text) {
  constexpr std::string_view kPrefix = "sha256:";
  if (!strings::starts_with(text, kPrefix))
    return err_invalid("digest must start with 'sha256:': " + std::string(text));
  const std::string_view hex = text.substr(kPrefix.size());
  if (hex.size() != 64)
    return err_invalid("digest hex must be 64 chars, got " +
                       std::to_string(hex.size()));
  std::vector<std::uint8_t> decoded;
  if (!strings::hex_decode(hex, decoded))
    return err_invalid("digest contains non-hex characters");
  return Digest(strings::to_lower(hex));
}

Result<Unit> verify_digest(BytesView data, const Digest& expected) {
  const Digest actual = Digest::of(data);
  if (actual != expected) {
    return err_integrity("content digest " + actual.to_string() +
                         " does not match expected " + expected.to_string());
  }
  return ok_unit();
}

}  // namespace hpcc::crypto
