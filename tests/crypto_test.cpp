// Unit tests for hpcc_crypto.
//
// SHA-256 and ChaCha20 are checked against published test vectors
// (FIPS 180-4 / RFC 8439); HMAC against RFC 4231. The signature and
// sealed-box schemes are checked for the behavioural properties the
// container stack depends on: tamper detection, wrong-key rejection,
// determinism, serialization round-trips.
#include <gtest/gtest.h>

#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/keyring.h"
#include "crypto/sha256.h"
#include "crypto/sign.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hpcc::crypto {
namespace {

std::string hex(BytesView b) { return strings::hex_encode(b); }

template <std::size_t N>
std::string hex(const std::array<std::uint8_t, N>& a) {
  return strings::hex_encode(std::span(a.data(), a.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, cut));
    h.update(std::string_view(msg).substr(cut));
    EXPECT_EQ(hex(h.digest()), hex(Sha256::hash(std::string_view(msg))));
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.update(std::string_view("garbage"));
  (void)h.digest();
  h.reset();
  h.update(std::string_view("abc"));
  EXPECT_EQ(hex(h.digest()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ------------------------------------------------------- SHA-256 kernels
//
// Sha256 runs one of two compression kernels (detail::compress_scalar
// or, where the CPU has the SHA extensions, detail::compress_shani).
// These tests drive each kernel directly; the scalar one is the oracle.

// Pads `msg` per FIPS 180-4 and folds it through `compress` from the
// standard initial state; returns the digest as hex.
std::string digest_with(detail::CompressFn compress, BytesView msg) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  compress(state, padded.data(), padded.size() / 64);
  Bytes out;
  for (std::uint32_t word : state)
    for (int i = 3; i >= 0; --i)
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
  return hex(out);
}

std::string digest_with(detail::CompressFn compress, std::string_view text) {
  return digest_with(compress, to_bytes(text));
}

// The four FIPS 180-4 vectors above, through one kernel.
void expect_fips_vectors(detail::CompressFn compress) {
  EXPECT_EQ(digest_with(compress, std::string_view("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(compress, std::string_view("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_with(compress,
                        std::string_view("abcdbcdecdefdefgefghfghighijhijkijkl"
                                         "jklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(compress, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The SHA-NI kernel, or nullptr where this build or CPU has none.
detail::CompressFn shani_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (detail::cpu_has_shani()) return detail::compress_shani;
#endif
  return nullptr;
}

TEST(Sha256KernelTest, ScalarKernelMatchesFipsVectors) {
  expect_fips_vectors(detail::compress_scalar);
}

TEST(Sha256KernelTest, ShaniKernelMatchesFipsVectors) {
  const auto shani = shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_fips_vectors(shani);
}

TEST(Sha256KernelTest, ShaniMatchesScalarOnRandomStatesAndRuns) {
  const auto shani = shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(180);
  Bytes data(64 * 64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
    for (int trial = 0; trial < 4; ++trial) {
      std::uint32_t scalar[8], fast[8];
      for (int i = 0; i < 8; ++i)
        scalar[i] = fast[i] = static_cast<std::uint32_t>(rng.next_u64());
      const std::size_t off = rng.next_below(64 * (64 - blocks) + 1);
      detail::compress_scalar(scalar, data.data() + off, blocks);
      shani(fast, data.data() + off, blocks);
      for (int i = 0; i < 8; ++i)
        ASSERT_EQ(fast[i], scalar[i])
            << "word " << i << ", " << blocks << " blocks at offset " << off;
    }
  }
}

TEST(Sha256Test, SplitAtEveryOffsetMatchesScalarOracle) {
  // Two cuts anywhere in the first 128 bytes: the first piece fills
  // buffer_ partway, the second flushes it, runs whole blocks or stays
  // short, and the tail is staged again.
  Rng rng(4);
  Bytes msg(300);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::string expected = digest_with(detail::compress_scalar, msg);
  for (std::size_t a = 0; a <= 128; ++a) {
    for (std::size_t b = a; b <= 128; ++b) {
      Sha256 h;
      h.update(BytesView(msg.data(), a));
      h.update(BytesView(msg.data() + a, b - a));
      h.update(BytesView(msg.data() + b, msg.size() - b));
      ASSERT_EQ(hex(h.digest()), expected) << "cuts at " << a << ", " << b;
    }
  }
}

// ----------------------------------------------------------------- Digest

TEST(DigestTest, CanonicalForm) {
  const Digest d = Digest::of(std::string_view("abc"));
  EXPECT_EQ(d.to_string(),
            "sha256:"
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(d.short_form(), "ba7816bf8f01");
  EXPECT_FALSE(d.empty());
}

TEST(DigestTest, ParseRoundTrip) {
  const Digest d = Digest::of(std::string_view("layer data"));
  const auto parsed = Digest::parse(d.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), d);
}

TEST(DigestTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Digest::parse("md5:abcd").ok());
  EXPECT_FALSE(Digest::parse("sha256:tooshort").ok());
  EXPECT_FALSE(Digest::parse("sha256:" + std::string(64, 'z')).ok());
  const auto e = Digest::parse("plainhex");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().code(), ErrorCode::kInvalidArgument);
}

TEST(DigestTest, VerifyDetectsCorruption) {
  Bytes data = to_bytes("pristine layer contents");
  const Digest d = Digest::of(data);
  EXPECT_TRUE(verify_digest(data, d).ok());
  data[0] ^= 1;
  const auto bad = verify_digest(data, d);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kIntegrity);
}

TEST(DigestTest, EmptyDigestMatchesNothing) {
  Digest empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_NE(empty, Digest::of(std::string_view("")));
}

// ------------------------------------------------------------------- HMAC

TEST(HmacTest, Rfc4231Case1) {
  // Key = 20 bytes of 0x0b, message "Hi There".
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  // Key "Jefe", message "what do ya want for nothing?".
  const auto mac =
      hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3LongKeyPath) {
  // 131-byte key of 0xaa exercises the hash-the-key branch.
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, MacEqualConstantTimeSemantics) {
  const auto a = hmac_sha256(to_bytes("k"), to_bytes("m"));
  auto b = a;
  EXPECT_TRUE(mac_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(mac_equal(a, b));
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20Test, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2 test vector.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  // RFC 8439 §2.4.2: "Ladies and Gentlemen..." plaintext.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  Bytes data = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  chacha20_xor(key, nonce, 1, data);
  EXPECT_EQ(hex(BytesView(data.data(), 16)), "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20Test, XorIsInvolution) {
  ChaChaKey key{};
  key[0] = 0x42;
  ChaChaNonce nonce{};
  Bytes data = to_bytes("round trip me please");
  const Bytes original = data;
  chacha20_xor(key, nonce, 0, data);
  EXPECT_NE(data, original);
  chacha20_xor(key, nonce, 0, data);
  EXPECT_EQ(data, original);
}

// ------------------------------------------------------------- SealedBox

TEST(CipherTest, SealOpenRoundTrip) {
  const auto key = derive_key("correct horse battery staple");
  const Bytes pt = to_bytes("container payload partition");
  const SealedBox box = seal(key, pt);
  EXPECT_GT(box.size(), pt.size());  // nonce + mac overhead
  const auto opened = open(key, box);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), pt);
}

TEST(CipherTest, WrongKeyRejected) {
  const SealedBox box = seal(derive_key("right"), to_bytes("secret"));
  const auto opened = open(derive_key("wrong"), box);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code(), ErrorCode::kIntegrity);
}

TEST(CipherTest, TamperDetected) {
  const auto key = derive_key("k");
  SealedBox box = seal(key, to_bytes("authentic data"));
  box.blob[14] ^= 0x80;  // flip a ciphertext bit
  EXPECT_FALSE(open(key, box).ok());
}

TEST(CipherTest, TruncatedBoxRejected) {
  const auto key = derive_key("k");
  SealedBox box;
  box.blob = Bytes(10, 0);
  EXPECT_EQ(open(key, box).error().code(), ErrorCode::kIntegrity);
}

TEST(CipherTest, SealIsDeterministic) {
  const auto key = derive_key("k");
  const Bytes pt = to_bytes("same plaintext");
  EXPECT_EQ(seal(key, pt).blob, seal(key, pt).blob);
}

TEST(CipherTest, EmptyPlaintextRoundTrip) {
  const auto key = derive_key("k");
  const SealedBox box = seal(key, Bytes{});
  const auto opened = open(key, box);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().empty());
}

// ------------------------------------------------------------- Signatures

TEST(SignTest, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::generate(1);
  const auto sig = kp.sign(std::string_view("sha256:deadbeef"));
  EXPECT_TRUE(verify(kp.public_key(), std::string_view("sha256:deadbeef"), sig).ok());
}

TEST(SignTest, WrongMessageRejected) {
  const KeyPair kp = KeyPair::generate(2);
  const auto sig = kp.sign(std::string_view("manifest-a"));
  const auto r = verify(kp.public_key(), std::string_view("manifest-b"), sig);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIntegrity);
}

TEST(SignTest, WrongKeyRejected) {
  const KeyPair alice = KeyPair::generate(3);
  const KeyPair mallory = KeyPair::generate(4);
  const auto sig = mallory.sign(std::string_view("payload"));
  EXPECT_FALSE(verify(alice.public_key(), std::string_view("payload"), sig).ok());
}

TEST(SignTest, DeterministicSignatures) {
  const KeyPair kp = KeyPair::generate(5);
  const auto s1 = kp.sign(std::string_view("m"));
  const auto s2 = kp.sign(std::string_view("m"));
  EXPECT_EQ(s1.e, s2.e);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(SignTest, SerializationRoundTrip) {
  const KeyPair kp = KeyPair::generate(6);
  const auto sig = kp.sign(std::string_view("x"));
  const Bytes wire = sig.serialize();
  EXPECT_EQ(wire.size(), 16u);
  const auto back = KeyPair::Signature::deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().e, sig.e);
  EXPECT_EQ(back.value().s, sig.s);
  EXPECT_FALSE(KeyPair::Signature::deserialize(Bytes(7, 0)).ok());
}

TEST(SignTest, FingerprintStableAndDistinct) {
  const KeyPair a = KeyPair::generate(7);
  const KeyPair b = KeyPair::generate(8);
  EXPECT_EQ(a.public_key().fingerprint(), a.public_key().fingerprint());
  EXPECT_NE(a.public_key().fingerprint(), b.public_key().fingerprint());
  EXPECT_EQ(a.public_key().fingerprint().size(), 16u);
}

// ---------------------------------------------------------------- Keyring

TEST(KeyringTest, TrustFindRevoke) {
  Keyring ring;
  const KeyPair kp = KeyPair::generate(9);
  ring.trust("alice@site", kp.public_key());
  ASSERT_TRUE(ring.find("alice@site").has_value());
  EXPECT_EQ(ring.find("alice@site")->y, kp.public_key().y);
  EXPECT_FALSE(ring.find("bob@site").has_value());
  EXPECT_TRUE(ring.revoke("alice@site"));
  EXPECT_FALSE(ring.revoke("alice@site"));
  EXPECT_EQ(ring.size(), 0u);
}

TEST(KeyringTest, ReverseLookupByFingerprint) {
  Keyring ring;
  const KeyPair kp = KeyPair::generate(10);
  ring.trust("carol@hpc", kp.public_key());
  const auto id = ring.identity_of(kp.public_key().fingerprint());
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, "carol@hpc");
  EXPECT_FALSE(ring.identity_of("0000000000000000").has_value());
}

SignatureRecord make_record(const KeyPair& kp, const std::string& identity,
                            const std::string& payload) {
  SignatureRecord rec;
  rec.signer_identity = identity;
  rec.key_fingerprint = kp.public_key().fingerprint();
  rec.payload_digest = payload;
  rec.signature = kp.sign(std::string_view(payload));
  return rec;
}

TEST(KeyringTest, VerifyRecordHappyPath) {
  Keyring ring;
  const KeyPair kp = KeyPair::generate(11);
  ring.trust("dave@hpc", kp.public_key());
  const auto rec = make_record(kp, "dave@hpc", "sha256:" + std::string(64, 'a'));
  EXPECT_TRUE(verify_record(ring, rec).ok());
}

TEST(KeyringTest, VerifyRecordUntrustedSigner) {
  Keyring ring;
  const KeyPair kp = KeyPair::generate(12);
  const auto rec = make_record(kp, "eve@outside", "sha256:x");
  const auto r = verify_record(ring, rec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kPermissionDenied);
}

TEST(KeyringTest, VerifyRecordNameSquattingDetected) {
  // Mallory signs with her own key but claims to be alice: fingerprint
  // check catches the substitution (the §4.1.5 name-squatting scenario).
  Keyring ring;
  const KeyPair alice = KeyPair::generate(13);
  const KeyPair mallory = KeyPair::generate(14);
  ring.trust("alice@site", alice.public_key());
  auto rec = make_record(mallory, "alice@site", "sha256:y");
  const auto r = verify_record(ring, rec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIntegrity);
}

TEST(KeyringTest, VerifyRecordTamperedPayload) {
  Keyring ring;
  const KeyPair kp = KeyPair::generate(15);
  ring.trust("frank@hpc", kp.public_key());
  auto rec = make_record(kp, "frank@hpc", "sha256:original");
  rec.payload_digest = "sha256:swapped";
  EXPECT_FALSE(verify_record(ring, rec).ok());
}

}  // namespace
}  // namespace hpcc::crypto
