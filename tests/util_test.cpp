// Unit tests for hpcc_util: Result/Error, strings, rng, table renderer,
// logging capture, sim-time helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "util/env.h"
#include "util/log.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/wire.h"

namespace hpcc {
namespace {

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = err_not_found("no such image");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "no such image");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, WrapPreservesCodeAndAddsContext) {
  const Error e = err_denied("setuid helper missing").wrap("mounting squashfs");
  EXPECT_EQ(e.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(e.message(), "mounting squashfs: setuid helper missing");
  EXPECT_EQ(e.to_string(),
            "permission_denied: mounting squashfs: setuid helper missing");
}

TEST(ResultTest, MapTransformsValueAndPropagatesError) {
  Result<int> ok = 21;
  auto doubled = ok.map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 42);

  Result<int> bad = err_internal("boom");
  auto mapped = bad.map([](int v) { return v * 2; });
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.error().code(), ErrorCode::kInternal);
}

TEST(ResultTest, TryMacroPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return err_invalid("bad");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    HPCC_TRY(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(outer(false).value(), 8);
  EXPECT_EQ(outer(true).error().code(), ErrorCode::kInvalidArgument);
}

TEST(ResultTest, ErrorCodeNames) {
  EXPECT_EQ(to_string(ErrorCode::kNotFound), "not_found");
  EXPECT_EQ(to_string(ErrorCode::kResourceExhausted), "resource_exhausted");
  EXPECT_EQ(to_string(ErrorCode::kUnsupported), "unsupported");
}

// ---------------------------------------------------------------- strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = strings::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitNonemptyDropsEmptyFields) {
  const auto parts = strings::split_nonempty("/usr//lib/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "usr");
  EXPECT_EQ(parts[1], "lib");
}

TEST(StringsTest, SplitNonemptyEmptyInput) {
  EXPECT_TRUE(strings::split_nonempty("", '/').empty());
  EXPECT_TRUE(strings::split_nonempty("///", '/').empty());
}

TEST(StringsTest, Join) {
  const std::vector<std::string> parts = {"usr", "lib", "x86_64"};
  EXPECT_EQ(strings::join(parts, "/"), "usr/lib/x86_64");
  EXPECT_EQ(strings::join(std::vector<std::string>{}, "/"), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::trim("  hello \t\n"), "hello");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(strings::starts_with("sha256:abc", "sha256:"));
  EXPECT_FALSE(strings::starts_with("md5:abc", "sha256:"));
  EXPECT_TRUE(strings::ends_with("image.sif", ".sif"));
  EXPECT_FALSE(strings::ends_with("sif", ".sif"));
  EXPECT_TRUE(strings::contains("docker.io/library/alpine", "library"));
}

TEST(StringsTest, HexRoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  const std::string hex = strings::hex_encode(data);
  EXPECT_EQ(hex, "00deadbeefff");
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(strings::hex_decode(hex, back));
  EXPECT_EQ(back, data);
}

TEST(StringsTest, HexDecodeRejectsBadInput) {
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(strings::hex_decode("abc", out));   // odd length
  EXPECT_FALSE(strings::hex_decode("zz", out));    // non-hex
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(strings::hex_decode("ABCD", out));   // uppercase accepted
  EXPECT_EQ(out.size(), 2u);
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(strings::human_bytes(512), "512 B");
  EXPECT_EQ(strings::human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(strings::human_bytes(3ull << 20), "3.0 MiB");
}

TEST(StringsTest, HumanUsec) {
  EXPECT_EQ(strings::human_usec(900), "900 us");
  EXPECT_EQ(strings::human_usec(1500), "1.5 ms");
  EXPECT_EQ(strings::human_usec(2500000), "2.50 s");
}

// ------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, NextRangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.15);
  EXPECT_NEAR(var, 4.0, 0.4);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng a(42);
  Rng child1 = a.fork();
  Rng b(42);
  Rng child2 = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

// ----------------------------------------------------------------- table

TEST(TableTest, RendersAligned) {
  Table t({"Engine", "Rootless"});
  t.add_row({"Docker", "UserNS"});
  t.add_row({"Sarus", "UserNS"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Engine | Rootless |"), std::string::npos);
  EXPECT_NE(out.find("| Docker | UserNS   |"), std::string::npos);
  EXPECT_NE(out.find("|--------|"), std::string::npos);
}

TEST(TableTest, PadsShortRows) {
  Table t({"A", "B", "C"});
  t.add_row({"x"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

// ------------------------------------------------------------------- log

TEST(LogTest, CaptureRecordsAboveLevel) {
  auto& sink = LogSink::instance();
  sink.set_print(false);
  sink.set_capture(true);
  sink.set_level(LogLevel::kWarn);

  Logger log("abi-check");
  log.debug("ignored");
  log.warn("glibc minor version skew");

  const auto records = sink.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "abi-check");
  EXPECT_EQ(records[0].message, "glibc minor version skew");
  EXPECT_EQ(records[0].level, LogLevel::kWarn);

  sink.set_capture(false);
  sink.set_print(true);
}

// -------------------------------------------------------------- sim_time

TEST(SimTimeTest, UnitHelpers) {
  EXPECT_EQ(msec(3), 3000);
  EXPECT_EQ(sec(2), 2000000);
  EXPECT_EQ(minutes(1), 60000000);
  EXPECT_EQ(from_seconds(1.5), 1500000);
  EXPECT_DOUBLE_EQ(to_seconds(2500000), 2.5);
}

// ------------------------------------------------------------------ wire

TEST(WireTest, RoundTripAllTypes) {
  Bytes out;
  wire::put_string(out, "hello");
  append_u32(out, 42);
  append_u64(out, 1ull << 40);
  std::map<std::string, std::string> m = {{"k1", "v1"}, {"k2", "v2"}};
  wire::put_map(out, m);
  wire::put_bytes(out, to_bytes("blob"));

  wire::Reader r(out);
  std::string s;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::map<std::string, std::string> m2;
  Bytes b;
  ASSERT_TRUE(r.get_string(s));
  ASSERT_TRUE(r.get_u32(u32));
  ASSERT_TRUE(r.get_u64(u64));
  ASSERT_TRUE(r.get_map(m2));
  ASSERT_TRUE(r.get_bytes(b));
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(m2, m);
  EXPECT_EQ(to_string(BytesView(b)), "blob");
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.failed());
}

TEST(WireTest, TruncationFailsSoft) {
  Bytes out;
  wire::put_string(out, "a long enough payload");
  for (std::size_t cut : {std::size_t{0}, std::size_t{2}, out.size() - 1}) {
    wire::Reader r(BytesView(out.data(), cut));
    std::string s;
    EXPECT_FALSE(r.get_string(s)) << cut;
    EXPECT_TRUE(r.failed()) << cut;
  }
}

TEST(WireTest, ReaderOffsetTracks) {
  Bytes out;
  append_u32(out, 7);
  append_u64(out, 9);
  wire::Reader r(out);
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(r.get_u32(a));
  EXPECT_EQ(r.offset(), 4u);
  ASSERT_TRUE(r.get_u64(b));
  EXPECT_EQ(r.offset(), 12u);
  EXPECT_TRUE(r.done());
}

// --------------------------------------------------------------- env_uint

// One shared parser behind the numeric knobs (HPCC_THREADS,
// HPCC_FAULT_SEED, ...): unset, malformed, negative and out-of-range
// values all fall back rather than half-parse.
TEST(EnvUintTest, UnsetReturnsFallback) {
  ::unsetenv("HPCC_TEST_ENV_UINT");
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 7), 7u);
}

TEST(EnvUintTest, ParsesDecimalWithinRange) {
  ::setenv("HPCC_TEST_ENV_UINT", "12", 1);
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 7), 12u);
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 7, 1, 64), 12u);
  ::unsetenv("HPCC_TEST_ENV_UINT");
}

TEST(EnvUintTest, MalformedFallsBack) {
  for (const char* bad : {"", "abc", "12abc", "-3", " 12", "0x10"}) {
    ::setenv("HPCC_TEST_ENV_UINT", bad, 1);
    EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 7), 7u)
        << "input '" << bad << "' must fall back";
  }
  ::unsetenv("HPCC_TEST_ENV_UINT");
}

TEST(EnvUintTest, OutOfRangeFallsBack) {
  ::setenv("HPCC_TEST_ENV_UINT", "0", 1);
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 16, 1, 1024), 16u);
  ::setenv("HPCC_TEST_ENV_UINT", "4097", 1);
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 16, 1, 4096), 16u);
  ::setenv("HPCC_TEST_ENV_UINT", "99999999999999999999999", 1);  // overflow
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 16), 16u);
  ::unsetenv("HPCC_TEST_ENV_UINT");
}

TEST(EnvUintTest, BoundsAreInclusive) {
  ::setenv("HPCC_TEST_ENV_UINT", "1", 1);
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 7, 1, 4096), 1u);
  ::setenv("HPCC_TEST_ENV_UINT", "4096", 1);
  EXPECT_EQ(util::env_uint("HPCC_TEST_ENV_UINT", 7, 1, 4096), 4096u);
  ::unsetenv("HPCC_TEST_ENV_UINT");
}

}  // namespace
}  // namespace hpcc

