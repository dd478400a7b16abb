// Unit tests for hpcc_vfs core: path normalization, MemFs semantics
// (creation, symlinks, renames, walks), and LZSS compression round-trips
// including a parameterized property sweep over data shapes, plus golden
// digests that pin the compressor's exact output.
#include <gtest/gtest.h>

#include <functional>

#include "crypto/sha256.h"
#include "image/build.h"
#include "util/rng.h"
#include "vfs/compress.h"
#include "vfs/memfs.h"
#include "vfs/path.h"
#include "util/strings.h"

namespace hpcc::vfs {
namespace {

// ------------------------------------------------------------------ path

TEST(PathTest, Normalize) {
  EXPECT_EQ(normalize(""), "/");
  EXPECT_EQ(normalize("/"), "/");
  EXPECT_EQ(normalize("usr//lib/"), "/usr/lib");
  EXPECT_EQ(normalize("/a/./b"), "/a/b");
  EXPECT_EQ(normalize("/a/b/../c"), "/a/c");
  EXPECT_EQ(normalize("/../.."), "/");          // cannot escape root
  EXPECT_EQ(normalize("a/../../b"), "/b");
}

TEST(PathTest, ParentBasename) {
  EXPECT_EQ(parent("/usr/lib"), "/usr");
  EXPECT_EQ(parent("/usr"), "/");
  EXPECT_EQ(parent("/"), "/");
  EXPECT_EQ(basename("/usr/lib"), "lib");
  EXPECT_EQ(basename("/"), "");
}

TEST(PathTest, JoinAndComponents) {
  EXPECT_EQ(join("/usr", "lib"), "/usr/lib");
  EXPECT_EQ(join("/", "usr"), "/usr");
  const auto comps = components("/usr/lib/x86");
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[2], "x86");
  EXPECT_TRUE(components("/").empty());
}

TEST(PathTest, IsWithin) {
  EXPECT_TRUE(is_within("/usr/lib", "/usr"));
  EXPECT_TRUE(is_within("/usr", "/usr"));
  EXPECT_TRUE(is_within("/usr", "/"));
  EXPECT_FALSE(is_within("/usr2", "/usr"));
  EXPECT_FALSE(is_within("/usr", "/usr/lib"));
}

// ----------------------------------------------------------------- MemFs

class MemFsTest : public ::testing::Test {
 protected:
  MemFs fs;
};

TEST_F(MemFsTest, MkdirAndStat) {
  ASSERT_TRUE(fs.mkdir("/opt").ok());
  const auto st = fs.stat("/opt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::kDir);
  EXPECT_EQ(st.value().meta.mode, 0755u);
}

TEST_F(MemFsTest, MkdirParents) {
  ASSERT_TRUE(fs.mkdir("/a/b/c", {0, 0, 0700, 0}, /*parents=*/true).ok());
  EXPECT_TRUE(fs.exists("/a/b/c"));
  EXPECT_EQ(fs.stat("/a/b").value().meta.mode, 0700u);
  // Idempotent with parents.
  EXPECT_TRUE(fs.mkdir("/a/b/c", {}, true).ok());
}

TEST_F(MemFsTest, MkdirWithoutParentsFails) {
  const auto r = fs.mkdir("/a/b/c");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
}

TEST_F(MemFsTest, MkdirOverFileFails) {
  ASSERT_TRUE(fs.write_file("/x", "data").ok());
  EXPECT_EQ(fs.mkdir("/x").error().code(), ErrorCode::kAlreadyExists);
}

TEST_F(MemFsTest, WriteReadFile) {
  ASSERT_TRUE(fs.write_file("/hello.txt", "hi there").ok());
  EXPECT_EQ(fs.read_file_text("/hello.txt").value(), "hi there");
  EXPECT_EQ(fs.stat("/hello.txt").value().size, 8u);
}

TEST_F(MemFsTest, WriteTruncates) {
  ASSERT_TRUE(fs.write_file("/f", "long original content").ok());
  ASSERT_TRUE(fs.write_file("/f", "new").ok());
  EXPECT_EQ(fs.read_file_text("/f").value(), "new");
}

TEST_F(MemFsTest, AppendFile) {
  ASSERT_TRUE(fs.write_file("/log", "a").ok());
  ASSERT_TRUE(fs.append_file("/log", to_bytes("bc")).ok());
  EXPECT_EQ(fs.read_file_text("/log").value(), "abc");
  EXPECT_EQ(fs.append_file("/missing", to_bytes("x")).error().code(),
            ErrorCode::kNotFound);
}

TEST_F(MemFsTest, ReadMissingFile) {
  EXPECT_EQ(fs.read_file("/nope").error().code(), ErrorCode::kNotFound);
}

TEST_F(MemFsTest, ReadDirAsFileFails) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  EXPECT_EQ(fs.read_file("/d").error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(MemFsTest, SymlinkResolution) {
  ASSERT_TRUE(fs.mkdir("/usr/lib", {}, true).ok());
  ASSERT_TRUE(fs.write_file("/usr/lib/libc.so.6", "ELF").ok());
  ASSERT_TRUE(fs.symlink("libc.so.6", "/usr/lib/libc.so").ok());
  EXPECT_EQ(fs.read_file_text("/usr/lib/libc.so").value(), "ELF");
  EXPECT_EQ(fs.read_link("/usr/lib/libc.so").value(), "libc.so.6");
  // lstat sees the link; stat follows.
  EXPECT_EQ(fs.lstat("/usr/lib/libc.so").value().type, FileType::kSymlink);
  EXPECT_EQ(fs.stat("/usr/lib/libc.so").value().type, FileType::kFile);
}

TEST_F(MemFsTest, AbsoluteSymlinkAndIntermediate) {
  ASSERT_TRUE(fs.mkdir("/data/v2", {}, true).ok());
  ASSERT_TRUE(fs.write_file("/data/v2/model.bin", "weights").ok());
  ASSERT_TRUE(fs.symlink("/data/v2", "/current").ok());
  EXPECT_EQ(fs.read_file_text("/current/model.bin").value(), "weights");
  EXPECT_EQ(fs.realpath("/current/model.bin").value(), "/data/v2/model.bin");
}

TEST_F(MemFsTest, RelativeSymlinkWithDotDot) {
  ASSERT_TRUE(fs.mkdir("/a/b", {}, true).ok());
  ASSERT_TRUE(fs.mkdir("/c", {}, true).ok());
  ASSERT_TRUE(fs.write_file("/c/f", "x").ok());
  ASSERT_TRUE(fs.symlink("../../c/f", "/a/b/link").ok());
  EXPECT_EQ(fs.read_file_text("/a/b/link").value(), "x");
}

TEST_F(MemFsTest, SymlinkLoopDetected) {
  ASSERT_TRUE(fs.symlink("/b", "/a").ok());
  ASSERT_TRUE(fs.symlink("/a", "/b").ok());
  const auto r = fs.read_file("/a");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(hpcc::strings::contains(r.error().message(), "symbolic links"));
}

TEST_F(MemFsTest, DanglingSymlink) {
  ASSERT_TRUE(fs.symlink("/nowhere", "/lnk").ok());
  EXPECT_FALSE(fs.exists("/lnk"));
  EXPECT_TRUE(fs.lstat("/lnk").ok());
}

TEST_F(MemFsTest, UnlinkAndRmdir) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.write_file("/d/f", "x").ok());
  EXPECT_EQ(fs.rmdir("/d").error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(fs.unlink("/d").error().code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(fs.unlink("/d/f").ok());
  ASSERT_TRUE(fs.rmdir("/d").ok());
  EXPECT_FALSE(fs.exists("/d"));
}

TEST_F(MemFsTest, RemoveAll) {
  ASSERT_TRUE(fs.mkdir("/tree/sub", {}, true).ok());
  ASSERT_TRUE(fs.write_file("/tree/sub/f1", "1").ok());
  ASSERT_TRUE(fs.write_file("/tree/f2", "2").ok());
  const auto r = fs.remove_all("/tree");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4u);  // tree, sub, f1, f2
  EXPECT_FALSE(fs.exists("/tree"));
  EXPECT_EQ(fs.remove_all("/missing").value(), 0u);
}

TEST_F(MemFsTest, Rename) {
  ASSERT_TRUE(fs.mkdir("/src", {}, true).ok());
  ASSERT_TRUE(fs.write_file("/src/f", "payload").ok());
  ASSERT_TRUE(fs.mkdir("/dst").ok());
  ASSERT_TRUE(fs.rename("/src", "/dst/moved").ok());
  EXPECT_EQ(fs.read_file_text("/dst/moved/f").value(), "payload");
  EXPECT_FALSE(fs.exists("/src"));
}

TEST_F(MemFsTest, RenameIntoItselfRejected) {
  ASSERT_TRUE(fs.mkdir("/a", {}, true).ok());
  EXPECT_EQ(fs.rename("/a", "/a/b").error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(MemFsTest, RenameOntoExistingRejected) {
  ASSERT_TRUE(fs.write_file("/a", "1").ok());
  ASSERT_TRUE(fs.write_file("/b", "2").ok());
  EXPECT_EQ(fs.rename("/a", "/b").error().code(), ErrorCode::kAlreadyExists);
}

TEST_F(MemFsTest, ChmodChownAndSetuidDetection) {
  ASSERT_TRUE(fs.mkdir("/bin").ok());
  ASSERT_TRUE(fs.write_file("/bin/mount", "x", {0, 0, 0755, 0}).ok());
  ASSERT_TRUE(fs.chmod("/bin/mount", 04755).ok());
  ASSERT_TRUE(fs.chown("/bin/mount", 0, 0).ok());
  const auto st = fs.stat("/bin/mount");
  EXPECT_TRUE(st.value().meta.is_setuid());
  ASSERT_TRUE(fs.chmod("/bin/mount", 0755).ok());
  EXPECT_FALSE(fs.stat("/bin/mount").value().meta.is_setuid());
}

TEST_F(MemFsTest, ListDirSorted) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.write_file("/d/zeta", "").ok());
  ASSERT_TRUE(fs.write_file("/d/alpha", "").ok());
  ASSERT_TRUE(fs.mkdir("/d/mid").ok());
  const auto names = fs.list_dir("/d").value();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST_F(MemFsTest, WalkVisitsAllSorted) {
  ASSERT_TRUE(fs.mkdir("/b/c", {}, true).ok());
  ASSERT_TRUE(fs.write_file("/a", "1").ok());
  ASSERT_TRUE(fs.write_file("/b/c/d", "22").ok());
  std::vector<std::string> paths;
  fs.walk([&](const std::string& p, const Stat&) { paths.push_back(p); });
  EXPECT_EQ(paths, (std::vector<std::string>{"/a", "/b", "/b/c", "/b/c/d"}));
}

TEST_F(MemFsTest, CountsAndClone) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.write_file("/d/f", "12345").ok());
  EXPECT_EQ(fs.num_inodes(), 2u);
  EXPECT_EQ(fs.total_bytes(), 5u);

  MemFs copy = fs.clone();
  ASSERT_TRUE(copy.write_file("/d/f", "changed").ok());
  EXPECT_EQ(fs.read_file_text("/d/f").value(), "12345");  // original intact
  EXPECT_EQ(copy.read_file_text("/d/f").value(), "changed");
}

TEST_F(MemFsTest, WriteThroughFinalSymlink) {
  ASSERT_TRUE(fs.write_file("/real", "old").ok());
  ASSERT_TRUE(fs.symlink("/real", "/alias").ok());
  ASSERT_TRUE(fs.write_file("/alias", "new").ok());
  EXPECT_EQ(fs.read_file_text("/real").value(), "new");
}

// ------------------------------------------------------------------ LZSS

TEST(CompressTest, RoundTripText) {
  const Bytes input = to_bytes(
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again");
  const Bytes comp = lzss_compress(input);
  EXPECT_LT(comp.size(), input.size());  // repetition compresses
  const auto back = lzss_decompress(comp);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input);
}

TEST(CompressTest, EmptyInput) {
  const Bytes comp = lzss_compress({});
  const auto back = lzss_decompress(comp);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
  EXPECT_EQ(lzss_declared_size(comp).value(), 0u);
}

TEST(CompressTest, HighlyRepetitiveCompressesWell) {
  const Bytes input(100000, 0x41);
  const Bytes comp = lzss_compress(input);
  EXPECT_LT(comp.size(), input.size() / 5);
  EXPECT_EQ(lzss_decompress(comp).value(), input);
}

TEST(CompressTest, IncompressibleDataBounded) {
  Rng rng(99);
  Bytes input(10000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes comp = lzss_compress(input);
  EXPECT_LT(comp.size(), input.size() * 9 / 8 + 16);
  EXPECT_EQ(lzss_decompress(comp).value(), input);
}

TEST(CompressTest, TruncationDetected) {
  const Bytes comp = lzss_compress(to_bytes("some data to compress here"));
  for (std::size_t cut : {std::size_t{4}, comp.size() - 3}) {
    const auto r = lzss_decompress(BytesView(comp.data(), cut));
    EXPECT_FALSE(r.ok());
  }
}

TEST(CompressTest, GarbageHeaderRejected) {
  Bytes garbage = {1, 2, 3};
  EXPECT_EQ(lzss_decompress(garbage).error().code(), ErrorCode::kInvalidArgument);
}

// Golden outputs. The format admits many encodings of one input, so a
// round trip cannot tell whether the match finder still picks the same
// matches; these digests can. Each folds lzss_compress's output over the
// lengths below, as computed before the finder's ring buffer and
// word-wise compare went in. Lengths straddle the 3-byte hash, the
// 18-byte maximum match, the 4 KiB window and the 8 KiB chain ring, and
// the largest wrap the ring many times.
TEST(CompressTest, OutputMatchesGoldenDigests) {
  constexpr std::size_t kLengths[] = {0,    1,    2,    3,    18,    19,
                                      4095, 4096, 4097, 8191, 8192,  8193,
                                      100000, 131072};
  auto synthetic = [](std::uint64_t seed) {
    return [seed](std::size_t len) {
      Rng rng(seed);
      return image::synthetic_file_content(rng, len);
    };
  };
  struct Golden {
    const char* name;
    std::function<Bytes(std::size_t)> make;
    const char* digest;
  };
  const Golden goldens[] = {
      {"synthetic_seed1", synthetic(1),
       "60cfac79597affac3a13c7df00cedb35d8442acd79f78113eccccb7b4f45f8dd"},
      {"synthetic_seed7", synthetic(7),
       "a406fd62c2e4b601dc6b964659d1745c5d95139bb58cebcd7fd28fbf2b1134b4"},
      {"synthetic_seed104729", synthetic(104729),
       "cfe679867aed36f08787425ae7abb16cd1864f62b3f585e20e1f2867939fa8dd"},
      {"zeros", [](std::size_t len) { return Bytes(len, 0); },
       "c3ce9a93f4885ff5383674a4a59b9d41de31a6a19d81641aede3417b5964dc2a"},
      {"random",
       [](std::size_t len) {
         Rng rng(11);
         Bytes b(len);
         for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
         return b;
       },
       "9b513ccd06367223a8627f5232fcb296ef35afdda303e7c640061b5707f3ef13"},
      {"two_symbols",
       [](std::size_t len) {
         Rng rng(13);
         Bytes b(len);
         for (auto& x : b) x = static_cast<std::uint8_t>('a' + rng.next_below(2));
         return b;
       },
       "e52c0d16cb779febeb94a4f46b134043d05db68d633c832f8fa24d31ad147dc0"},
  };
  for (const auto& g : goldens) {
    crypto::Sha256 fold;
    for (std::size_t len : kLengths) fold.update(lzss_compress(g.make(len)));
    EXPECT_EQ(strings::hex_encode(fold.digest()), g.digest) << g.name;
  }
}

// Property sweep: round-trip across sizes and data shapes.
struct CompressCase {
  const char* name;
  std::size_t size;
  int shape;  // 0 = zeros, 1 = random, 2 = text-like, 3 = periodic
};

// Without this gtest prints the raw bytes of the case, which embed the
// load address of `name` and so rename the test on every run.
void PrintTo(const CompressCase& c, std::ostream* os) { *os << c.name; }

class CompressProperty : public ::testing::TestWithParam<CompressCase> {};

TEST_P(CompressProperty, RoundTrip) {
  const auto& c = GetParam();
  Rng rng(c.size * 31 + c.shape);
  Bytes input(c.size);
  switch (c.shape) {
    case 0:
      break;  // zeros
    case 1:
      for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
      break;
    case 2:
      for (auto& b : input)
        b = static_cast<std::uint8_t>('a' + rng.next_below(16));
      break;
    case 3:
      for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<std::uint8_t>(i % 17);
      break;
  }
  const Bytes comp = lzss_compress(input);
  const auto back = lzss_decompress(comp);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), input);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompressProperty,
    ::testing::Values(
        CompressCase{"zeros_1", 1, 0}, CompressCase{"zeros_4k", 4096, 0},
        CompressCase{"zeros_1M", 1 << 20, 0}, CompressCase{"rand_1", 1, 1},
        CompressCase{"rand_4k", 4096, 1}, CompressCase{"rand_64k", 65536, 1},
        CompressCase{"text_3", 3, 2}, CompressCase{"text_4k", 4096, 2},
        CompressCase{"text_100k", 100000, 2}, CompressCase{"per_2", 2, 3},
        CompressCase{"per_4097", 4097, 3}, CompressCase{"per_128k", 131072, 3}),
    [](const ::testing::TestParamInfo<CompressCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hpcc::vfs
