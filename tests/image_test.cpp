// Tests for hpcc_image: reference parsing, manifest/config round-trips,
// CAS dedup invariants, Containerfile and Singularity-def builds, and
// format conversions with the sharing-aware conversion cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vfs/compress.h"
#include "image/build.h"
#include "image/convert.h"
#include "image/manifest.h"
#include "image/reference.h"
#include "image/store.h"

namespace hpcc::image {
namespace {

// -------------------------------------------------------------- Reference

TEST(ReferenceTest, FullForm) {
  const auto r =
      ImageReference::parse("registry.site.example:5000/bio/samtools:1.17");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().registry, "registry.site.example:5000");
  EXPECT_EQ(r.value().repository, "bio/samtools");
  EXPECT_EQ(r.value().tag, "1.17");
  EXPECT_FALSE(r.value().pinned());
  EXPECT_EQ(r.value().to_string(),
            "registry.site.example:5000/bio/samtools:1.17");
}

TEST(ReferenceTest, DefaultsAppliedForBareName) {
  const auto r = ImageReference::parse("library/alpine");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().registry, "docker.io");
  EXPECT_EQ(r.value().tag, "latest");
}

TEST(ReferenceTest, DigestPin) {
  const std::string d = "sha256:" + std::string(64, 'a');
  const auto r = ImageReference::parse("quay.io/app/tool@" + d);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().pinned());
  EXPECT_EQ(r.value().digest.to_string(), d);
  EXPECT_TRUE(r.value().tag.empty());
}

TEST(ReferenceTest, TagAndDigestTogether) {
  const std::string d = "sha256:" + std::string(64, 'b');
  const auto r = ImageReference::parse("localhost/x:v2@" + d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().registry, "localhost");
  EXPECT_EQ(r.value().tag, "v2");
  EXPECT_TRUE(r.value().pinned());
}

TEST(ReferenceTest, Malformed) {
  EXPECT_FALSE(ImageReference::parse("").ok());
  EXPECT_FALSE(ImageReference::parse("repo:").ok());
  EXPECT_FALSE(ImageReference::parse("repo@sha256:short").ok());
}

// --------------------------------------------------------------- Manifest

TEST(ManifestTest, ConfigRoundTrip) {
  ImageConfig cfg;
  cfg.arch = "aarch64";
  cfg.entrypoint = {"/opt/app/bin/run", "--fast"};
  cfg.env["PATH"] = "/opt/app/bin";
  cfg.labels["maintainer"] = "hpc@site";
  cfg.abi.glibc = runtime::Version::parse("2.35");
  cfg.abi.libraries.push_back(
      {"libmpi", runtime::Version::parse("4.1"), runtime::Version::parse("2.30")});

  const auto back = ImageConfig::deserialize(cfg.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().arch, "aarch64");
  EXPECT_EQ(back.value().entrypoint, cfg.entrypoint);
  EXPECT_EQ(back.value().env.at("PATH"), "/opt/app/bin");
  EXPECT_EQ(back.value().abi.glibc, runtime::Version::parse("2.35"));
  ASSERT_EQ(back.value().abi.libraries.size(), 1u);
  EXPECT_EQ(back.value().abi.libraries[0].name, "libmpi");
}

TEST(ManifestTest, ManifestRoundTripAndDigest) {
  OciManifest m;
  m.config_digest = crypto::Digest::of(std::string_view("config"));
  m.layer_digests = {crypto::Digest::of(std::string_view("l1")),
                     crypto::Digest::of(std::string_view("l2"))};
  m.layer_sizes = {100, 200};
  m.annotations["org.opencontainers.ref.name"] = "app:1";

  const auto back = OciManifest::deserialize(m.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_layers(), 2u);
  EXPECT_EQ(back.value().total_layer_bytes(), 300u);
  EXPECT_EQ(back.value().digest(), m.digest());
  EXPECT_FALSE(OciManifest::deserialize(Bytes{1, 2, 3}).ok());
}

// -------------------------------------------------------------- BlobStore

TEST(BlobStoreTest, DedupsIdenticalContent) {
  BlobStore store;
  const Bytes blob = to_bytes("layer contents shared by two images");
  const auto d1 = store.put(blob);
  const auto d2 = store.put(blob);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(store.num_blobs(), 1u);
  EXPECT_EQ(store.dedup_hits(), 1u);
  EXPECT_EQ(store.stored_bytes(), blob.size());
  EXPECT_EQ(store.logical_bytes(), blob.size() * 2);
}

TEST(BlobStoreTest, PutVerifiedChecksDigest) {
  BlobStore store;
  const auto blob = std::make_shared<const Bytes>(to_bytes("data"));
  EXPECT_TRUE(store.put_verified(blob, crypto::Digest::of(*blob)).ok());
  const auto bad =
      store.put_verified(blob, crypto::Digest::of(std::string_view("other")));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kIntegrity);
  EXPECT_EQ(store.num_blobs(), 1u);
}

TEST(BlobStoreTest, CopyAndMoveKeepContentsAndCounters) {
  BlobStore src;
  std::vector<crypto::Digest> digests;
  for (int i = 0; i < 40; ++i)
    digests.push_back(src.put(to_bytes("blob " + std::to_string(i))));
  (void)src.put(to_bytes("blob 7"));  // one dedup hit
  const std::uint64_t stored = src.stored_bytes();
  const std::uint64_t logical = src.logical_bytes();
  ASSERT_EQ(src.dedup_hits(), 1u);

  auto expect_holds_src = [&](const BlobStore& s, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(s.num_shards(), BlobStore::kNumShards);
    EXPECT_EQ(s.num_blobs(), digests.size());
    for (std::size_t i = 0; i < digests.size(); ++i) {
      const auto got = s.get(digests[i]);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got.value(), to_bytes("blob " + std::to_string(i)));
    }
    EXPECT_EQ(s.stored_bytes(), stored);
    EXPECT_EQ(s.logical_bytes(), logical);
    EXPECT_EQ(s.dedup_hits(), 1u);
  };
  auto expect_empty = [](const BlobStore& s, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(s.num_shards(), BlobStore::kNumShards);
    EXPECT_EQ(s.num_blobs(), 0u);
    EXPECT_EQ(s.stored_bytes(), 0u);
    EXPECT_EQ(s.logical_bytes(), 0u);
    EXPECT_EQ(s.dedup_hits(), 0u);
  };

  BlobStore copied(src);
  expect_holds_src(copied, "copy-constructed");
  BlobStore assigned;
  (void)assigned.put(to_bytes("replaced by the assignment"));
  assigned = src;
  expect_holds_src(assigned, "copy-assigned");
  expect_holds_src(src, "copy source");

  BlobStore moved(std::move(copied));
  expect_holds_src(moved, "move-constructed");
  expect_empty(copied, "move-constructed source");
  BlobStore move_assigned;
  move_assigned = std::move(assigned);
  expect_holds_src(move_assigned, "move-assigned");
  expect_empty(assigned, "move-assigned source");

  // A moved-from store is empty but fully usable.
  const auto d = assigned.put(to_bytes("after the move"));
  EXPECT_TRUE(assigned.contains(d));
  EXPECT_EQ(assigned.num_blobs(), 1u);
}

TEST(BlobStoreTest, GetRemove) {
  BlobStore store;
  const auto d = store.put(to_bytes("x"));
  ASSERT_TRUE(store.get(d).ok());
  ASSERT_TRUE(store.remove(d).ok());
  EXPECT_FALSE(store.contains(d));
  EXPECT_EQ(store.get(d).error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.stored_bytes(), 0u);
}

// ------------------------------------------------------------- ImageStore

class ImageStoreTest : public ::testing::Test {
 protected:
  OciManifest store_image(const std::string& ref_str,
                          const std::string& content) {
    ImageConfig cfg;
    const auto config_digest = store.blobs().put(cfg.serialize());
    vfs::MemFs fs;
    (void)fs.write_file("/data", content);
    vfs::Layer layer = vfs::Layer::from_fs(fs);
    const Bytes layer_blob = layer.serialize();
    const auto layer_digest = store.blobs().put(layer_blob);

    OciManifest m;
    m.config_digest = config_digest;
    m.layer_digests = {layer_digest};
    m.layer_sizes = {layer_blob.size()};
    const auto ref = ImageReference::parse(ref_str).value();
    EXPECT_TRUE(store.tag_manifest(ref, m).ok());
    return m;
  }
  ImageStore store;
};

TEST_F(ImageStoreTest, TagAndResolve) {
  store_image("registry.site/app:v1", "v1 bits");
  const auto ref = ImageReference::parse("registry.site/app:v1").value();
  const auto m = store.resolve(ref);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().num_layers(), 1u);
  EXPECT_TRUE(store.has(ref));
}

TEST_F(ImageStoreTest, ResolveByDigestPin) {
  const OciManifest m = store_image("registry.site/app:v1", "bits");
  auto pinned = ImageReference::parse("registry.site/app@" +
                                      m.digest().to_string());
  ASSERT_TRUE(pinned.ok());
  const auto r = store.resolve(pinned.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().digest(), m.digest());
}

TEST_F(ImageStoreTest, TagRequiresBlobsPresent) {
  OciManifest m;
  m.config_digest = crypto::Digest::of(std::string_view("missing"));
  const auto ref = ImageReference::parse("x/y:z").value();
  EXPECT_EQ(store.tag_manifest(ref, m).error().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(ImageStoreTest, Untag) {
  store_image("a.io/app:v1", "bits");
  const auto ref = ImageReference::parse("a.io/app:v1").value();
  ASSERT_TRUE(store.untag(ref).ok());
  EXPECT_FALSE(store.has(ref));
  EXPECT_EQ(store.untag(ref).error().code(), ErrorCode::kNotFound);
}

TEST_F(ImageStoreTest, SharedBaseLayerDedupsAcrossImages) {
  // Two images from the same content share the layer blob.
  store_image("a.io/app:v1", "same base");
  store_image("a.io/other:v1", "same base");
  EXPECT_GT(store.blobs().dedup_hits(), 0u);
}

// ------------------------------------------------------------ Build specs

constexpr std::string_view kContainerfile = R"(
# build a bio tool
FROM registry.site/base/hpccos:1
RUN install samtools 40 65536
RUN lib libmpi 4.1 2.30
ENV PATH=/opt/samtools/bin
LABEL org.bio.tool samtools
RUN remove /var/log
)";

constexpr std::string_view kDefFile = R"(
Bootstrap: docker
From: registry.site/base/hpccos:1

%post
    install samtools 40 65536
    lib libmpi 4.1 2.30

%environment
    export PATH=/opt/samtools/bin

%labels
    org.bio.tool samtools
)";

TEST(BuildSpecTest, ParseContainerfile) {
  const auto spec = BuildSpec::parse_containerfile(kContainerfile);
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  EXPECT_EQ(spec.value().base, "registry.site/base/hpccos:1");
  EXPECT_EQ(spec.value().run.size(), 3u);
  EXPECT_EQ(spec.value().env.at("PATH"), "/opt/samtools/bin");
  EXPECT_EQ(spec.value().labels.at("org.bio.tool"), "samtools");
}

TEST(BuildSpecTest, ParseSingularityDef) {
  const auto spec = BuildSpec::parse_singularity_def(kDefFile);
  ASSERT_TRUE(spec.ok()) << spec.error().to_string();
  EXPECT_EQ(spec.value().base, "registry.site/base/hpccos:1");
  EXPECT_EQ(spec.value().run.size(), 2u);
  EXPECT_EQ(spec.value().env.at("PATH"), "/opt/samtools/bin");
  EXPECT_EQ(spec.value().labels.at("org.bio.tool"), "samtools");
}

TEST(BuildSpecTest, RejectsBadInput) {
  EXPECT_FALSE(BuildSpec::parse_containerfile("").ok());
  EXPECT_FALSE(BuildSpec::parse_containerfile("VOLUME /data").ok());
  EXPECT_FALSE(
      BuildSpec::parse_containerfile("FROM a\nFROM b").ok());  // multi-stage
  EXPECT_FALSE(BuildSpec::parse_singularity_def("%post\ninstall x").ok());
}

// ---------------------------------------------------------------- Builder

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest() { base = synthetic_base_os("hpccos", 7, 4, 4 << 20, &base_cfg); }
  vfs::MemFs base;
  ImageConfig base_cfg;
  ImageBuilder builder{123};
};

TEST_F(BuilderTest, ContainerfileBuildsOneLayerPerStep) {
  const auto spec = BuildSpec::parse_containerfile(kContainerfile).value();
  const auto img = builder.build(spec, base, base_cfg);
  ASSERT_TRUE(img.ok()) << img.error().to_string();
  EXPECT_EQ(img.value().layers.size(), 3u);  // install, lib, remove
  EXPECT_TRUE(img.value().rootfs.exists("/opt/samtools/bin/samtools"));
  EXPECT_FALSE(img.value().rootfs.exists("/var/log"));
  EXPECT_EQ(img.value().config.env.at("PATH"), "/opt/samtools/bin");
  // lib command updated the ABI surface.
  bool has_mpi = false;
  for (const auto& lib : img.value().config.abi.libraries)
    if (lib.name == "libmpi") has_mpi = true;
  EXPECT_TRUE(has_mpi);
}

TEST_F(BuilderTest, DefBuildsSingleLayer) {
  const auto spec = BuildSpec::parse_singularity_def(kDefFile).value();
  const auto img = builder.build(spec, base, base_cfg);
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img.value().layers.size(), 1u);  // flat: no layering (§4.1.4)
  EXPECT_TRUE(img.value().rootfs.exists("/opt/samtools/bin/samtools"));
}

TEST_F(BuilderTest, BuildIsDeterministic) {
  const auto spec = BuildSpec::parse_containerfile(kContainerfile).value();
  ImageBuilder b1(9), b2(9);
  const auto i1 = b1.build(spec, base, base_cfg);
  const auto i2 = b2.build(spec, base, base_cfg);
  ASSERT_TRUE(i1.ok() && i2.ok());
  ASSERT_EQ(i1.value().layers.size(), i2.value().layers.size());
  for (std::size_t i = 0; i < i1.value().layers.size(); ++i)
    EXPECT_EQ(i1.value().layers[i].digest(), i2.value().layers[i].digest());
}

TEST_F(BuilderTest, SyntheticBaseOsHasLoaderFiles) {
  // The small files §4.1.4 says every container start touches.
  EXPECT_TRUE(base.exists("/etc/nsswitch.conf"));
  EXPECT_TRUE(base.exists("/etc/ld.so.cache"));
  EXPECT_TRUE(base.exists("/usr/lib/locale/locale0.dat"));
  EXPECT_GT(base.num_inodes(), 15u);
}

TEST(SyntheticContentTest, CompressibleAndDeterministic) {
  Rng a(5), b(5);
  const Bytes x = synthetic_file_content(a, 100000);
  const Bytes y = synthetic_file_content(b, 100000);
  EXPECT_EQ(x, y);
  const Bytes comp = vfs::lzss_compress(x);
  EXPECT_LT(comp.size(), x.size() * 3 / 4);  // visibly compressible
}

// Golden digests of the content, and of the generator's next draw, pin
// the byte stream and the draw order. Every size but 0 ends inside a
// vocabulary run.
TEST(SyntheticContentTest, MatchesGoldenDigests) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t size;
    const char* digest;
    std::uint64_t next_draw;
  };
  const Case cases[] = {
      {1, 0,
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
       12966619160104079557ull},
      {1, 33,
       "90cb2a7f2f297cefedcd9cbcff9093f7a6d15781311c8482dac3d6947aa8fbec",
       1310552918490157286ull},
      {7, 4096,
       "41d54f6cf5c85a7bc9c808afbccfb29fbf0886d295d07a4862de51dae9f75ce4",
       862528695949710581ull},
      {42, 100003,
       "c34d49a5fed289eb01979049290b83293fd767b869902e59c69abef3e57e18fd",
       4051466458972735437ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed) + " size " +
                 std::to_string(c.size));
    Rng rng(c.seed);
    const Bytes content = synthetic_file_content(rng, c.size);
    EXPECT_EQ(content.size(), c.size);
    EXPECT_EQ(crypto::Digest::of(content).hex(), c.digest);
    EXPECT_EQ(rng.next_u64(), c.next_draw);
  }
}

// ------------------------------------------------------------ Conversions

class ConvertTest : public ::testing::Test {
 protected:
  ConvertTest() {
    base = synthetic_base_os("hpccos", 11, 2, 1 << 20, nullptr);
    const auto spec = BuildSpec::parse_containerfile(
                          "FROM base\nRUN install tool 8 4096\n")
                          .value();
    ImageBuilder builder(3);
    auto built = builder.build(spec, base, {});
    layers.push_back(vfs::Layer::from_fs(base));
    for (auto& l : built.value().layers) layers.push_back(std::move(l));
  }
  vfs::MemFs base;
  std::vector<vfs::Layer> layers;
};

TEST_F(ConvertTest, FlattenMatchesSequentialApply) {
  const auto flat = flatten_layers(layers);
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(flat.value().exists("/opt/tool/bin/tool"));
  EXPECT_TRUE(flat.value().exists("/etc/os-release"));
}

TEST_F(ConvertTest, LayersToSquashAndFlat) {
  const auto squash = layers_to_squash(layers);
  ASSERT_TRUE(squash.ok());
  EXPECT_TRUE(squash.value().exists("/opt/tool/bin/tool"));
  EXPECT_LT(squash.value().size(), squash.value().uncompressed_bytes());

  vfs::FlatImageInfo info;
  info.name = "tool";
  const auto flat = layers_to_flat(layers, info);
  ASSERT_TRUE(flat.ok());
  const auto payload = flat.value().open_payload();
  ASSERT_TRUE(payload.ok());
  EXPECT_TRUE(payload.value().exists("/opt/tool/bin/tool"));
}

TEST_F(ConvertTest, FlatToLayerRoundTrip) {
  vfs::FlatImageInfo info;
  info.name = "tool";
  const auto flat = layers_to_flat(layers, info).value();
  const auto layer = flat_to_layer(flat);
  ASSERT_TRUE(layer.ok());
  vfs::MemFs fs;
  ASSERT_TRUE(layer.value().apply_to(fs).ok());
  EXPECT_TRUE(fs.exists("/opt/tool/bin/tool"));
}

TEST(ConversionCacheTest, SharingSemantics) {
  ConversionCache cache;
  const auto src = crypto::Digest::of(std::string_view("manifest"));

  CacheEntry private_entry;
  private_entry.source = src;
  private_entry.format = ImageFormat::kSquash;
  private_entry.owner = "alice";
  private_entry.shared_between_users = false;
  private_entry.size = 1000;
  cache.insert(private_entry);

  EXPECT_TRUE(cache.lookup(src, ImageFormat::kSquash, "alice").has_value());
  EXPECT_FALSE(cache.lookup(src, ImageFormat::kSquash, "bob").has_value());

  CacheEntry shared_entry = private_entry;
  shared_entry.owner = "sarus-service";
  shared_entry.shared_between_users = true;  // the Sarus model
  cache.insert(shared_entry);
  EXPECT_TRUE(cache.lookup(src, ImageFormat::kSquash, "bob").has_value());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stored_bytes(), 2000u);
}

TEST(ConversionCacheTest, FormatsAreDistinctAndInvalidate) {
  ConversionCache cache;
  const auto src = crypto::Digest::of(std::string_view("m"));
  CacheEntry e;
  e.source = src;
  e.format = ImageFormat::kSquash;
  e.owner = "u";
  cache.insert(e);
  EXPECT_FALSE(cache.lookup(src, ImageFormat::kFlat, "u").has_value());
  EXPECT_TRUE(cache.lookup(src, ImageFormat::kSquash, "u").has_value());
  cache.invalidate(src);
  EXPECT_FALSE(cache.lookup(src, ImageFormat::kSquash, "u").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ConversionCostTest, ScalesWithBytes) {
  EXPECT_GT(conversion_cpu_cost(1 << 30), conversion_cpu_cost(1 << 20) * 100);
}

}  // namespace
}  // namespace hpcc::image
