// Tests for hpcc_registry: auth/token flows, multi-tenancy and quotas,
// push/pull with digest verification, signature attachments, rate
// limiting, the pull-through proxy, mirroring, and the seven product
// profiles (Table 4/5 ground truth).
#include <gtest/gtest.h>

#include "image/build.h"
#include "registry/auth.h"
#include "registry/client.h"
#include "registry/profiles.h"
#include "registry/proxy.h"
#include "registry/registry.h"

namespace hpcc::registry {
namespace {

// ------------------------------------------------------------------- Auth

TEST(AuthTest, LoginAndAuthenticate) {
  AuthService auth({AuthProviderKind::kLdap});
  auth.add_user("alice", "s3cret");
  const auto token = auth.login("alice", "s3cret", 0);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(auth.authenticate(token.value(), sec(10)).value(), "alice");
  EXPECT_FALSE(auth.login("alice", "wrong", 0).ok());
  EXPECT_FALSE(auth.login("mallory", "s3cret", 0).ok());
}

TEST(AuthTest, TokenExpiryAndForgery) {
  AuthService auth;
  auth.add_user("bob", "pw");
  auto token = auth.login("bob", "pw", 0, minutes(5)).value();
  EXPECT_TRUE(auth.authenticate(token, minutes(4)).ok());
  EXPECT_EQ(auth.authenticate(token, minutes(6)).error().code(),
            ErrorCode::kPermissionDenied);
  // Forged user on a valid-looking token fails the MAC.
  Token forged = token;
  forged.user = "root";
  EXPECT_FALSE(auth.authenticate(forged, 0).ok());
}

TEST(AuthTest, TokenSerializeParse) {
  AuthService auth;
  auth.add_user("carol", "pw");
  const auto token = auth.login("carol", "pw", 100).value();
  const auto parsed = Token::parse(token.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(auth.authenticate(parsed.value(), 200).ok());
  EXPECT_FALSE(Token::parse("garbage").ok());
}

// ---------------------------------------------------------------- Tenancy

class RegistryFixture : public ::testing::Test {
 protected:
  RegistryFixture() : reg("registry.site.example") {
    EXPECT_TRUE(reg.create_project("bio", "alice", 0).ok());
  }

  /// Pushes a tiny image as `user` under bio/<name>:v1; returns manifest.
  Result<image::OciManifest> push_tiny(const std::string& user,
                                       const std::string& name,
                                       const std::string& content) {
    vfs::MemFs fs;
    (void)fs.write_file("/payload", content);
    vfs::Layer layer = vfs::Layer::from_fs(fs);
    image::ImageConfig cfg;

    image::OciManifest m;
    HPCC_TRY(m.config_digest, reg.push_blob(user, "bio", cfg.serialize()));
    Bytes blob = layer.serialize();
    const auto size = blob.size();
    HPCC_TRY(auto ld, reg.push_blob(user, "bio", std::move(blob)));
    m.layer_digests.push_back(ld);
    m.layer_sizes.push_back(size);
    const auto ref =
        image::ImageReference::parse("registry.site.example/bio/" + name + ":v1");
    HPCC_TRY(auto md, reg.push_manifest(user, ref.value(), m));
    (void)md;
    return m;
  }

  OciRegistry reg;
};

TEST_F(RegistryFixture, PushPullRoundTrip) {
  ASSERT_TRUE(push_tiny("alice", "samtools", "bits").ok());
  const auto ref =
      image::ImageReference::parse("registry.site.example/bio/samtools:v1");
  const auto m = reg.get_manifest(ref.value());
  ASSERT_TRUE(m.ok());
  const auto blob = reg.get_blob(m.value().layer_digests[0]);
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(crypto::verify_digest(*blob.value(),
                                    m.value().layer_digests[0]).ok());
}

TEST_F(RegistryFixture, MembershipEnforced) {
  const auto r = push_tiny("mallory", "evil", "payload");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kPermissionDenied);
  ASSERT_TRUE(reg.add_member("bio", "mallory").ok());
  EXPECT_TRUE(push_tiny("mallory", "tool", "payload").ok());
}

TEST_F(RegistryFixture, UnknownProjectRejected) {
  vfs::MemFs fs;
  (void)fs.write_file("/x", "y");
  const auto r = reg.push_blob("alice", "physics", to_bytes("blob"));
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
}

TEST_F(RegistryFixture, ListTags) {
  ASSERT_TRUE(push_tiny("alice", "samtools", "a").ok());
  const auto tags = reg.list_tags("registry.site.example/bio/samtools");
  ASSERT_TRUE(tags.ok());
  EXPECT_EQ(tags.value(), (std::vector<std::string>{"v1"}));
  EXPECT_FALSE(reg.list_tags("registry.site.example/bio/none").ok());
}

TEST(RegistryQuotaTest, QuotaEnforcedAndDedupFree) {
  OciRegistry reg("r.example");
  ASSERT_TRUE(reg.create_project("small", "alice", 600).ok());
  Bytes big(500, 1);
  ASSERT_TRUE(reg.push_blob("alice", "small", big).ok());
  // Same content again: dedup, no quota change.
  ASSERT_TRUE(reg.push_blob("alice", "small", big).ok());
  EXPECT_EQ(reg.project("small").value()->used_bytes, 500u);
  // New content over quota fails.
  Bytes more(200, 2);
  const auto r = reg.push_blob("alice", "small", more);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
}

TEST(RegistryTenancyTest, SingleTenantRegistryRejectsProjects) {
  TenancyPolicy single;
  single.multi_tenant = false;
  OciRegistry reg("gitea.example", {}, single);
  EXPECT_EQ(reg.create_project("x", "a").error().code(),
            ErrorCode::kUnsupported);
  // But pushes work without tenancy checks.
  EXPECT_TRUE(reg.push_blob("anyone", "whatever", to_bytes("b")).ok());
}

// --------------------------------------------------------------- Signing

TEST_F(RegistryFixture, SignatureAttachments) {
  const auto m = push_tiny("alice", "samtools", "bits").value();
  const auto kp = crypto::KeyPair::generate(31);
  crypto::SignatureRecord rec;
  rec.signer_identity = "alice@site";
  rec.key_fingerprint = kp.public_key().fingerprint();
  rec.payload_digest = m.digest().to_string();
  rec.signature = kp.sign(std::string_view(rec.payload_digest));
  ASSERT_TRUE(reg.attach_signature(m.digest(), rec).ok());

  const auto sigs = reg.signatures(m.digest());
  ASSERT_EQ(sigs.size(), 1u);
  crypto::Keyring ring;
  ring.trust("alice@site", kp.public_key());
  EXPECT_TRUE(crypto::verify_record(ring, sigs[0]).ok());
  EXPECT_TRUE(reg.signatures(crypto::Digest::of(std::string_view("x"))).empty());
}

// ------------------------------------------------------------ Rate limits

TEST(RegistryRateLimitTest, ThrottlesAndReportsRetry) {
  RegistryLimits limits;
  limits.pull_limit = 3;
  limits.pull_window = sec(60);
  OciRegistry reg("dockerhub.example", limits);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(reg.admit_pull(0).ok());
  SimTime retry = 0;
  const auto r = reg.admit_pull(0, &retry);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_GT(retry, 0);
  EXPECT_TRUE(reg.admit_pull(retry).ok());
  EXPECT_EQ(reg.throttled(), 1u);
}

// ----------------------------------------------------------------- Client

class ClientFixture : public ::testing::Test {
 protected:
  ClientFixture() : net(4), reg("upstream.example") {
    EXPECT_TRUE(reg.create_project("base", "builder").ok());
    // Push a real built image.
    image::ImageConfig base_cfg;
    auto base = image::synthetic_base_os("hpccos", 3, 2, 1 << 20, &base_cfg);
    image::ImageBuilder builder(5);
    const auto spec =
        image::BuildSpec::parse_containerfile("FROM x\nRUN install tool 4 4096\n")
            .value();
    auto built = builder.build(spec, base, base_cfg).value();

    std::vector<vfs::Layer> layers;
    layers.push_back(vfs::Layer::from_fs(base));
    for (auto& l : built.layers) layers.push_back(std::move(l));

    RegistryClient pusher(&net, 0);
    const auto ref =
        image::ImageReference::parse("upstream.example/base/tool:v1").value();
    auto pushed = pusher.push(0, reg, "builder", ref, built.config, layers);
    EXPECT_TRUE(pushed.ok()) << (pushed.ok() ? "" : pushed.error().to_string());
    total_layers = layers.size();
  }

  sim::Network net;
  OciRegistry reg;
  std::size_t total_layers = 0;
};

TEST_F(ClientFixture, TimedPullDeliversLayers) {
  RegistryClient client(&net, 1);
  const auto ref =
      image::ImageReference::parse("upstream.example/base/tool:v1").value();
  const auto pulled = client.pull(0, reg, ref);
  ASSERT_TRUE(pulled.ok()) << pulled.error().to_string();
  EXPECT_EQ(pulled.value().layers.size(), total_layers);
  EXPECT_GT(pulled.value().done, 0);
  EXPECT_GT(pulled.value().bytes_transferred, 0u);
  // The flattened pull reproduces the image content.
  const auto fs = image::flatten_layers(pulled.value().layers);
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE(fs.value().exists("/opt/tool/bin/tool"));
}

TEST_F(ClientFixture, LocalCacheSkipsLayers) {
  RegistryClient client(&net, 1);
  image::BlobStore local;
  const auto ref =
      image::ImageReference::parse("upstream.example/base/tool:v1").value();
  const auto first = client.pull(0, reg, ref, &local);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().layers_skipped, 0u);
  const auto second = client.pull(first.value().done, reg, ref, &local);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().layers_skipped, total_layers);
  // The origin leg keeps the config in the store too: a repeat moves
  // nothing.
  EXPECT_EQ(second.value().bytes_transferred, 0u);

  // The proxy leg skips held layers but always moves the config, and
  // neither reads it from the store nor stores it.
  const crypto::Digest& config = first.value().manifest.config_digest;
  const std::uint64_t config_bytes = reg.get_blob(config).value()->size();
  PullThroughProxy proxy("proxy.site", &reg);
  image::BlobStore via_proxy;
  const auto p1 =
      client.pull_via_proxy(second.value().done, proxy, ref, &via_proxy);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value().layers_skipped, 0u);
  const auto p2 =
      client.pull_via_proxy(p1.value().done, proxy, ref, &via_proxy);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.value().layers_skipped, total_layers);
  EXPECT_EQ(p2.value().bytes_transferred, config_bytes);
  EXPECT_FALSE(via_proxy.contains(config));
  // Even a store that holds the config does not serve it to this leg.
  const auto p3 = client.pull_via_proxy(p2.value().done, proxy, ref, &local);
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(p3.value().bytes_transferred, config_bytes);
}

TEST_F(ClientFixture, ProxyCachesAndServesFaster) {
  PullThroughProxy proxy("proxy.site", &reg);
  RegistryClient client(&net, 1);
  const auto ref =
      image::ImageReference::parse("upstream.example/base/tool:v1").value();

  const auto cold = client.pull_via_proxy(0, proxy, ref);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_GT(proxy.upstream_fetches(), 0u);

  const auto cold_fetches = proxy.upstream_fetches();
  const auto warm = client.pull_via_proxy(cold.value().done, proxy, ref);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(proxy.upstream_fetches(), cold_fetches);  // all hits now
  EXPECT_GT(proxy.cache_hits(), 0u);
  const SimTime cold_latency = cold.value().done - 0;
  const SimTime warm_latency = warm.value().done - cold.value().done;
  EXPECT_LT(warm_latency, cold_latency / 2);
}

// A layer travels from origin to proxy to node as one shared buffer: no
// hop copies it.
TEST_F(ClientFixture, LayersShareTheOriginsBuffer) {
  const auto ref =
      image::ImageReference::parse("upstream.example/base/tool:v1").value();
  const crypto::Digest d = reg.get_manifest(ref).value().layer_digests.back();
  const Bytes* origin = reg.get_blob(d).value().get();
  PullThroughProxy proxy("proxy.site", &reg);
  const auto miss = proxy.fetch_blob(0, d);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().cache_hit);
  EXPECT_EQ(miss.value().blob.get(), origin);
  const auto hit = proxy.fetch_blob(miss.value().done, d);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(hit.value().blob.get(), origin);

  // A pull keeps that buffer in the node's store, and a copy of the store
  // shares it.
  RegistryClient client(&net, 1);
  image::BlobStore local;
  ASSERT_TRUE(client.pull_via_proxy(hit.value().done, proxy, ref, &local).ok());
  EXPECT_EQ(local.get(d).value().get(), origin);
  const image::BlobStore copy = local;
  EXPECT_EQ(copy.get(d).value().get(), origin);
}

TEST_F(ClientFixture, ProxyAbsorbsUpstreamRateLimit) {
  // A throttled upstream: direct pulls fail, proxied pulls succeed by
  // waiting once and then serving everyone from cache.
  RegistryLimits tight;
  tight.pull_limit = 2;
  tight.pull_window = sec(3600);
  OciRegistry throttled("dockerhub.example", tight);
  ASSERT_TRUE(throttled.create_project("base", "builder").ok());
  ASSERT_TRUE(
      mirror_repository(reg, throttled, "upstream.example/base/tool", "builder")
          .ok());

  const auto ref =
      image::ImageReference::parse("upstream.example/base/tool:v1").value();
  RegistryClient client(&net, 1);

  // Direct: first pull uses tokens; quickly exhausted.
  ASSERT_TRUE(client.pull(0, throttled, ref).ok());
  ASSERT_TRUE(throttled.admit_pull(0).ok());
  EXPECT_FALSE(client.pull(0, throttled, ref).ok());  // throttled now

  // Proxied: succeeds (proxy waits out the limiter), and repeat pulls
  // never touch upstream again.
  PullThroughProxy proxy("proxy.site", &throttled);
  const auto p1 = client.pull_via_proxy(0, proxy, ref);
  ASSERT_TRUE(p1.ok()) << p1.error().to_string();
  const auto p2 = client.pull_via_proxy(p1.value().done, proxy, ref);
  ASSERT_TRUE(p2.ok());
  EXPECT_GT(proxy.cache_hits(), 0u);
}

// ---------------------------------------------------------------- Mirrors

TEST_F(ClientFixture, MirrorCopiesOnceAndDedups) {
  OciRegistry dst("mirror.site");
  ASSERT_TRUE(dst.create_project("base", "svc").ok());
  const auto first =
      mirror_repository(reg, dst, "upstream.example/base/tool", "svc");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().manifests_copied, 1u);
  EXPECT_GT(first.value().blobs_copied, 0u);
  EXPECT_EQ(first.value().blobs_skipped, 0u);

  const auto again =
      mirror_repository(reg, dst, "upstream.example/base/tool", "svc");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().blobs_copied, 0u);
  EXPECT_GT(again.value().blobs_skipped, 0u);

  // Mirrored image pullable from destination.
  RegistryClient client(&net, 2);
  const auto ref =
      image::ImageReference::parse("upstream.example/base/tool:v1").value();
  EXPECT_TRUE(client.pull(0, dst, ref).ok());
}

TEST(MirrorTest, MissingRepoFails) {
  OciRegistry a("a"), b("b");
  EXPECT_EQ(mirror_repository(a, b, "a/none", "svc").error().code(),
            ErrorCode::kNotFound);
}

// --------------------------------------------------------------- Profiles

TEST(ProfilesTest, SevenProductsInPaperOrder) {
  const auto& products = registry_products();
  ASSERT_EQ(products.size(), 7u);
  EXPECT_EQ(products[0].name, "Quay");
  EXPECT_EQ(products[1].name, "Harbor");
  EXPECT_EQ(products[2].name, "GitLab");
  EXPECT_EQ(products[3].name, "Gitea");
  EXPECT_EQ(products[4].name, "shpc");
  EXPECT_EQ(products[5].name, "Hinkskalle");
  EXPECT_EQ(products[6].name, "zot");
}

TEST(ProfilesTest, Table4GroundTruth) {
  const auto* harbor = find_registry_product("harbor").value();
  EXPECT_EQ(harbor->proxying, ProxySupport::kAuto);
  EXPECT_EQ(harbor->replication, ReplicationSupport::kPushPull);
  EXPECT_TRUE(harbor->supports_user_defined_artifacts());
  EXPECT_EQ(harbor->affiliation, "CNCF");

  const auto* shpc = find_registry_product("shpc").value();
  EXPECT_FALSE(shpc->supports_oci());
  EXPECT_TRUE(shpc->supports_library_api());

  const auto* hink = find_registry_product("hinkskalle").value();
  EXPECT_TRUE(hink->supports_oci());
  EXPECT_TRUE(hink->supports_library_api());

  EXPECT_FALSE(find_registry_product("artifactory").ok());
}

TEST(ProfilesTest, Table5GroundTruth) {
  const auto* quay = find_registry_product("quay").value();
  EXPECT_EQ(quay->squashing, SquashSupport::kOnDemand);
  EXPECT_TRUE(quay->multi_tenant);
  EXPECT_EQ(quay->tenant_term, "Organization");
  EXPECT_TRUE(quay->signing);

  const auto* gitea = find_registry_product("gitea").value();
  EXPECT_FALSE(gitea->multi_tenant);
  EXPECT_FALSE(gitea->signing);
}

TEST(ProfilesTest, InstantiateRespectsTenancy) {
  const auto* harbor = find_registry_product("harbor").value();
  auto reg = instantiate_oci_registry(*harbor, "harbor.site");
  ASSERT_TRUE(reg.ok());
  EXPECT_TRUE(reg.value()->create_project("p", "alice", 100).ok());

  const auto* gitea = find_registry_product("gitea").value();
  auto reg2 = instantiate_oci_registry(*gitea, "gitea.site");
  ASSERT_TRUE(reg2.ok());
  EXPECT_EQ(reg2.value()->create_project("p", "alice").error().code(),
            ErrorCode::kUnsupported);

  const auto* shpc = find_registry_product("shpc").value();
  EXPECT_EQ(instantiate_oci_registry(*shpc, "shpc.site").error().code(),
            ErrorCode::kUnsupported);
}

// ------------------------------------------------------------ Library API

TEST(LibraryApiTest, PushPullFlatImages) {
  LibraryApiRegistry lib("library.site");
  vfs::MemFs fs;
  (void)fs.write_file("/app", "bits");
  vfs::FlatImageInfo info;
  info.name = "app";
  auto img = vfs::FlatImage::create(fs, info).value();
  const auto kp = crypto::KeyPair::generate(41);
  img.sign(kp, "builder@site");

  ASSERT_TRUE(lib.push("builder", "collection/app:1.0", img).ok());
  const auto pulled = lib.pull("collection/app:1.0");
  ASSERT_TRUE(pulled.ok());
  EXPECT_TRUE(pulled.value().is_signed());  // signatures travel in-image
  crypto::Keyring ring;
  ring.trust("builder@site", kp.public_key());
  EXPECT_TRUE(pulled.value().verify(ring).ok());
  EXPECT_FALSE(lib.pull("collection/missing:1").ok());
  EXPECT_EQ(lib.list().size(), 1u);
}

}  // namespace
}  // namespace hpcc::registry
