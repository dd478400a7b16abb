// bench_table5_registry_features — reproduces the paper's Table 5:
// image squashing, formats, multi-tenancy, quota, signing, deployment
// and build integration per registry product. Benchmarks: quota
// enforcement under concurrent pushes, tenancy isolation, and the
// signed push + verification round trip.
#include "bench_common.h"

#include <cstdio>

#include "registry/profiles.h"
#include "util/table.h"

using namespace hpcc;
using namespace hpcc::bench;

namespace {

std::string join_vec(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out.empty() ? "-" : out;
}

void print_table5() {
  Table t({"Registry", "Image Squashing", "Image Formats", "Multi-Tenancy",
           "Quota", "Signing", "Deployment", "Build Integration"});
  for (const auto& p : registry::registry_products()) {
    t.add_row({p.name, std::string(registry::to_string(p.squashing)),
               join_vec(p.image_formats),
               p.multi_tenant ? "yes (\"" + p.tenant_term + "\")" : "no",
               p.quota_support, p.signing ? "yes" : "no",
               join_vec(p.deployment), p.build_integration});
  }
  std::printf("== Table 5: registry formats, tenancy & deployment ==\n%s\n",
              t.render().c_str());
}

/// Quota bookkeeping under a stream of pushes near the limit.
void BM_QuotaEnforcement(benchmark::State& state) {
  const auto* quay = registry::find_registry_product("quay").value();
  std::uint64_t rejected = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto reg = registry::instantiate_oci_registry(*quay, "quay.site").value();
    (void)reg->create_project("bio", "alice", /*quota=*/4 << 20);
    Rng rng(11);
    state.ResumeTiming();
    rejected = 0;
    for (int i = 0; i < 64; ++i) {
      Bytes blob = image::synthetic_file_content(rng, 128 * 1024);
      if (!reg->push_blob("alice", "bio", std::move(blob)).ok()) ++rejected;
    }
    benchmark::DoNotOptimize(rejected);
  }
  state.counters["pushes_rejected_by_quota"] = static_cast<double>(rejected);
}

/// Membership checks on every push (tenancy isolation cost).
void BM_TenancyCheck(benchmark::State& state) {
  const auto* harbor = registry::find_registry_product("harbor").value();
  auto reg = registry::instantiate_oci_registry(*harbor, "harbor.site").value();
  (void)reg->create_project("proj", "owner");
  const Bytes blob = to_bytes("layer");
  for (auto _ : state) {
    auto denied = reg->push_blob("stranger", "proj", blob);
    benchmark::DoNotOptimize(denied);
  }
}

/// Signed push: attach a cosign-style signature and verify it back.
void BM_SignedPushVerify(benchmark::State& state) {
  SiteEnv env = make_site_env();
  const auto manifest = env.registry->get_manifest(env.ref).value();
  const auto kp = crypto::KeyPair::generate(21);
  crypto::Keyring ring;
  ring.trust("builder@site", kp.public_key());
  for (auto _ : state) {
    crypto::SignatureRecord rec;
    rec.signer_identity = "builder@site";
    rec.key_fingerprint = kp.public_key().fingerprint();
    rec.payload_digest = manifest.digest().to_string();
    rec.signature = kp.sign(std::string_view(rec.payload_digest));
    (void)env.registry->attach_signature(manifest.digest(), rec);
    const auto sigs = env.registry->signatures(manifest.digest());
    auto verified = crypto::verify_record(ring, sigs.back());
    benchmark::DoNotOptimize(verified);
  }
}

/// Registry-side on-demand squashing (Quay, Table 5): flatten an OCI
/// image into a single squash artifact at the registry.
void BM_OnDemandSquash(benchmark::State& state) {
  SiteEnv env = make_site_env();
  const auto manifest = env.registry->get_manifest(env.ref).value();
  std::vector<vfs::Layer> layers;
  for (const auto& digest : manifest.layer_digests) {
    const auto blob = env.registry->get_blob(digest).value();
    layers.push_back(vfs::Layer::deserialize(*blob).value());
  }
  for (auto _ : state) {
    auto squash = image::layers_to_squash(layers);
    benchmark::DoNotOptimize(squash);
    if (squash.ok())
      state.counters["squash_bytes"] =
          static_cast<double>(squash.value().size());
  }
}

BENCHMARK(BM_QuotaEnforcement)->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TenancyCheck);
BENCHMARK(BM_SignedPushVerify)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OnDemandSquash)->Iterations(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
