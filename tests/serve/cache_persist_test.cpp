// Plan-cache persistence: a snapshot round trip reproduces the exact hit
// bitwise with zero identify evaluations; entries and LRU order survive;
// every corruption mode (flipped byte, truncation, bad magic/version,
// header count mismatch, missing file) rejects the snapshot loudly and
// leaves the cache untouched — a cold start, never a crash or a
// half-warm cache.
#include "serve/cache_persist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "core/identify.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "serve/plan_service.hpp"
#include "sparse/generators.hpp"
#include "util/rng.hpp"

namespace nbwp::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nbwp_cache_persist_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

hetalg::HeteroSpmm spmm_problem(uint64_t seed = 1) {
  Rng rng(seed);
  return hetalg::HeteroSpmm(sparse::random_uniform(1500, 1500, 12000, rng),
                            hetsim::Platform::reference());
}

core::RobustConfig spmm_config() {
  core::RobustConfig cfg;
  cfg.sampling.sample_factor = 0.25;
  cfg.sampling.method = core::IdentifyMethod::kRaceThenFine;
  cfg.sampling.warm.halfwidth = 3;
  cfg.sampling.warm.step = 3;
  return cfg;
}

PlanRequest request(const std::string& id, uint64_t seed = 1) {
  return make_plan_request(id, "spmm", spmm_problem(seed), spmm_config());
}

/// A synthetic entry with awkward doubles (not exactly representable in
/// decimal) so the %.17g round trip is actually exercised.
PlanCache::ExportedEntry entry(uint64_t hash,
                               const std::string& provenance = "req") {
  PlanCache::ExportedEntry e;
  e.key = {"spmm", 0xfeedfaceULL, 7};
  e.fp.exact_hash = hash;
  e.fp.bucket = 7;
  e.fp.sketch.n = 1500;
  e.fp.sketch.nnz = 12000;
  e.fp.sketch.deg_mean = 8.000000000000071;
  e.fp.sketch.deg_p50 = 8;
  e.fp.sketch.deg_p90 = 12;
  e.fp.sketch.deg_p99 = 17;
  e.fp.sketch.deg_max = 23;
  e.fp.sketch.gini = 0.1 + static_cast<double>(hash) * 1e-3;
  e.fp.sketch.hub_mass = 0.037;
  e.fp.sketch.bandedness = 1.0 / 3.0;
  e.plan.threshold = 1234.5678901234567 + static_cast<double>(hash);
  e.plan.objective_ns = 9.87e6;
  e.plan.cpu_share = 1.0 / 3.0;
  e.plan.descriptor = core::PartitionDescriptor{
      {1.0 / 3.0, 1.0 / 3.0 + 1e-16, 1.0 - 2.0 / 3.0 - 1e-16}};
  e.plan.cold_evaluations = 17;
  e.plan.stage = core::FallbackStage::kSampled;
  e.plan.provenance = provenance;
  return e;
}

TEST(CachePersist, RoundTripReproducesExactHitWithZeroEvaluations) {
  PlanService saver;
  const PlannedPartition cold = saver.plan_one(request("cold", 1));
  ASSERT_EQ(cold.cache, HitKind::kMiss);

  const std::string path = temp_path("roundtrip");
  const SnapshotResult saved = save_plan_cache(saver.cache(), path);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.entries, 1u);

  PlanService booted;  // a fresh process, warm-started from the snapshot
  const SnapshotResult restored = restore_plan_cache(booted.cache(), path);
  ASSERT_TRUE(restored.ok) << restored.error;
  EXPECT_EQ(restored.entries, 1u);
  EXPECT_EQ(booted.cache().size(), 1u);

  const PlannedPartition hit = booted.plan_one(request("warm", 1));
  EXPECT_EQ(hit.cache, HitKind::kExact);
  EXPECT_EQ(hit.evaluations, 0);
  EXPECT_EQ(hit.threshold, cold.threshold);  // bitwise, thanks to %.17g
  EXPECT_EQ(hit.objective_ns, cold.objective_ns);
}

TEST(CachePersist, RoundTripPreservesEntriesAndLruOrder) {
  PlanCache::Options options;
  options.capacity = 8;
  options.shards = 1;
  PlanCache original(options);
  for (uint64_t h : {1, 2, 3}) {
    const auto e = entry(h);
    original.insert(e.key, e.fp, e.plan);
  }
  // Touch entry 1 so the LRU order is no longer insertion order.
  const auto probe = entry(1);
  ASSERT_EQ(original.lookup(probe.key, probe.fp).kind, HitKind::kExact);

  const std::string path = temp_path("order");
  ASSERT_TRUE(save_plan_cache(original, path).ok);
  PlanCache restored(options);
  ASSERT_TRUE(restore_plan_cache(restored, path).ok);

  const auto want = original.entries();
  const auto got = restored.entries();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].fp, want[i].fp) << i;
    EXPECT_EQ(got[i].plan, want[i].plan) << i;
  }
}

TEST(CachePersist, ProvenanceWhitespaceIsMangledNotFatal) {
  PlanCache cache;
  const auto spaced = entry(1, "cc:pwtk 0\tx");
  cache.insert(spaced.key, spaced.fp, spaced.plan);
  const auto empty = entry(2, "");
  cache.insert(empty.key, empty.fp, empty.plan);

  const std::string path = temp_path("mangle");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);
  PlanCache restored;
  ASSERT_TRUE(restore_plan_cache(restored, path).ok);
  for (const auto& e : restored.entries()) {
    if (e.fp.exact_hash == 1)
      EXPECT_EQ(e.plan.provenance, "cc:pwtk_0_x");
    else
      EXPECT_EQ(e.plan.provenance, "");
  }
}

TEST(CachePersist, CorruptedByteRejectsSnapshotAndLeavesCacheCold) {
  PlanCache cache;
  for (uint64_t h : {1, 2}) {
    const auto e = entry(h);
    cache.insert(e.key, e.fp, e.plan);
  }
  const std::string path = temp_path("corrupt");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);

  std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;  // land inside the entry lines
  write_file(path, bytes);

  PlanService booted;
  const SnapshotResult result = restore_plan_cache(booted.cache(), path);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(booted.cache().size(), 0u);  // untouched: cold start
  // ...and the service behind it still plans, cold and valid.
  const PlannedPartition planned = booted.plan_one(request("cold", 1));
  EXPECT_EQ(planned.cache, HitKind::kMiss);
  EXPECT_TRUE(std::isfinite(planned.threshold));
}

TEST(CachePersist, TruncatedSnapshotMissingChecksumRejected) {
  PlanCache cache;
  const auto e = entry(1);
  cache.insert(e.key, e.fp, e.plan);
  const std::string path = temp_path("truncated");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);

  std::string bytes = read_file(path);
  const auto checksum_at = bytes.rfind("checksum=");
  ASSERT_NE(checksum_at, std::string::npos);
  write_file(path, bytes.substr(0, checksum_at));

  PlanCache restored;
  const SnapshotResult result = restore_plan_cache(restored, path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("checksum"), std::string::npos)
      << result.error;
  EXPECT_EQ(restored.size(), 0u);
}

TEST(CachePersist, WrongMagicOrVersionRejected) {
  PlanCache cache;
  const auto e = entry(1);
  cache.insert(e.key, e.fp, e.plan);
  const std::string path = temp_path("version");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);
  const std::string bytes = read_file(path);

  std::string wrong_version = bytes;
  const auto v = wrong_version.find(" v2 ");
  ASSERT_NE(v, std::string::npos);
  wrong_version.replace(v, 4, " v9 ");
  write_file(path, wrong_version);
  PlanCache a;
  EXPECT_FALSE(restore_plan_cache(a, path).ok);
  EXPECT_EQ(a.size(), 0u);

  write_file(path, "some-other-format 1\n" + bytes);
  PlanCache b;
  EXPECT_FALSE(restore_plan_cache(b, path).ok);
  EXPECT_EQ(b.size(), 0u);
}

TEST(CachePersist, LegacyV1SnapshotFailsClosedToColdStart) {
  // A pre-descriptor (v1) snapshot carries no shares to execute; restore
  // must reject it on the version token — before ever parsing entries —
  // so the server starts cold instead of guessing a descriptor.
  const std::string path = temp_path("legacy_v1");
  write_file(path,
             "nbwp-plan-cache v1 entries=1\n"
             "plan spmm 4276996814 7 1 1500 12000 8 8 12 17 23 0.101 0.037 "
             "0.33333333333333331 1235.5678901234567 9870000 "
             "0.33333333333333331 17 sampled req\n"
             "checksum=0000000000000000\n");
  PlanCache restored;
  const SnapshotResult result = restore_plan_cache(restored, path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unsupported version 'v1'"), std::string::npos)
      << result.error;
  EXPECT_EQ(restored.size(), 0u);
}

TEST(CachePersist, DescriptorSharesRoundTripBitwise) {
  PlanCache cache;
  const auto e = entry(1);
  cache.insert(e.key, e.fp, e.plan);
  const std::string path = temp_path("descriptor");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);
  PlanCache restored;
  ASSERT_TRUE(restore_plan_cache(restored, path).ok);
  const auto got = restored.entries();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].plan.descriptor.devices(), 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[0].plan.descriptor.shares[i], e.plan.descriptor.shares[i])
        << i;  // bitwise, thanks to %.17g
  }
}

TEST(CachePersist, InvalidDescriptorSharesRejected) {
  PlanCache cache;
  const auto e = entry(1);
  cache.insert(e.key, e.fp, e.plan);
  const std::string path = temp_path("bad_shares");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);

  // Replace one share so the descriptor no longer sums to 1; the entry
  // parser rejects it before the checksum is even consulted.
  std::string bytes = read_file(path);
  const auto at = bytes.rfind("0.33333333333333331");  // descriptor share 0
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 19, "0.93333333333333331");
  write_file(path, bytes);
  PlanCache restored;
  const SnapshotResult result = restore_plan_cache(restored, path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("descriptor"), std::string::npos)
      << result.error;
  EXPECT_EQ(restored.size(), 0u);
}

TEST(CachePersist, HeaderEntryCountMismatchRejected) {
  PlanCache cache;
  for (uint64_t h : {1, 2}) {
    const auto e = entry(h);
    cache.insert(e.key, e.fp, e.plan);
  }
  const std::string path = temp_path("count");
  ASSERT_TRUE(save_plan_cache(cache, path).ok);

  std::string bytes = read_file(path);
  const auto at = bytes.find("entries=2");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 9, "entries=5");
  write_file(path, bytes);

  PlanCache restored;
  const SnapshotResult result = restore_plan_cache(restored, path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("count"), std::string::npos) << result.error;
  EXPECT_EQ(restored.size(), 0u);
}

TEST(CachePersist, MissingFileRestoresColdWithoutCrashing) {
  PlanCache cache;
  const SnapshotResult result =
      restore_plan_cache(cache, temp_path("does_not_exist"));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CachePersist, SaveReplacesAtomicallyAndLeavesNoTempFile) {
  const std::string path = temp_path("atomic");
  PlanCache one;
  const auto e1 = entry(1);
  one.insert(e1.key, e1.fp, e1.plan);
  ASSERT_TRUE(save_plan_cache(one, path).ok);

  PlanCache two;
  for (uint64_t h : {1, 2}) {
    const auto e = entry(h);
    two.insert(e.key, e.fp, e.plan);
  }
  const SnapshotResult resaved = save_plan_cache(two, path);
  ASSERT_TRUE(resaved.ok);
  EXPECT_EQ(resaved.entries, 2u);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  PlanCache restored;
  const SnapshotResult result = restore_plan_cache(restored, path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(restored.size(), 2u);
}

}  // namespace
}  // namespace nbwp::serve
