// The query engine (DESIGN.md section 11): affine-canonical fingerprints and
// the sharded global OPT cache. The load bearing property throughout is
// EXACTNESS -- a cached answer must equal the reference oracle's, under
// every SIMD dispatch mode and bound-tier setting, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "minmach/core/canonical.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/flow/query.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/util/opt_cache.hpp"
#include "minmach/util/rng.hpp"
#include "tests/global_modes.hpp"
#include "tests/reference_oracle.hpp"

namespace minmach {
namespace {

// Every test leaves the process-wide cache the way library users find it:
// disabled. (gtest runs all suites in one process.)
class QueryTest : public ::testing::Test {
 protected:
  void TearDown() override { util::OptCache::global().configure(false, 64); }
};

Instance permuted(const Instance& in, std::uint64_t seed) {
  std::vector<Job> jobs = in.jobs();
  Rng rng(seed);
  for (std::size_t i = jobs.size(); i > 1; --i)
    std::swap(jobs[i - 1], jobs[rng.uniform_int(0, static_cast<std::int64_t>(
                                                        i - 1))]);
  return Instance(std::move(jobs));
}

TEST_F(QueryTest, FingerprintInvariantUnderAffineMapsAndPermutations) {
  Rng rng(7);
  GenConfig config;
  config.n = 12;
  for (int trial = 0; trial < 8; ++trial) {
    const Instance base = gen_general(rng, config);
    const util::Digest128 fp = canonical_fingerprint(base);

    // A handful of exact affine images t -> offset + scale * t.
    const Rat offsets[] = {Rat(0), Rat(17), Rat(-5, 3), Rat(1, 7)};
    const Rat scales[] = {Rat(1), Rat(3), Rat(2, 5), Rat(7, 2)};
    for (const Rat& offset : offsets) {
      for (const Rat& scale : scales) {
        const Instance image = affine(base, offset, scale);
        EXPECT_EQ(canonical_fingerprint(image), fp);
        EXPECT_EQ(canonicalize(image), canonicalize(base));
        // Permuting the affine image's job order must not matter either.
        const Instance shuffled =
            permuted(image, static_cast<std::uint64_t>(trial) * 31 + 1);
        EXPECT_EQ(canonical_fingerprint(shuffled), fp);
      }
    }
  }
}

TEST_F(QueryTest, FingerprintSeparatesDistinctInstances) {
  Rng rng(11);
  GenConfig config;
  config.n = 10;
  std::set<util::Digest128> fingerprints;
  std::size_t instances = 0;
  for (int trial = 0; trial < 24; ++trial) {
    Instance in = gen_general(rng, config);
    fingerprints.insert(canonical_fingerprint(in));
    ++instances;
  }
  EXPECT_EQ(fingerprints.size(), instances);

  // A non-affine perturbation (one processing time nudged) must move the
  // fingerprint even though every other value is unchanged.
  Instance in = gen_general(rng, config);
  std::vector<Job> jobs = in.jobs();
  jobs[0].processing = jobs[0].processing * Rat(99, 100);
  EXPECT_NE(canonical_fingerprint(Instance(jobs)), canonical_fingerprint(in));
}

TEST_F(QueryTest, CacheOnAndOffAgreeAcrossAllOracleOptionCombos) {
  Rng rng(13);
  GenConfig config;
  config.n = 16;
  std::vector<Instance> pool;
  std::vector<std::int64_t> reference;
  for (int trial = 0; trial < 4; ++trial) {
    pool.push_back(gen_general(rng, config));
    reference.push_back(reference_opt(pool.back()));
  }

  // The oracle's remaining switches are process-wide: SIMD dispatch and
  // the bound-tier gate.
  for_each_global_mode([&] {
    // Cache disabled, then enabled and cleared: the first cached pass
    // fills, the second hits; every pass must reproduce the reference
    // exactly, through the oracle and through the query wrapper.
    util::OptCache::global().configure(false, 1 << 10);
    for (std::size_t i = 0; i < pool.size(); ++i)
      EXPECT_EQ(query_optimal_machines(pool[i]), reference[i]);
    util::OptCache::global().configure(true, 1 << 10);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        FeasibilityOracle oracle(pool[i]);
        EXPECT_EQ(oracle.optimal_machines(), reference[i]) << "pass " << pass;
        EXPECT_EQ(query_optimal_machines(pool[i]), reference[i]);
      }
    }
  });
}

TEST_F(QueryTest, SecondQueryIsAnOptCacheHit) {
  Rng rng(17);
  GenConfig config;
  config.n = 14;
  const Instance in = gen_general(rng, config);
  util::OptCache::global().configure(true, 1 << 10);

  const QueryStats first = query_optimal_machines_stats(in);
  EXPECT_FALSE(first.cache_hit);
  const QueryStats second = query_optimal_machines_stats(in);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.probes, 0u);
  EXPECT_EQ(second.machines, first.machines);

  // An affine image of the instance is the SAME cache line: that is the
  // entire point of the canonical fingerprint.
  const QueryStats image =
      query_optimal_machines_stats(affine(in, Rat(5, 3), Rat(7, 4)));
  EXPECT_TRUE(image.cache_hit);
  EXPECT_EQ(image.machines, first.machines);

  // A disabled cache bypasses the query-level lookup but must still agree.
  util::OptCache::global().configure(false, 1 << 10);
  const QueryStats bypass = query_optimal_machines_stats(in);
  EXPECT_FALSE(bypass.cache_hit);
  EXPECT_EQ(bypass.machines, first.machines);
}

TEST_F(QueryTest, EvictionKeepsTheCacheBoundedAndExact) {
  util::OptCache& cache = util::OptCache::global();
  cache.configure(true, 64);  // minimum geometry: 16 shards x 1 set x 4 ways
  ASSERT_EQ(cache.capacity(), 64u);

  for (std::uint64_t i = 0; i < 1000; ++i) {
    const util::Digest128 fp{util::mix64(i * 2 + 1), util::mix64(i * 3 + 7)};
    cache.insert_opt(fp, static_cast<std::int64_t>(i));
    // Re-inserting the same key must dedupe, not spawn a twin entry.
    cache.insert_opt(fp, static_cast<std::int64_t>(i));
    ASSERT_LE(cache.size(), cache.capacity());
    // Whatever survives must be exact: a hit returns the one true value.
    const auto hit = cache.lookup_opt(fp);
    if (hit) EXPECT_EQ(*hit, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(cache.size(), cache.capacity());  // fully warm after 1000 inserts

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.enabled());
}

TEST_F(QueryTest, CachedQueryHandlesDegenerateInstances) {
  util::OptCache::global().configure(true, 1 << 10);

  EXPECT_EQ(query_optimal_machines(Instance()), 0);

  std::vector<Job> one(1);
  one[0].release = Rat(0);
  one[0].deadline = Rat(2);
  one[0].processing = Rat(1);
  EXPECT_EQ(query_optimal_machines(Instance(one)), 1);

  std::vector<Job> bad(1);
  bad[0].release = Rat(1);
  bad[0].deadline = Rat(1);
  bad[0].processing = Rat(1);
  EXPECT_THROW((void)query_optimal_machines(Instance(bad)),
               std::invalid_argument);
}

TEST_F(QueryTest, ConcurrentCachedQueriesStayConsistent) {
  Rng rng(23);
  GenConfig config;
  config.n = 12;
  std::vector<Instance> pool;
  for (int trial = 0; trial < 6; ++trial) pool.push_back(gen_general(rng, config));

  std::vector<std::int64_t> reference;
  for (const Instance& in : pool) reference.push_back(reference_opt(in));

  // Four threads hammer the same instance pool through the cache -- every
  // interleaving of misses, fills, hits, and evictions must return the
  // reference answer.
  util::OptCache::global().configure(true, 1 << 10);
  const int threads = 4, reps = 8;
  std::vector<std::vector<std::int64_t>> got(
      threads, std::vector<std::int64_t>(pool.size(), -1));
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < reps; ++rep)
        for (std::size_t i = 0; i < pool.size(); ++i)
          got[static_cast<std::size_t>(t)][i] = query_optimal_machines(pool[i]);
      obs::drain_hot_tallies();
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < threads; ++t)
    EXPECT_EQ(got[static_cast<std::size_t>(t)], reference) << "thread " << t;
}

}  // namespace
}  // namespace minmach
