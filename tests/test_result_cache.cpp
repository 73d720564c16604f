/**
 * @file
 * Content-addressed result-cache tests. Two contracts dominate:
 *
 *  - key canonicalization: the cache key is a function of the
 *    simulation-semantic coordinates only. It must be stable across
 *    grids/declaration order, change for every semantic axis and run
 *    option (including the sparseCounters and parallelism
 *    only-when-non-default asymmetries), and ignore execution-only
 *    knobs (jobs, shardJobs, telemetry/profile sinks, progress);
 *
 *  - robustness: a truncated/corrupt/mismatched entry is a miss that
 *    gets recomputed and overwritten, never a crash; concurrent
 *    writers are safe via temp-file + atomic rename; warm aggregates
 *    are byte-identical to cold ones.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "harness/sweep_telemetry.hh"
#include "sim/metrics.hh"
#include "sim/provenance.hh"

using namespace smartref;
namespace fs = std::filesystem;

namespace {

/** Fresh empty cache directory per test. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "smartref_" + name;
    fs::remove_all(dir);
    return dir;
}

SweepJob
makeJob(std::uint64_t baseSeed = 42)
{
    SweepJob job;
    job.point = {"2gb", "mummer", "smart", 3, 0, "refpb"};
    job.seed = deriveJobSeed(baseSeed, job.point);
    return job;
}

/** Tiny windows: behaviour, not statistics, is under test. */
SweepRunOptions
fastOptions()
{
    SweepRunOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    return opts;
}

SweepGrid
tinyGrid()
{
    SweepGrid g;
    g.name = "cachetest";
    g.configs = {"2gb"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"smart"};
    g.counterBits = {3};
    g.retentionMs = {0};
    return g;
}

std::string
aggregate(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream oss;
    writeSweepJson(grid, opts, runSweep(grid, opts), oss);
    return oss.str();
}

} // namespace

// ---------------------------------------------------------------- keys

TEST(CacheKey, StableAcrossGridsAndRepeatedCalls)
{
    const SweepJob job = makeJob();
    const SweepRunOptions opts = fastOptions();
    // The key is a pure function of (point, seed, options, build):
    // which grid expanded the job, its index, and axis declaration
    // order are irrelevant.
    SweepJob reindexed = job;
    reindexed.index = 17;
    EXPECT_EQ(resultCacheKey(job, opts).hex,
              resultCacheKey(reindexed, opts).hex);
    EXPECT_EQ(resultCacheKey(job, opts).canonical,
              resultCacheKey(job, opts).canonical);

    // Same point reached through two differently-declared grids.
    SweepGrid a = tinyGrid();
    SweepGrid b = tinyGrid();
    b.name = "other";
    b.benchmarks = {"gcc", "radix", "mummer"};
    const auto jobsA = expandGrid(a, 42);
    const auto jobsB = expandGrid(b, 42);
    std::string keyA, keyB;
    for (const auto &j : jobsA)
        if (j.point.benchmark == "mummer")
            keyA = resultCacheKey(j, opts).hex;
    for (const auto &j : jobsB)
        if (j.point.benchmark == "mummer")
            keyB = resultCacheKey(j, opts).hex;
    ASSERT_FALSE(keyA.empty());
    EXPECT_EQ(keyA, keyB);
}

TEST(CacheKey, IncludesBuildFingerprint)
{
    const auto key = resultCacheKey(makeJob(), fastOptions());
    EXPECT_NE(key.canonical.find(buildFingerprint()), std::string::npos);
}

TEST(CacheKey, ExcludesExecutionOnlyKnobs)
{
    const SweepJob job = makeJob();
    SweepRunOptions opts = fastOptions();
    const std::string base = resultCacheKey(job, opts).hex;

    // None of the execution knobs may perturb the key: -j N,
    // --shard-jobs, telemetry/heatmap sinks, progress,
    // log level, conservation checking, the cache config itself.
    opts.jobs = 8;
    opts.shardJobs = 4;
    opts.progress = true;
    opts.collectHeatmaps = true;
    opts.checkConservation = true;
    opts.logLevel = LogLevel::Debug;
    opts.cacheVerify = true;
    std::ostringstream sink;
    SweepTelemetry telemetry(sink);
    opts.telemetry = &telemetry;
    EXPECT_EQ(base, resultCacheKey(job, opts).hex);
}

TEST(CacheKey, ChangesForEverySemanticCoordinate)
{
    const SweepJob job = makeJob();
    const SweepRunOptions opts = fastOptions();
    const std::string base = resultCacheKey(job, opts).hex;

    const auto withPoint = [&](auto mutate) {
        SweepJob j = job;
        mutate(j.point);
        // Re-derive the seed as expandGrid would: coordinate changes
        // move the seed too, and both enter the canonical string.
        j.seed = deriveJobSeed(42, j.point);
        return resultCacheKey(j, opts).hex;
    };
    EXPECT_NE(base, withPoint([](SweepPoint &p) { p.config = "3d64"; }));
    EXPECT_NE(base,
              withPoint([](SweepPoint &p) { p.benchmark = "gcc"; }));
    EXPECT_NE(base, withPoint([](SweepPoint &p) { p.policy = "cbr"; }));
    EXPECT_NE(base, withPoint([](SweepPoint &p) { p.counterBits = 4; }));
    EXPECT_NE(base,
              withPoint([](SweepPoint &p) { p.retentionMs = 32; }));
    EXPECT_NE(base,
              withPoint([](SweepPoint &p) { p.parallelism = "darp"; }));

    // A different seed alone (fixed-mode sweeps) changes the key.
    SweepJob reseeded = job;
    reseeded.seed = job.seed + 1;
    EXPECT_NE(base, resultCacheKey(reseeded, opts).hex);

    // Every semantic run option changes the key.
    const auto withOpts = [&](auto mutate) {
        SweepRunOptions o = opts;
        mutate(o);
        return resultCacheKey(job, o).hex;
    };
    EXPECT_NE(base, withOpts([](SweepRunOptions &o) {
                  o.warmup = 8 * kMillisecond;
              }));
    EXPECT_NE(base, withOpts([](SweepRunOptions &o) {
                  o.measure = 8 * kMillisecond;
              }));
    EXPECT_NE(base,
              withOpts([](SweepRunOptions &o) { o.segments = 16; }));
    EXPECT_NE(base, withOpts([](SweepRunOptions &o) {
                  o.autoReconfigure = false;
              }));
    EXPECT_NE(base, withOpts([](SweepRunOptions &o) {
                  o.sparseCounters = true;
              }));
}

TEST(CacheKey, SparseAndParallelismJoinOnlyWhenNonDefault)
{
    // The asymmetry is deliberate and pinned: the default (dense
    // counters, refpb parallelism) canonical strings contain no trace
    // of either axis, so keys formed before the axes existed are
    // unchanged. The non-default side must appear.
    const SweepJob job = makeJob();
    SweepRunOptions opts = fastOptions();
    const std::string dense = resultCacheKey(job, opts).canonical;
    EXPECT_EQ(dense.find("sparse"), std::string::npos);
    EXPECT_EQ(dense.find("par="), std::string::npos);

    opts.sparseCounters = true;
    const std::string sparse = resultCacheKey(job, opts).canonical;
    EXPECT_NE(sparse.find(";sparse=1"), std::string::npos);

    SweepJob darp = job;
    darp.point.parallelism = "darp";
    darp.seed = deriveJobSeed(42, darp.point);
    const std::string par = resultCacheKey(darp, opts).canonical;
    EXPECT_NE(par.find(";par=darp"), std::string::npos);
}

// ---------------------------------------------------------- round trip

TEST(ResultCacheStore, RoundTripsAStoredResult)
{
    ResultCache cache(freshDir("rc_roundtrip"));
    const SweepJob job = makeJob();
    const SweepRunOptions opts = fastOptions();
    const ResultCacheKey key = resultCacheKey(job, opts);

    SweepJobResult miss;
    EXPECT_FALSE(cache.lookup(key, miss));
    EXPECT_EQ(cache.stats().misses, 1u);

    const SweepJobResult fresh = runSweepJob(job, opts);
    cache.store(key, job, fresh);
    EXPECT_EQ(cache.stats().stores, 1u);

    SweepJobResult hit;
    ASSERT_TRUE(cache.lookup(key, hit));
    EXPECT_TRUE(hit.cached);
    EXPECT_EQ(cache.stats().hits, 1u);
    // Bit-exact round trip, including every double: the equality
    // witness is the same serialization --cache-verify compares.
    EXPECT_EQ(ResultCache::comparisonJson(fresh.comparison),
              ResultCache::comparisonJson(hit.comparison));
    EXPECT_EQ(fresh.comparison.baseline.refreshesPerSec,
              hit.comparison.baseline.refreshesPerSec);
    EXPECT_EQ(fresh.comparison.smart.latencySumSec,
              hit.comparison.smart.latencySumSec);
    EXPECT_EQ(fresh.comparison.smart.violations,
              hit.comparison.smart.violations);
}

// ---------------------------------------------------------- robustness

TEST(ResultCacheRobustness, CorruptEntriesAreMissesAndGetOverwritten)
{
    ResultCache cache(freshDir("rc_corrupt"));
    const SweepJob job = makeJob();
    const SweepRunOptions opts = fastOptions();
    const ResultCacheKey key = resultCacheKey(job, opts);
    const SweepJobResult fresh = runSweepJob(job, opts);
    cache.store(key, job, fresh);

    const std::string path = cache.entryPath(key.hex);
    const auto expectCorruptMiss = [&](const std::string &contents) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << contents;
        }
        SweepJobResult r;
        EXPECT_FALSE(cache.lookup(key, r));
        // Recompute-and-overwrite restores the entry.
        cache.store(key, job, fresh);
        SweepJobResult ok;
        EXPECT_TRUE(cache.lookup(key, ok));
    };
    // Truncation, garbage, valid JSON of the wrong schema, an entry
    // whose key does not match its file name, a schema-valid entry
    // with a missing member, and nesting deep enough to overflow a
    // recursive parser's stack: all are misses, none may throw.
    expectCorruptMiss("{\"schema\":\"smartref-result-cache-v1\",");
    expectCorruptMiss("not json at all");
    expectCorruptMiss("{\"schema\":\"smartref-ledger-v1\"}");
    expectCorruptMiss("{\"schema\":\"smartref-result-cache-v1\","
                      "\"key\":\"0000000000000000\","
                      "\"canonical\":\"x\"}");
    {
        // Drop one RunResult member from an otherwise-valid entry.
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        std::string entry = text.str();
        const auto pos = entry.find("\"violations\":");
        ASSERT_NE(pos, std::string::npos);
        entry.erase(pos, entry.find(',', pos) - pos + 1);
        expectCorruptMiss(entry);
    }
    expectCorruptMiss(std::string(200000, '['));
    EXPECT_EQ(cache.stats().corrupt, 6u);

    // An absent entry is a plain miss, not a corrupt one.
    ASSERT_TRUE(fs::remove(path));
    SweepJobResult r;
    EXPECT_FALSE(cache.lookup(key, r));
    EXPECT_EQ(cache.stats().corrupt, 6u);
}

TEST(ResultCacheRobustness, ConcurrentStoresOfTheSameKeyAreSafe)
{
    ResultCache cache(freshDir("rc_concurrent"));
    const SweepJob job = makeJob();
    const SweepRunOptions opts = fastOptions();
    const ResultCacheKey key = resultCacheKey(job, opts);
    const SweepJobResult fresh = runSweepJob(job, opts);

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t)
        writers.emplace_back(
            [&] { cache.store(key, job, fresh); });
    for (auto &w : writers)
        w.join();

    SweepJobResult hit;
    ASSERT_TRUE(cache.lookup(key, hit));
    EXPECT_EQ(ResultCache::comparisonJson(fresh.comparison),
              ResultCache::comparisonJson(hit.comparison));
    // No temp droppings left behind.
    std::size_t files = 0;
    for (const auto &shard :
         fs::recursive_directory_iterator(cache.dir()))
        if (shard.is_regular_file())
            ++files;
    EXPECT_EQ(files, 1u);
}

// ------------------------------------------------------------- eviction

TEST(ResultCacheEviction, PrunesLeastRecentlyUsedFirst)
{
    ResultCache cache(freshDir("rc_evict"));
    const SweepRunOptions opts = fastOptions();
    const SweepJobResult result = runSweepJob(makeJob(), opts);

    std::vector<ResultCacheKey> keys;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SweepJob job = makeJob();
        job.seed = seed;
        keys.push_back(resultCacheKey(job, opts));
        cache.store(keys.back(), job, result);
        // Distinct mtimes on coarse-granularity filesystems.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Touch the oldest entry: a hit bumps its mtime, so eviction must
    // now prefer the second-oldest instead.
    SweepJobResult r;
    ASSERT_TRUE(cache.lookup(keys[0], r));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const std::uintmax_t entryBytes =
        fs::file_size(cache.entryPath(keys[0].hex));
    // Room for two entries: the two LRU ones (keys[1], keys[2]) go.
    EXPECT_EQ(cache.pruneToBytes(2 * entryBytes + 1), 2u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_TRUE(fs::exists(cache.entryPath(keys[0].hex)));
    EXPECT_FALSE(fs::exists(cache.entryPath(keys[1].hex)));
    EXPECT_FALSE(fs::exists(cache.entryPath(keys[2].hex)));
    EXPECT_TRUE(fs::exists(cache.entryPath(keys[3].hex)));
}

// ------------------------------------------------------- prefix lookup

TEST(ResultCachePrefix, ResolvesUniqueAndAmbiguousPrefixes)
{
    // matchPrefix scans entry file names, so planting files with
    // chosen names exercises unique/ambiguous/none deterministically
    // (real keys depend on the build fingerprint).
    ResultCache cache(freshDir("rc_prefix"));
    const auto plant = [&](const std::string &hex) {
        const std::string path = cache.entryPath(hex);
        fs::create_directories(fs::path(path).parent_path());
        std::ofstream(path) << "{}";
    };
    plant("ab00000000000000");
    plant("ab00000000000001");
    plant("cd00000000000000");

    EXPECT_EQ(cache.matchPrefix("ab").size(), 2u);
    EXPECT_EQ(cache.matchPrefix("a").size(), 2u);
    const auto unique = cache.matchPrefix("ab00000000000001");
    ASSERT_EQ(unique.size(), 1u);
    EXPECT_EQ(unique[0], "ab00000000000001");
    const auto other = cache.matchPrefix("cd");
    ASSERT_EQ(other.size(), 1u);
    EXPECT_EQ(other[0], "cd00000000000000");
    // Ambiguous matches come back sorted for stable error messages.
    const auto both = cache.matchPrefix("ab0000000000000");
    ASSERT_EQ(both.size(), 2u);
    EXPECT_LT(both[0], both[1]);
    // No match: unknown prefix, non-hex garbage, over-long prefix.
    EXPECT_TRUE(cache.matchPrefix("ef").empty());
    EXPECT_TRUE(cache.matchPrefix("zz").empty());
    EXPECT_TRUE(cache.matchPrefix("").empty());
    EXPECT_TRUE(cache.matchPrefix("0123456789abcdef0").empty());
}

// ------------------------------------------------- runSweep integration

TEST(CachedSweep, WarmAggregatesAreByteIdenticalAndAllHits)
{
    const SweepGrid grid = tinyGrid();
    SweepRunOptions opts = fastOptions();
    const std::string plain = aggregate(grid, opts);

    ResultCache cache(freshDir("rc_sweep"));
    opts.cache = &cache;
    const std::string cold = aggregate(grid, opts);
    EXPECT_EQ(plain, cold) << "attaching a cache changed the bytes";
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().stores, 2u);

    // A warm replay serves every job from the cache and schedules none.
    const MetricCounter &scheduled =
        globalMetrics().counter("sweep.jobs_scheduled");
    const std::uint64_t scheduledBefore = scheduled.value();
    const std::string warm = aggregate(grid, opts);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(scheduled.value(), scheduledBefore);

    // Parallel warm run: hits stitched in grid order regardless of -j.
    opts.jobs = 4;
    EXPECT_EQ(cold, aggregate(grid, opts));
}

TEST(CachedSweep, IncrementalSupersetSimulatesOnlyTheDelta)
{
    ResultCache cache(freshDir("rc_incremental"));
    SweepRunOptions opts = fastOptions();
    opts.cache = &cache;
    runSweep(tinyGrid(), opts);
    ASSERT_EQ(cache.stats().stores, 2u);

    // Superset grid under a different name: the two shared points are
    // hits, only the two new benchmarks simulate.
    SweepGrid superset = tinyGrid();
    superset.name = "superset";
    superset.benchmarks = {"mummer", "gcc", "radix", "fasta"};
    const auto results = runSweep(superset, opts);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().stores, 4u);
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results) {
        const bool shared = r.job.point.benchmark == "mummer" ||
                            r.job.point.benchmark == "gcc";
        EXPECT_EQ(r.cached, shared) << r.job.point.benchmark;
    }
}

TEST(CachedSweep, VerifyModePassesOnHonestEntriesAndCountsThem)
{
    ResultCache cache(freshDir("rc_verify"));
    SweepRunOptions opts = fastOptions();
    opts.cache = &cache;
    const std::string cold = aggregate(tinyGrid(), opts);

    opts.cacheVerify = true;
    const std::string verified = aggregate(tinyGrid(), opts);
    EXPECT_EQ(cold, verified);
    EXPECT_EQ(cache.stats().verified, 2u);
}

TEST(CachedSweep, VerifyModeIsFatalOnTamperedEntries)
{
    ResultCache cache(freshDir("rc_tamper"));
    SweepRunOptions opts = fastOptions();
    opts.cache = &cache;
    const SweepGrid grid = tinyGrid();
    runSweep(grid, opts);

    // Tamper with one stored metric; the entry stays schema-valid.
    const auto jobs = expandGrid(grid, opts.baseSeed, opts.seedMode);
    const std::string path =
        cache.entryPath(resultCacheKey(jobs[0], opts).hex);
    std::string entry;
    {
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        entry = text.str();
    }
    const auto pos = entry.find("\"refreshesPerSec\":");
    ASSERT_NE(pos, std::string::npos);
    entry.replace(pos, 18, "\"refreshesPerSec\":9");
    {
        std::ofstream out(path, std::ios::trunc);
        out << entry;
    }

    opts.cacheVerify = true;
    EXPECT_THROW(runSweep(grid, opts), std::runtime_error);
}

TEST(CachedSweep, HeatmapCollectionBypassesProbingButStillStores)
{
    ResultCache cache(freshDir("rc_heatmap"));
    SweepRunOptions opts = fastOptions();
    opts.cache = &cache;
    const SweepGrid grid = tinyGrid();
    runSweep(grid, opts);
    ASSERT_EQ(cache.stats().stores, 2u);

    // Entries carry no heatmaps, so a heatmap-collecting run must
    // simulate (no probes, no hits) — but it refreshes the store.
    opts.collectHeatmaps = true;
    const auto results = runSweep(grid, opts);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().stores, 4u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.cached);
        EXPECT_NE(r.heatmap, nullptr);
    }
}

TEST(ResultCacheDir, DefaultDirHonoursEnvOverride)
{
    // SMARTREF_CACHE_DIR wins over the XDG/HOME chain.
    ::setenv("SMARTREF_CACHE_DIR", "/tmp/smartref-env-cache", 1);
    EXPECT_EQ(ResultCache::defaultDir(), "/tmp/smartref-env-cache");
    ::unsetenv("SMARTREF_CACHE_DIR");
    EXPECT_NE(ResultCache::defaultDir(), "/tmp/smartref-env-cache");
}
