/**
 * @file
 * Metrics registry tests. Three contracts dominate:
 *
 *  - concurrency: counters and histograms hammered from N pool
 *    threads land exactly — no lost updates, exact totals, and
 *    min/max/count/sum agree with a serial recomputation (this file
 *    is part of the TSan leg in CI);
 *
 *  - lifetime: handles returned by the registry stay valid across
 *    reset(), which zeroes in place — the property the
 *    SMARTREF_METRIC_* macros' function-local statics rely on;
 *
 *  - golden hygiene: deterministic sweep aggregates are byte-identical
 *    whether the registry starts freshly reset or already populated,
 *    so no metric can ever leak into golden bytes.
 *
 * Everything below uses a local MetricsRegistry where possible; the
 * macro tests touch globalMetrics() with test-unique names so they
 * cannot collide with instrumented library code.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/metrics.hh"
#include "sim/mini_json.hh"
#include "sim/thread_pool.hh"

#include "harness/sweep.hh"

using namespace smartref;

namespace {

SweepGrid
tinyGrid()
{
    SweepGrid g;
    g.name = "metricstest";
    g.configs = {"2gb"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"smart"};
    g.counterBits = {3};
    g.retentionMs = {0};
    return g;
}

SweepRunOptions
fastOptions()
{
    SweepRunOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    return opts;
}

} // namespace

// ------------------------------------------------------- single-thread

TEST(MetricCounter, AddAndReset)
{
    MetricCounter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricGauge, LastWriteWins)
{
    MetricGauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-2.0);
    EXPECT_EQ(g.value(), -2.0);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricHistogram, EmptyIsAllZero)
{
    MetricHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(MetricHistogram, BucketsByBitWidth)
{
    MetricHistogram h;
    // Sample v lands in bucket bit_width(v): 0 -> 0, 1 -> 1, 2..3 -> 2,
    // 4..7 -> 3, ...
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(3);
    h.observe(7);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 13u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 7u);
}

TEST(MetricHistogram, QuantilesWithinOneOctaveAndClamped)
{
    MetricHistogram h;
    for (std::uint64_t v = 100; v < 200; ++v)
        h.observe(v);
    // All samples sit in buckets 7 ([64,128)) and 8 ([128,256)); any
    // quantile estimate must stay inside the observed [100, 199] range
    // thanks to the min/max clamp.
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        const double est = h.quantile(q);
        EXPECT_GE(est, 100.0) << "q=" << q;
        EXPECT_LE(est, 199.0) << "q=" << q;
    }
    // A single-sample histogram reports that sample exactly.
    MetricHistogram one;
    one.observe(12345);
    EXPECT_EQ(one.quantile(0.5), 12345.0);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles)
{
    MetricsRegistry reg;
    MetricCounter &a = reg.counter("x.hits");
    MetricCounter &b = reg.counter("x.hits");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(reg.counter("x.hits").value(), 7u);
    // Distinct kinds share a name namespace-per-kind without clashing.
    reg.gauge("x.hits").set(1.0);
    reg.histogram("x.hits").observe(3);
    EXPECT_EQ(reg.counter("x.hits").value(), 7u);
}

TEST(MetricsRegistry, ResetZeroesInPlaceKeepingHandlesValid)
{
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("c");
    MetricHistogram &h = reg.histogram("h");
    c.add(5);
    h.observe(9);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    // The old handle still updates the same instrument.
    c.add(2);
    EXPECT_EQ(reg.counter("c").value(), 2u);
}

// --------------------------------------------------------- concurrency

TEST(MetricsConcurrency, CountersExactUnderPoolHammer)
{
    MetricsRegistry reg;
    MetricCounter &hits = reg.counter("hammer.hits");
    MetricCounter &bytes = reg.counter("hammer.bytes");
    constexpr int kTasks = 64;
    constexpr std::uint64_t kAddsPerTask = 10000;
    {
        ThreadPool pool(4);
        for (int t = 0; t < kTasks; ++t) {
            pool.submit([&hits, &bytes] {
                for (std::uint64_t i = 0; i < kAddsPerTask; ++i) {
                    hits.add();
                    bytes.add(3);
                }
            });
        }
        pool.waitIdle();
    }
    EXPECT_EQ(hits.value(), kTasks * kAddsPerTask);
    EXPECT_EQ(bytes.value(), 3 * kTasks * kAddsPerTask);
}

TEST(MetricsConcurrency, HistogramExactUnderPoolHammer)
{
    MetricsRegistry reg;
    MetricHistogram &h = reg.histogram("hammer.wall");
    constexpr int kTasks = 32;
    constexpr std::uint64_t kObsPerTask = 4000;
    {
        ThreadPool pool(4);
        for (int t = 0; t < kTasks; ++t) {
            pool.submit([&h, t] {
                for (std::uint64_t i = 0; i < kObsPerTask; ++i)
                    h.observe(static_cast<std::uint64_t>(t) * kObsPerTask
                              + i);
            });
        }
        pool.waitIdle();
    }
    constexpr std::uint64_t n = kTasks * kObsPerTask;
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.sum(), n * (n - 1) / 2);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), n - 1);
}

TEST(MetricsConcurrency, RacingFindOrCreateYieldsOneInstrument)
{
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < 1000; ++i)
                reg.counter("race.create").add();
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(reg.counter("race.create").value(), 8000u);
}

// ----------------------------------------------------------- snapshots

TEST(MetricsSnapshot, JsonSchemaAndValues)
{
    MetricsRegistry reg;
    reg.counter("a.hits").add(3);
    reg.gauge("a.depth").set(2.5);
    reg.histogram("a.wall").observe(10);
    reg.histogram("a.wall").observe(20);

    const minijson::Value root = minijson::parse(reg.snapshotJson());
    EXPECT_EQ(root.at("schema").str, "smartref-metrics-v1");
    EXPECT_TRUE(root.has("meta"));
    EXPECT_GE(root.at("uptimeSeconds").number, 0.0);
    EXPECT_EQ(root.at("counters").at("a.hits").number, 3.0);
    EXPECT_EQ(root.at("gauges").at("a.depth").number, 2.5);
    const minijson::Value &h = root.at("histograms").at("a.wall");
    EXPECT_EQ(h.at("count").number, 2.0);
    EXPECT_EQ(h.at("sum").number, 30.0);
    EXPECT_EQ(h.at("min").number, 10.0);
    EXPECT_EQ(h.at("max").number, 20.0);
    EXPECT_GE(h.at("p50").number, 10.0);
    EXPECT_LE(h.at("p99").number, 20.0);
}

// -------------------------------------------------------------- macros

TEST(MetricsMacros, HonourCompileAndRuntimeSwitches)
{
    // Test-unique names: the global registry is shared with the
    // instrumented library code.
    const std::uint64_t before =
        globalMetrics().counter("test.macro.inc").value();

    SMARTREF_METRIC_INC("test.macro.inc");
    SMARTREF_METRIC_ADD("test.macro.inc", 2);
    EXPECT_EQ(globalMetrics().counter("test.macro.inc").value(),
              before + 3);

    SMARTREF_METRIC_SET("test.macro.gauge", 7);
    SMARTREF_METRIC_OBSERVE("test.macro.hist", 31);
    EXPECT_EQ(globalMetrics().gauge("test.macro.gauge").value(), 7.0);
    EXPECT_EQ(globalMetrics().histogram("test.macro.hist").count(), 1u);
}

// ------------------------------------------------------ golden hygiene

TEST(MetricsGoldenHygiene, SweepAggregatesIdenticalOnVsOff)
{
    const SweepGrid grid = tinyGrid();
    const SweepRunOptions opts = fastOptions();
    const std::uint64_t jobs =
        expandGrid(grid, opts.baseSeed, opts.seedMode).size();
    MetricsRegistry &reg = globalMetrics();

    reg.reset();
    const auto freshResults = runSweep(grid, opts);
    std::ostringstream freshJson, freshCsv;
    writeSweepJson(grid, opts, freshResults, freshJson);
    writeSweepCsv(freshResults, freshCsv);
    // The sweep's instruments fire once per job.
    EXPECT_EQ(reg.counter("sweep.jobs_scheduled").value(), jobs);
    EXPECT_EQ(reg.histogram("sweep.job_wall_us").count(), jobs);

    const auto populatedResults = runSweep(grid, opts);
    std::ostringstream populatedJson, populatedCsv;
    writeSweepJson(grid, opts, populatedResults, populatedJson);
    writeSweepCsv(populatedResults, populatedCsv);

    // The whole point of the sidecar contract: registry state must
    // never perturb deterministic aggregates, byte for byte.
    EXPECT_EQ(freshJson.str(), populatedJson.str());
    EXPECT_EQ(freshCsv.str(), populatedCsv.str());
    // ("metrics" itself appears: the aggregate's per-job simulation
    // metrics. What must not appear is anything from the registry
    // snapshot or the tracing layer.)
    EXPECT_EQ(freshJson.str().find("smartref-metrics-v1"),
              std::string::npos);
    EXPECT_EQ(freshJson.str().find("traceId"), std::string::npos);
}
