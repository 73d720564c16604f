/**
 * @file
 * Per-channel event-engine sharding (harness/sharded.hh).
 *
 * The determinism contract under test: a ShardedSystem's merged
 * outputs — energy snapshot, heatmap, ledger, audit trail — are
 * byte-identical for any shard worker count, a single-channel shard
 * is indistinguishable from a plain System, and a server-scale sparse
 * configuration constructs without materialising counter storage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "core/counter_array.hh"
#include "ctrl/refresh_audit.hh"
#include "ctrl/refresh_heatmap.hh"
#include "dram/energy_ledger.hh"
#include "harness/experiment.hh"
#include "harness/sharded.hh"
#include "sim/metrics.hh"
#include "sim/mini_json.hh"
#include "trace/benchmark_profiles.hh"

using namespace smartref;

namespace {

SystemConfig
makeConfig(const std::string &preset, std::uint32_t channels)
{
    SystemConfig cfg;
    cfg.dram = dramConfigByName(preset);
    if (channels)
        cfg.dram.channels = channels;
    cfg.policy = PolicyKind::Smart;
    cfg.smart.counterBits = 3;
    cfg.smart.segments = 8;
    cfg.smart.queueCapacity = 8;
    return cfg;
}

void
addChannelWorkloads(ShardedSystem &sys, const DramConfig &dram,
                    std::uint64_t baseSeed)
{
    DramConfig chDram = dram;
    chDram.channels = 1;
    const BenchmarkProfile &profile = findProfile("mummer");
    for (std::uint32_t c = 0; c < dram.channels; ++c) {
        for (const auto &wp : conventionalParams(
                 profile, chDram, 1.0, shardChannelSeed(baseSeed, c)))
            sys.channel(c).addWorkload(wp);
    }
}

/** Everything a single-channel run reports, serialised. */
struct ChannelOutputs
{
    EnergySnapshot warm;
    EnergySnapshot end;
    std::string heatmapJson;
    std::string heatmapCsv;
    std::string auditBinary;
    std::string auditNdjson;
    std::string ledgerJson;
};

/**
 * A 16 ms warmup + 32 ms measurement Smart run of `benchmark` on one
 * 2 GB channel with a heatmap, audit trail and ledger attached:
 * through a ShardedSystem built as callers build it (default epoch),
 * or through a System assembled by hand — the reference.
 */
ChannelOutputs
runOneChannel(const std::string &benchmark, bool sharded)
{
    SystemConfig cfg = makeConfig("2gb", 0);
    const DramOrganization &org = cfg.dram.org;
    RefreshHeatmap heatmap(org.ranks, org.banks, 8, (1u << 3) - 1);
    RefreshAudit audit(RefreshAudit::Shape{org.ranks, org.banks, org.rows});
    EnergyLedger ledger(EnergyLedger::Shape{org.ranks, org.banks});
    cfg.heatmap = &heatmap;
    cfg.audit = &audit;
    cfg.ledger = &ledger;
    const BenchmarkProfile &profile = findProfile(benchmark);

    ChannelOutputs out;
    if (sharded) {
        ShardedSystem sys(cfg, 1);
        for (const auto &wp : conventionalParams(profile, cfg.dram, 1.0,
                                                 sys.channelSeed(42, 0)))
            sys.channel(0).addWorkload(wp);
        sys.run(16 * kMillisecond);
        out.warm = sys.captureMergedSnapshot();
        sys.run(32 * kMillisecond);
        out.end = sys.captureMergedSnapshot();
        sys.mergeObservers();
    } else {
        System sys(cfg);
        for (const auto &wp :
             conventionalParams(profile, cfg.dram, 1.0, 42))
            sys.addWorkload(wp);
        sys.run(16 * kMillisecond);
        out.warm = captureSnapshot(sys);
        sys.run(32 * kMillisecond);
        out.end = captureSnapshot(sys);
    }

    std::ostringstream hm, hmCsv, lj, bin, nd;
    heatmap.writeJson(hm);
    heatmap.writeCsv(hmCsv);
    ledger.writeJson(lj, "{}");
    audit.writeBinary(bin);
    audit.writeNdjson(nd);
    out.heatmapJson = hm.str();
    out.heatmapCsv = hmCsv.str();
    out.ledgerJson = lj.str();
    out.auditBinary = bin.str();
    out.auditNdjson = nd.str();
    return out;
}

} // namespace

TEST(ShardChannelSeed, DeterministicAndDistinct)
{
    std::set<std::uint64_t> seeds;
    for (std::uint32_t c = 0; c < 16; ++c) {
        const std::uint64_t s = shardChannelSeed(42, c);
        EXPECT_EQ(s, shardChannelSeed(42, c));
        seeds.insert(s);
        // A channel's stream must not collapse onto the base seed.
        EXPECT_NE(s, 42u);
    }
    EXPECT_EQ(seeds.size(), 16u);
    EXPECT_NE(shardChannelSeed(42, 0), shardChannelSeed(43, 0));
}

TEST(ShardedSystem, SingleChannelMatchesPlainSystem)
{
    // Every conventional run goes through a ShardedSystem, so one
    // channel must reproduce a hand-assembled System byte for byte,
    // with windows longer than a lock-step epoch and every observer
    // attached. That pins the one-slice rule: cutting a window into
    // epochs moves the last bits of the integrated background energy.
    for (const char *benchmark : {"mummer", "gcc"}) {
        SCOPED_TRACE(benchmark);
        const ChannelOutputs a = runOneChannel(benchmark, true);
        const ChannelOutputs b = runOneChannel(benchmark, false);
        EXPECT_EQ(a.warm, b.warm);
        EXPECT_EQ(a.end, b.end);
        EXPECT_FALSE(b.auditNdjson.empty());
        EXPECT_EQ(a.heatmapJson, b.heatmapJson);
        EXPECT_EQ(a.heatmapCsv, b.heatmapCsv);
        EXPECT_EQ(a.auditBinary, b.auditBinary);
        EXPECT_EQ(a.auditNdjson, b.auditNdjson);
        EXPECT_EQ(a.ledgerJson, b.ledgerJson);
    }
}

TEST(ShardedSystem, EpochSlicingDoesNotChangeResults)
{
    // Running to T in epoch slices must equal one run to T: compare a
    // long-epoch (single-slice) run against the default 4 ms epochs.
    SystemConfig cfg = makeConfig("2gb", 2);
    ShardedSystem sliced(cfg, 1);
    addChannelWorkloads(sliced, cfg.dram, 42);
    sliced.run(10 * kMillisecond);

    ShardedSystem whole(cfg, 1, 10 * kMillisecond);
    addChannelWorkloads(whole, cfg.dram, 42);
    whole.run(10 * kMillisecond);

    EXPECT_EQ(sliced.now(), whole.now());
    EXPECT_EQ(sliced.eventsExecuted(), whole.eventsExecuted());
    const EnergySnapshot a = sliced.captureMergedSnapshot();
    const EnergySnapshot b = whole.captureMergedSnapshot();
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    // Energies accrue at epoch boundaries, so a different slicing may
    // reassociate the floating-point sums; everything discrete is
    // identical and the energy agrees to rounding.
    EXPECT_NEAR(a.totalEnergy(), b.totalEnergy(),
                1e-12 * b.totalEnergy());
}

TEST(ShardedSystem, MergedOutputsByteIdenticalAcrossShardJobs)
{
    // The full merged-observer surface at -j1 vs -j4 on a 2-channel
    // module: snapshot fields, heatmap JSON, ledger JSON and the
    // k-way-merged audit NDJSON must all be byte-identical.
    struct Outputs
    {
        EnergySnapshot snap;
        std::uint64_t events = 0;
        std::string heatmapJson;
        std::string ledgerJson;
        std::string auditNdjson;
    };
    auto runAt = [](unsigned shardJobs) {
        SystemConfig cfg = makeConfig("2gb", 2);
        const DramOrganization &org = cfg.dram.org;
        RefreshHeatmap heatmap(org.ranks, org.banks, 8,
                               (1u << 3) - 1);
        RefreshAudit audit(
            RefreshAudit::Shape{org.ranks, org.banks, org.rows});
        EnergyLedger ledger(
            EnergyLedger::Shape{cfg.dram.channels * org.ranks,
                                org.banks});
        cfg.heatmap = &heatmap;
        cfg.audit = &audit;
        cfg.ledger = &ledger;

        ShardedSystem sys(cfg, shardJobs);
        addChannelWorkloads(sys, cfg.dram, 42);
        sys.run(6 * kMillisecond);

        Outputs out;
        out.snap = sys.captureMergedSnapshot();
        out.events = sys.eventsExecuted();
        sys.mergeObservers();
        std::ostringstream hm;
        heatmap.writeJson(hm);
        out.heatmapJson = hm.str();
        std::ostringstream lj;
        ledger.writeJson(lj, "{}");
        out.ledgerJson = lj.str();
        std::ostringstream nd;
        audit.writeNdjson(nd);
        out.auditNdjson = nd.str();
        return out;
    };

    const Outputs a = runAt(1);
    const Outputs b = runAt(4);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.snap, b.snap);
    EXPECT_EQ(a.heatmapJson, b.heatmapJson);
    EXPECT_EQ(a.ledgerJson, b.ledgerJson);
    EXPECT_FALSE(a.auditNdjson.empty());
    EXPECT_EQ(a.auditNdjson, b.auditNdjson);
    // Two channels were merged, so the trail must carry channel ids.
    EXPECT_NE(a.auditNdjson.find("\"channel\":1"), std::string::npos);
}

TEST(ShardedSystem, MetricsFireOncePerChannelEpochNeverPerEvent)
{
    // The metric updates of a sharded run scale with epochs x channels,
    // never with events, and each epoch hands one pool task to each
    // channel: 128 GB is 8 channels, and 2 + 8 ms in 4 ms epochs is 3
    // epochs (one 2 ms slice, then two 4 ms slices).
    globalMetrics().reset();
    std::uint64_t channels = 0;
    std::uint64_t events = 0;
    {
        SystemConfig cfg = makeConfig("128gb", 0);
        channels = cfg.dram.channels;
        ASSERT_EQ(channels, 8u);
        ShardedSystem sys(cfg, 4);
        addChannelWorkloads(sys, cfg.dram, 42);
        sys.run(2 * kMillisecond);
        sys.run(8 * kMillisecond);
        events = sys.eventsExecuted();
    }
    // Read once the pool has joined: a worker counts a task only after
    // the task has released parallelFor.
    const std::uint64_t epochs = 3;
    const std::uint64_t tasks = channels * epochs;
    const minijson::Value snap =
        minijson::parse(globalMetrics().snapshotJson());
    const auto &counters = snap.at("counters").object;
    const auto &histograms = snap.at("histograms").object;
    // An instrument that never fired is absent from the snapshot.
    auto counter = [&](const std::string &name) -> std::uint64_t {
        const auto it = counters.find(name);
        return it == counters.end()
                   ? 0
                   : static_cast<std::uint64_t>(it->second.number);
    };
    auto samples = [&](const std::string &name) -> std::uint64_t {
        const auto it = histograms.find(name);
        return it == histograms.end()
                   ? 0
                   : static_cast<std::uint64_t>(
                         it->second.at("count").number);
    };
    EXPECT_EQ(counter("sharded.epochs"), epochs);
    EXPECT_EQ(counter("thread_pool.tasks_executed"), tasks);
    EXPECT_EQ(counter("thread_pool.external_pops"), tasks);
    EXPECT_EQ(samples("sharded.epoch_lag_ns"), tasks);

    std::uint64_t eventSum = 0;
    for (const auto &[name, value] : counters) {
        const auto n = static_cast<std::uint64_t>(value.number);
        if (name.rfind("sim.events.", 0) == 0) {
            eventSum += n;
        } else if (!name.ends_with("_ns")) { // a duration, not a count
            EXPECT_LE(n, tasks) << name;
        }
    }
    EXPECT_EQ(eventSum, events);
    EXPECT_GT(events, 100 * tasks);
    for (const auto &[name, value] : histograms)
        EXPECT_LE(value.at("count").number, static_cast<double>(tasks))
            << name;
}

TEST(ShardedSystem, ServerConfigConstructsLazily)
{
    // A multi-hundred-GB module with sparse counters must construct
    // without materialising any counter storage, and an idle epoch of
    // pure pristine walking must keep it that way. (The 512 GB preset
    // and the absolute RSS ceiling are exercised by the server-smoke CI
    // job's `--grid server` sweep, whose timing sidecar records the
    // peak RSS; the unit test uses 256 GB to stay light under the
    // sanitizer builds.)
    SystemConfig cfg = makeConfig("256gb", 0);
    ASSERT_GT(cfg.dram.channels, 1u);
    cfg.smart.autoReconfigure = false;
    cfg.smart.sparseCounters = true;

    {
        ShardedSystem sys(cfg, 2);
        EXPECT_EQ(sys.residentCounterBytes(), 0u);
        sys.run(4 * kMillisecond);
        EXPECT_EQ(sys.now(), 4 * kMillisecond);
        // No demand traffic: the walk runs entirely on the pristine
        // closed form and allocates nothing.
        EXPECT_EQ(sys.residentCounterBytes(), 0u);
    }

    // A near-idle workload on one channel materialises only the few
    // chunks its footprint lands in, and nothing on other channels.
    ShardedSystem sys(cfg, 2);
    DramConfig chDram = cfg.dram;
    chDram.channels = 1;
    sys.channel(0).addWorkload(idleParams(chDram,
                                          shardChannelSeed(42, 0)));
    sys.run(4 * kMillisecond);
    EXPECT_GT(sys.residentCounterBytes(), 0u);
    const std::uint64_t chunkBytes =
        CounterArray::kDefaultChunkPositions * cfg.smart.segments;
    EXPECT_LE(sys.residentCounterBytes(), 8 * chunkBytes);
}
