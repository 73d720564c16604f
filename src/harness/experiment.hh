/**
 * @file
 * Experiment runner: builds matched baseline/Smart systems for a
 * benchmark profile, runs warmup + measurement windows, and reduces the
 * results to the metrics the paper's figures report.
 *
 * Measurement uses snapshot deltas rather than statistic resets: a
 * snapshot of all accumulating quantities is taken at the end of warmup
 * and subtracted from the end-of-run snapshot, so transients (staggered
 * counter initialisation, cold row buffers, cache warmup) are excluded.
 */

#pragma once

#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "harness/system.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "trace/benchmark_profiles.hh"

namespace minijson {
class Value;
}

namespace smartref {

/** Point-in-time capture of every accumulating quantity we report. */
struct EnergySnapshot
{
    Tick tick = 0;
    std::uint64_t refreshes = 0;
    double refreshEnergy = 0.0;
    double actEnergy = 0.0;
    double readEnergy = 0.0;
    double writeEnergy = 0.0;
    double backgroundEnergy = 0.0;
    double overheadEnergy = 0.0; ///< policy overhead: bus + counter SRAM
    std::uint64_t demandAccesses = 0;
    double latencySumTicks = 0.0;
    std::uint64_t violations = 0;
    /** Ticks demand spent blocked behind in-flight refresh state. */
    double demandBlockedTicks = 0.0;
    /** Refreshes DARP slipped into idle banks / behind write drains. */
    std::uint64_t refreshStallsAvoided = 0;
    /** Demand arrivals that hit a subarray mid-refresh (SARP). */
    std::uint64_t subarrayConflicts = 0;
    /** Demand accesses that hit the stacked DRAM cache (0 without one). */
    std::uint64_t cacheHits = 0;

    double
    totalEnergy() const
    {
        return refreshEnergy + actEnergy + readEnergy + writeEnergy +
               backgroundEnergy + overheadEnergy;
    }

    /** Share of the demand accesses that hit the stacked DRAM cache. */
    double
    cacheHitRate() const
    {
        return demandAccesses > 0 ? static_cast<double>(cacheHits) /
                                        static_cast<double>(demandAccesses)
                                  : 0.0;
    }

    bool operator==(const EnergySnapshot &) const = default;
};

/**
 * Every EnergySnapshot member but `tick`: the quantities that difference
 * across snapshots (operator-) and sum across channels
 * (ShardedSystem::captureMergedSnapshot). A member is one entry here plus
 * its fill in captureSnapshot().
 */
inline constexpr auto kSnapshotSums = std::make_tuple(
    &EnergySnapshot::refreshes, &EnergySnapshot::refreshEnergy,
    &EnergySnapshot::actEnergy, &EnergySnapshot::readEnergy,
    &EnergySnapshot::writeEnergy, &EnergySnapshot::backgroundEnergy,
    &EnergySnapshot::overheadEnergy, &EnergySnapshot::demandAccesses,
    &EnergySnapshot::latencySumTicks, &EnergySnapshot::violations,
    &EnergySnapshot::demandBlockedTicks,
    &EnergySnapshot::refreshStallsAvoided,
    &EnergySnapshot::subarrayConflicts, &EnergySnapshot::cacheHits);

// Every member is 8 bytes, so a member missing from the list shows here.
static_assert(sizeof(EnergySnapshot) ==
                  8 * (1 + std::tuple_size_v<decltype(kSnapshotSums)>),
              "kSnapshotSums must list every EnergySnapshot member but tick");

/** Component-wise difference b - a. */
EnergySnapshot operator-(const EnergySnapshot &b, const EnergySnapshot &a);

/**
 * Capture a channel's totals (finalises energies first): those of the
 * module under test, with demand counted where it enters (the cache of
 * a stacked channel) and violations in main memory included.
 */
EnergySnapshot captureSnapshot(System &sys);

/** Metrics of one (benchmark, policy) run over the measurement window. */
struct RunResult
{
    std::string benchmark;
    std::string suite;
    std::string policy;
    double simSeconds = 0.0;
    double refreshesPerSec = 0.0;
    double refreshEnergyJ = 0.0;
    double totalEnergyJ = 0.0;
    double overheadJ = 0.0;
    double avgLatencyNs = 0.0;
    double latencySumSec = 0.0;
    /**
     * Whole-run demand read-latency percentiles in ns (percentiles do
     * not difference across snapshots, so these cover warmup +
     * measurement; 0 when no demand was sampled).
     */
    double latencyP50Ns = 0.0;
    double latencyP95Ns = 0.0;
    double latencyP99Ns = 0.0;
    /** Demand-blocked-by-refresh time over the measurement window. */
    double demandBlockedByRefreshTicks = 0.0;
    std::uint64_t refreshStallsAvoided = 0;
    std::uint64_t subarrayConflicts = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t violations = 0;
    std::size_t maxRefreshBacklog = 0;
    /**
     * Total events the simulation executed (whole run, including
     * warmup). Telemetry-only: feeds the events/s figure in the sweep's
     * NDJSON stream and never appears in deterministic aggregates.
     */
    std::uint64_t eventsExecuted = 0;

    bool operator==(const RunResult &) const = default;
};

/**
 * The one list of RunResult's fields, which every writer and reader of
 * a result walks: calls fn(name, inSweep, r.member...) for each field in
 * declaration order, with that member of every result given. `name` is
 * the JSON member name; `inSweep` says whether the sweep JSON's
 * baseline/smart objects carry the field (a result-cache entry carries
 * every one). The member's type sets its number form (runFieldText). A
 * new field is one line here plus its fill in the experiment's reduction.
 * eventsExecuted stays last: perfbench's resultJson strips it from the
 * end of the JSON.
 */
template <typename Fn, typename... R>
void
forEachRunField(Fn &&fn, R &...r)
{
    static_assert((std::is_same_v<std::remove_const_t<R>, RunResult> && ...));
    fn("benchmark", false, r.benchmark...);
    fn("suite", false, r.suite...);
    fn("policy", true, r.policy...);
    fn("simSeconds", true, r.simSeconds...);
    fn("refreshesPerSec", true, r.refreshesPerSec...);
    fn("refreshEnergyJ", true, r.refreshEnergyJ...);
    fn("totalEnergyJ", true, r.totalEnergyJ...);
    fn("overheadJ", true, r.overheadJ...);
    fn("avgLatencyNs", true, r.avgLatencyNs...);
    fn("latencySumSec", false, r.latencySumSec...);
    fn("latencyP50Ns", true, r.latencyP50Ns...);
    fn("latencyP95Ns", true, r.latencyP95Ns...);
    fn("latencyP99Ns", true, r.latencyP99Ns...);
    fn("demandBlockedByRefreshTicks", true,
       r.demandBlockedByRefreshTicks...);
    fn("refreshStallsAvoided", true, r.refreshStallsAvoided...);
    fn("subarrayConflicts", true, r.subarrayConflicts...);
    fn("demandAccesses", true, r.demandAccesses...);
    fn("violations", true, r.violations...);
    fn("maxRefreshBacklog", true, r.maxRefreshBacklog...);
    fn("eventsExecuted", false, r.eventsExecuted...);
}

/**
 * A RunResult field in its number form: a double as jsonNumber's
 * shortest round trip, a count in decimal, a string as itself.
 */
template <typename T>
std::string
runFieldText(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return v;
    else if constexpr (std::is_floating_point_v<T>)
        return jsonNumber(v);
    else
        return std::to_string(v);
}

/** Baseline-vs-Smart pairing with the figure metrics. */
struct ComparisonResult
{
    std::string benchmark;
    std::string suite;
    RunResult baseline;
    RunResult smart;

    /** Fractional reduction in refresh operations (Figs. 6/9/12/15). */
    double
    refreshReduction() const
    {
        return baseline.refreshesPerSec > 0.0
                   ? 1.0 - smart.refreshesPerSec / baseline.refreshesPerSec
                   : 0.0;
    }

    /** Relative refresh-energy saving (Figs. 7/10/13/16); the Smart side
     *  is charged its bus + counter overheads. */
    double
    refreshEnergySaving() const
    {
        const double base = baseline.refreshEnergyJ;
        return base > 0.0
                   ? 1.0 - (smart.refreshEnergyJ + smart.overheadJ) / base
                   : 0.0;
    }

    /** Relative total DRAM energy saving (Figs. 8/11/14/17). */
    double
    totalEnergySaving() const
    {
        const double base = baseline.totalEnergyJ;
        return base > 0.0 ? 1.0 - smart.totalEnergyJ / base : 0.0;
    }

    /** Performance improvement (Fig. 18): demand-stall time saved as a
     *  fraction of execution time. */
    double
    perfImprovement() const
    {
        return baseline.simSeconds > 0.0
                   ? (baseline.latencySumSec - smart.latencySumSec) /
                         baseline.simSeconds
                   : 0.0;
    }
};

/**
 * JSON object of a RunResult, in forEachRunField's order and number
 * forms (strings quoted). By default every field: the storage schema of
 * the content-addressed result cache, which runResultFromJson() reads
 * back bit-for-bit, so aggregates built from cached results are
 * byte-identical to fresh ones. With @p sweepSubset, only the fields the
 * sweep JSON carries.
 */
void writeRunResultJson(std::ostream &os, const RunResult &r,
                        bool sweepSubset = false);

/**
 * Inverse of writeRunResultJson(). Throws std::runtime_error on any
 * missing or mistyped member — a string that is not a JSON string, a
 * double that is not a number, a count that is not a whole number in
 * [0, 2^53] — and the result cache treats that as a corrupt entry
 * (miss), never as a partial result.
 */
RunResult runResultFromJson(const minijson::Value &v);

/** Shared knobs for experiment runs. */
struct ExperimentOptions
{
    Tick warmup = 64 * kMillisecond;
    Tick measure = 128 * kMillisecond;
    std::uint32_t counterBits = 3;  ///< the paper's simulated width
    std::uint32_t segments = 8;
    bool autoReconfigure = true;
    std::uint64_t seed = 42;
    /**
     * Worker threads for the per-channel fan-out when the config has
     * channels > 1 (see harness/sharded.hh). Execution-only: results
     * are byte-identical for any value, so this never enters seeds,
     * keys or hashes.
     */
    unsigned shardJobs = 1;
    /**
     * Smart Refresh hierarchical sparse counter storage (see
     * core/counter_array.hh). Changes the modeled SRAM billing, so
     * callers must key/hash it when set; off by default keeps golden
     * outputs byte-identical.
     */
    bool sparseCounters = false;
    bool verbose = false;           ///< progress on stderr
    LogLevel logLevel = LogLevel::Warn; ///< runtime log verbosity
    /**
     * Optional spatial heatmap (not owned) attached to the system under
     * test for the whole run (warmup included — the heatmap is a spatial
     * census, not a windowed metric). comparePolicy() attaches it to the
     * run under test only.
     */
    RefreshHeatmap *heatmap = nullptr;
    /**
     * Optional refresh decision audit trail and energy ledger (not
     * owned), attached like the heatmap: to the run under test only.
     */
    RefreshAudit *audit = nullptr;
    EnergyLedger *ledger = nullptr;
    /**
     * Verify the energy-conservation invariant at the end of every run:
     * when no ledger is attached, a throwaway one is wired up for the
     * check. Fatal (std::runtime_error) on a violation.
     */
    bool checkConservation = false;
    /**
     * Optional per-row retention-class map (shared, immutable).
     * Required by the retention-aware policy; comparePolicy() applies
     * it to the run under test only, so the CBR baseline keeps the
     * uniform worst-case retention model.
     */
    std::shared_ptr<const RetentionClassMap> retentionClasses;

    /** The Smart Refresh configuration these options select. */
    SmartRefreshConfig smartConfig() const;
};

/**
 * Run one benchmark on `dram` with one policy, on a ShardedSystem
 * (harness/sharded.hh) of `dram.channels` channels; a stacked-cache
 * config runs through its DRAM cache (workloadParams()). A lone channel
 * runs the base seed's workload stream; wider configs give each channel
 * its own shardChannelSeed() stream and reduce the merged totals,
 * byte-identical for any opts.shardJobs.
 */
RunResult runConventional(const BenchmarkProfile &profile,
                          const DramConfig &dram, PolicyKind policy,
                          const ExperimentOptions &opts,
                          double absRowScale = 1.0);

/**
 * CBR baseline vs `policy` for one benchmark, each run by
 * runConventional. The heatmap, audit trail, ledger and
 * retention-class map apply to the run under test only: the baseline
 * keeps the uniform worst-case retention model and doubles no
 * observer's counts.
 */
ComparisonResult comparePolicy(const BenchmarkProfile &profile,
                               const DramConfig &dram, PolicyKind policy,
                               const ExperimentOptions &opts,
                               double absRowScale = 1.0);

/** Geometric mean (values must be positive; non-positive are clamped). */
double geometricMean(const std::vector<double> &values);

} // namespace smartref
