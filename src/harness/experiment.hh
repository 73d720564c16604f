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
#include <vector>

#include "harness/system.hh"
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

    double
    totalEnergy() const
    {
        return refreshEnergy + actEnergy + readEnergy + writeEnergy +
               backgroundEnergy + overheadEnergy;
    }
};

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
};

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
 * Complete JSON form of a RunResult — every field, including the ones
 * the sweep aggregates omit (latencySumSec, eventsExecuted), with
 * shortest-round-trip double formatting. This is the storage schema of
 * the content-addressed result cache: parsing it back through
 * runResultFromJson() reproduces the struct bit-for-bit, so aggregates
 * built from cached results are byte-identical to fresh ones.
 */
void writeRunResultJson(std::ostream &os, const RunResult &r);

/**
 * Inverse of writeRunResultJson(). Throws std::runtime_error on any
 * missing or mistyped member — a string that is not a JSON string, a
 * count that is not a whole number in [0, 2^53] — and the result cache
 * treats that as a corrupt entry (miss), never as a partial result.
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
