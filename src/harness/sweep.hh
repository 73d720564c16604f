/**
 * @file
 * Sweep execution + reduction layer.
 *
 * The sweep subsystem is split into three layers:
 *
 *  - job spec (harness/sweep_spec.hh): the declarative grid, canonical
 *    expansion into jobs, coordinate-derived seeding;
 *  - execution (this file): fan the expanded jobs out over a
 *    work-stealing thread pool (sim/thread_pool.hh) and reduce the
 *    results *in grid order*;
 *  - storage (harness/result_cache.hh): a content-addressed store of
 *    finished job results, keyed by the provenance FNV-1a canonical
 *    string, which the runner consults so only cache misses are ever
 *    scheduled.
 *
 * Determinism contract:
 *  - every job's seed derives from its grid coordinates (deriveJobSeed),
 *    never from submission or completion order, so adding an axis value
 *    or changing -j N never perturbs another job's stream;
 *  - each job runs an isolated simulation (own event queue, own stats);
 *  - aggregate outputs (JSON/CSV) are written from the grid-ordered
 *    result vector with fixed number formatting;
 *  - a cached result is byte-for-byte the result the simulation would
 *    produce, so aggregates are identical whether a sweep was served
 *    cold, warm, or mixed.
 * Consequently `-j 1` and `-j N` produce byte-identical aggregates; CI
 * re-verifies this on every PR (the sweep-smoke job), and the
 * sweep-cache job re-verifies cold-vs-warm identity.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/refresh_heatmap.hh"
#include "harness/experiment.hh"
#include "harness/sweep_spec.hh"

namespace smartref {

class SweepTelemetry;
class ResultCache;

/** Result of one job plus its (non-deterministic) wall-clock cost. */
struct SweepJobResult
{
    SweepJob job;
    ComparisonResult comparison;
    /** Wall seconds this job took; excluded from aggregate outputs.
     *  For a cache hit this is the lookup time, not simulation time. */
    double wallSeconds = 0.0;
    /**
     * Spatial heatmap of the policy-under-test run; non-null only when
     * SweepRunOptions::collectHeatmaps was set. Integer counters, so
     * the merged export is deterministic at any -j N.
     */
    std::shared_ptr<RefreshHeatmap> heatmap;
    /** Served from the result cache (telemetry/progress only). */
    bool cached = false;
};

/** Execution knobs of a sweep run. */
struct SweepRunOptions
{
    unsigned jobs = 1;              ///< worker threads (-j N)
    Tick warmup = 64 * kMillisecond;
    Tick measure = 128 * kMillisecond;
    std::uint32_t segments = 8;
    bool autoReconfigure = true;
    std::uint64_t baseSeed = 42;
    SeedMode seedMode = SeedMode::Derived;
    LogLevel logLevel = LogLevel::Warn;
    /** Print one completion line per job (with ETA) to stderr. */
    bool progress = false;
    /** Collect a per-job RefreshHeatmap (SweepJobResult::heatmap). */
    bool collectHeatmaps = false;
    /**
     * Optional NDJSON telemetry sink (not owned). Receives job_start /
     * job_finish / sweep_finish events; never touches the deterministic
     * aggregates.
     */
    SweepTelemetry *telemetry = nullptr;
    /**
     * Verify the energy-conservation invariant after every run of every
     * job (fatal on violation). Execution-only: excluded from
     * sweepConfigHash and invisible in aggregates.
     */
    bool checkConservation = false;
    /**
     * Worker threads *inside* each multi-channel job (the sharded
     * per-channel engine, harness/sharded.hh). Execution-only, like
     * `jobs`: aggregates are byte-identical for any value, so it never
     * enters seeds or sweepConfigHash.
     */
    unsigned shardJobs = 1;
    /**
     * Run every job with the hierarchical sparse CounterArray. This
     * changes the modeled SRAM traffic (skipped pristine segments bill
     * no reads), so it joins sweepConfigHash — but only when set,
     * keeping historical hashes stable.
     */
    bool sparseCounters = false;
    /**
     * Optional content-addressed result store (not owned). When set,
     * the runner probes it before scheduling: hits are stitched into
     * the result vector in grid order without touching the thread
     * pool, misses are simulated and stored back. Execution-only —
     * a cached result is bit-equal to a fresh one, so the cache never
     * enters seeds or sweepConfigHash. Probing is skipped (stores
     * still happen) when collectHeatmaps is set, because entries do
     * not carry heatmaps.
     */
    ResultCache *cache = nullptr;
    /**
     * Recompute every cache hit and fail fatally unless the stored
     * result is identical to the fresh one — the paranoia mode that
     * distinguishes a stale/foreign cache from nondeterminism.
     */
    bool cacheVerify = false;
};

/**
 * Canonical simulation-semantic identity of one job under these run
 * options: the exact string the result cache hashes into a key.
 * Includes the build fingerprint, pointKey(), the job seed, and every
 * option that changes simulated results (warmup/measure/segments/
 * autoReconfigure; sparseCounters only when set, mirroring
 * sweepConfigHash's asymmetry). Excludes execution-only knobs: jobs,
 * shardJobs, telemetry/heatmap sinks, progress, logLevel.
 */
std::string jobCacheCanonical(const SweepJob &job,
                              const SweepRunOptions &opts);

/** Run one already-expanded job (exposed for tests). */
SweepJobResult runSweepJob(const SweepJob &job, const SweepRunOptions &opts);

/**
 * Expand and execute the grid with opts.jobs workers, serving from
 * opts.cache when attached. The returned vector is in grid order
 * regardless of completion order or hit/miss mix.
 */
std::vector<SweepJobResult> runSweep(const SweepGrid &grid,
                                     const SweepRunOptions &opts);

/**
 * Write the deterministic aggregate JSON: the grid, per-config anchors
 * (geometry baseline refreshes/s, Table 3 bus nJ/address), every job's
 * metrics in grid order, and per-(config, retention, bits, policy)
 * geometric-mean summaries. Contains no timing or host information.
 */
void writeSweepJson(const SweepGrid &grid, const SweepRunOptions &opts,
                    const std::vector<SweepJobResult> &results,
                    std::ostream &os);
void writeSweepJson(const SweepGrid &grid, const SweepRunOptions &opts,
                    const std::vector<SweepJobResult> &results,
                    const std::string &path);

/** Flat per-job CSV (grid order; same determinism as the JSON). */
void writeSweepCsv(const std::vector<SweepJobResult> &results,
                   std::ostream &os);
void writeSweepCsv(const std::vector<SweepJobResult> &results,
                   const std::string &path);

/**
 * Write the wall-clock timing sidecar (schema smartref-sweep-timing-v1):
 * wall and summed job seconds, parallel efficiency, the process peak
 * RSS and, when opts.cache is attached, its counters. Host-dependent by
 * design, so it lives apart from the byte-identical aggregates.
 */
void writeSweepTimingJson(const SweepGrid &grid, const SweepRunOptions &opts,
                          const std::vector<SweepJobResult> &results,
                          double wallSeconds, std::ostream &os);

/**
 * Provenance hash of a sweep's full configuration (grid axes + run
 * options), embedded as `configHash` in the meta blocks of every
 * artifact the sweep writes.
 */
std::string sweepConfigHash(const SweepGrid &grid,
                            const SweepRunOptions &opts);

/**
 * Write the merged spatial heatmaps: one RefreshHeatmap per summary
 * group (config, retentionMs, counterBits, policy), produced by
 * merging the group's per-job heatmaps in grid order. Deterministic:
 * integer counters summed in a fixed order make the bytes identical
 * for any -j N. Requires the sweep to have run with
 * `collectHeatmaps = true` (fatal otherwise).
 */
void writeSweepHeatmapJson(const SweepGrid &grid,
                           const SweepRunOptions &opts,
                           const std::vector<SweepJobResult> &results,
                           std::ostream &os);

/** Long-form CSV of the same merged heatmaps (one row per counter). */
void writeSweepHeatmapCsv(const std::vector<SweepJobResult> &results,
                          std::ostream &os);

/** Total retention violations across all runs (0 on a correct sweep). */
std::uint64_t totalViolations(const std::vector<SweepJobResult> &results);

/**
 * The paper figures a full-suite run over one config reproduces.
 * `configName` is the preset name; figure ids are the paper's figure
 * numbers (fig06..fig18).
 */
struct FigureSpec
{
    std::string id;
    std::string title;
    std::string paperNote;
    enum class Metric { RefreshRate, RefreshEnergy, TotalEnergy,
                        Performance } metric;
    int decimals = 1;
};

/** Figure specs for a config; empty for configs with no paper figure. */
std::vector<FigureSpec> figuresForConfig(const std::string &configName);

/**
 * Print the paper-figure tables for one config's full-suite results
 * (comparisons must be in profile order) and, when outDir is
 * non-empty, write one CSV per figure as `<outDir>/<id>.csv`: a header,
 * one row per benchmark and a GMEAN row.
 */
void writeFigures(std::ostream &os, const std::string &configName,
                  const std::vector<ComparisonResult> &comparisons,
                  const std::string &outDir);

} // namespace smartref
