/**
 * @file
 * The benchmark's own assembly of one simulation run.
 *
 * runAssembled() builds a run the way the library's runConventional,
 * runShardedConventional and runThreeD do, from the same public
 * pieces: a ShardedSystem for conventional modules (one channel for
 * 2 GB/4 GB, sixteen for 512 GB) or a ThreeDSystem for the 3D cache,
 * workload generators from conventionalParams/threeDParams, snapshot
 * deltas over the measurement window and the final retention check.
 * Assembling it here splits the run into set-up (construction, before
 * the first simulated tick) and the run proper, which the library
 * calls do not expose.
 *
 * Untraced, the generators feed the library's own sinks
 * (System::addWorkload / ThreeDSystem::addWorkload). Traced, the
 * benchmark owns the generators and their sinks, so it can sample the
 * workload -> controller (or -> 3D cache) boundary, and it opens spans
 * around each library call. Both must give bit-identical results; the
 * workloads check that on every traced run.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "spans.hh"

namespace perfbench {

/** Everything the library's run functions take. */
struct RunSpec
{
    std::string label;  ///< "<workload>/<benchmark or point>/<policy>"
    std::string profile; ///< benchmark profile name
    smartref::DramConfig dram;
    smartref::PolicyKind policy = smartref::PolicyKind::Cbr;
    smartref::ExperimentOptions opts;
    double absRowScale = 1.0; ///< conventional modules only
    bool threeD = false;
};

/** Work counted across the layers of one run (whole run). */
struct RunCounts
{
    std::uint64_t events = 0;
    std::uint64_t accessesGenerated = 0; ///< WorkloadModel count (traced)
    std::uint64_t ctrlAccessCalls = 0;   ///< workload -> controller sink
    std::uint64_t cacheAccessCalls = 0;  ///< workload -> 3D cache sink
    std::uint64_t refreshes = 0;
    std::uint64_t dramCommands = 0;
    std::uint64_t violations = 0; ///< whole run, final stale rows included
    std::uint64_t walkSteps = 0;
    std::uint64_t counterReads = 0;
    std::uint64_t counterWrites = 0;
    std::uint64_t counterChecks = 0;
    std::uint64_t counterExpiries = 0;
    std::uint64_t counterBytes = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::size_t maxBacklog = 0;
    bool ledgerConserved = true; ///< checked on traced runs only
    double ctrlAccessNs = 0.0;   ///< sampled estimate (traced)
    double cacheAccessNs = 0.0;  ///< sampled estimate (traced)
};

/** One finished run. */
struct AssembledRun
{
    smartref::RunResult result;
    RunCounts counts;
    double setupSeconds = 0.0; ///< construction, before the first tick
    double runSeconds = 0.0;   ///< windows, snapshots, merges, reduction
    double runCpuSeconds = 0.0; ///< process CPU over runSeconds
};

/** User + system CPU seconds of this process, all threads. */
double processCpuSeconds();

/**
 * Run `spec`. With `log` null the run is untraced and uses the
 * library's sinks; otherwise spans land in `log` (job id `job`) and
 * the benchmark's sampled sinks feed the controller or cache.
 */
AssembledRun runAssembled(const RunSpec &spec, SpanLog *log, int job);

/**
 * Generator parameters of each event queue of `spec`'s run: one list
 * per channel, or one for the 3D system, seeded as the library does.
 */
std::vector<std::vector<smartref::WorkloadParams>>
workloadStreams(const RunSpec &spec);

/** Set-up time of `spec` alone: build the run untraced, then drop it. */
double setupSeconds(const RunSpec &spec);

/** The same run through the library call it mirrors. */
smartref::RunResult runLibrary(const RunSpec &spec);

/**
 * Canonical JSON of a result as writeRunResultJson writes it, with
 * the telemetry-only eventsExecuted member dropped unless asked for.
 */
std::string resultJson(const smartref::RunResult &r,
                       bool withEvents = false);

} // namespace perfbench
