/**
 * @file
 * The benchmark's three workloads and the two ways of running them.
 *
 *  - conv-2gb: CBR-vs-Smart pairs for gcc, mummer, water-spatial and
 *    perl_twolf on the 2 GB module, 64 ms warmup + 128 ms measurement,
 *    run serially. The demand path (generator -> controller -> DRAM)
 *    dominates; no thread pool, sharding, 3D cache or sweep code runs.
 *  - server-512gb: the CBR-vs-Smart pair for mummer on the 512 GB
 *    preset (16 channels, 33.5 M refresh targets) with sparse counters
 *    and 4 shard workers, 8 ms + 32 ms. The refresh path dominates;
 *    the only workload with epoch barriers and per-channel merges.
 *  - figures-sweep: runSweep over the `figures` configs x {mummer, gcc,
 *    radix, gcc_twolf} (16 jobs, derived seeds, 4 workers) into a cold
 *    result cache in a fresh directory, then the sweep JSON and CSV.
 *    The only workload that runs the 3D DRAM cache, the sweep's job
 *    tail, result-cache stores and the report writers.
 *
 * measure() repeats the fixed batch untraced for the requested time
 * and reports medians; trace() runs it once untraced and once traced
 * and reports per-layer metrics. Both check every simulated result.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "assembly.hh"
#include "harness/sweep.hh"

namespace perfbench {

/** A workload's fixed batch. */
struct WorkloadDef
{
    std::string name;
    /** Serial runs (conv-2gb, server-512gb), CBR before Smart. */
    std::vector<RunSpec> specs;
    /** figures-sweep only. */
    bool sweep = false;
    smartref::SweepGrid grid;
    smartref::SweepRunOptions sweepOpts;
};

WorkloadDef defineWorkload(const std::string &name, std::uint64_t seed);

/**
 * Every run a workload performs, as the RunSpec the library would
 * run it with (for figures-sweep: both runs of each expanded job).
 */
std::vector<RunSpec> runSpecs(const WorkloadDef &w);

/** Worker threads the workload uses. */
unsigned workerThreads(const WorkloadDef &w);

/** Simulated windows of the workload, for provenance. */
std::string windowsText(const WorkloadDef &w);

/** The outcome of a workload run: metrics plus the output check. */
struct Report
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failed check
};

/** Default-seed reference: label -> canonical result JSON. */
using Reference = std::map<std::string, std::string>;

/** Load a reference file; an unreadable file is an empty reference. */
Reference loadReference(const std::string &path);

/** Results of every workload through the library calls, as JSON. */
std::string referenceJson(std::uint64_t seed);

/**
 * Untraced: repeat the batch for about `seconds` (at least once) and
 * report the median end-to-end metrics.
 */
Report measure(const WorkloadDef &w, int seconds, const Reference *ref,
               const std::string &scratchDir);

/**
 * Traced: one untraced and one traced batch plus the isolation passes
 * and (figures-sweep) the warm replay; reports per-layer metrics.
 * Spans go to `spanOut` when it is not empty.
 */
Report trace(const WorkloadDef &w, const Reference *ref,
             const std::string &scratchDir, const std::string &spanOut);

} // namespace perfbench
