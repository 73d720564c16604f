/**
 * @file
 * Calibrated workload profiles for the paper's 32 benchmark runs.
 *
 * The paper ran SPLASH-2, SPECint2000 and Biobench binaries under
 * Simics/Solaris; those binaries (and a Solaris full-system stack) are
 * not reproducible here, so each benchmark is represented by the
 * refresh-relevant signature of its memory behaviour: how many distinct
 * DRAM rows it keeps "alive" (re-touches within a retention interval)
 * and with what access pattern. The per-benchmark coverage targets are
 * calibrated from the paper's own reported per-benchmark refresh
 * reductions (Figures 6 and 12, plus the ranges quoted in the text:
 * 26 % for fasta up to 85.7 % for water-spatial on the 2 GB module,
 * 4 % for fasta up to 42 % for mummer on the 64 MB 3D cache).
 *
 * For the 4 GB module the same benchmark touches ~1.3x the absolute
 * rows of the 2 GB run (twice the banks give the OS more row buffers to
 * scatter pages over), matching the paper's Fig. 9 ratio of reductions.
 * The 32 ms 3D runs reuse the 64 ms workload unchanged — the paper's
 * point is precisely that the access stream stays constant while the
 * refresh baseline doubles.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dram/dram_config.hh"
#include "trace/workload_model.hh"

namespace smartref {

/** Refresh-relevant signature of one benchmark (or benchmark pair). */
struct BenchmarkProfile
{
    std::string name;
    std::string suite;        ///< Biobench / SPLASH2 / SPECint2000 / 2Proc
    double reduction2gb;      ///< target refresh reduction, 2 GB, 64 ms
    double reduction3d;       ///< target refresh reduction, 3D 64 MB, 64 ms
    double readFraction;
    std::uint32_t accessesPerVisit; ///< row-buffer run length
    double randomJumpProb;
    double zipfAlpha;
    bool pair = false;        ///< two-process multiprogrammed run
};

/** The (bank,row) refresh-target count of the paper's 2 GB module. */
constexpr std::uint64_t k2GBRowTargets = 131072;

/** The row-target count of the 64 MB 3D DRAM cache. */
constexpr std::uint64_t k3DRowTargets = 65536;

/**
 * Rows must be revisited comfortably *before* the earliest possible
 * counter expiry, which for B-bit counters is retention * (1 - 1/2^B)
 * after the last reset (56 ms for 3 bits at 64 ms). 1.6 puts the sweep
 * revisit period around 40 ms, leaving room for arrival jitter.
 */
constexpr double kRevisitSafety = 1.6;

/** All 32 benchmark runs of the paper's evaluation, in figure order. */
const std::vector<BenchmarkProfile> &allProfiles();

/** Look up a profile by name; fatals if unknown. */
const BenchmarkProfile &findProfile(const std::string &name);

/**
 * Workload parameters for a conventional-DRAM run.
 *
 * @param absRowScale scales the absolute number of alive rows relative
 *        to the 2 GB calibration (use kFourGBRowScale for 4 GB runs)
 * @return one entry for single benchmarks, two interleaved (stride-2)
 *         entries for 2-process pairs
 */
std::vector<WorkloadParams>
conventionalParams(const BenchmarkProfile &profile, const DramConfig &cfg,
                   double absRowScale = 1.0, std::uint64_t seed = 42);

/** Absolute-row scaling used for the 4 GB module (see file comment). */
constexpr double kFourGBRowScale = 1.3;

/**
 * Row scale derived from the module geometry instead of a config-name
 * match. The paper's 1.3x for the 4 GB module comes from doubling the
 * row buffers (8 banks instead of 4): more open rows let the OS scatter
 * each footprint over proportionally more DRAM rows. Generalised as
 * 1 + (1.3 - 1) * log2(rowBuffers / 8): exactly 1.0 at the 2 GB
 * module's 8 row buffers and exactly kFourGBRowScale at 16, so the
 * existing goldens are bit-unchanged, while new large configs (the
 * multi-channel server presets included — the scale is per channel)
 * are no longer silently unscaled.
 */
double absRowScaleFor(const DramOrganization &org);

/**
 * Workload parameters for a 3D DRAM cache run. Visit rates are derived
 * from the 64 ms calibration regardless of the config's retention, so
 * the same stream drives both the 64 ms and 32 ms experiments.
 */
std::vector<WorkloadParams>
threeDParams(const BenchmarkProfile &profile, const DramConfig &threeDCfg,
             std::uint64_t seed = 42);

/**
 * The workload of `profile` on `cfg`: threeDParams() for a stacked DRAM
 * cache (DramConfig::stackedCache), which ignores `absRowScale`, else
 * conventionalParams().
 */
std::vector<WorkloadParams>
workloadParams(const BenchmarkProfile &profile, const DramConfig &cfg,
               double absRowScale = 1.0, std::uint64_t seed = 42);

/**
 * A near-idle workload (Section 4.6): row activity below the 1 %
 * disable threshold, for exercising the self-configuration circuit.
 */
WorkloadParams idleParams(const DramConfig &cfg, std::uint64_t seed = 42);

/** A lightly-active workload sitting between the 1 %/2 % thresholds. */
WorkloadParams lightParams(const DramConfig &cfg, std::uint64_t seed = 42);

} // namespace smartref
