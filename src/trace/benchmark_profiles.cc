#include "trace/benchmark_profiles.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace smartref {

const std::vector<BenchmarkProfile> &
allProfiles()
{
    // Columns: name, suite, reduction2gb, reduction3d, readFraction,
    // accessesPerVisit, randomJumpProb, zipfAlpha, pair.
    //
    // reduction2gb anchors: fasta 0.26 and water-spatial 0.857 are quoted
    // in the text; radix (79 % refresh-energy saving) and gcc (25 %) pin
    // the extremes of Fig. 7; perl_twolf pins the Fig. 8 maximum (25 %
    // total). The suite-internal ordering follows Fig. 6's bars.
    // reduction3d anchors: mummer/clustalw 0.42 and fasta 0.04 (Fig. 12),
    // gcc_twolf highest pair (21.5 % total, Fig. 14).
    static const std::vector<BenchmarkProfile> profiles = {
        // accessesPerVisit encodes memory-reference intensity: streaming
        // codes re-read rows heavily (long open-page runs dilute the
        // refresh share of total energy -> small total savings), while
        // cache-friendly codes touch DRAM rows once and leave (refresh
        // dominates -> large total savings). This is the paper's "total
        // savings depend on the number of memory references" effect.
        //
        // Biobench — streaming genomics: long scans, few jumps.
        {"clustalw", "Biobench", 0.62, 0.42, 0.75, 2, 0.05, 0.6, false},
        {"fasta", "Biobench", 0.26, 0.04, 0.80, 16, 0.02, 0.5, false},
        {"hmmer", "Biobench", 0.55, 0.25, 0.70, 5, 0.10, 0.7, false},
        {"mummer", "Biobench", 0.68, 0.42, 0.72, 2, 0.15, 0.8, false},
        {"phylip", "Biobench", 0.60, 0.30, 0.74, 2, 0.08, 0.6, false},
        {"tiger", "Biobench", 0.58, 0.27, 0.73, 2, 0.10, 0.7, false},
        // SPLASH-2 — scientific kernels: sweeps over large grids.
        {"barnes", "SPLASH2", 0.55, 0.17, 0.68, 5, 0.25, 0.9, false},
        {"cholesky", "SPLASH2", 0.50, 0.15, 0.66, 8, 0.20, 0.9, false},
        {"fft", "SPLASH2", 0.65, 0.22, 0.65, 8, 0.05, 0.5, false},
        {"fmm", "SPLASH2", 0.60, 0.19, 0.67, 5, 0.20, 0.9, false},
        {"lucontig", "SPLASH2", 0.62, 0.18, 0.64, 8, 0.05, 0.5, false},
        {"lunoncontig", "SPLASH2", 0.66, 0.19, 0.64, 5, 0.15, 0.7, false},
        {"ocean-contig", "SPLASH2", 0.70, 0.24, 0.66, 3, 0.05, 0.5, false},
        {"radix", "SPLASH2", 0.79, 0.30, 0.55, 1, 0.30, 0.4, false},
        {"water-nsquared", "SPLASH2", 0.75, 0.22, 0.70, 1, 0.10, 0.7,
         false},
        {"water-spatial", "SPLASH2", 0.857, 0.25, 0.70, 1, 0.08, 0.6,
         false},
        // SPECint2000 — pointer-chasing integer codes: smaller alive
        // sets, more skew.
        {"eon", "SPECint2000", 0.45, 0.10, 0.72, 8, 0.30, 1.0, false},
        {"gcc", "SPECint2000", 0.35, 0.13, 0.70, 10, 0.35, 1.0, false},
        {"parser", "SPECint2000", 0.55, 0.17, 0.71, 4, 0.30, 0.9, false},
        {"perl", "SPECint2000", 0.72, 0.22, 0.69, 1, 0.25, 0.9, false},
        {"twolf", "SPECint2000", 0.70, 0.22, 0.68, 1, 0.30, 0.9, false},
        {"vpr", "SPECint2000", 0.60, 0.17, 0.69, 4, 0.30, 0.9, false},
        // Two-process SPECint pairs — interleaved footprints reduce
        // spatial locality and raise row coverage (Section 7.2).
        {"gcc_parser", "2Proc", 0.60, 0.25, 0.70, 4, 0.32, 0.9, true},
        {"gcc_perl", "2Proc", 0.68, 0.28, 0.70, 1, 0.30, 0.9, true},
        {"gcc_twolf", "2Proc", 0.72, 0.35, 0.69, 1, 0.32, 0.9, true},
        {"parser_perl", "2Proc", 0.70, 0.28, 0.70, 1, 0.28, 0.9, true},
        {"parser_twolf", "2Proc", 0.72, 0.30, 0.70, 1, 0.30, 0.9, true},
        {"perl_twolf", "2Proc", 0.78, 0.32, 0.68, 1, 0.27, 0.9, true},
        {"vpr_gcc", "2Proc", 0.62, 0.26, 0.70, 4, 0.32, 0.9, true},
        {"vpr_parser", "2Proc", 0.65, 0.26, 0.70, 1, 0.30, 0.9, true},
        {"vpr_perl", "2Proc", 0.72, 0.30, 0.69, 1, 0.28, 0.9, true},
        {"vpr_twolf", "2Proc", 0.70, 0.29, 0.69, 1, 0.30, 0.9, true},
    };
    return profiles;
}

const BenchmarkProfile &
findProfile(const std::string &name)
{
    for (const auto &p : allProfiles())
        if (p.name == name)
            return p;
    SMARTREF_FATAL("unknown benchmark profile '", name, "'");
}

namespace {

/** Build one WorkloadParams from a coverage target. */
WorkloadParams
makeParams(const BenchmarkProfile &profile, std::uint64_t footprintRows,
           double visitsPerSecond, std::uint64_t stride,
           std::uint64_t offset, std::uint64_t seed,
           const std::string &nameSuffix)
{
    WorkloadParams wp;
    wp.name = profile.name + nameSuffix;
    wp.suite = profile.suite;
    wp.footprintRows = std::max<std::uint64_t>(footprintRows, 1);
    wp.rowVisitsPerSecond = visitsPerSecond;
    wp.accessesPerVisit = profile.accessesPerVisit;
    wp.randomJumpProb = profile.randomJumpProb;
    wp.zipfAlpha = profile.zipfAlpha;
    wp.readFraction = profile.readFraction;
    wp.interArrivalJitter = 0.5;
    wp.rowStride = stride;
    wp.rowOffset = offset;
    wp.seed = seed;
    return wp;
}

} // namespace

double
absRowScaleFor(const DramOrganization &org)
{
    // 8 row buffers (2 ranks x 4 banks) is the 2 GB calibration point.
    const double buffers =
        static_cast<double>(org.ranks) * static_cast<double>(org.banks);
    if (buffers <= 8.0)
        return 1.0;
    // Exact at the calibration points: log2(16/8) == 1.0 makes the
    // 4 GB module's scale bit-identical to kFourGBRowScale.
    return 1.0 + (kFourGBRowScale - 1.0) * std::log2(buffers / 8.0);
}

std::vector<WorkloadParams>
conventionalParams(const BenchmarkProfile &profile, const DramConfig &cfg,
                   double absRowScale, std::uint64_t seed)
{
    const std::uint64_t totalRows = cfg.org.totalRows();
    const double retentionSec = static_cast<double>(cfg.timing.retention) /
                                static_cast<double>(kSecond);

    // Absolute alive-row target, anchored to the 2 GB calibration.
    std::uint64_t aliveRows = static_cast<std::uint64_t>(
        profile.reduction2gb * static_cast<double>(k2GBRowTargets) *
        absRowScale);
    aliveRows = std::min<std::uint64_t>(
        aliveRows, static_cast<std::uint64_t>(0.95 * totalRows));

    // Only non-jump visits advance the footprint sweep, so the visit
    // rate is inflated by the jump fraction to keep the revisit period.
    const double totalVisitRate = static_cast<double>(aliveRows) /
                                  retentionSec * kRevisitSafety /
                                  (1.0 - profile.randomJumpProb);

    if (!profile.pair) {
        return {makeParams(profile, aliveRows, totalVisitRate, 1, 0, seed,
                           "")};
    }
    // Two processes: interleave footprints at stride 2, splitting rows
    // and rate evenly. The interleaving is what lowers spatial locality.
    const std::uint64_t half = aliveRows / 2;
    return {
        makeParams(profile, half, totalVisitRate / 2, 2, 0, seed, ".p0"),
        makeParams(profile, half, totalVisitRate / 2, 2, 1, seed + 1,
                   ".p1"),
    };
}

std::vector<WorkloadParams>
threeDParams(const BenchmarkProfile &profile, const DramConfig &threeDCfg,
             std::uint64_t seed)
{
    const std::uint64_t totalRows = threeDCfg.org.totalRows();

    std::uint64_t aliveRows = static_cast<std::uint64_t>(
        profile.reduction3d * static_cast<double>(k3DRowTargets));
    aliveRows = std::min<std::uint64_t>(
        aliveRows, static_cast<std::uint64_t>(0.95 * totalRows));
    aliveRows = std::max<std::uint64_t>(aliveRows, 64);

    // Cache-resident working sets are two-tier: a hot core re-touched
    // every few milliseconds (inside even the 32 ms counter deadline)
    // and a colder fringe re-touched just inside the 64 ms deadline.
    // The split reproduces the paper's Fig. 12 vs Fig. 15 relationship:
    // the unchanged access stream keeps eliminating every hot-row
    // refresh when the rate doubles, but only a sliver of the cold-row
    // ones. Rates are a property of the benchmark, fixed at the 64 ms
    // calibration regardless of the config's retention.
    constexpr double kHotFraction = 0.67;
    constexpr double kHotRevisitSec = 0.012;
    constexpr double kColdRevisitSec = 0.040;

    const double pairScale = profile.pair ? 0.5 : 1.0;
    const auto hotRows = static_cast<std::uint64_t>(
        kHotFraction * static_cast<double>(aliveRows) * pairScale);
    const auto coldRows = static_cast<std::uint64_t>(
        static_cast<double>(aliveRows) * pairScale) - hotRows;
    const double jumpFix = 1.0 / (1.0 - profile.randomJumpProb);
    const double hotRate =
        static_cast<double>(hotRows) / kHotRevisitSec * jumpFix;
    const double coldRate =
        static_cast<double>(coldRows) / kColdRevisitSec * jumpFix;

    auto tiers = [&](std::uint64_t stride, std::uint64_t offset,
                     std::uint64_t s, const std::string &suffix) {
        std::vector<WorkloadParams> v;
        if (hotRows > 0) {
            v.push_back(makeParams(profile, hotRows, hotRate, stride,
                                   offset, s, suffix + ".hot"));
        }
        if (coldRows > 0) {
            v.push_back(makeParams(profile, coldRows, coldRate, stride,
                                   offset + stride * hotRows, s + 7,
                                   suffix + ".cold"));
        }
        return v;
    };

    if (!profile.pair)
        return tiers(1, 0, seed, "");

    auto v = tiers(2, 0, seed, ".p0");
    for (auto &wp : tiers(2, 1, seed + 1, ".p1"))
        v.push_back(wp);
    return v;
}

std::vector<WorkloadParams>
workloadParams(const BenchmarkProfile &profile, const DramConfig &cfg,
               double absRowScale, std::uint64_t seed)
{
    return cfg.stackedCache ? threeDParams(profile, cfg, seed)
                            : conventionalParams(profile, cfg, absRowScale,
                                                 seed);
}

WorkloadParams
idleParams(const DramConfig &cfg, std::uint64_t seed)
{
    const double retentionSec = static_cast<double>(cfg.timing.retention) /
                                static_cast<double>(kSecond);
    WorkloadParams wp;
    wp.name = "idle-os";
    wp.suite = "custom";
    // ~0.3 % of rows touched per interval: well under the 1 % disable
    // threshold, modelling an idle OS's timer-tick footprint.
    wp.footprintRows = cfg.org.totalRows() / 333;
    wp.rowVisitsPerSecond =
        static_cast<double>(wp.footprintRows) / retentionSec;
    wp.accessesPerVisit = 2;
    wp.randomJumpProb = 0.2;
    wp.zipfAlpha = 0.9;
    wp.readFraction = 0.7;
    wp.interArrivalJitter = 0.5;
    wp.seed = seed;
    return wp;
}

WorkloadParams
lightParams(const DramConfig &cfg, std::uint64_t seed)
{
    WorkloadParams wp = idleParams(cfg, seed);
    wp.name = "light-activity";
    // ~1.5 % of rows per interval: inside the hysteresis band, so the
    // mode the system is already in sticks.
    const double retentionSec = static_cast<double>(cfg.timing.retention) /
                                static_cast<double>(kSecond);
    wp.footprintRows = static_cast<std::uint64_t>(
        0.015 * static_cast<double>(cfg.org.totalRows()));
    wp.rowVisitsPerSecond =
        static_cast<double>(wp.footprintRows) / retentionSec * 1.2;
    return wp;
}

} // namespace smartref
