#include "harness/sweep_spec.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "dram/refresh_parallelism.hh"
#include "harness/system.hh"
#include "sim/logging.hh"
#include "sim/mini_json.hh"
#include "sim/provenance.hh"
#include "sim/suggest.hh"
#include "trace/benchmark_profiles.hh"

namespace smartref {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
seedModeName(SeedMode mode)
{
    return mode == SeedMode::Derived ? "derived" : "fixed";
}

std::string
pointKey(const SweepPoint &point)
{
    std::ostringstream oss;
    oss << "config=" << point.config << ";bench=" << point.benchmark
        << ";policy=" << point.policy << ";bits=" << point.counterBits
        << ";retentionMs=" << point.retentionMs;
    // The historical default mode is omitted so pre-parallelism seeds
    // (and the goldens derived from them) are unchanged.
    if (point.parallelism != "refpb")
        oss << ";par=" << point.parallelism;
    return oss.str();
}

std::uint64_t
deriveJobSeed(std::uint64_t baseSeed, const SweepPoint &point)
{
    return splitmix64(baseSeed ^ fnv1a64(pointKey(point)));
}

SweepGrid
parseSweepGrid(const std::string &jsonText)
{
    const minijson::Value root = minijson::parse(jsonText);
    if (!root.isObject())
        SMARTREF_FATAL("sweep grid JSON must be an object");

    SweepGrid grid;
    for (const auto &[key, value] : root.object) {
        // Every member has one JSON type; anything else names the member.
        const auto need = [&key = key](bool ok, const std::string &what) {
            if (!ok)
                SMARTREF_FATAL("sweep grid member '", key, "' needs ", what);
        };
        const auto strings = [&] {
            need(value.isArray(), "an array of strings");
            std::vector<std::string> out;
            for (const auto &e : value.array) {
                need(e.isString(), "an array of strings");
                out.push_back(e.str);
            }
            return out;
        };
        // `max` is at most 2^53, where doubles stop being exact, so the
        // cast is defined.
        const auto wholes = [&](std::uint64_t max) {
            const std::string what =
                "an array of whole numbers up to " + std::to_string(max);
            need(value.isArray(), what);
            std::vector<std::uint64_t> out;
            for (const auto &e : value.array) {
                const double x = e.number;
                need(e.isNumber() && x >= 0 && x <= max && x == std::floor(x),
                     what);
                out.push_back(static_cast<std::uint64_t>(x));
            }
            return out;
        };
        if (key == "name") {
            need(value.isString(), "a string");
            grid.name = value.str;
        } else if (key == "configs") {
            grid.configs = strings();
        } else if (key == "benchmarks") {
            grid.benchmarks = strings();
        } else if (key == "policies") {
            grid.policies = strings();
        } else if (key == "counterBits") {
            grid.counterBits.clear();
            for (std::uint64_t bits : wholes(UINT32_MAX))
                grid.counterBits.push_back(
                    static_cast<std::uint32_t>(bits));
        } else if (key == "retentionMs") {
            grid.retentionMs = wholes(std::uint64_t{1} << 53);
        } else if (key == "parallelism") {
            grid.parallelism = strings();
        } else {
            SMARTREF_FATAL("unknown sweep grid member '", key, "'",
                           didYouMean(key,
                                      {"name", "configs", "benchmarks",
                                       "policies", "counterBits",
                                       "retentionMs", "parallelism"}));
        }
    }
    return grid;
}

SweepGrid
loadSweepGrid(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SMARTREF_FATAL("cannot read sweep grid '", path, "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return parseSweepGrid(oss.str());
}

std::vector<SweepJob>
expandGrid(const SweepGrid &grid, std::uint64_t baseSeed, SeedMode mode)
{
    // Validate every axis value up front so a typo fails before hours
    // of simulation, not in the middle of a parallel run.
    std::vector<std::string> benchmarks;
    if (grid.benchmarks.size() == 1 && grid.benchmarks[0] == "all") {
        for (const auto &p : allProfiles())
            benchmarks.push_back(p.name);
    } else {
        for (const auto &name : grid.benchmarks) {
            findProfile(name); // fatal on unknown
            benchmarks.push_back(name);
        }
    }
    for (const auto &config : grid.configs)
        dramConfigByName(config).validate();
    for (const auto &policy : grid.policies)
        policyFromString(policy);
    for (std::uint32_t bits : grid.counterBits) {
        if (bits < 1 || bits > 16)
            SMARTREF_FATAL("counterBits ", bits, " out of range [1,16]");
    }
    for (const auto &par : grid.parallelism)
        parallelismFromString(par); // fatal on unknown

    std::vector<SweepJob> jobs;
    jobs.reserve(grid.configs.size() * grid.retentionMs.size() *
                 grid.counterBits.size() * grid.policies.size() *
                 grid.parallelism.size() * benchmarks.size());
    for (const auto &config : grid.configs) {
        for (std::uint64_t retention : grid.retentionMs) {
            for (std::uint32_t bits : grid.counterBits) {
                for (const auto &policy : grid.policies) {
                    for (const auto &par : grid.parallelism) {
                        for (const auto &benchmark : benchmarks) {
                            SweepJob job;
                            job.index = jobs.size();
                            job.point = {config, benchmark, policy,
                                         bits, retention, par};
                            job.seed = mode == SeedMode::Fixed
                                           ? baseSeed
                                           : deriveJobSeed(baseSeed,
                                                           job.point);
                            jobs.push_back(std::move(job));
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

const std::vector<NamedGrid> &
predefinedGrids()
{
    static const std::vector<NamedGrid> grids = [] {
        std::vector<NamedGrid> g;
        g.push_back({"smoke",
                     "reduced CI grid: 2 configs x 3 benchmarks",
                     {"smoke",
                      {"2gb", "3d64"},
                      {"mummer", "gcc", "radix"},
                      {"smart"},
                      {3},
                      {0}}});
        g.push_back({"2gb", "full suite on the 2 GB module (Figs. 6-8)",
                     {"2gb", {"2gb"}, {"all"}, {"smart"}, {3}, {0}}});
        g.push_back({"4gb", "full suite on the 4 GB module (Figs. 9-11)",
                     {"4gb", {"4gb"}, {"all"}, {"smart"}, {3}, {0}}});
        g.push_back(
            {"3d64", "full suite, 3D 64 MB cache at 64 ms (Figs. 12-14)",
             {"3d64", {"3d64"}, {"all"}, {"smart"}, {3}, {0}}});
        g.push_back(
            {"3d64-32ms", "full suite, 3D 64 MB at 32 ms (Figs. 15-18)",
             {"3d64-32ms", {"3d64-32ms"}, {"all"}, {"smart"}, {3}, {0}}});
        g.push_back({"3d32", "full suite on the 3D 32 MB cache",
                     {"3d32", {"3d32"}, {"all"}, {"smart"}, {3}, {0}}});
        g.push_back(
            {"figures",
             "every paper-figure config in one run (Figs. 6-18)",
             {"figures",
              {"2gb", "4gb", "3d64", "3d64-32ms"},
              {"all"},
              {"smart"},
              {3},
              {0}}});
        g.push_back({"bits",
                     "counter-width ablation on the 2 GB module",
                     {"bits",
                      {"2gb"},
                      {"all"},
                      {"smart"},
                      {1, 2, 3, 4, 8},
                      {0}}});
        g.push_back({"policies",
                     "policy comparison on the 2 GB module",
                     {"policies",
                      {"2gb"},
                      {"all"},
                      {"burst", "ras-only", "per-bank", "smart",
                       "retention-aware"},
                      {3},
                      {0}}});
        g.push_back({"policy-grid",
                     "refresh-parallelism x policy smoke grid (CI gate)",
                     {"policy-grid",
                      {"2gb"},
                      {"mummer", "radix"},
                      {"cbr", "smart"},
                      {3},
                      {0},
                      {"none", "refpb", "darp", "sarp", "all"}}});
        g.push_back({"server",
                     "multi-channel server modules, 128-512 GB",
                     {"server",
                      {"128gb", "256gb", "512gb"},
                      {"mummer", "radix"},
                      {"smart"},
                      {3},
                      {0}}});
        return g;
    }();
    return grids;
}

SweepGrid
predefinedGridByName(const std::string &name)
{
    std::vector<std::string> names;
    for (const auto &g : predefinedGrids()) {
        if (name == g.name)
            return g.grid;
        names.push_back(g.name);
    }
    SMARTREF_FATAL("unknown grid '", name, "'", didYouMean(name, names),
                   " (see --list-grids, or use --grid-file)");
}

} // namespace smartref
