/**
 * @file
 * smartref_sweep — parallel experiment-sweep frontend.
 *
 * Expands a declarative grid over (config, retention, counter bits,
 * policy, benchmark) into independent baseline-vs-policy jobs, fans
 * them out over a work-stealing thread pool, and reduces the results
 * in grid order. The aggregate JSON/CSV outputs are byte-identical for
 * any -j N (see docs/sweep.md for the determinism contract).
 *
 * Usage: smartref_sweep --help.
 */

#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "harness/sweep_telemetry.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/provenance.hh"
#include "sim/suggest.hh"
#include "sim/thread_pool.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {
    "smartref_sweep",
    {},
    {
        {"grid", "NAME", "predefined grid, see --list-grids", "smoke"},
        {"grid-file", "FILE", "JSON grid description instead of --grid"},
        {"j", "", "worker threads; a bare -j: one per hardware thread"},
        {"shard-jobs", "N", "workers inside each multi-channel job", "1"},
        {"sparse-counters"},
        {"out-dir", "DIR", "output directory", "."},
        {"json", "FILE", "aggregate JSON (default DIR/GRID_sweep.json)"},
        {"csv", "FILE", "per-job CSV (default DIR/GRID_sweep.csv)"},
        {"figures", "", "paper-figure tables, and one CSV per figure"},
        {"timing", "FILE", "wall-clock timing JSON (not deterministic)"},
        {"heatmap-out", "FILE", "merged refresh heatmap JSON (+ .csv)"},
        {"telemetry-out", "FILE", "live NDJSON telemetry (not deterministic)"},
        {"check-conservation", "", "verify the ledger invariant in every job"},
        {"parallelism", "A,B,..", "override the grid's parallelism axis"},
        {"cache-dir", "DIR", "result cache: simulate only the misses",
         ResultCache::defaultDir()},
        {"incremental", "", "cache at the default --cache-dir"},
        {"cache-verify", "", "recompute every hit; fail unless bit-identical"},
        {"metrics-out", "FILE", "metrics snapshot JSON (not deterministic)"},
        {"seed", "", "base seed"},
        {"seed-mode", "MODE", "derived|fixed", "derived"},
        {"warmup-ms"},
        {"measure-ms"},
        {"segments"},
        {"no-auto"},
        {"progress", "", "one stderr line per finished job"},
        {"log-level"},
        {"verbose", "", "--log-level debug and --progress"},
        {"list-grids", "", "list predefined grids and exit"},
    }};

void
listGrids()
{
    ReportTable table({"grid", "jobs", "description"});
    for (const auto &g : predefinedGrids()) {
        table.addRow({g.name,
                      std::to_string(expandGrid(g.grid, 42).size()),
                      g.description});
    }
    table.print(std::cout);
}

int
run(const CliArgs &args)
{
    if (args.has("list-grids")) {
        listGrids();
        return 0;
    }

    SweepGrid grid = args.has("grid-file")
                         ? loadSweepGrid(args.getString("grid-file"))
                         : predefinedGridByName(args.getString("grid"));
    if (args.has("parallelism")) {
        grid.parallelism = splitList(args.getString("parallelism"));
        if (grid.parallelism.empty())
            SMARTREF_FATAL("--parallelism needs at least one mode");
    }
    const ExperimentOptions eo = args.experimentOptions();
    setLogLevel(eo.logLevel);

    SweepRunOptions opts;
    opts.jobs = args.jobs();
    opts.warmup = eo.warmup;
    opts.measure = eo.measure;
    opts.segments = eo.segments;
    opts.autoReconfigure = eo.autoReconfigure;
    opts.baseSeed = eo.seed;
    opts.logLevel = eo.logLevel;
    opts.progress = args.has("progress") || eo.verbose;
    opts.checkConservation = args.has("check-conservation");
    opts.shardJobs = static_cast<unsigned>(args.getU64("shard-jobs"));
    opts.sparseCounters = eo.sparseCounters;
    const std::string seedMode = args.getString("seed-mode");
    if (seedMode == "fixed")
        opts.seedMode = SeedMode::Fixed;
    else if (seedMode != "derived")
        SMARTREF_FATAL("unknown --seed-mode '", seedMode,
                       "' (derived, fixed)");

    // The cache is opt-in: --cache-dir names it explicitly,
    // --incremental and --cache-verify imply the default location.
    std::unique_ptr<ResultCache> cache;
    if (args.has("cache-dir") || args.has("incremental") ||
        args.has("cache-verify")) {
        cache = std::make_unique<ResultCache>(args.getString("cache-dir"));
        opts.cache = cache.get();
        opts.cacheVerify = args.has("cache-verify");
    }

    // Every output file is opened before the first job runs, so an
    // unwritable path fails at once instead of after the whole grid.
    const std::string outDir = args.getString("out-dir");
    std::filesystem::create_directories(outDir);
    OutputFile json(args.has("json")
                        ? args.getString("json")
                        : outDir + "/" + grid.name + "_sweep.json",
                    "sweep JSON");
    OutputFile csv(args.has("csv") ? args.getString("csv")
                                   : outDir + "/" + grid.name +
                                         "_sweep.csv",
                   "sweep CSV");
    std::optional<OutputFile> heatmapJson, heatmapCsv, timing, metrics;
    if (args.has("heatmap-out")) {
        // Sibling CSV: foo.json -> foo.csv (or foo + ".csv").
        std::filesystem::path sibling(args.getString("heatmap-out"));
        sibling.replace_extension(".csv");
        heatmapJson.emplace(args.getString("heatmap-out"), "heatmap JSON");
        heatmapCsv.emplace(sibling.string(), "heatmap CSV");
    }
    if (args.has("timing"))
        timing.emplace(args.getString("timing"), "timing JSON");
    if (args.has("metrics-out"))
        metrics.emplace(args.getString("metrics-out"), "metrics JSON");
    opts.collectHeatmaps = heatmapJson.has_value();

    std::unique_ptr<SweepTelemetry> telemetry;
    const std::size_t jobCount =
        expandGrid(grid, opts.baseSeed, opts.seedMode).size();
    if (args.has("telemetry-out")) {
        telemetry = std::make_unique<SweepTelemetry>(
            args.getString("telemetry-out"));
        RunMeta meta;
        meta.schema = "smartref-sweep-telemetry-v1";
        meta.configHash = sweepConfigHash(grid, opts);
        meta.seedMode = seedMode;
        telemetry->sweepStart(grid.name, jobCount, opts.jobs,
                              metaJson(meta));
        opts.telemetry = telemetry.get();
    }

    std::cerr << "sweep '" << grid.name << "': " << jobCount
              << " jobs on " << opts.jobs << " worker(s)" << std::endl;

    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepJobResult> results = runSweep(grid, opts);
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    writeSweepJson(grid, opts, results, json.stream());
    json.close();
    writeSweepCsv(results, csv.stream());
    csv.close();
    std::cout << "aggregate JSON written to " << json.path() << "\n"
              << "per-job CSV written to " << csv.path() << "\n";

    if (heatmapJson) {
        writeSweepHeatmapJson(grid, opts, results, heatmapJson->stream());
        heatmapJson->close();
        writeSweepHeatmapCsv(results, heatmapCsv->stream());
        heatmapCsv->close();
        std::cout << "heatmap JSON written to " << heatmapJson->path()
                  << "\n"
                  << "heatmap CSV written to " << heatmapCsv->path()
                  << "\n";
    }

    if (args.has("figures")) {
        // One figure set per config that has one; comparisons for a
        // config are contiguous (grid order) and in profile order when
        // the grid says benchmarks=["all"].
        for (const auto &config : grid.configs) {
            std::vector<ComparisonResult> comparisons;
            for (const auto &r : results) {
                if (r.job.point.config == config)
                    comparisons.push_back(r.comparison);
            }
            writeFigures(std::cout, config, comparisons, outDir);
        }
    }

    if (cache) {
        const ResultCacheStats cs = cache->stats();
        std::cerr << "cache '" << cache->dir() << "': " << cs.hits
                  << " hit(s), " << cs.misses << " miss(es)";
        if (cs.corrupt)
            std::cerr << " (" << cs.corrupt << " corrupt)";
        std::cerr << ", " << cs.stores << " store(s)";
        if (opts.cacheVerify)
            std::cerr << ", " << cs.verified << " verified";
        std::cerr << std::endl;
    }

    if (timing) {
        writeSweepTimingJson(grid, opts, results, wallSeconds,
                             timing->stream());
        timing->close();
    }

    if (metrics) {
        // Like --timing, a non-deterministic sidecar: never part of
        // the aggregate byte-identity contract.
        globalMetrics().writeJson(metrics->stream());
        metrics->stream() << "\n";
        metrics->close();
        std::cout << "metrics snapshot written to " << metrics->path()
                  << "\n";
    }

    const std::uint64_t violations = totalViolations(results);
    if (violations > 0) {
        std::cerr << "ERROR: " << violations
                  << " retention violation(s) across the sweep\n";
        return 1;
    }
    std::cerr << "sweep complete in " << fmtDouble(wallSeconds, 1)
              << "s, no retention violations" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
