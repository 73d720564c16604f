/**
 * @file
 * smartref_perfbench: the repository benchmark. See
 * perfbench/README.md; perfbench/run.py builds it and runs it.
 *
 * Prints diagnostics on stderr, one provenance line and, as the last
 * line of stdout, the result object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
 */

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "cli.hh"
#include "sim/provenance.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct MetricUnit
{
    const char *name;
    const char *unit;
};

/** Reported metrics and their units, in output order. */
const std::vector<MetricUnit> kEndToEnd = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"pass_frac", "ratio"},
    {"refresh_reduction_pct", "%"},
    {"refresh_energy_saving_pct", "%"},
    {"total_energy_saving_pct", "%"},
    {"demand_latency_ns", "ns"},
};

const std::vector<MetricUnit> kPerLayer = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.pool.busy_s", "s"},
    {"sim.pool.idle_frac", "ratio"},
    {"trace.accesses", "count"},
    {"trace.gen_s", "s"},
    {"ctrl.access_calls", "count"},
    {"ctrl.access_s", "s"},
    {"ctrl.refreshes", "count"},
    {"ctrl.max_backlog", "count"},
    {"core.walk_steps", "count"},
    {"core.counter_reads", "count"},
    {"core.counter_writes", "count"},
    {"core.skip_ratio", "ratio"},
    {"core.walk_touch_ns", "ns"},
    {"core.counter_mb", "MiB"},
    {"dram.commands", "count"},
    {"dram.violations", "count"},
    {"dram.finish_s", "s"},
    {"cache.access_calls", "count"},
    {"cache.access_s", "s"},
    {"cache.hit_ratio", "ratio"},
    {"harness.build_s", "s"},
    {"harness.shard.epochs", "count"},
    {"harness.shard.merge_s", "s"},
    {"harness.sweep.job_s_p50", "s"},
    {"harness.sweep.job_s_max", "s"},
    {"harness.report.write_s", "s"},
    {"harness.cache.stores", "count"},
    {"harness.cache.replay_s", "s"},
    {"harness.cache.hit_ratio", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.host_speed", "ratio"},
};

/**
 * Why timings from this build must not be reported, or "" when they
 * may: only optimised builds without sanitizers measure what users run.
 */
std::string
buildGuard()
{
#if !defined(__OPTIMIZE__)
    return "the benchmark was compiled without optimisation";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "the benchmark was compiled with a sanitizer";
#endif
    const smartref::BuildInfo &b = smartref::buildInfo();
    if (b.buildType != "Release" && b.buildType != "RelWithDebInfo")
        return "the simulator was built as '" + b.buildType +
               "'; timings need Release or RelWithDebInfo";
    if (b.compilerFlags.find("-fsanitize") != std::string::npos ||
        b.compilerFlags.find("-O0") != std::string::npos)
        return "the simulator was built with '" + b.compilerFlags + "'";
    return "";
}

std::string
number(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
provenanceLine(const Options &o, const WorkloadDef &w)
{
    const smartref::BuildInfo &b = smartref::buildInfo();
    std::ostringstream os;
    os << "{\"provenance\":{\"gitSha\":" << quoted(b.gitSha)
       << ",\"compiler\":" << quoted(b.compiler)
       << ",\"buildType\":" << quoted(b.buildType)
       << ",\"compilerFlags\":" << quoted(b.compilerFlags)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"workers\":" << workerThreads(w)
       << ",\"workload\":" << quoted(w.name) << ",\"seed\":" << o.seed
       << ",\"windows\":" << quoted(windowsText(w))
       << ",\"seconds\":" << o.seconds
       << ",\"trace\":" << (o.trace ? 1 : 0) << "}}";
    return os.str();
}

int
run(const Options &o)
{
    if (!o.writeReference.empty()) {
        const std::string json = referenceJson(o.seed);
        std::ofstream out(o.writeReference);
        out << json;
        if (!out) {
            std::cerr << "smartref_perfbench: cannot write '"
                      << o.writeReference << "'\n";
            return 1;
        }
        return 0;
    }

    const WorkloadDef w = defineWorkload(o.workload, o.seed);
    Reference ref;
    const Reference *refp = nullptr;
    if (o.seed == kDefaultSeed) {
        ref = loadReference(kReferencePath);
        if (ref.empty()) {
            std::cerr << "smartref_perfbench: no reference results in '"
                      << kReferencePath << "'\n";
            return 1;
        }
        refp = &ref;
    }
    std::filesystem::create_directories(o.scratchDir);
    const std::string spanOut =
        o.spanOut.empty() ? o.scratchDir + "/" + o.workload + ".trace.json"
                          : o.spanOut;

    Report rep = o.trace ? trace(w, refp, o.scratchDir, spanOut)
                         : measure(w, o.seconds, refp, o.scratchDir);

    const auto &table = o.trace ? kPerLayer : kEndToEnd;
    std::ostringstream metrics;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto it = rep.metrics.find(table[i].name);
        if (it == rep.metrics.end() || !std::isfinite(it->second)) {
            std::cerr << "smartref_perfbench: metric " << table[i].name
                      << " was not measured\n";
            return 1;
        }
        metrics << (i ? "," : "") << quoted(table[i].name)
                << ":{\"value\":" << number(it->second)
                << ",\"unit\":" << quoted(table[i].unit) << "}";
    }
    for (const auto &f : rep.failures)
        std::cerr << "FAILED " << f << "\n";

    std::cout << provenanceLine(o, w) << "\n";
    std::cout << "{\"correct\":" << (rep.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << rep.attempted
              << ",\"failed\":" << rep.failed << ",\"metrics\":{"
              << metrics.str() << "}}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parseArgs(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const UsageError &e) {
        std::cerr << "smartref_perfbench: " << e.what() << "\n"
                  << usageText();
        return 2;
    }
    if (o.help) {
        std::cout << usageText();
        return 0;
    }
    const std::string guard = buildGuard();
    if (!guard.empty()) {
        std::cerr << "smartref_perfbench: refusing to report timings: "
                  << guard << "\n";
        return 3;
    }
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "smartref_perfbench: " << e.what() << "\n";
        return 1;
    }
}
