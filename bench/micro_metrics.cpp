/**
 * @file
 * Microbenchmark for the metrics registry: quantifies
 * what counter adds, histogram observes and the SMARTREF_METRIC_*
 * macro sites cost, and — the number the CI gate cares about — how
 * much instrumenting the sweep stack slows a real smoke sweep.
 *
 * Measured shapes:
 *
 *  - counter_add: MetricCounter::add through a cached handle (the
 *    steady state every macro site reaches after its first hit),
 *  - histogram_observe: MetricHistogram::observe (two relaxed RMWs
 *    plus the min/max CAS loops),
 *  - macro_site_enabled: SMARTREF_METRIC_INC with metrics enabled,
 *  - macro_site_disabled: the same site behind the runtime kill
 *    switch,
 *  - end_to_end: a tiny in-process sweep with metrics enabled vs
 *    disabled; overhead_ratio is the headline the 3% CI gate reads.
 *
 * Plain chrono timing, one machine-readable JSON file:
 *
 *     micro_metrics [BENCH_metrics.json]
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "harness/sweep.hh"
#include "sim/metrics.hh"

using namespace smartref;

namespace {

volatile std::uint64_t g_sink = 0;

double
counterAddPerSec(std::uint64_t ops)
{
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("bench.adds");
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        c.add();
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + c.value();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(ops) / secs;
}

double
histogramObservePerSec(std::uint64_t ops)
{
    MetricsRegistry reg;
    MetricHistogram &h = reg.histogram("bench.obs");
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        h.observe(i);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + h.count();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(ops) / secs;
}

double
macroSitePerSec(std::uint64_t ops)
{
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        SMARTREF_METRIC_INC("bench.macro_site");
        // Keep the loop body observable so a disabled site can't fold
        // into nothing alongside an empty loop.
        acc += i & 1;
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + acc;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(ops) / secs;
}

/** Wall seconds for one tiny in-process sweep. */
double
sweepWallSecs(bool metricsOn)
{
    SweepGrid grid;
    grid.name = "bench";
    grid.configs = {"2gb"};
    grid.benchmarks = {"mummer", "gcc"};
    grid.policies = {"smart"};
    grid.counterBits = {3};
    grid.retentionMs = {0};
    SweepRunOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 8 * kMillisecond;
    opts.jobs = 2;

    setMetricsEnabled(metricsOn);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = runSweep(grid, opts);
    const auto t1 = std::chrono::steady_clock::now();
    setMetricsEnabled(true);
    g_sink = g_sink + results.size();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best of three, so one scheduler hiccup can't skew a CI gate. */
double
bestOf3(const std::function<double()> &f)
{
    double best = 0.0;
    for (int i = 0; i < 3; ++i)
        best = std::max(best, f());
    return best;
}

/** Best (lowest) of five for the gated wall times. */
double
minOf5(const std::function<double()> &f)
{
    double best = 1e300;
    for (int i = 0; i < 5; ++i)
        best = std::min(best, f());
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out = argc > 1 ? argv[1] : "BENCH_metrics.json";

    constexpr std::uint64_t kCounterOps = 50000000;
    constexpr std::uint64_t kObserveOps = 20000000;
    constexpr std::uint64_t kSiteOps = 50000000;

    const double counterAdd =
        bestOf3([] { return counterAddPerSec(kCounterOps); });
    const double histObserve =
        bestOf3([] { return histogramObservePerSec(kObserveOps); });
    const double siteEnabled =
        bestOf3([] { return macroSitePerSec(kSiteOps); });
    setMetricsEnabled(false);
    const double siteDisabled =
        bestOf3([] { return macroSitePerSec(kSiteOps); });
    setMetricsEnabled(true);

    const double offWall = minOf5([] { return sweepWallSecs(false); });
    const double onWall = minOf5([] { return sweepWallSecs(true); });
    const double overheadRatio = onWall / offWall;

    std::ofstream os(out);
    os.precision(6);
    os << "{\n"
       << "  \"bench\": \"metrics\",\n"
       << "  \"meta\": " << bench::benchMetaJson("metrics") << ",\n"
       << "  \"registry\": {\n"
       << "    \"counter_add_per_sec\": " << counterAdd << ",\n"
       << "    \"histogram_observe_per_sec\": " << histObserve << "\n"
       << "  },\n"
       << "  \"macro_site\": {\n"
       << "    \"enabled_per_sec\": " << siteEnabled << ",\n"
       << "    \"disabled_per_sec\": " << siteDisabled << "\n"
       << "  },\n"
       << "  \"end_to_end\": {\n"
       << "    \"metrics_off_wall_s\": " << offWall << ",\n"
       << "    \"metrics_on_wall_s\": " << onWall << ",\n"
       << "    \"overhead_ratio\": " << overheadRatio << "\n"
       << "  }\n"
       << "}\n";

    std::cout << "counter add/sec " << counterAdd << "\n"
              << "histogram observe/sec " << histObserve << "\n"
              << "macro site ops/sec enabled " << siteEnabled
              << "  disabled " << siteDisabled << "\n"
              << "end-to-end sweep wall off " << offWall << " s  on "
              << onWall << " s  ratio " << overheadRatio << "\n"
              << "wrote " << out << "\n";
    return 0;
}
