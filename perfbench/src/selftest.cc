/**
 * @file
 * Self-tests of the benchmark's own machinery: span accounting,
 * sampled-span scaling, the host-speed probe, traced-vs-untraced
 * identity of each assembly against the library call it mirrors,
 * per-workload registry deltas and the strict command line. Exits
 * non-zero on the first failure.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "assembly.hh"
#include "cli.hh"
#include "host_speed.hh"
#include "sim/metrics.hh"
#include "spans.hh"

using namespace perfbench;
using namespace smartref;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

Span
span(const std::string &name, std::int64_t start, std::int64_t end,
     int parent, int track = 0, std::uint64_t weight = 1)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.track = track;
    s.weight = weight;
    return s;
}

void
spanAccounting()
{
    SpanLog log;
    const int root = log.add(span("root", 0, 1000, -1));
    const int run = log.add(span("sim.run", 100, 700, root));
    log.add(span("ctrl.access", 200, 205, run, 0, 64)); // 320 ns weighted
    log.add(span("ctrl.access", 300, 302, run, 0, 64)); // 128 ns weighted
    log.add(span("harness.build", 0, 100, root));
    log.add(span("ctrl.access", 150, 650, run, 1, 64)); // another track
    expect(log.validate().empty(), "well-formed log validates");
    expect(log.selfNs(static_cast<std::size_t>(run)) == 600 - 320 - 128,
           "self time subtracts weighted same-track children only");
    expect(log.selfNs(static_cast<std::size_t>(root)) == 1000 - 600 - 100,
           "root self time");
    expect(log.trackSelfNs(root) == 1000, "self times sum to the root's wall");

    SpanLog outside;
    const int p = outside.add(span("parent", 0, 100, -1));
    outside.add(span("child", 50, 150, p));
    expect(!outside.validate().empty(), "child outside its parent is caught");

    SpanLog overlap;
    const int q = overlap.add(span("parent", 0, 100, -1));
    overlap.add(span("a", 10, 60, q));
    overlap.add(span("b", 50, 90, q));
    expect(!overlap.validate().empty(), "overlapping siblings are caught");

    SpanLog live;
    {
        ScopedSpan outer(&live, "outer");
        {
            ScopedSpan inner(&live, "inner");
        }
        ScopedSpan second(&live, "second");
    }
    expect(live.validate().empty() && live.spans().size() == 3 &&
               live.spans()[1].parent == 0 && live.spans()[2].parent == 0,
           "scoped spans nest under the innermost open span");
    expect(live.trackSelfNs(0) == live.spans()[0].duration(),
           "recorded self times sum to the traced wall");
}

/** A clock advanced only by the synthetic sink below. */
std::int64_t fakeNow = 0;
std::int64_t
fakeClock()
{
    return fakeNow;
}

void
sampledScaling()
{
    // Per-call cost varies with a period (97) prime to the sampling
    // period, like a sink whose cost depends on the address stream.
    int parent = 0;
    SinkSampler<std::int64_t (*)()> varied("sink", 0, 0, &parent, &fakeClock);
    std::int64_t truth = 0;
    const std::uint64_t calls = 640000;
    for (std::uint64_t i = 0; i < calls; ++i) {
        const std::int64_t cost = 100 + static_cast<std::int64_t>(i * 7919 % 97);
        varied.call([&] { fakeNow += cost; });
        truth += cost;
    }
    const double err = std::abs(varied.estimatedNs() - double(truth)) / double(truth);
    expect(varied.calls() == calls, "sampler counts every call");
    expect(varied.sampled().size() == calls / kSampleEvery,
           "sampler times 1 in kSampleEvery calls");
    expect(err < 0.01, "scaled sampled time estimates the total within 1% (" +
                           std::to_string(err * 100) + "%)");

    SinkSampler<std::int64_t (*)()> constant("sink", 0, 0, &parent, &fakeClock);
    for (std::uint64_t i = 0; i < 1000; ++i)
        constant.call([&] { fakeNow += 50; });
    expect(constant.estimatedNs() == 50.0 * 1000,
           "constant-cost sink is estimated exactly");
}

void
identity(const std::string &what, RunSpec spec)
{
    const std::string lib = resultJson(runLibrary(spec), true);
    const std::string plain = resultJson(runAssembled(spec, nullptr, 0).result, true);
    SpanLog log;
    AssembledRun traced;
    {
        ScopedSpan root(&log, "root");
        traced = runAssembled(spec, &log, 0);
    }
    expect(plain == lib, what + ": untraced assembly equals the library call");
    expect(resultJson(traced.result, true) == lib,
           what + ": traced assembly equals the library call");
    expect(traced.counts.ledgerConserved, what + ": ledger conserved");
    const std::uint64_t delivered =
        traced.counts.ctrlAccessCalls + traced.counts.cacheAccessCalls;
    expect(delivered > 0 && delivered <= traced.counts.accessesGenerated,
           what + ": sinks saw the generated accesses, bar those in flight");
    expect(log.validate().empty(), what + ": traced spans are well formed");
}

RunSpec
shortSpec(const std::string &profile, const DramConfig &dram, PolicyKind p,
          bool threeD, unsigned shardJobs)
{
    RunSpec s;
    s.label = "selftest";
    s.profile = profile;
    s.dram = dram;
    s.policy = p;
    s.threeD = threeD;
    s.opts.warmup = 2 * kMillisecond;
    s.opts.measure = 4 * kMillisecond;
    s.opts.seed = 7;
    s.opts.shardJobs = shardJobs;
    return s;
}

void
assemblies()
{
    identity("1-channel sharded",
             shortSpec("gcc", ddr2_2GB(), PolicyKind::Smart, false, 1));
    DramConfig sixteen = ddr2_2GB();
    sixteen.channels = 16;
    identity("16-channel sharded",
             shortSpec("mummer", sixteen, PolicyKind::Smart, false, 4));
    identity("3D", shortSpec("mummer", dram3d_64MB(), PolicyKind::Smart,
                             true, 1));
}

void
registryDeltas()
{
    DramConfig four = ddr2_2GB();
    four.channels = 4;
    const RunSpec spec =
        shortSpec("radix", four, PolicyKind::Cbr, false, 2);
    MetricCounter &epochs = globalMetrics().counter("sharded.epochs");
    MetricCounter &busy = globalMetrics().counter("thread_pool.busy_ns");
    std::uint64_t deltas[2] = {};
    for (auto &d : deltas) {
        const std::uint64_t e0 = epochs.value();
        runAssembled(spec, nullptr, 0);
        d = epochs.value() - e0;
    }
    // 2 ms warmup + 4 ms measurement in 4 ms epochs: one slice each.
    expect(deltas[0] == 2 && deltas[1] == 2,
           "epoch count is a per-run delta of the process-wide registry");
    const std::uint64_t b0 = busy.value();
    runAssembled(shortSpec("radix", ddr2_2GB(), PolicyKind::Cbr, false, 1),
                 nullptr, 0);
    expect(busy.value() == b0, "a serial run adds no pool busy time");
}

void
hostSpeedProbe()
{
    std::vector<std::uint32_t> a(kKernelTableEntries), b(kKernelTableEntries);
    const std::uint64_t first = referenceKernel(a.data());
    expect(referenceKernel(b.data()) == first &&
               referenceKernel(a.data()) != first,
           "the reference kernel is deterministic and updates its table");
    for (const unsigned threads : {1u, 4u}) {
        const double k = kernelSeconds(threads);
        expect(std::isfinite(k) && k > 0.0 && k < 1.0,
               "kernelSeconds(" + std::to_string(threads) +
                   ") is a positive time");
        SpeedProbe probe(threads);
        const std::size_t unit0 = probe.endUnit();
        const std::size_t unit1 = probe.endUnit();
        const double scale = probe.scale(unit1);
        expect(unit0 == 0 && unit1 == 1 && std::isfinite(scale) &&
                   scale > 0.0,
               "units get ids in order and a positive scale on " +
                   std::to_string(threads) + " thread(s)");
    }
}

void
commandLine()
{
    const auto error = [](const std::vector<std::string> &args) {
        try {
            parseArgs(args);
        } catch (const UsageError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    expect(error({"--workload", "conv-2gb", "--sed", "7"})
                   .find("did you mean '--seed'") != std::string::npos,
           "a mistyped flag is fatal with a suggestion");
    expect(error({"--workload", "conv2gb"}).find("conv-2gb") !=
               std::string::npos,
           "a mistyped workload is fatal with a suggestion");
    expect(!error({"--workload", "conv-2gb", "--seconds", "10s"}).empty(),
           "a malformed number is fatal");
    expect(!error({"--workload", "conv-2gb", "--trace", "2"}).empty(),
           "--trace takes 0 or 1");
    expect(!error({"--seed", "3"}).empty(), "--workload is required");
    const Options o = parseArgs({"--workload=server-512gb", "--seed", "9",
                                 "--seconds", "3", "--trace", "1"});
    expect(o.workload == "server-512gb" && o.seed == 9 && o.seconds == 3 &&
               o.trace,
           "well-formed flags parse");
}

} // namespace

int
main()
{
    spanAccounting();
    sampledScaling();
    hostSpeedProbe();
    commandLine();
    registryDeltas();
    assemblies();
    std::cout << (failures ? "self-test FAILED" : "self-test passed") << "\n";
    return failures ? 1 : 0;
}
