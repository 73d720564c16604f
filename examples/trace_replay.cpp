/**
 * @file
 * Standalone trace-driven mode, mirroring DRAMsim's trace frontend:
 * record a workload's DRAM access stream to a file, then replay the
 * identical stream under the CBR baseline and under Smart Refresh.
 * With neither --out (record only) nor --in (replay only) it records
 * to a temp file, then replays it.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/system.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/trace.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {"trace_replay", {},
                       {{"benchmark", "NAME", "profile to record", "mummer"},
                        {"seconds-ms", "N", "recorded window, ms", "64"},
                        {"binary", "", "binary trace format"},
                        {"in", "FILE", "replay this trace only"},
                        {"out", "FILE", "record to FILE only"}}};

/** Capture a workload's access stream into a trace file. */
std::uint64_t
record(const std::string &path, const std::string &benchmark, Tick length,
       TraceFormat format)
{
    EventQueue eq;
    StatGroup root("recorder");
    TraceWriter writer(path, format);
    const DramConfig dram = ddr2_2GB();
    auto sink = [&](Addr addr, bool write) {
        writer.append({eq.now(), addr, write});
    };
    const auto params = conventionalParams(findProfile(benchmark), dram);
    std::vector<std::unique_ptr<WorkloadModel>> models;
    for (const auto &wp : params) {
        models.push_back(std::make_unique<WorkloadModel>(
            wp, dram.org.rowBytes(), sink, eq, &root));
        models.back()->start();
    }
    eq.runUntil(length);
    writer.close();
    return writer.recordsWritten();
}

/** Replay a trace through a system with the given refresh policy. */
EnergySnapshot
replay(const std::string &path, PolicyKind policy)
{
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = policy;
    System sys(cfg);

    TraceReader reader(path);
    TraceRecord rec;
    Tick last = 0;
    std::uint64_t replayed = 0;
    while (reader.next(rec)) {
        // Drive the event queue up to each record's timestamp, then
        // inject the access — an open-loop replay like DRAMsim's.
        if (rec.tick > last) {
            sys.run(rec.tick - last);
            last = rec.tick;
        }
        sys.controller().access(rec.addr, rec.write);
        ++replayed;
    }
    // Drain the tail plus one full interval of refresh activity.
    sys.run(cfg.dram.timing.retention);
    EnergySnapshot snap = captureSnapshot(sys);
    snap.violations += sys.dram().retention().finalCheck(
        sys.eventQueue().now());
    std::cerr << "  replayed " << replayed << " accesses under "
              << toString(policy) << "\n";
    return snap;
}

int
run(const CliArgs &args)
{
    const std::string benchmark = args.getString("benchmark");
    const Tick length = args.getU64("seconds-ms") * kMillisecond;
    const TraceFormat format =
        args.has("binary") ? TraceFormat::Binary : TraceFormat::Text;

    std::string path = args.getString("in");
    const bool haveInput = !path.empty();
    if (!haveInput) {
        path = args.getString("out");
        if (path.empty())
            path = "/tmp/smartref_demo_trace.trc";
        std::cout << "recording " << benchmark << " to " << path << " ("
                  << length / kMillisecond << " ms)...\n";
        const std::uint64_t n = record(path, benchmark, length, format);
        std::cout << "  " << n << " records written\n";
        if (args.has("out"))
            return 0; // record-only mode
    }

    std::cout << "replaying " << path << " under both policies...\n";
    const EnergySnapshot cbr = replay(path, PolicyKind::Cbr);
    const EnergySnapshot smart = replay(path, PolicyKind::Smart);

    ReportTable table({"metric", "CBR", "Smart", "delta"});
    table.addRow({"refreshes", std::to_string(cbr.refreshes),
                  std::to_string(smart.refreshes),
                  fmtPercent(1.0 - static_cast<double>(smart.refreshes) /
                                       static_cast<double>(cbr.refreshes)) +
                      " fewer"});
    table.addRow({"refresh+overhead energy (mJ)",
                  fmtDouble((cbr.refreshEnergy + cbr.overheadEnergy) * 1e3),
                  fmtDouble((smart.refreshEnergy + smart.overheadEnergy) *
                            1e3),
                  ""});
    table.addRow({"total energy (mJ)", fmtDouble(cbr.totalEnergy() * 1e3),
                  fmtDouble(smart.totalEnergy() * 1e3),
                  fmtPercent(1.0 - smart.totalEnergy() /
                                       cbr.totalEnergy()) +
                      " saved"});
    table.addRow({"violations", std::to_string(cbr.violations),
                  std::to_string(smart.violations), "(must be 0)"});
    std::cout << '\n';
    table.print(std::cout);

    if (!haveInput && !args.has("out"))
        std::remove(path.c_str());
    return (cbr.violations || smart.violations) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
