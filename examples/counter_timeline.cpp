/**
 * @file
 * Reproduces the paper's Figures 2 and 3 as ASCII timelines: why naive
 * simultaneous countdown degenerates into burst refresh, why staggered
 * *initialisation* alone is not enough, and how the segmented staggered
 * walk keeps the refresh stream uniform.
 */

#include <iomanip>
#include <iostream>
#include <vector>

#include "core/counter_array.hh"
#include "core/stagger_scheduler.hh"
#include "harness/cli.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {"counter_timeline", {},
                       {{"bits", "B", "counter width", "2"},
                        {"rows", "N", "rows in the toy bank", "16"},
                        {"segments", "N", "divides --rows", "4"}}};

void
printRow(const std::string &label, const std::vector<int> &values,
         int refreshes)
{
    std::cout << std::left << std::setw(10) << label << " |";
    for (int v : values) {
        if (v < 0)
            std::cout << " *"; // refreshed this step
        else
            std::cout << " " << v;
    }
    std::cout << " |  refreshes this step: " << refreshes << "\n";
}

/** Figure 2(a): all counters decremented together. */
void
simultaneousCountdown(std::uint32_t bits, std::uint32_t rows)
{
    std::cout << "\n--- Figure 2(a): simultaneous countdown (" << int(bits)
              << "-bit, " << rows << " rows) ---\n"
              << "every counter hits zero together: a burst of " << rows
              << " refreshes\n\n";
    const int maxVal = (1 << bits) - 1;
    std::vector<int> counters(rows, maxVal);
    for (int step = 0; step <= maxVal + 1; ++step) {
        int refreshes = 0;
        std::vector<int> display = counters;
        printRow("t=" + std::to_string(step) + "/4", display, refreshes);
        for (auto &c : counters) {
            if (c == 0) {
                c = maxVal;
                ++refreshes;
            } else {
                --c;
            }
        }
        if (refreshes > 0) {
            std::cout << "          ^ all " << refreshes
                      << " rows need refresh at once (burst!)\n";
        }
    }
}

/** Figure 3: the segmented staggered walk. */
void
segmentedWalk(std::uint32_t bits, std::uint32_t rows,
              std::uint32_t segments)
{
    std::cout << "\n--- Figure 3: segmented staggered walk (" << int(bits)
              << "-bit, " << rows << " rows, " << segments
              << " segments) ---\n"
              << "each step touches one counter per segment; at most "
              << segments << " refreshes can coincide\n\n";

    CounterArray counters(rows, bits);
    StaggerScheduler stagger(counters, segments, 64 * kMillisecond);
    stagger.initialiseStaggered();

    const std::uint64_t stepsPerPeriod = stagger.countersPerSegment();
    std::uint64_t totalRefreshes = 0;
    std::uint32_t maxPerStep = 0;

    for (std::uint64_t period = 0; period < (1u << bits); ++period) {
        for (std::uint64_t k = 0; k < stepsPerPeriod; ++k) {
            std::vector<int> display(rows);
            for (std::uint64_t i = 0; i < rows; ++i)
                display[i] = counters.peek(i);
            std::uint32_t refreshes = 0;
            std::vector<std::uint64_t> refreshed;
            stagger.step([&](std::uint64_t idx) {
                ++refreshes;
                refreshed.push_back(idx);
            });
            for (std::uint64_t idx : refreshed)
                display[idx] = -1;
            totalRefreshes += refreshes;
            maxPerStep = std::max(maxPerStep, refreshes);
            printRow("p" + std::to_string(period) + "s" +
                         std::to_string(k),
                     display, static_cast<int>(refreshes));
        }
    }
    std::cout << "\nover one retention interval: " << totalRefreshes
              << " refreshes (= " << rows
              << " rows), worst step issued " << maxPerStep
              << " <= " << segments << " (the pending-queue bound)\n";
}

int
run(const CliArgs &args)
{
    const auto bits = static_cast<std::uint32_t>(args.getU64("bits"));
    const auto rows = static_cast<std::uint32_t>(args.getU64("rows"));
    const auto segments =
        static_cast<std::uint32_t>(args.getU64("segments"));

    if (rows % segments != 0) {
        std::cerr << "rows must divide evenly into segments\n";
        return 1;
    }

    std::cout << "Smart Refresh countdown staggering (paper Section 4.2)\n"
              << "counter access period = retention / 2^bits; a counter\n"
              << "showing '*' was reset to max and its row refreshed.\n";

    simultaneousCountdown(bits, rows);
    segmentedWalk(bits, rows, segments);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
