/**
 * @file
 * Host-speed reference for the benchmark's host-time metrics.
 *
 * The speed of a shared VM drifts: the same conv-2gb batch has taken
 * from 2.9 to 8.5 s on one 4-vCPU host, with CPU time tracking wall
 * time and steal time flat. The vCPUs run slower; they are not
 * descheduled. Medians within one run cannot remove a drift that lasts
 * longer than the run. So measure() times a fixed reference kernel
 * between units of work, on as many threads at once as the work uses,
 * and scales each unit's host times by
 *
 *     kNominalKernelSeconds / median(kernel time before the unit,
 *                                    kernel time after the unit,
 *                                    median kernel time of the run)
 *
 * That is the time the unit would take on a host where the kernel runs
 * at its nominal speed. The run's median is the tie-break: when the
 * probes on both sides of a unit agree, the scale follows them; when
 * one of them was disturbed, the run's median stands in. The kernel is
 * the benchmark's own code and calls nothing in the simulator, so a
 * change to the simulator moves the unit's time and leaves the scale
 * alone.
 *
 * The kernel mixes what the simulator's hot paths do: an event heap,
 * data-dependent branches, and read-modify-writes at hashed positions
 * of a 1 MiB table, which stays in a core's L2. Larger tables tracked
 * the simulator's slowdown worse, and so did a kernel sampled on
 * another thread while the work ran: the slowdown is per vCPU, so the
 * probes run where the work runs (the calling thread for serial work,
 * one thread per worker otherwise), between its units.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Nominal kernel time: about what a quiet 4-vCPU Xeon VM takes. */
constexpr double kNominalKernelSeconds = 1.0e-3;

/** Kernel runs per thread in one probe; the probe takes their median. */
constexpr unsigned kProbeRepeats = 5;

/**
 * Seconds one reference-kernel run takes now: the median of
 * kProbeRepeats runs on each of `threads` threads started together,
 * then the median over the threads.
 */
double kernelSeconds(unsigned threads);

/**
 * Probes the kernel between units of work. The probe after one unit is
 * the probe before the next, so n units in a row cost n + 1 probes.
 */
class SpeedProbe
{
  public:
    /** Probes once, as the "before" of the first unit. */
    explicit SpeedProbe(unsigned threads);

    /** Probes again; returns the id of the unit that ran since the last. */
    std::size_t endUnit();

    /** Scale of unit `id` (see the file comment); > 1 on a fast host. */
    double scale(std::size_t id) const;

  private:
    unsigned threads_;
    std::vector<double> probes_; ///< unit i ran between i and i + 1
};

/** One run of the reference kernel on this thread; returns a checksum. */
std::uint64_t referenceKernel(std::uint32_t *table);

/** Entries of the kernel's table (1 MiB of std::uint32_t). */
constexpr std::uint32_t kKernelTableEntries = 1u << 18;

} // namespace perfbench
