#include "host_speed.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <latch>
#include <queue>
#include <thread>
#include <vector>

#include "spans.hh"

namespace perfbench {

namespace {

/** Event-heap pops, each followed by a push, in one kernel run. */
constexpr int kKernelSteps = 24000;

/** Keeps the kernel's checksums live, so the optimiser cannot drop it. */
std::atomic<std::uint64_t> kernelSink{0};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median seconds of kProbeRepeats kernel runs on this thread. */
double
probeThisThread(std::uint32_t *table)
{
    std::vector<double> t(kProbeRepeats);
    for (double &s : t) {
        const std::int64_t t0 = nowNs();
        kernelSink.fetch_add(referenceKernel(table),
                             std::memory_order_relaxed);
        s = static_cast<double>(nowNs() - t0) * 1e-9;
    }
    return median(t);
}

} // namespace

std::uint64_t
referenceKernel(std::uint32_t *table)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        events;
    for (int i = 0; i < 256; ++i)
        events.push(next() & 0xffffff);
    std::uint64_t sum = 0;
    for (int i = 0; i < kKernelSteps; ++i) {
        const std::uint64_t e = events.top();
        events.pop();
        // The top 18 bits index the 2^18-entry table.
        std::uint32_t &slot = table[next() >> 46];
        if (slot & 1)
            slot += static_cast<std::uint32_t>(e);
        else
            slot ^= static_cast<std::uint32_t>(e >> 3);
        sum += slot;
        events.push(e + (x & 0xffff) + 1);
    }
    return sum;
}

double
kernelSeconds(unsigned threads)
{
    threads = std::max(1u, threads);
    std::vector<double> seconds(threads);
    const auto body = [&seconds](unsigned i, std::latch *start) {
        std::vector<std::uint32_t> table(kKernelTableEntries);
        if (start)
            start->arrive_and_wait();
        seconds[i] = probeThisThread(table.data());
    };
    if (threads == 1) {
        // On the calling thread, which runs the serial workloads.
        body(0, nullptr);
    } else {
        std::latch start(threads);
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back(body, i, &start);
        for (std::thread &t : pool)
            t.join();
    }
    return median(seconds);
}

SpeedProbe::SpeedProbe(unsigned threads)
    : threads_(threads), probes_{kernelSeconds(threads)}
{
}

std::size_t
SpeedProbe::endUnit()
{
    probes_.push_back(kernelSeconds(threads_));
    return probes_.size() - 2;
}

double
SpeedProbe::scale(std::size_t id) const
{
    return kNominalKernelSeconds /
           median({probes_.at(id), probes_.at(id + 1), median(probes_)});
}

} // namespace perfbench
