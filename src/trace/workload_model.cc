#include "trace/workload_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace smartref {

WorkloadModel::WorkloadModel(const WorkloadParams &params,
                             std::uint64_t rowBytes, Sink sink,
                             EventQueue &eq, StatGroup *parent)
    : StatGroup("workload." + params.name, parent),
      params_(params),
      rowBytes_(rowBytes),
      sink_(std::move(sink)),
      eq_(eq),
      rng_(params.seed),
      zipf_(std::max<std::uint64_t>(params.footprintRows, 1),
            params.zipfAlpha),
      visits_(this, "rowVisits", "row visits initiated"),
      accesses_(this, "accesses", "memory accesses issued"),
      jumps_(this, "randomJumps", "visits that jumped (vs swept)")
{
    SMARTREF_ASSERT(params.rowVisitsPerSecond > 0.0,
                    "visit rate must be positive");
    SMARTREF_ASSERT(params.footprintRows > 0, "empty footprint");
    SMARTREF_ASSERT(params.accessesPerVisit >= 1, "empty visits");
    SMARTREF_ASSERT(rowBytes_ > 0, "zero row span");
    meanInterArrival_ = static_cast<Tick>(
        static_cast<double>(kSecond) / params.rowVisitsPerSecond);
    SMARTREF_ASSERT(meanInterArrival_ > 0, "visit rate too high");
}

void
WorkloadModel::start()
{
    running_ = true;
    // Desynchronise workloads sharing a queue by a small random phase.
    eq_.scheduleAfter(params_.startAfter +
                          rng_.nextBelow(meanInterArrival_) + 1,
                      [this] { visit(); }, EventPriority::Default,
                      EventKind::Workload);
}

void
WorkloadModel::scheduleNextVisit()
{
    const double jitter = params_.interArrivalJitter;
    const double mean = static_cast<double>(meanInterArrival_);
    double dt = (1.0 - jitter) * mean;
    if (jitter > 0.0)
        dt += rng_.nextExponential(mean * jitter);
    eq_.scheduleAfter(std::max<Tick>(1, static_cast<Tick>(dt)),
                      [this] { visit(); }, EventPriority::Default,
                      EventKind::Workload);
}

std::uint64_t
WorkloadModel::pickRow()
{
    if (rng_.nextBool(params_.randomJumpProb)) {
        ++jumps_;
        return zipf_.sample(rng_);
    }
    const std::uint64_t row = scanPos_;
    scanPos_ = (scanPos_ + 1) % params_.footprintRows;
    return row;
}

Addr
WorkloadModel::rowToAddr(std::uint64_t footprintRow,
                         std::uint32_t column) const
{
    const std::uint64_t physicalRow =
        footprintRow * params_.rowStride + params_.rowOffset;
    return physicalRow * rowBytes_ +
           (column * 64ull) % rowBytes_; // 64 B line-grain columns
}

void
WorkloadModel::visit()
{
    if (!running_ || eq_.now() >= params_.stopAfter)
        return;
    ++visits_;

    const std::uint64_t row = pickRow();
    const std::uint32_t startCol =
        static_cast<std::uint32_t>(rng_.nextBelow(rowBytes_ / 64));
    // Issue the open-page run back-to-back, 45 ns apart (a row hit every
    // few controller cycles, comfortably above the burst time). Access i
    // lands at now + i * 45 ns; accesses that would land at or past
    // stopAfter are clamped off here so the accesses stat is exact at
    // the boundary instead of counting events that never fire.
    constexpr Tick kAccessSpacing = 45 * kNanosecond;
    const Tick headroom = params_.stopAfter - eq_.now();
    const std::uint64_t fitting = (headroom - 1) / kAccessSpacing + 1;
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(params_.accessesPerVisit, fitting));

    if (count <= 65) {
        // Common case: the whole deferred train rides on one burst event
        // (one heap node, one callback slot) instead of count - 1
        // individually scheduled events. The write decisions are drawn
        // up front in the same RNG order as the per-event loop below
        // and packed into a bitmask; scheduleBurst reserves the same
        // contiguous sequence numbers the loop would have consumed, so
        // event interleaving is unchanged.
        const bool firstWrite = !rng_.nextBool(params_.readFraction);
        std::uint64_t writeMask = 0;
        for (std::uint32_t i = 1; i < count; ++i)
            if (!rng_.nextBool(params_.readFraction))
                writeMask |= std::uint64_t(1) << (i - 1);
        accesses_ += static_cast<double>(count);
        sink_(rowToAddr(row, startCol), firstWrite);
        if (count > 1) {
            eq_.scheduleBurst(
                eq_.now() + kAccessSpacing, kAccessSpacing, count - 1,
                [this, row, startCol, writeMask,
                 i = std::uint32_t(1)]() mutable {
                if (running_)
                    sink_(rowToAddr(row, startCol + i),
                          (writeMask >> (i - 1)) & 1);
                ++i;
            }, EventPriority::Default, EventKind::Workload);
        }
    } else {
        // Oversized visit (> 64 deferred accesses): fall back to one
        // event per access, which has no bitmask width limit.
        for (std::uint32_t i = 0; i < count; ++i) {
            const bool write = !rng_.nextBool(params_.readFraction);
            const Addr addr = rowToAddr(row, startCol + i);
            ++accesses_;
            if (i == 0) {
                sink_(addr, write);
            } else {
                eq_.scheduleAfter(Tick(i) * kAccessSpacing,
                                  [this, addr, write] {
                    if (running_)
                        sink_(addr, write);
                }, EventPriority::Default, EventKind::Workload);
            }
        }
    }
    scheduleNextVisit();
}

} // namespace smartref
