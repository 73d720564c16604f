#include "cpu/simple_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace smartref {

SimpleCore::SimpleCore(const CoreParams &params,
                       const WorkloadParams &pattern,
                       std::uint64_t rowBytes, MemPort port,
                       EventQueue &eq, StatGroup *parent)
    : StatGroup("cpu." + params.name, parent),
      params_(params),
      pattern_(pattern, rowBytes),
      port_(std::move(port)),
      eq_(eq),
      instructions_(this, "instructions", "instructions retired"),
      accesses_(this, "memAccesses", "memory accesses issued"),
      loads_(this, "loads", "blocking loads"),
      stores_(this, "stores", "posted stores"),
      stallTicks_(this, "stallTicks", "time stalled on loads (ticks)")
{
    SMARTREF_ASSERT(params.frequencyGHz > 0.0 && params.baseIpc > 0.0,
                    "core must make progress");
    SMARTREF_ASSERT(params.accessesPerKiloInstr > 0.0,
                    "core must access memory");
    instrsPerQuantum_ = 1000.0 / params.accessesPerKiloInstr;
    // Time to retire one quantum of instructions at the base IPC:
    // instrs / (IPC * freq[GHz]) nanoseconds.
    const double ns =
        instrsPerQuantum_ / (params.baseIpc * params.frequencyGHz);
    computeGap_ = std::max<Tick>(
        1, static_cast<Tick>(ns * static_cast<double>(kNanosecond)));
}

void
SimpleCore::start()
{
    running_ = true;
    startedAt_ = eq_.now();
    eq_.scheduleAfter(computeGap_, [this] { executeQuantum(); },
                      EventPriority::Default, EventKind::Cpu);
}

double
SimpleCore::effectiveIpc(Tick now) const
{
    const double cycles = static_cast<double>(now - startedAt_) /
                          static_cast<double>(kNanosecond) *
                          params_.frequencyGHz;
    return cycles > 0.0 ? instructions_.value() / cycles : 0.0;
}

void
SimpleCore::executeQuantum()
{
    if (!running_)
        return;
    instructions_ += instrsPerQuantum_;

    const AddressPattern::Access access = pattern_.next();
    ++accesses_;
    if (access.write) {
        // Stores post into an ideal store buffer: no stall.
        ++stores_;
        port_(access.addr, true, [](Tick) {});
        eq_.scheduleAfter(computeGap_, [this] { executeQuantum(); },
                          EventPriority::Default, EventKind::Cpu);
        return;
    }

    ++loads_;
    const Tick issued = eq_.now();
    port_(access.addr, false, [this, issued](Tick done) {
        stallTicks_ += static_cast<double>(done - issued);
        // Resume computing after the data arrives.
        const Tick resumeAt = std::max(done, eq_.now());
        eq_.schedule(resumeAt + computeGap_,
                     [this] { executeQuantum(); }, EventPriority::Default,
                     EventKind::Cpu);
    });
}

} // namespace smartref
