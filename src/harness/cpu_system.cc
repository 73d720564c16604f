#include "harness/cpu_system.hh"

#include "sim/logging.hh"

namespace smartref {

CpuSystem::CpuSystem(const CpuSystemConfig &cfg)
    : StatGroup("cpusystem"), cfg_(cfg)
{
    cfg_.dram.validate();
    dram_ = std::make_unique<DramModule>(cfg_.dram, eq_, this);
    ctrl_ = std::make_unique<MemoryController>(*dram_, eq_, cfg_.ctrl,
                                               this);

    switch (cfg_.policy) {
      case PolicyKind::Cbr:
        policy_ = std::make_unique<CbrRefreshPolicy>(eq_, this);
        break;
      case PolicyKind::Burst:
        policy_ = std::make_unique<BurstRefreshPolicy>(eq_, this);
        break;
      case PolicyKind::RasOnly:
        policy_ = std::make_unique<RasOnlyRefreshPolicy>(
            eq_, deriveBusParams(BusEnergyParams{}, cfg_.dram.org), this);
        break;
      case PolicyKind::PerBank:
        policy_ = std::make_unique<PerBankRefreshPolicy>(
            eq_, deriveBusParams(BusEnergyParams{}, cfg_.dram.org), this);
        break;
      case PolicyKind::Smart: {
        SmartRefreshConfig sc = cfg_.smart;
        sc.bus = deriveBusParams(sc.bus, cfg_.dram.org);
        if (!sc.retentionClasses)
            sc.retentionClasses = cfg_.retentionClasses;
        policy_ = std::make_unique<SmartRefreshPolicy>(cfg_.dram, sc, eq_,
                                                       this);
        break;
      }
      case PolicyKind::RetentionAware:
        SMARTREF_ASSERT(cfg_.retentionClasses != nullptr,
                        "RetentionAware policy needs retentionClasses");
        policy_ = std::make_unique<RetentionAwarePolicy>(
            eq_, cfg_.retentionClasses,
            deriveBusParams(BusEnergyParams{}, cfg_.dram.org), this);
        break;
    }
    if (cfg_.retentionClasses) {
        std::vector<std::uint8_t> m(cfg_.retentionClasses->totalRows());
        for (std::uint64_t i = 0; i < m.size(); ++i) {
            m[i] = static_cast<std::uint8_t>(
                cfg_.retentionClasses->multiplier(i));
        }
        dram_->retention().applyClassMultipliers(m);
    }
    ctrl_->setRefreshPolicy(policy_.get());

    hierarchy_ = std::make_unique<CmpHierarchy>(cfg_.numCores, cfg_.l1,
                                                cfg_.l2, this);
}

SimpleCore &
CpuSystem::addCore(const CoreParams &core, const WorkloadParams &pattern)
{
    SMARTREF_ASSERT(!started_, "cannot add cores after run()");
    SMARTREF_ASSERT(cores_.size() < cfg_.numCores,
                    "hierarchy sized for ", cfg_.numCores, " cores");
    const auto coreId = static_cast<std::uint32_t>(cores_.size());

    SimpleCore::MemPort port = [this, coreId](
                                   Addr addr, bool write,
                                   std::function<void(Tick)> done) {
        const HierarchyResult r = hierarchy_->access(coreId, addr, write);
        if (r.hitLevel > 0) {
            done(eq_.now() + r.cacheLatency);
            return;
        }
        // Miss: the demand fill gates the load; writebacks are posted.
        const Tick issueAt = eq_.now() + r.cacheLatency;
        for (std::size_t i = 1; i < r.memOps.size(); ++i) {
            const auto op = r.memOps[i];
            eq_.schedule(issueAt, [this, op] {
                ctrl_->access(op.addr, op.write);
            }, EventPriority::Default, EventKind::Cpu);
        }
        const Addr demandAddr = r.memOps.front().addr;
        eq_.schedule(issueAt,
                     [this, demandAddr, done = std::move(done)] {
            ctrl_->access(demandAddr, false,
                          [done](const MemRequest &, Tick completion) {
                done(completion);
            });
        }, EventPriority::Default, EventKind::Cpu);
    };

    cores_.push_back(std::make_unique<SimpleCore>(
        core, pattern, cfg_.dram.org.rowBytes(), std::move(port), eq_,
        this));
    return *cores_.back();
}

void
CpuSystem::run(Tick duration)
{
    if (!started_) {
        started_ = true;
        for (auto &core : cores_)
            core->start();
    }
    eq_.runUntil(eq_.now() + duration);
    dram_->finalize();
}

std::uint64_t
CpuSystem::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instructionsRetired();
    return total;
}

} // namespace smartref
