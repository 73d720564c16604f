#include "harness/system.hh"

#include <bit>

#include "sim/logging.hh"

namespace smartref {

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Cbr: return "cbr";
      case PolicyKind::Burst: return "burst";
      case PolicyKind::RasOnly: return "ras-only";
      case PolicyKind::PerBank: return "per-bank";
      case PolicyKind::Smart: return "smart";
      case PolicyKind::RetentionAware: return "retention-aware";
    }
    return "?";
}

PolicyKind
policyFromString(const std::string &name)
{
    if (name == "cbr")
        return PolicyKind::Cbr;
    if (name == "burst")
        return PolicyKind::Burst;
    if (name == "ras-only")
        return PolicyKind::RasOnly;
    if (name == "per-bank")
        return PolicyKind::PerBank;
    if (name == "smart")
        return PolicyKind::Smart;
    if (name == "retention-aware")
        return PolicyKind::RetentionAware;
    SMARTREF_FATAL("unknown policy '", name,
                   "' (cbr, burst, ras-only, per-bank, smart,"
                   " retention-aware)");
}

BusEnergyParams
deriveBusParams(const BusEnergyParams &base, const DramOrganization &org)
{
    BusEnergyParams p = base;
    p.numModules = org.ranks;
    p.busWidthBits =
        static_cast<std::uint32_t>(std::bit_width(org.rows - 1) +
                                   std::bit_width(org.banks - 1));
    return p;
}

System::System(const SystemConfig &cfg)
    : StatGroup(cfg.dram.stackedCache ? "system3d" : "system"), cfg_(cfg)
{
    cfg_.dram.validate();
    // A System models exactly one channel; ShardedSystem
    // (harness/sharded.hh) builds one per channel and merges.
    SMARTREF_ASSERT(cfg_.dram.channels == 1,
                    "System models one channel; use ShardedSystem for"
                    " configs with channels > 1");
    const bool stacked = cfg_.dram.stackedCache;
    if (stacked) {
        // First child of the root, so the stats files list main memory
        // ahead of the stacked die.
        cfg_.mainMem.validate();
        mainMem_ = std::make_unique<StatGroup>("mainMem", this);
    }
    dram_ = std::make_unique<DramModule>(cfg_.dram, eq_, this);
    ctrl_ = std::make_unique<MemoryController>(*dram_, eq_, cfg_.ctrl,
                                               this);

    SmartRefreshConfig sc = cfg_.smart;
    sc.bus = deriveBusParams(sc.bus, cfg_.dram.org);
    if (stacked) {
        // The stacked die hangs off die-to-die vias, not a board bus:
        // no off-chip trace, single module load.
        sc.bus.offChipLengthMm = 0.0;
        sc.bus.onChipLengthMm = 12.0;
    }
    if (!sc.retentionClasses)
        sc.retentionClasses = cfg_.retentionClasses;
    const BusEnergyParams bus = deriveBusParams(cfg_.bus, cfg_.dram.org);
    switch (cfg_.policy) {
      case PolicyKind::Cbr:
        policy_ = std::make_unique<CbrRefreshPolicy>(eq_, this);
        break;
      case PolicyKind::Burst:
        policy_ = std::make_unique<BurstRefreshPolicy>(eq_, this);
        break;
      case PolicyKind::RasOnly:
        policy_ = std::make_unique<RasOnlyRefreshPolicy>(eq_, bus, this);
        break;
      case PolicyKind::PerBank:
        policy_ = std::make_unique<PerBankRefreshPolicy>(eq_, bus, this);
        break;
      case PolicyKind::Smart: {
        auto sp = std::make_unique<SmartRefreshPolicy>(cfg_.dram, sc, eq_,
                                                       this);
        smartPolicy_ = sp.get();
        policy_ = std::move(sp);
        break;
      }
      case PolicyKind::RetentionAware:
        SMARTREF_ASSERT(cfg_.retentionClasses != nullptr,
                        "RetentionAware policy needs retentionClasses");
        policy_ = std::make_unique<RetentionAwarePolicy>(
            eq_, cfg_.retentionClasses, bus, this);
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
    // Observers watch the module under test only.
    if (cfg_.heatmap) {
        ctrl_->setHeatmap(cfg_.heatmap);
        if (smartPolicy_)
            smartPolicy_->setHeatmap(cfg_.heatmap);
    }
    if (cfg_.audit) {
        ctrl_->setAudit(cfg_.audit);
        policy_->setAudit(cfg_.audit);
    }
    if (cfg_.ledger)
        dram_->setLedger(cfg_.ledger);

    if (stacked) {
        // Construction order is event order: main memory's CBR policy
        // starts after the policy under test.
        mainDram_ = std::make_unique<DramModule>(cfg_.mainMem, eq_,
                                                 mainMem_.get());
        mainCtrl_ = std::make_unique<MemoryController>(
            *mainDram_, eq_, cfg_.ctrl, mainMem_.get());
        mainPolicy_ = std::make_unique<CbrRefreshPolicy>(eq_,
                                                         mainMem_.get());
        mainCtrl_->setRefreshPolicy(mainPolicy_.get());
        cache_ = std::make_unique<DramCache>(*ctrl_, *mainCtrl_, cfg_.cache,
                                             eq_, this);
        entry_ = [cache = cache_.get()](Addr addr, bool write) {
            cache->access(addr, write);
        };
    } else {
        entry_ = [ctrl = ctrl_.get()](Addr addr, bool write) {
            ctrl->access(addr, write);
        };
    }
}

WorkloadModel &
System::addWorkload(const WorkloadParams &params)
{
    SMARTREF_ASSERT(!started_, "cannot add workloads after run()");
    workloads_.push_back(std::make_unique<WorkloadModel>(
        params, cfg_.dram.org.rowBytes(), entry_, eq_, this));
    return *workloads_.back();
}

void
System::run(Tick duration)
{
    if (!started_) {
        started_ = true;
        for (auto &w : workloads_)
            w->start();
    }
    eq_.runUntil(eq_.now() + duration);
    dram_->finalize();
    if (mainDram_)
        mainDram_->finalize();
    if (smartPolicy_)
        smartPolicy_->syncEnergyStats();
}

} // namespace smartref
