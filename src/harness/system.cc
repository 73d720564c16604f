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

std::unique_ptr<RefreshPolicy>
assembleRefreshPolicy(const SystemConfig &cfg, DramModule &dram,
                      MemoryController &ctrl, EventQueue &eq,
                      StatGroup *parent)
{
    std::unique_ptr<RefreshPolicy> policy;
    SmartRefreshPolicy *smart = nullptr;
    switch (cfg.policy) {
      case PolicyKind::Cbr:
        policy = std::make_unique<CbrRefreshPolicy>(eq, parent);
        break;
      case PolicyKind::Burst:
        policy = std::make_unique<BurstRefreshPolicy>(eq, parent);
        break;
      case PolicyKind::RasOnly:
        policy = std::make_unique<RasOnlyRefreshPolicy>(
            eq, deriveBusParams(cfg.bus, cfg.dram.org), parent);
        break;
      case PolicyKind::PerBank:
        policy = std::make_unique<PerBankRefreshPolicy>(
            eq, deriveBusParams(cfg.bus, cfg.dram.org), parent);
        break;
      case PolicyKind::Smart: {
        SmartRefreshConfig sc = cfg.smart;
        sc.bus = deriveBusParams(sc.bus, cfg.dram.org);
        if (!sc.retentionClasses)
            sc.retentionClasses = cfg.retentionClasses;
        auto sp = std::make_unique<SmartRefreshPolicy>(cfg.dram, sc, eq,
                                                       parent);
        smart = sp.get();
        policy = std::move(sp);
        break;
      }
      case PolicyKind::RetentionAware:
        SMARTREF_ASSERT(cfg.retentionClasses != nullptr,
                        "RetentionAware policy needs retentionClasses");
        policy = std::make_unique<RetentionAwarePolicy>(
            eq, cfg.retentionClasses,
            deriveBusParams(cfg.bus, cfg.dram.org), parent);
        break;
    }
    if (cfg.retentionClasses) {
        std::vector<std::uint8_t> m(cfg.retentionClasses->totalRows());
        for (std::uint64_t i = 0; i < m.size(); ++i) {
            m[i] = static_cast<std::uint8_t>(
                cfg.retentionClasses->multiplier(i));
        }
        dram.retention().applyClassMultipliers(m);
    }
    ctrl.setRefreshPolicy(policy.get());
    if (cfg.heatmap) {
        ctrl.setHeatmap(cfg.heatmap);
        if (smart)
            smart->setHeatmap(cfg.heatmap);
    }
    if (cfg.audit) {
        ctrl.setAudit(cfg.audit);
        policy->setAudit(cfg.audit);
    }
    if (cfg.ledger)
        dram.setLedger(cfg.ledger);
    return policy;
}

System::System(const SystemConfig &cfg)
    : StatGroup("system"), cfg_(cfg)
{
    cfg_.dram.validate();
    // A System models exactly one channel; ShardedSystem
    // (harness/sharded.hh) builds one per channel and merges.
    SMARTREF_ASSERT(cfg_.dram.channels == 1,
                    "System models one channel; use ShardedSystem for"
                    " configs with channels > 1");
    dram_ = std::make_unique<DramModule>(cfg_.dram, eq_, this);
    ctrl_ = std::make_unique<MemoryController>(*dram_, eq_, cfg_.ctrl,
                                               this);

    policy_ = assembleRefreshPolicy(cfg_, *dram_, *ctrl_, eq_, this);
    smartPolicy_ = dynamic_cast<SmartRefreshPolicy *>(policy_.get());
}

WorkloadModel &
System::addWorkload(const WorkloadParams &params)
{
    SMARTREF_ASSERT(!started_, "cannot add workloads after run()");
    auto sink = [this](Addr addr, bool write) {
        ctrl_->access(addr, write);
    };
    workloads_.push_back(std::make_unique<WorkloadModel>(
        params, cfg_.dram.org.rowBytes(), sink, eq_, this));
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
    if (smartPolicy_)
        smartPolicy_->syncEnergyStats();
}

} // namespace smartref
