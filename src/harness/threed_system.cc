#include "harness/threed_system.hh"

#include "sim/logging.hh"

namespace smartref {

ThreeDSystem::ThreeDSystem(const ThreeDSystemConfig &cfg)
    : StatGroup("system3d"), cfg_(cfg)
{
    cfg_.threeD.validate();
    cfg_.mainMem.validate();

    threeDDram_ = std::make_unique<DramModule>(cfg_.threeD, eq_, this);
    mainDram_ = std::make_unique<DramModule>(cfg_.mainMem, eq_, &mainMem_);
    threeDCtrl_ = std::make_unique<MemoryController>(*threeDDram_, eq_,
                                                     cfg_.ctrl, this);
    mainCtrl_ = std::make_unique<MemoryController>(*mainDram_, eq_,
                                                   cfg_.ctrl, &mainMem_);

    // The policy under study and every observer sit on the stacked die;
    // main memory always runs plain CBR and stays unobserved.
    SystemConfig die;
    die.dram = cfg_.threeD;
    die.policy = cfg_.threeDPolicy;
    die.smart = cfg_.smart;
    // The stacked die hangs off die-to-die vias, not a board bus:
    // no off-chip trace, single module load.
    die.smart.bus.offChipLengthMm = 0.0;
    die.smart.bus.onChipLengthMm = 12.0;
    die.bus = cfg_.bus;
    die.retentionClasses = cfg_.retentionClasses;
    die.heatmap = cfg_.heatmap;
    die.audit = cfg_.audit;
    die.ledger = cfg_.ledger;
    policy_ = assembleRefreshPolicy(die, *threeDDram_, *threeDCtrl_, eq_,
                                    this);
    smartPolicy_ = dynamic_cast<SmartRefreshPolicy *>(policy_.get());

    mainPolicy_ = std::make_unique<CbrRefreshPolicy>(eq_, &mainMem_);
    mainCtrl_->setRefreshPolicy(mainPolicy_.get());

    cache_ = std::make_unique<DramCache>(*threeDCtrl_, *mainCtrl_,
                                         cfg_.cache, eq_, this);
}

WorkloadModel &
ThreeDSystem::addWorkload(const WorkloadParams &params)
{
    SMARTREF_ASSERT(!started_, "cannot add workloads after run()");
    auto sink = [this](Addr addr, bool write) {
        cache_->access(addr, write);
    };
    workloads_.push_back(std::make_unique<WorkloadModel>(
        params, cfg_.threeD.org.rowBytes(), sink, eq_, this));
    return *workloads_.back();
}

void
ThreeDSystem::run(Tick duration)
{
    if (!started_) {
        started_ = true;
        for (auto &w : workloads_)
            w->start();
    }
    eq_.runUntil(eq_.now() + duration);
    threeDDram_->finalize();
    mainDram_->finalize();
    if (smartPolicy_)
        smartPolicy_->syncEnergyStats();
    publishEventCounts(eq_.executedByKind(), publishedEvents_);
}

} // namespace smartref
