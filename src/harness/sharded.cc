#include "harness/sharded.hh"

#include <algorithm>
#include <chrono>

#include "dram/energy_ledger.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/provenance.hh"
#include "sim/thread_pool.hh"

namespace smartref {

namespace {

/** splitmix64 finaliser (same mixer the sweep's job seeds use). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
shardChannelSeed(std::uint64_t baseSeed, std::uint32_t channel)
{
    return splitmix64(baseSeed ^
                      fnv1a64("channel=" + std::to_string(channel)));
}

ShardedSystem::ShardedSystem(const SystemConfig &cfg, unsigned shardJobs,
                             Tick epoch)
    : cfg_(cfg), channels_(cfg.dram.channels), epoch_(epoch)
{
    SMARTREF_ASSERT(channels_ >= 1, "sharded system needs a channel");
    SMARTREF_ASSERT(epoch_ > 0, "shard epoch must be positive");

    if (shardJobs > 1 && channels_ > 1) {
        pool_ = std::make_unique<ThreadPool>(
            std::min<unsigned>(shardJobs, channels_));
    }

    shards_.resize(channels_);
    channelNs_.resize(channels_);
    for (std::uint32_t c = 0; c < channels_; ++c) {
        Shard &shard = shards_[c];
        SystemConfig chCfg = cfg_;
        chCfg.dram.channels = 1;
        if (cfg_.heatmap) {
            shard.heatmap = std::make_unique<RefreshHeatmap>(
                cfg_.heatmap->ranks(), cfg_.heatmap->banks(),
                cfg_.heatmap->segments(), cfg_.heatmap->counterMax());
            chCfg.heatmap = shard.heatmap.get();
        }
        if (cfg_.audit) {
            shard.audit =
                std::make_unique<RefreshAudit>(cfg_.audit->shape());
            shard.audit->setChannel(c);
            chCfg.audit = shard.audit.get();
        }
        if (cfg_.ledger) {
            shard.ledger = std::make_unique<EnergyLedger>(
                EnergyLedger::Shape{chCfg.dram.org.ranks,
                                    chCfg.dram.org.banks},
                cfg_.ledger->intervalLength());
            chCfg.ledger = shard.ledger.get();
        }
        shard.sys = std::make_unique<System>(chCfg);
    }
}

ShardedSystem::~ShardedSystem() = default;

template <typename Body>
void
ShardedSystem::forEachChannel(const Body &body)
{
    if (pool_) {
        parallelFor(*pool_, channels_, body);
    } else {
        for (std::size_t c = 0; c < channels_; ++c)
            body(c);
    }
}

void
ShardedSystem::run(Tick duration)
{
    if (channels_ == 1) {
        // Nothing to lock-step with. One slice per call also keeps the
        // run identical to a plain System: System::run() integrates
        // background energy at the end of every slice.
        runSlice(duration);
    } else {
        Tick advanced = 0;
        while (advanced < duration) {
            const Tick step = std::min<Tick>(epoch_, duration - advanced);
            runSlice(step);
            advanced += step;
        }
    }
    publishEventCounts(eventsByKind(), publishedEvents_);
}

void
ShardedSystem::runSlice(Tick step)
{
    using clock = std::chrono::steady_clock;
    // Per-channel wall per epoch: each worker writes its own slot, so
    // the timing adds no synchronisation. A channel's "lag" is how long
    // it idled at the epoch barrier waiting for the slowest sibling —
    // large sustained lag means the channel shards are imbalanced.
    const auto epochStart = clock::now();
    forEachChannel([this, step](std::size_t c) {
        const auto t0 = clock::now();
        shards_[c].sys->run(step);
        channelNs_[c] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            clock::now() - t0)
                            .count();
    });
    const std::int64_t epochNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             epochStart)
            .count();
    SMARTREF_METRIC_INC("sharded.epochs");
    for (std::size_t c = 0; c < channels_; ++c) {
        const std::int64_t lag = epochNs - channelNs_[c];
        SMARTREF_METRIC_OBSERVE("sharded.epoch_lag_ns", lag > 0 ? lag : 0);
    }
}

Tick
ShardedSystem::now() const
{
    return shards_[0].sys->eventQueue().now();
}

std::uint64_t
ShardedSystem::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const Shard &s : shards_)
        n += s.sys->eventQueue().executed();
    return n;
}

EventCounts
ShardedSystem::eventsByKind() const
{
    EventCounts sum{};
    for (const Shard &s : shards_) {
        const EventCounts &c = s.sys->eventQueue().executedByKind();
        for (std::size_t k = 0; k < kEventKinds; ++k)
            sum[k] += c[k];
    }
    return sum;
}

std::size_t
ShardedSystem::maxRefreshBacklog() const
{
    std::size_t m = 0;
    for (const Shard &s : shards_)
        m = std::max(m, s.sys->controller().maxRefreshBacklog());
    return m;
}

std::uint64_t
ShardedSystem::finalCheck()
{
    std::uint64_t stale = 0;
    for (Shard &s : shards_) {
        stale += s.sys->dram().retention().finalCheck(
            s.sys->eventQueue().now());
    }
    return stale;
}

void
ShardedSystem::verifyLedgers(bool fatalOnError)
{
    for (Shard &s : shards_)
        s.sys->dram().verifyLedger(fatalOnError);
}

EnergySnapshot
ShardedSystem::captureMergedSnapshot()
{
    EnergySnapshot merged = captureSnapshot(*shards_[0].sys);
    for (std::size_t c = 1; c < shards_.size(); ++c) {
        const EnergySnapshot s = captureSnapshot(*shards_[c].sys);
        SMARTREF_ASSERT(s.tick == merged.tick,
                        "channels drifted out of lock-step");
        std::apply([&](auto... m) { ((merged.*m += s.*m), ...); },
                   kSnapshotSums);
    }
    return merged;
}

void
ShardedSystem::mergeLatency(Histogram &into) const
{
    for (const Shard &s : shards_)
        into.merge(s.sys->controller().latencyHistogram());
}

void
ShardedSystem::mergeObservers()
{
    SMARTREF_ASSERT(!merged_, "observers already merged");
    merged_ = true;
    const auto mergeStart = std::chrono::steady_clock::now();
    struct MergeTimer
    {
        std::chrono::steady_clock::time_point start;
        ~MergeTimer()
        {
            SMARTREF_METRIC_OBSERVE(
                "sharded.merge_ns",
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        }
    } mergeTimer{mergeStart};

    if (cfg_.heatmap) {
        for (const Shard &s : shards_)
            cfg_.heatmap->merge(*s.heatmap);
    }
    if (cfg_.ledger) {
        cfg_.ledger->setChannels(channels_);
        for (std::uint32_t c = 0; c < channels_; ++c) {
            cfg_.ledger->absorbChannel(*shards_[c].ledger,
                                       c * cfg_.dram.org.ranks);
        }
    }
    if (cfg_.audit) {
        cfg_.audit->setChannels(channels_);
        // K-way merge by (tick, channel); within a channel the trail is
        // already in simulated-time order, so the result is globally
        // time-ordered and independent of shardJobs.
        std::vector<std::vector<AuditRecord>> recs(channels_);
        std::vector<std::size_t> pos(channels_, 0);
        for (std::uint32_t c = 0; c < channels_; ++c)
            recs[c] = shards_[c].audit->collect();
        for (;;) {
            std::size_t best = channels_;
            for (std::size_t c = 0; c < channels_; ++c) {
                if (pos[c] >= recs[c].size())
                    continue;
                if (best == channels_ ||
                    recs[c][pos[c]].tick < recs[best][pos[best]].tick)
                    best = c;
            }
            if (best == channels_)
                break;
            cfg_.audit->append(recs[best][pos[best]++]);
        }
    }
}

std::uint64_t
ShardedSystem::residentCounterBytes()
{
    std::uint64_t bytes = 0;
    for (Shard &s : shards_) {
        if (SmartRefreshPolicy *p = s.sys->smartPolicy())
            bytes += p->counters().residentCounterBytes();
    }
    return bytes;
}

} // namespace smartref
