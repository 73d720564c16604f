/**
 * @file
 * Per-channel event-engine sharding: the one assembly every
 * conventional run goes through, from a 2 GB module to 512 GB.
 *
 * A DramConfig with `channels = N` describes N *isolated* per-channel
 * memory systems: each channel owns its own event queue, memory
 * controller, DRAM module and refresh policy, exactly as if it were a
 * standalone single-channel simulation. ShardedSystem builds one
 * System per channel and advances all of them in epoch lock-step —
 * every channel runs to the same epoch boundary before any channel
 * starts the next epoch — optionally fanning the per-epoch channel
 * steps out over a work-stealing thread pool. A lone channel has
 * nothing to lock-step with and advances in one slice per run() call,
 * which makes a 1-channel ShardedSystem reproduce a plain System byte
 * for byte.
 *
 * Determinism contract (the sweep's byte-identity gate extends here):
 *
 *  - Channels never interact, so each channel's simulation is the same
 *    regardless of which worker thread advances it. The slicing is
 *    fixed by the epoch length alone (System::run() integrates
 *    background energy at the end of every slice, so a different
 *    slicing may move the last bits of the energies).
 *  - Every merge is performed on the calling thread in fixed channel
 *    order (0, 1, ..., N-1): snapshot sums, heatmap cell sums, ledger
 *    absorption, latency-histogram sums, and the audit k-way merge
 *    ordered by (tick, channel).
 *
 * Together these make every aggregate byte-identical for any
 * `shardJobs`, including 1. Host-dependent quantities (wall time, RSS)
 * never enter the merged artifacts.
 *
 * Workload seeding: each channel derives its own stream seed via
 * shardChannelSeed(), so channels see decorrelated traffic while the
 * whole run stays a pure function of the base seed.
 */

#pragma once

#include <memory>
#include <vector>

#include "harness/experiment.hh"
#include "harness/system.hh"

namespace smartref {

class ThreadPool;

/**
 * Epoch length for the lock-step barrier. Short enough to bound how
 * far channels drift apart in memory footprint, long enough that the
 * barrier cost is noise. Discrete results (events, refreshes, demand
 * counts) are the same for any epoch length; energies agree to
 * rounding.
 */
constexpr Tick kDefaultShardEpoch = 4 * kMillisecond;

/** Deterministic per-channel workload seed derived from the base seed. */
std::uint64_t shardChannelSeed(std::uint64_t baseSeed,
                               std::uint32_t channel);

/** N isolated per-channel Systems advanced in epoch lock-step. */
class ShardedSystem
{
  public:
    /**
     * @param cfg       system template; `cfg.dram.channels` selects
     *        the shard count, and each shard is built
     *        from this config with channels forced to 1. The observer
     *        pointers are the *merged* sinks: when non-null, each shard
     *        gets a private same-shaped observer and mergeObservers()
     *        folds them in. A merged ledger must be shaped
     *        {channels * ranks, banks}; heatmap and audit keep the
     *        per-channel shape (heatmap cells sum across channels, the
     *        audit trail carries a channel id per record).
     * @param shardJobs worker threads for the per-epoch channel fan-out
     *        (1 = serial; results are identical either way)
     * @param epoch     lock-step epoch length (unused by a lone
     *        channel, which runs each run() call in one slice)
     */
    explicit ShardedSystem(const SystemConfig &cfg, unsigned shardJobs = 1,
                           Tick epoch = kDefaultShardEpoch);
    ~ShardedSystem();

    std::uint32_t channels() const { return channels_; }
    System &channel(std::size_t c) { return *shards_[c].sys; }

    /**
     * Advance every channel by `duration` in epoch lock-step. A lone
     * channel advances in one slice, run(0) included: like
     * System::run(0), that starts the workloads and drains tick 0.
     */
    void run(Tick duration);

    /**
     * Workload seed of channel `c`: a lone channel keeps `baseSeed`, so
     * a 1-channel run sees the stream a plain System would; wider
     * configs derive one seed per channel with shardChannelSeed().
     */
    std::uint64_t
    channelSeed(std::uint64_t baseSeed, std::uint32_t c) const
    {
        return channels_ == 1 ? baseSeed : shardChannelSeed(baseSeed, c);
    }

    /** Common simulated time of all channels. */
    Tick now() const;

    /** Events executed across all channels (telemetry only). */
    std::uint64_t eventsExecuted() const;

    /** Largest refresh backlog observed on any channel. */
    std::size_t maxRefreshBacklog() const;

    /** Retention final check summed over channels (stale-row count). */
    std::uint64_t finalCheck();

    /** Verify each channel's energy-conservation invariant. */
    void verifyLedgers(bool fatalOnError);

    /**
     * Channel-order sum of per-channel snapshots. All channels sit at
     * the same simulated tick (asserted); the merged snapshot keeps
     * that tick and sums every other field.
     */
    EnergySnapshot captureMergedSnapshot();

    /** Merge per-channel demand-latency histograms into `into`. */
    void mergeLatency(Histogram &into) const;

    /**
     * Fold the per-shard observers into the merged sinks passed via
     * the config, in fixed channel order. Call once, after the last
     * run() window.
     */
    void mergeObservers();

    /** Resident counter-storage bytes summed over channels (Smart). */
    std::uint64_t residentCounterBytes();

    const SystemConfig &config() const { return cfg_; }

  private:
    struct Shard
    {
        std::unique_ptr<RefreshHeatmap> heatmap;
        std::unique_ptr<RefreshAudit> audit;
        std::unique_ptr<EnergyLedger> ledger;
        std::unique_ptr<System> sys;
    };

    template <typename Body>
    void forEachChannel(const Body &body);

    /** Advance every channel by `step` (one lock-step epoch). */
    void runSlice(Tick step);

    /** Per-kind executed events summed over channels. */
    EventCounts eventsByKind() const;

    SystemConfig cfg_;
    std::uint32_t channels_;
    Tick epoch_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<Shard> shards_;
    /** Per-channel wall of the current slice (metrics timing only). */
    std::vector<std::int64_t> channelNs_;
    /** eventsByKind() as last added to the sim.events.* metrics. */
    EventCounts publishedEvents_{};
    bool merged_ = false;
};

} // namespace smartref
