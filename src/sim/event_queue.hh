/**
 * @file
 * Discrete-event simulation core: events, the event queue, and the
 * Simulation driver that advances time.
 *
 * The queue is an owned 4-ary min-heap ordered by (tick, priority,
 * sequence). The sequence number guarantees FIFO ordering among
 * same-tick, same-priority events, which keeps simulations
 * deterministic.
 *
 * Layout is chosen for the hot path:
 *
 *  - Heap nodes are 24-byte PODs (tick, seq, priority, slot handle);
 *    sift operations move only these, never the callbacks. The 4-ary
 *    shape halves the tree depth of a binary heap and puts all four
 *    children of a node in one or two cache lines.
 *  - Callbacks live in a slab of InlineFunction slots recycled through
 *    a free list: scheduling an event performs no heap allocation for
 *    any capture up to the inline capacity — which covers every capture
 *    in this codebase. The slab is a list of fixed power-of-two blocks,
 *    so a slot index splits into (block, offset) by shift and mask and
 *    growth never relocates a live callback.
 *  - A one-entry "next" buffer holds the earliest pending event when it
 *    is scheduled earlier than everything in the heap. The common
 *    self-rescheduling pattern (a clock-like event that re-arms itself
 *    `stepInterval` ahead and is again the earliest event) therefore
 *    runs without touching the heap at all: O(1) per occurrence.
 *  - scheduleBurst() keeps one heap node alive across a fixed-interval
 *    train of occurrences instead of scheduling each occurrence as its
 *    own event. Sequence numbers for the whole train are reserved
 *    up-front, so the interleaving with other same-tick events is
 *    exactly as if every occurrence had been scheduled individually at
 *    burst-creation time (see docs/perf.md).
 *  - reserveSeq() / scheduleReserved() apply the same trick to a
 *    single event: a component reserves the sequence number when it
 *    arms a timer and queues the event under it later, so a timer that
 *    is re-armed many times before it fires needs one queued event
 *    instead of one per arm.
 *  - Every slot carries a one-byte EventKind, and dispatch bumps that
 *    kind's counter: the per-kind execution counts are exact and cost
 *    one increment per event (no host-time sampling).
 */

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace smartref {

/** Scheduling priority; lower values execute first within a tick. */
enum class EventPriority : int {
    ClockTick = 0,   ///< clock-domain maintenance (counter walks)
    Default = 10,    ///< ordinary component callbacks
    Stats = 100,     ///< end-of-window statistics sampling
};

/**
 * What an event does. Each scheduling site names its kind so a run can
 * say which mechanism its events went to (sim.events.<kind> metrics);
 * the kind never affects ordering.
 */
enum class EventKind : std::uint8_t {
    Other,       ///< untagged (unit tests, examples)
    Walk,        ///< Smart Refresh staggered counter-walk step
    Emit,        ///< a walk step's deferred refresh emits
    PolicyClock, ///< CBR / RAS-only / per-bank / burst refresh tick
    IssueRetry,  ///< a bank engine re-checking its blocked command
    IdleTimer,   ///< idle-precharge timer
    Darp,        ///< DARP held-refresh dispatch and defer deadline
    Completion,  ///< demand completion callback
    Workload,    ///< synthetic workload visits and access trains
    Cache,       ///< 3D DRAM cache tag and fill steps
    Window,      ///< monitor windows, mode overlaps, interval samples
};

/** Number of EventKind values (Window is the last). */
inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::Window) + 1;

/** Executed events per kind, indexed by EventKind. */
using EventCounts = std::array<std::uint64_t, kEventKinds>;

/** Metric-name form of a kind ("walk", "policy_clock", ...). */
const char *toString(EventKind kind);

/**
 * Add `counts - published` to the metrics-registry counters
 * sim.events.<kind>, then set `published = counts`. Called at the end
 * of a system's run() so the registry carries cumulative per-kind
 * counts. Metrics are a sidecar: no deterministic output reads them.
 */
void publishEventCounts(const EventCounts &counts, EventCounts &published);

/**
 * The global event queue for one simulation.
 *
 * Callbacks are move-only InlineFunctions; components capture `this`.
 * Events cannot be descheduled (none of this codebase needs it); a
 * cancelled event pattern can be implemented by the callback checking a
 * generation counter.
 */
class EventQueue
{
  public:
    /**
     * Event callback. The inline capacity is sized so that the largest
     * capture in the tree (a demand completion: MemRequest + a
     * std::function completion callback + a tick) stays allocation-free;
     * oversize captures fall back to one heap allocation (see
     * InlineFunction).
     */
    using Callback = InlineFunction<void(), 96>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     * Scheduling in the past is an internal error.
     *
     * Accepts any void() callable; the capture is constructed directly
     * into its recycled slab slot, so the hot path performs no
     * allocation and no callback move.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f,
             EventPriority prio = EventPriority::Default,
             EventKind kind = EventKind::Other)
    {
        scheduleSlot(when, seq_++, allocSlotFor(std::forward<F>(f), kind),
                     prio);
    }

    /** Schedule a callback `delta` ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&f,
                  EventPriority prio = EventPriority::Default,
                  EventKind kind = EventKind::Other)
    {
        schedule(now_ + delta, std::forward<F>(f), prio, kind);
    }

    /**
     * Schedule `count` occurrences of `cb` at `first`, `first +
     * interval`, ... `first + (count-1) * interval`. One callback and
     * one heap node serve the whole train; the node re-arms itself
     * after each occurrence.
     *
     * Determinism contract: the train reserves `count` consecutive
     * sequence numbers now, and occurrence i carries the i-th of them —
     * same-tick FIFO interleaving with other events is byte-identical
     * to scheduling all occurrences individually at this instant.
     */
    template <typename F>
    void
    scheduleBurst(Tick first, Tick interval, std::uint64_t count, F &&f,
                  EventPriority prio = EventPriority::Default,
                  EventKind kind = EventKind::Other)
    {
        burstSlot(first, interval, count,
                  allocSlotFor(std::forward<F>(f), kind), prio);
    }

    /** Take the next sequence number without scheduling anything. */
    std::uint64_t reserveSeq() { return seq_++; }

    /**
     * Schedule `f` at `when` under a sequence number from reserveSeq().
     * `when` must not precede the instant the number was reserved.
     *
     * Determinism contract: the event runs exactly where an event
     * scheduled at reservation time would have run among same-tick,
     * same-priority events (see docs/perf.md).
     */
    template <typename F>
    void
    scheduleReserved(Tick when, std::uint64_t seq, F &&f,
                     EventPriority prio = EventPriority::Default,
                     EventKind kind = EventKind::Other)
    {
        scheduleSlot(when, seq, allocSlotFor(std::forward<F>(f), kind),
                     prio);
    }

    /** Execute events until the queue is empty. */
    void run();

    /**
     * Execute events with tick <= limit, then set now() to limit.
     * Events scheduled beyond the limit remain pending.
     */
    void runUntil(Tick limit);

    /**
     * Number of pending events. Each remaining occurrence of a burst
     * counts once, matching individually scheduled events.
     */
    std::size_t pending() const { return pendingCount_; }

    /** Total number of events executed so far (sum over kinds). */
    std::uint64_t executed() const;

    /** Events of one kind executed so far. */
    std::uint64_t
    executed(EventKind kind) const
    {
        return kindCounts_[static_cast<std::size_t>(kind)];
    }

    /** Executed events of every kind. */
    const EventCounts &executedByKind() const { return kindCounts_; }

    bool empty() const { return pendingCount_ == 0; }

  private:
    /**
     * A pending occurrence. POD on purpose: sifts copy 24 bytes and
     * never touch the callback slab.
     */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t prio;
        std::uint32_t slot;
    };

    /** Callback storage, recycled through freeSlots_. */
    struct Slot
    {
        Callback cb;
        Tick interval = 0;           ///< burst spacing (0 for one-shot)
        std::uint32_t remaining = 0; ///< occurrences left (1 = one-shot)
        EventKind kind = EventKind::Other;
    };

    /** Slots per slab block: 2^kSlabShift. */
    static constexpr unsigned kSlabShift = 4;
    static constexpr std::uint32_t kSlabMask = (1u << kSlabShift) - 1;

    Slot &
    slot(std::uint32_t idx)
    {
        return slab_[idx >> kSlabShift][idx & kSlabMask];
    }

    static bool
    lessThan(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return a.prio < b.prio;
        return a.seq < b.seq;
    }

    /** Claim a slot and construct the callable in place. */
    template <typename F>
    std::uint32_t
    allocSlotFor(F &&f, EventKind kind)
    {
        std::uint32_t idx;
        if (!freeSlots_.empty()) {
            idx = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            idx = growSlab();
        }
        Slot &s = slot(idx);
        s.cb = std::forward<F>(f);
        s.interval = 0;
        s.remaining = 1;
        s.kind = kind;
        return idx;
    }

    /** Claim a never-used slot, adding a slab block when all are used. */
    std::uint32_t growSlab();

    void scheduleSlot(Tick when, std::uint64_t seq, std::uint32_t slotIdx,
                      EventPriority prio);
    void burstSlot(Tick first, Tick interval, std::uint64_t count,
                   std::uint32_t slotIdx, EventPriority prio);
    void insert(Node n);
    void heapPush(Node n);
    Node heapPopMin();
    /** Sift `moving` down from the hole at `i`, writing it once. */
    void siftDown(std::size_t i, Node moving);
    /** Pop the globally earliest pending node (next-buffer aware). */
    Node popMin();
    /** Execute one node's occurrence; re-arms bursts. */
    void execute(Node n);

    std::vector<Node> heap_;       ///< 4-ary min-heap
    /** Callback slab: blocks of 2^kSlabShift slots that never move. */
    std::vector<std::unique_ptr<Slot[]>> slab_;
    std::uint32_t slotsUsed_ = 0;  ///< slots ever handed out
    std::vector<std::uint32_t> freeSlots_;
    /**
     * Fast-path buffer: when valid, `next_` is strictly earlier (in the
     * full (tick, priority, seq) order) than every node in heap_, so it
     * is always the next event to run and can bypass the heap entirely.
     */
    Node next_{};
    bool hasNext_ = false;
    std::size_t pendingCount_ = 0;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    EventCounts kindCounts_{}; ///< executed events per EventKind
};

} // namespace smartref
