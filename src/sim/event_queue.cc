#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace smartref {

const char *
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::Other: return "other";
      case EventKind::Walk: return "walk";
      case EventKind::Emit: return "emit";
      case EventKind::PolicyClock: return "policy_clock";
      case EventKind::IssueRetry: return "issue_retry";
      case EventKind::IdleTimer: return "idle_timer";
      case EventKind::Darp: return "darp";
      case EventKind::Completion: return "completion";
      case EventKind::Workload: return "workload";
      case EventKind::Cache: return "cache";
      case EventKind::Window: return "window";
    }
    return "?";
}

void
publishEventCounts(const EventCounts &counts, EventCounts &published)
{
    static const std::array<MetricCounter *, kEventKinds> handles = [] {
        std::array<MetricCounter *, kEventKinds> h{};
        for (std::size_t k = 0; k < kEventKinds; ++k) {
            h[k] = &globalMetrics().counter(
                std::string("sim.events.") +
                toString(static_cast<EventKind>(k)));
        }
        return h;
    }();
    for (std::size_t k = 0; k < kEventKinds; ++k) {
        if (counts[k] != published[k])
            handles[k]->add(counts[k] - published[k]);
    }
    published = counts;
}

std::uint64_t
EventQueue::executed() const
{
    return std::accumulate(kindCounts_.begin(), kindCounts_.end(),
                           std::uint64_t(0));
}

std::uint32_t
EventQueue::growSlab()
{
    SMARTREF_ASSERT(slotsUsed_ < std::numeric_limits<std::uint32_t>::max(),
                    "event slot space exhausted");
    if ((slotsUsed_ & kSlabMask) == 0) {
        slab_.push_back(
            std::make_unique_for_overwrite<Slot[]>(std::size_t(1)
                                                   << kSlabShift));
    }
    return slotsUsed_++;
}

void
EventQueue::insert(Node n)
{
    if (!hasNext_) {
        // Empty heap: the single event needs no heap at all.
        if (heap_.empty() || lessThan(n, heap_.front())) {
            next_ = n;
            hasNext_ = true;
            return;
        }
        heapPush(n);
        return;
    }
    if (lessThan(n, next_)) {
        // New global minimum: demote the old one into the heap.
        heapPush(next_);
        next_ = n;
        return;
    }
    heapPush(n);
}

void
EventQueue::scheduleSlot(Tick when, std::uint64_t seq,
                         std::uint32_t slotIdx, EventPriority prio)
{
    SMARTREF_ASSERT(when >= now_, "scheduling into the past: ", when,
                    " < now ", now_);
    SMARTREF_ASSERT(seq < seq_, "sequence number ", seq,
                    " was never reserved");
    ++pendingCount_;
    insert(Node{when, seq, static_cast<std::int32_t>(prio), slotIdx});
}

void
EventQueue::burstSlot(Tick first, Tick interval, std::uint64_t count,
                      std::uint32_t slotIdx, EventPriority prio)
{
    SMARTREF_ASSERT(first >= now_, "scheduling into the past: ", first,
                    " < now ", now_);
    SMARTREF_ASSERT(count > 0, "empty burst");
    SMARTREF_ASSERT(count == 1 || interval > 0,
                    "multi-occurrence burst needs a positive interval");
    SMARTREF_ASSERT(count <= std::numeric_limits<std::uint32_t>::max(),
                    "burst of ", count, " occurrences is too long");
    Slot &s = slot(slotIdx);
    s.interval = interval;
    s.remaining = static_cast<std::uint32_t>(count);
    // Reserve the whole train's sequence numbers now so later schedules
    // interleave with every occurrence exactly as if each had been
    // scheduled here individually.
    const std::uint64_t seq = seq_;
    seq_ += count;
    pendingCount_ += count;
    insert(Node{first, seq, static_cast<std::int32_t>(prio), slotIdx});
}

EventQueue::Node
EventQueue::popMin()
{
    if (hasNext_) {
        // Invariant: next_ precedes everything in the heap.
        hasNext_ = false;
        return next_;
    }
    return heapPopMin();
}

void
EventQueue::execute(Node n)
{
    now_ = n.when;
    --pendingCount_;
    Slot &s = slot(n.slot);
    ++kindCounts_[static_cast<std::size_t>(s.kind)];
    // Invoke in place: slab blocks never move, so the slot stays valid
    // even if the callback schedules (and grows the slab) reentrantly.
    s.cb();
    if (s.remaining > 1) {
        --s.remaining;
        n.when += s.interval;
        ++n.seq;
        insert(n);
        return;
    }
    s.cb = nullptr;
    s.interval = 0;
    s.remaining = 0;
    freeSlots_.push_back(n.slot);
}

void
EventQueue::run()
{
    while (pendingCount_ != 0)
        execute(popMin());
}

void
EventQueue::runUntil(Tick limit)
{
    while (pendingCount_ != 0) {
        const Node &min = hasNext_ ? next_ : heap_.front();
        if (min.when > limit)
            break;
        execute(popMin());
    }
    if (now_ < limit)
        now_ = limit;
}

void
EventQueue::heapPush(Node n)
{
    // Hole-based sift up through the 4-ary tree (parent of i is
    // (i - 1) / 4): shift displaced parents down and write the new node
    // once, instead of swapping 24 bytes at every level.
    std::size_t i = heap_.size();
    heap_.push_back(n);
    while (i != 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!lessThan(n, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = n;
}

EventQueue::Node
EventQueue::heapPopMin()
{
    const Node top = heap_.front();
    const Node last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
    return top;
}

void
EventQueue::siftDown(std::size_t i, Node moving)
{
    // Hole-based sift down: promote winning children into the hole and
    // place `moving` once at its final position. All four children are
    // 96 contiguous bytes, so the min-of-children scan stays within at
    // most two cache lines.
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t firstChild = 4 * i + 1;
        if (firstChild >= n)
            break;
        const std::size_t lastChild = std::min(firstChild + 4, n);
        std::size_t best = firstChild;
        for (std::size_t c = firstChild + 1; c < lastChild; ++c)
            if (lessThan(heap_[c], heap_[best]))
                best = c;
        if (!lessThan(heap_[best], moving))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = moving;
}

} // namespace smartref
