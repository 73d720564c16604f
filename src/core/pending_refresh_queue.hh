/**
 * @file
 * The pending refresh request queue (paper Section 5, Figure 5).
 *
 * Expired counters enqueue refresh requests here; the memory controller
 * drains them into RAS-only refresh commands. The paper sizes the queue
 * at the segment count (8) and argues it can never overflow because at
 * most N requests are generated per counter-access step and a step
 * interval comfortably covers N row-refresh times. This implementation
 * keeps the bound *observable*: depth and overflow statistics are
 * recorded so the claim is checked by tests rather than assumed.
 *
 * The entries live in a vector reserved at the capacity: at a handful
 * of 24-byte entries, erasing from the middle is a short shift, and
 * unlike a deque the storage is never freed and reallocated as
 * requests come and go.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/mem_request.hh"
#include "sim/stats.hh"

namespace smartref {

/** Bounded-by-contract FIFO of outstanding refresh requests. */
class PendingRefreshQueue : public StatGroup
{
  public:
    PendingRefreshQueue(std::size_t capacity, StatGroup *parent);

    /** Nominal capacity (the paper's 8). */
    std::size_t capacity() const { return capacity_; }

    std::size_t depth() const { return queue_.size(); }
    std::size_t maxDepth() const { return maxDepth_; }

    /** Requests that found the queue already at capacity. */
    std::uint64_t
    overflows() const
    {
        return static_cast<std::uint64_t>(overflows_.value());
    }

    /** Enqueue a request (always accepted; overflow is recorded). */
    void push(const RefreshRequest &req);

    /**
     * Remove the entry matching an issued refresh. Engines may drain
     * banks out of order, so this searches rather than pops the front.
     * @return true if a matching entry was found
     */
    bool markIssued(const RefreshRequest &req);

    bool empty() const { return queue_.empty(); }

  private:
    std::size_t capacity_;
    std::vector<RefreshRequest> queue_;
    std::size_t maxDepth_ = 0;
    Scalar pushed_;
    Scalar overflows_;
};

} // namespace smartref
