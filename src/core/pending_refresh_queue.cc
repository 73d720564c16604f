#include "core/pending_refresh_queue.hh"

namespace smartref {

PendingRefreshQueue::PendingRefreshQueue(std::size_t capacity,
                                         StatGroup *parent)
    : StatGroup("pendingQueue", parent),
      capacity_(capacity),
      pushed_(this, "pushed", "refresh requests enqueued"),
      overflows_(this, "overflows",
                 "requests arriving at a full queue (should be 0)")
{
    queue_.reserve(capacity_);
}

void
PendingRefreshQueue::push(const RefreshRequest &req)
{
    if (queue_.size() >= capacity_)
        ++overflows_;
    queue_.push_back(req);
    maxDepth_ = std::max(maxDepth_, queue_.size());
    ++pushed_;
}

bool
PendingRefreshQueue::markIssued(const RefreshRequest &req)
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->rank == req.rank && it->bank == req.bank &&
            it->row == req.row) {
            queue_.erase(it);
            return true;
        }
    }
    return false;
}

} // namespace smartref
