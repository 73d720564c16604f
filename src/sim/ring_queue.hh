/**
 * @file
 * A double-ended FIFO over a power-of-two ring that keeps its storage.
 *
 * std::deque frees and reallocates a node every few elements under
 * steady FIFO traffic, so a queue that never holds more than a handful
 * of items still allocates all the time. RingQueue grows (doubling) only
 * when it is full; once it has reached the deepest backlog it will see,
 * pushes and pops never allocate. Popped slots keep their moved-from
 * element until a later push overwrites it.
 */

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace smartref {

/** FIFO with push-front; `T` must be default-constructible and movable. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &
    front()
    {
        SMARTREF_ASSERT(size_ > 0, "front() of an empty ring");
        return buf_[head_];
    }

    void
    pushBack(T value)
    {
        growIfFull();
        buf_[(head_ + size_) & mask()] = std::move(value);
        ++size_;
    }

    void
    pushFront(T value)
    {
        growIfFull();
        head_ = (head_ + mask()) & mask();
        buf_[head_] = std::move(value);
        ++size_;
    }

    /** Reverse the order of the first `n` elements in place. */
    void
    reverseFront(std::size_t n)
    {
        SMARTREF_ASSERT(n <= size_, "reverseFront() past the end");
        for (std::size_t i = 0; i < n / 2; ++i)
            std::swap(buf_[(head_ + i) & mask()],
                      buf_[(head_ + n - 1 - i) & mask()]);
    }

    /** Remove the front element and return it. */
    T
    popFront()
    {
        SMARTREF_ASSERT(size_ > 0, "popFront() of an empty ring");
        T value = std::move(buf_[head_]);
        head_ = (head_ + 1) & mask();
        --size_;
        return value;
    }

  private:
    std::size_t mask() const { return buf_.size() - 1; }

    void
    growIfFull()
    {
        if (size_ < buf_.size())
            return;
        std::vector<T> bigger(buf_.empty() ? 4 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(buf_[(head_ + i) & mask()]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_; ///< capacity is zero or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace smartref
