#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/ring_queue.hh"

using namespace smartref;

namespace {

std::vector<int>
drain(RingQueue<int> &q)
{
    std::vector<int> out;
    while (!q.empty())
        out.push_back(q.popFront());
    return out;
}

} // namespace

TEST(RingQueue, GrowsWhileWrappedAndKeepsFifoOrder)
{
    // Advance the head so the next pushes wrap around the end of the
    // initial four-slot ring, then grow it while it is wrapped.
    RingQueue<int> q;
    for (int i = 0; i < 3; ++i)
        q.pushBack(i);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(q.popFront(), i);
    for (int i = 10; i < 19; ++i)
        q.pushBack(i);
    EXPECT_EQ(q.size(), 9u);
    EXPECT_EQ(q.front(), 10);
    EXPECT_EQ(drain(q), (std::vector<int>{10, 11, 12, 13, 14, 15, 16, 17,
                                          18}));
}

TEST(RingQueue, PushFrontJumpsTheQueue)
{
    RingQueue<int> q;
    q.pushBack(5);
    q.pushBack(6);
    for (int i : {3, 2, 1})
        q.pushFront(i);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3, 5, 6}));
}

TEST(RingQueue, ReverseFrontRestoresPushOrderAcrossTheWrap)
{
    // The controller's DARP force path pushes expired refreshes to the
    // front oldest first, then reverses that run, so they leave in
    // their original order ahead of queued demand. From head 0 the
    // pushes wrap around the end of the ring.
    RingQueue<int> q;
    q.pushBack(5);
    q.pushBack(6);
    for (int i : {1, 2, 3})
        q.pushFront(i);
    q.reverseFront(3);
    EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3, 5, 6}));

    for (int i : {7, 8})
        q.pushBack(i);
    q.reverseFront(0);
    q.reverseFront(1);
    EXPECT_EQ(drain(q), (std::vector<int>{7, 8}));
}

TEST(RingQueue, PopFrontMovesOutMoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> q;
    q.pushBack(std::make_unique<int>(7));
    q.pushFront(std::make_unique<int>(6));
    const std::unique_ptr<int> first = q.popFront();
    ASSERT_TRUE(first);
    EXPECT_EQ(*first, 6);
    EXPECT_EQ(*q.popFront(), 7);
    EXPECT_TRUE(q.empty());
}
