/**
 * @file
 * Unit tests for the discrete-event engine: ordering, cancellation,
 * time monotonicity, runUntil semantics, FIFO among equal timestamps.
 */

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/coro.hpp"
#include "sim/event_queue.hpp"

using namespace bpd;
using namespace bpd::sim;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, FifoAmongEqualTimes)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; i++)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, AfterIsRelative)
{
    EventQueue eq;
    Time seen = 0;
    eq.schedule(100, [&]() {
        eq.after(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIdFails)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(kNoEvent));
    EXPECT_FALSE(eq.cancel(9999));
}

TEST(EventQueue, DoubleCancelFails)
{
    EventQueue eq;
    EventId id = eq.schedule(10, []() {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int count = 0;
    for (Time t = 10; t <= 100; t += 10)
        eq.schedule(t, [&]() { count++; });
    const std::size_t ran = eq.runUntil(50);
    EXPECT_EQ(ran, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue eq;
    eq.runUntil(1234);
    EXPECT_EQ(eq.now(), 1234u);
}

TEST(EventQueue, EventsCanScheduleAtSameTime)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { hits++; });
    });
    eq.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 7; i++)
        eq.after(static_cast<Time>(i), []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, PendingExcludesCancelled)
{
    EventQueue eq;
    EventId a = eq.schedule(5, []() {});
    eq.schedule(6, []() {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
}

TEST(EventQueue, CancelHeadTwiceThenDrain)
{
    // Regression: double-cancelling the head and draining must never
    // underflow the pending() count.
    EventQueue eq;
    EventId a = eq.schedule(10, []() {});
    int ran = 0;
    eq.schedule(10, [&ran]() { ran++; });
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne()); // skips the cancelled head, runs the other
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelExecutedIdFails)
{
    // Regression: cancelling an id that already ran must fail and must
    // not corrupt the pending() count (the old tombstone-set accounting
    // underflowed here).
    EventQueue eq;
    EventId a = eq.schedule(5, []() {});
    eq.run();
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RecycledSlotDoesNotAliasStaleId)
{
    EventQueue eq;
    EventId a = eq.schedule(5, []() {});
    EXPECT_TRUE(eq.cancel(a));
    eq.runUntil(5); // reclaims the cancelled slot
    bool ran = false;
    EventId b = eq.schedule(6, [&ran]() { ran = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.cancel(a)); // stale id must not hit the new event
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, OversizedCallbackFallsBackToHeap)
{
    EventQueue eq;
    struct Big
    {
        char payload[200] = {};
    } big;
    big.payload[0] = 42;
    char seen = 0;
    eq.schedule(1, [big, &seen]() { seen = big.payload[0]; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ManyCancelledZombiesDrainCleanly)
{
    EventQueue eq;
    int ran = 0;
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; i++)
        ids.push_back(eq.schedule(10, [&ran]() { ran++; }));
    for (int i = 0; i < 1000; i += 2)
        EXPECT_TRUE(eq.cancel(ids[i]));
    EXPECT_EQ(eq.pending(), 500u);
    eq.run();
    EXPECT_EQ(ran, 500);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 500u);
}

/**
 * Callbacks run in place in their slab slot. A running callback that
 * schedules more events than one slab chunk holds makes the slab grow
 * under it; its own captures must stay intact (chunks never move; ASan
 * would flag a relocated slot) and every event still runs in (time,
 * seq) order.
 */
TEST(EventQueue, RunningCallbackOutgrowsSlabChunk)
{
    EventQueue eq;
    const int n = 2 * static_cast<int>(EventQueue::kSlabChunkSlots) + 7;
    std::vector<std::pair<Time, int>> ran;
    std::array<std::uint64_t, 8> payload{};
    for (std::size_t i = 0; i < payload.size(); i++)
        payload[i] = 0x1000 + i;
    std::uint64_t seenSum = 0;
    eq.schedule(10, [&eq, &ran, &seenSum, payload, n]() {
        for (int i = 0; i < n; i++) {
            // Times 11..15 with many same-time ties, scheduled out of
            // time order.
            const Time when = 11 + static_cast<Time>((i * 7) % 5);
            eq.schedule(when, [&ran, &eq, i]() {
                ran.emplace_back(eq.now(), i);
            });
        }
        for (std::uint64_t v : payload)
            seenSum += v;
    });
    eq.run();

    std::uint64_t wantSum = 0;
    for (std::size_t i = 0; i < payload.size(); i++)
        wantSum += 0x1000 + i;
    EXPECT_EQ(seenSum, wantSum);
    ASSERT_EQ(ran.size(), static_cast<std::size_t>(n));
    // (time, seq) order: ascending time, schedule order within a time.
    EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n) + 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunningCallbackCannotCancelItself)
{
    EventQueue eq;
    EventId self = kNoEvent;
    bool cancelled = true;
    self = eq.schedule(5, [&eq, &self, &cancelled]() {
        cancelled = eq.cancel(self);
    });
    eq.run();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.cancel(self)); // still stale once it has returned
}

TEST(EventQueue, NestedRunInsideCallbackDrains)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1, [&eq, &order]() {
        order.push_back(1);
        eq.after(5, [&order]() { order.push_back(2); });
        eq.after(5, [&eq, &order]() {
            order.push_back(3);
            eq.after(1, [&order]() { order.push_back(4); });
        });
        eq.run(); // drains everything scheduled so far
        EXPECT_EQ(eq.now(), 7u);
        EXPECT_TRUE(eq.empty());
        order.push_back(5);
        eq.after(2, [&order]() { order.push_back(6); });
    });
    eq.schedule(3, [&order]() { order.push_back(7); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 7, 2, 3, 4, 5, 6}));
    EXPECT_EQ(eq.now(), 9u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 6u);
}

TEST(EventQueue, ReadyMadeCallbackIsMovedIn)
{
    EventQueue eq;
    int got = 0;
    EventQueue::Callback cb = [&got]() { got = 42; };
    eq.schedule(3, std::move(cb));
    EXPECT_FALSE(static_cast<bool>(cb));
    eq.run();
    EXPECT_EQ(got, 42);
}

// --- Coroutine layer ---
//
// NOTE: coroutine bodies are free functions taking parameters (copied
// into the frame), never capturing lambdas — a capturing lambda's
// captures die with the lambda object while the frame lives on.

namespace {

Task
delayTask(EventQueue &eq, Time *done)
{
    co_await delay(eq, 100);
    co_await delay(eq, 50);
    *done = eq.now();
}

Task
awaitIntFuture(Future<int> fut, int *got)
{
    *got = co_await fut;
}

Task
awaitLongFuture(Future<long long> fut, long long *got)
{
    *got = co_await fut;
}

Co<int>
doubleAfterDelay(EventQueue &eq, int x)
{
    co_await delay(eq, 10);
    co_return x * 2;
}

Task
nestedTask(EventQueue &eq, int *got)
{
    *got = co_await doubleAfterDelay(eq, 21);
}

} // namespace

TEST(Coro, DelayAdvancesTime)
{
    EventQueue eq;
    Time done = 0;
    delayTask(eq, &done);
    eq.run();
    EXPECT_EQ(done, 150u);
}

TEST(Coro, FutureBridgesCallbacks)
{
    EventQueue eq;
    Future<int> fut;
    int got = 0;
    awaitIntFuture(fut, &got);
    eq.schedule(10, [fut]() { fut.resolve(42); });
    eq.run();
    EXPECT_EQ(got, 42);
}

TEST(Coro, FutureResolvedBeforeAwait)
{
    EventQueue eq;
    Future<int> fut;
    fut.resolve(7);
    int got = 0;
    awaitIntFuture(fut, &got);
    eq.run();
    EXPECT_EQ(got, 7);
}

TEST(Coro, NestedCoReturnsValue)
{
    EventQueue eq;
    int got = 0;
    nestedTask(eq, &got);
    eq.run();
    EXPECT_EQ(got, 42);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(Coro, ResolverAdapter)
{
    EventQueue eq;
    Future<long long> fut;
    auto cb = fut.resolver();
    long long got = 0;
    awaitLongFuture(fut, &got);
    eq.schedule(5, [cb]() { cb(99); });
    eq.run();
    EXPECT_EQ(got, 99);
}

/**
 * Window execution, the building block of the sharded executor: run
 * strictly below a bound, leave the rest pending, and do not advance
 * the clock past the last executed event (the next window, or a
 * cross-shard delivery, decides what time it is).
 */
TEST(EventQueue, RunWindowStopsBelowBound)
{
    EventQueue eq;
    std::vector<int> got;
    for (int i : {10, 20, 30})
        eq.schedule(i, [&got, i]() { got.push_back(i); });

    EXPECT_EQ(eq.runWindow(20), 1u); // 20 itself is excluded
    EXPECT_EQ(got, (std::vector<int>{10}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 2u);

    EXPECT_EQ(eq.runWindow(31), 2u);
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.runWindow(kNever), 0u); // idle drain is a no-op
}

TEST(EventQueue, NextEventTimeSkipsCancelledHead)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTime(), kNever);
    const EventId a = eq.schedule(5, []() {});
    eq.schedule(9, []() {});
    EXPECT_EQ(eq.nextEventTime(), 5u);
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_EQ(eq.nextEventTime(), 9u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueueDeath, ScheduleIntoPastPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_DEATH(eq.schedule(5, []() {}), "scheduling into the past");
}
