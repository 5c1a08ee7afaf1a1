/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "event/event_queue.hh"
#include "obs/obs.hh"

namespace wo {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, "c", [&] { order.push_back(3); });
    q.schedule(10, "a", [&] { order.push_back(1); });
    q.schedule(20, "b", [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(5, "e", [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 4)
            q.schedule(2, "chain", chain);
    };
    q.schedule(0, "start", chain);
    q.runAll();
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueue, ZeroDelayRunsThisTick)
{
    EventQueue q;
    Tick seen = max_tick;
    q.schedule(7, "outer", [&] {
        q.schedule(0, "inner", [&] { seen = q.now(); });
    });
    q.runAll();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), "t", [&] { ++count; });
    q.runUntil([&] { return count >= 3; });
    EXPECT_EQ(count, 3);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, "later", [] {});
    q.runAll();
    EXPECT_DEATH(q.scheduleAt(5, "past", [] {}), "past");
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 6; ++i)
        q.schedule(1, "x", [] {});
    EXPECT_EQ(q.pending(), 6u);
    q.runAll();
    EXPECT_EQ(q.executed(), 6u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LivelockGuardPanics)
{
    EventQueue q;
    std::function<void()> forever = [&] { q.schedule(1, "loop", forever); };
    q.schedule(0, "start", forever);
    EXPECT_DEATH(q.runAll(1000), "livelock");
}

// --- calendar-kernel specifics --------------------------------------

TEST(CalendarQueue, FarFutureEventsMigrateFromOverflow)
{
    // Delays far beyond the bucket-wheel window land in the overflow
    // heap and must migrate back in (tick, seq) order as time advances.
    EventQueue q;
    std::vector<int> order;
    q.schedule(1'000'000, "far", [&] { order.push_back(2); });
    q.schedule(5, "near", [&] { order.push_back(1); });
    q.schedule(123'456'789, "farther", [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 123'456'789u);
}

TEST(CalendarQueue, SameTickFifoSurvivesOverflowMigration)
{
    // All five land on the same far-future tick via the overflow heap;
    // schedule order must still be execution order.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1'000'000, "same", [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CalendarQueue, MixedNearAndFarSchedulingInterleaves)
{
    // A callback firing inside the window schedules both near and far;
    // the drain must interleave them strictly by (tick, seq).
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, "a", [&] {
        fired.push_back(q.now());
        q.schedule(100'000, "far", [&] { fired.push_back(q.now()); });
        q.schedule(3, "near", [&] { fired.push_back(q.now()); });
    });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 13, 100'010}));
}

TEST(CalendarQueue, ZeroDelayDuringBucketDrainStaysFifo)
{
    // Appending a zero-delay event while its own tick's bucket drains
    // must run it this tick, after everything already queued there.
    EventQueue q;
    std::vector<int> order;
    q.schedule(4, "first", [&] {
        order.push_back(1);
        q.schedule(0, "appended", [&] { order.push_back(3); });
    });
    q.schedule(4, "second", [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 4u);
}

TEST(CalendarQueue, MatchesGoldenDigestOnARandomSchedule)
{
    // One deterministic pseudo-random workload; its firing order (tick
    // and identity) must hash to the digest the pre-overhaul binary-heap
    // kernel produced on the same schedule.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    int id = 0;
    std::function<void(int)> spawn = [&](int depth) {
        const int me = id++;
        const Tick delay = next() % (depth % 3 == 0 ? 9'000 : 40);
        q.schedule(delay, "r", [&, me, depth] {
            fired.emplace_back(q.now(), me);
            if (id < 5000)
                spawn(depth + 1);
            if (depth % 5 == 0 && id < 5000)
                spawn(depth + 1);
        });
    };
    spawn(0);
    q.runAll();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &[tick, who] : fired) {
        h = (h ^ tick) * 0x100000001b3ULL;
        h = (h ^ static_cast<std::uint64_t>(who)) * 0x100000001b3ULL;
    }
    EXPECT_EQ(fired.size(), 5000u);
    EXPECT_EQ(h, 0xfa5074311fc5fd7bULL);
}

// --- lazy labels and allocation-free callbacks ----------------------

TEST(LazyLabel, NotMaterializedWithoutAConsumer)
{
    // The satellite regression: scheduling with lazy labels in a run
    // with no obs hub and non-verbose logging must render zero labels.
    const std::uint64_t before = EventLabel::lazyMaterializations();
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        q.schedule(static_cast<Tick>(i), [i] {
            return strprintf("event#%d", i);
        }, [&] { ++fired; });
    q.runAll();
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(EventLabel::lazyMaterializations() - before, 0u);
}

TEST(LazyLabel, MaterializedOncePerFiringWhenTraced)
{
    const std::uint64_t before = EventLabel::lazyMaterializations();
    Obs obs(1);
    obs.enableTrace();
    EventQueue q;
    q.setObs(&obs);
    for (int i = 0; i < 7; ++i)
        q.schedule(1, [i] { return strprintf("event#%d", i); }, [] {});
    q.runAll();
    EXPECT_EQ(EventLabel::lazyMaterializations() - before, 7u);
    // And the rendered text reached the trace.
    EXPECT_NE(obs.traceJsonl().find("event#6"), std::string::npos);
}

TEST(EventCallback, SimulatorSizedCapturesStayInline)
{
    const std::uint64_t before = EventCallback::heapFallbacks();
    EventQueue q;
    // The largest real capture in the simulator is a network delivery
    // (this + handler + a Message); six words stands in for it.
    struct { std::uint64_t a, b, c, d, e, f; } big = {1, 2, 3, 4, 5, 6};
    std::uint64_t sum = 0;
    for (int i = 0; i < 50; ++i)
        q.schedule(1, "inline", [&sum, big] { sum += big.f; });
    q.runAll();
    EXPECT_EQ(sum, 300u);
    EXPECT_EQ(EventCallback::heapFallbacks() - before, 0u);
}

TEST(EventCallback, OversizedCapturesFallBackToHeapAndStillRun)
{
    const std::uint64_t before = EventCallback::heapFallbacks();
    EventQueue q;
    struct { std::uint64_t w[16]; } huge = {};
    huge.w[15] = 9;
    std::uint64_t seen = 0;
    q.schedule(1, "huge", [&seen, huge] { seen = huge.w[15]; });
    q.runAll();
    EXPECT_EQ(seen, 9u);
    EXPECT_EQ(EventCallback::heapFallbacks() - before, 1u);
}

} // namespace
} // namespace wo
