/**
 * @file
 * Steady-state allocation audit of the event kernel, the observability
 * hub's per-op hooks and whole campaign cells.
 *
 * The calendar queue recycles its bucket vectors and the callback/label
 * slots store captures inline, so after a warm-up phase that grows the
 * arena to its working-set size, scheduling and firing events must
 * perform zero heap allocations; an untraced hub must not allocate per
 * operation either.  A campaign worker re-arms one machine for every
 * cell, so a warmed run cell allocates only for its result and its
 * program, under a fixed budget.  This binary replaces the global
 * operator new/delete with counting versions and measures the delta
 * across a controlled region -- which is why the audit lives in its own
 * test executable rather than inside event_test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "campaign/fuzzer.hh"
#include "event/event_queue.hh"
#include "obs/obs.hh"

namespace {

std::uint64_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace wo {
namespace {

/**
 * A deterministic event mesh shaped like the simulator's traffic:
 * several self-rescheduling chains with mixed short/medium delays,
 * same-tick collisions, and an occasional burst past the wheel window.
 */
void
drive(EventQueue &q, std::uint64_t events)
{
    struct Chain
    {
        EventQueue *q;
        std::uint64_t *remaining;
        std::uint64_t rng;

        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Mostly near-monotone small delays, occasionally a hop
            // beyond the bucket wheel to exercise the overflow heap.
            const Tick delay =
                (rng % 97 == 0) ? 5000 + rng % 3000 : rng % 24;
            q->schedule(delay, "chain", *this);
        }
    };

    static std::uint64_t budgets[8];
    for (int c = 0; c < 8; ++c) {
        budgets[c] = events / 8;
        Chain chain{&q, &budgets[c],
                    0x9e3779b97f4a7c15ULL * (c + 1)};
        q.schedule(static_cast<Tick>(c), "seed", chain);
    }
    q.runAll();
}

TEST(EventAllocation, SteadyStateSchedulesWithoutAllocating)
{
    EventQueue q;
    // Warm-up: give every bucket of the wheel (and the overflow heap)
    // more capacity than the steady workload's peak per-tick occupancy,
    // then run the workload once to size anything shape-dependent.
    for (Tick t = 1; t <= 8192; ++t)
        for (int i = 0; i < 24; ++i)
            q.schedule(t, "warm", [] {});
    q.runAll();
    drive(q, 40'000);

    const std::uint64_t allocs_before = g_allocs;
    const std::uint64_t heap_cb_before = EventCallback::heapFallbacks();
    drive(q, 200'000);
    const std::uint64_t allocs = g_allocs - allocs_before;
    const std::uint64_t heap_cbs =
        EventCallback::heapFallbacks() - heap_cb_before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state event scheduling touched the heap";
    EXPECT_EQ(heap_cbs, 0u)
        << "a simulator-sized capture no longer fits the inline slot";
    EXPECT_GE(q.executed(), 240'000u);
}

TEST(ObsAllocation, UntracedOpHooksDoNotAllocate)
{
    // With the trace off and no ring or monitor attached, the hub's
    // per-op hooks only touch counters: a campaign cell pays no heap
    // traffic for operations it never renders.
    Obs obs(2);
    MemoryOp op;
    op.addr = 3;
    op.kind = AccessKind::data_read;
    auto cycle = [&obs, &op](std::uint64_t req) {
        const ProcId p = static_cast<ProcId>(req % 2);
        const Tick t = req * 10;
        obs.opIssue(p, req, "R", 3, 7, t, t + 1);
        obs.opCommit(p, req, t + 2);
        obs.stall(p, req, 3, StallPhase::commit_wait, OpSide::data, t + 1,
                  t + 2);
        obs.opPerform(p, req, t + 3);
        op.proc = p;
        op.commit_tick = t + 2;
        obs.opRetire(p, req, t + 4, op);
    };
    for (std::uint64_t req = 0; req < 100; ++req)
        cycle(req);

    const std::uint64_t allocs_before = g_allocs;
    for (std::uint64_t req = 100; req < 50'000; ++req)
        cycle(req);
    EXPECT_EQ(g_allocs - allocs_before, 0u)
        << "an untraced op lifecycle touched the heap";
    EXPECT_EQ(obs.unfinishedOps(), 0u);
}

TEST(CellAllocation, WarmedRunCellsStayUnderBudget)
{
    // The campaign benchmark's seed-1 lattice: base cells of the
    // default spec (litmus corpus and random draws x sc/def1/drf0 x
    // timing seeds), run the way a campaign worker runs them.
    constexpr std::size_t num_cells = 2'000;
    constexpr std::uint64_t max_events = 200'000;
    const Fuzzer fuzzer{CampaignSpec{}};
    std::vector<Cell> cells;
    cells.reserve(num_cells);
    for (std::uint64_t i = 0; i < num_cells; ++i)
        cells.push_back(fuzzer.baseCell(i));

    CellContext ctx;
    for (const Cell &c : cells)
        runCell(c, max_events, &ctx);

    const std::uint64_t allocs_before = g_allocs;
    std::uint64_t hw = 0;
    for (const Cell &c : cells)
        hw += runCell(c, max_events, &ctx).result.hw;
    const double per_cell =
        static_cast<double>(g_allocs - allocs_before) / num_cells;
    std::printf("warmed run cell: %.1f allocations\n", per_cell);
    EXPECT_EQ(hw, 0u);
    // The fresh-System path made ~569 per cell.
    EXPECT_LE(per_cell, 50.0)
        << "a warmed campaign cell allocates more than its budget";
}

} // namespace
} // namespace wo
