/**
 * @file
 * Steady-state allocation audit of the explorer's hot path.
 *
 * The DPOR hot loop keys its visited table with HashEnc, a streaming
 * 128-bit hasher that folds the same bytes StateEnc would materialize.
 * Two contracts keep that substitution honest:
 *
 *   1. hashing a state allocates nothing -- the whole point of
 *      replacing the std::string encoding on the hot path;
 *   2. the streaming key equals hashBytes over the StateEnc string,
 *      byte for byte, on reachable states of every model -- so the
 *      cold paths (golden tests, divergence dumps) and the hot path
 *      can never disagree about state identity.  The contract covers
 *      a program past every inline capacity of a state too, whose
 *      threads, memory and pools live on the heap.
 *
 * A third bounds the whole engine: model states are inline values
 * (inline_vec.hh), so a DPOR exploration allocates about one successor
 * list per explored state, not a handful of vectors per state copy.
 *
 * Like event_alloc_test, this binary replaces global operator
 * new/delete with counting versions, which is why it lives in its own
 * test executable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "asm/assembler.hh"
#include "models/explorer.hh"
#include "models/model_registry.hh"
#include "models/state_enc.hh"

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

/** A racy program whose runs populate every model's queue machinery. */
Program
racyProgram()
{
    AsmResult a = assembleString("program alloc_audit\n"
                                 "thread 0\n"
                                 "  st a 1\n"
                                 "  st b 2\n"
                                 "  ld r0 b\n"
                                 "  ld r1 a\n"
                                 "thread 1\n"
                                 "  st b 3\n"
                                 "  st a 4\n"
                                 "  ld r0 a\n"
                                 "  ld r1 b\n");
    EXPECT_TRUE(a.ok());
    return *a.program;
}

/** Past every inline capacity of a state (see the program's header). */
Program
spillProgram()
{
    AsmResult a = assembleFile(WO_TEST_PROGRAMS_DIR "/spill6x10.wo");
    EXPECT_TRUE(a.ok());
    return *a.program;
}

/** A three-thread race: a few thousand DPOR states on every model. */
Program
racyTrio()
{
    AsmResult a = assembleString("program alloc_trio\n"
                                 "thread 0\n  st a 1\n  st b 1\n"
                                 "  ld r0 c\n  ld r1 b\n"
                                 "thread 1\n  st b 2\n  ld r0 a\n"
                                 "  ld r1 c\n"
                                 "thread 2\n  st c 3\n  ld r0 b\n"
                                 "  ld r1 a\n");
    EXPECT_TRUE(a.ok());
    return *a.program;
}

TEST(ExploreAllocation, HashingAStateNeverTouchesTheHeap)
{
    const Program prog = racyProgram();
    for (const std::string &model : modelNames()) {
        ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
            // Step into the state space far enough that buffers, pools,
            // in-flight queues, and inboxes are non-empty: the audit
            // must cover the variable-length sections of the encoding.
            auto s = m.initial();
            for (int depth = 0; depth < 4; ++depth) {
                auto succs = m.labeledSuccessors(s);
                if (succs.empty())
                    break;
                s = std::move(succs.back().state);
            }
            volatile std::uint64_t sink = 0;
            const std::uint64_t before = g_allocs;
            for (int i = 0; i < 10'000; ++i) {
                const StateHash h = m.hashState(s);
                sink = sink + (h.lo ^ h.hi);
            }
            EXPECT_EQ(g_allocs - before, 0u)
                << model << ": hashState touched the heap";
        })) << model;
    }
}

TEST(ExploreAllocation, StreamingHashEqualsHashOfEncodedBytes)
{
    const Program prog = racyProgram();
    for (const std::string &model : modelNames()) {
        ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
            // Walk a few hundred reachable states depth-first (no dedup
            // needed; the cap bounds the walk) and demand key equality
            // on every one.
            using State = decltype(m.initial());
            std::vector<State> stack;
            stack.push_back(m.initial());
            std::size_t checked = 0;
            while (!stack.empty() && checked < 300) {
                State s = std::move(stack.back());
                stack.pop_back();
                ++checked;
                const StateHash streamed = m.hashState(s);
                const StateHash reference = hashBytes(m.encode(s));
                ASSERT_TRUE(streamed == reference)
                    << model << ": hot- and cold-path keys diverged";
                for (auto &ls : m.labeledSuccessors(s))
                    stack.push_back(std::move(ls.state));
            }
            EXPECT_GE(checked, 30u) << model;
        })) << model;
    }
}

/** Keys agree on every state @p m reaches (the spill program's few). */
template <typename M>
void
expectAllKeysAgree(const M &m, const std::string &what)
{
    using State = typename M::State;
    std::vector<State> stack{m.initial()};
    std::size_t checked = 0;
    while (!stack.empty() && checked < 2'000) {
        State s = std::move(stack.back());
        stack.pop_back();
        ++checked;
        ASSERT_TRUE(m.hashState(s) == hashBytes(m.encode(s)))
            << what << ": hot- and cold-path keys diverged";
        for (auto &ls : m.labeledSuccessors(s))
            stack.push_back(std::move(ls.state));
    }
    EXPECT_GE(checked, 30u) << what;
}

TEST(ExploreAllocation, StreamingHashEqualsHashOfEncodedBytesPastInlineCapacity)
{
    const Program prog = spillProgram();
    for (const std::string &model : modelNames())
        ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
            expectAllKeysAgree(m, model);
        })) << model;
    expectAllKeysAgree(WriteBufferModel(prog, /*capacity=*/8),
                       "wb, capacity 8");
}

TEST(ExploreAllocation, SpillProgramOutgrowsEveryInlineCapacity)
{
    // The spill program is only a spill test while it really spills.
    const Program prog = spillProgram();
    WriteBufferModel m(prog, /*capacity=*/8);
    auto s = m.initial();
    EXPECT_TRUE(s.threads.spilled());
    EXPECT_TRUE(s.mem.spilled());
    EXPECT_TRUE(s.pools.spilled());
    for (int i = 0; i < 4; ++i)
        s = *m.stepLabel(s, instrLabel(0));
    EXPECT_FALSE(s.pools[0].spilled()) << "four writes fit inline";
    s = *m.stepLabel(s, instrLabel(0));
    EXPECT_EQ(s.pools[0].size(), 5u);
    EXPECT_TRUE(s.pools[0].spilled());
}

TEST(ExploreAllocation, DporExploresWithoutPerStateAllocation)
{
    // Per explored state the engine materializes one successor list
    // (a std::vector, the model concept's type) and rarely more; the
    // states in it, their sleep sets and the worker's task queue
    // allocate nothing.  The budget also absorbs the fixed costs of a
    // small exploration (visited shards, memo, outcome set).
    const Program prog = racyTrio();
    for (const std::string &model : modelNames()) {
        ASSERT_TRUE(withModelByName(prog, model, [&](auto &m) {
            ExploreCfg cfg;
            const std::uint64_t before = g_allocs;
            const ExploreResult r = exploreOutcomesDpor(m, cfg);
            const std::uint64_t allocs = g_allocs - before;
            ASSERT_TRUE(r.conclusive()) << model;
            ASSERT_GE(r.states, 200u) << model;
            const double per_state =
                static_cast<double>(allocs) / static_cast<double>(r.states);
            std::printf("%-7s %6llu states  %8llu allocations  %.2f per "
                        "state\n",
                        model.c_str(),
                        static_cast<unsigned long long>(r.states),
                        static_cast<unsigned long long>(allocs), per_state);
            EXPECT_LE(per_state, 4.0) << model;
        })) << model;
    }
}

} // namespace
} // namespace wo
