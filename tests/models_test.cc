/**
 * @file
 * Tests for the abstract operational models and the explorer: the Figure-1
 * reproduction lives here in unit form (each relaxed configuration admits
 * the both-killed outcome, the SC machine does not), plus model-specific
 * behaviours (forwarding, reservations, per-location ordering).
 */

#include <gtest/gtest.h>

#include "models/explorer.hh"
#include "models/network_model.hh"
#include "models/sc_model.hh"
#include "models/stale_cache_model.hh"
#include "models/wo_def1_model.hh"
#include "models/wo_drf0_model.hh"
#include "models/write_buffer_model.hh"
#include "program/builder.hh"
#include "program/litmus.hh"

namespace wo {
namespace {

/** Does the outcome set contain an outcome satisfying @p pred? */
template <typename Pred>
bool
anyOutcome(const ExploreResult &r, Pred pred)
{
    for (const auto &o : r.outcomes)
        if (pred(o))
            return true;
    return false;
}

/** r0 of both processors zero: Figure 1's "both killed". */
bool
bothKilled(const Outcome &o)
{
    return o.regs[0][0] == 0 && o.regs[1][0] == 0;
}

TEST(ScModel, Fig1HasExactlyThreeOutcomes)
{
    Program p = litmus::fig1StoreBuffer();
    ScModel m(p);
    auto r = exploreOutcomes(m);
    EXPECT_FALSE(r.truncated);
    EXPECT_FALSE(r.stuck);
    EXPECT_EQ(r.outcomes.size(), 3u) << "(0,1) (1,0) (1,1)";
    EXPECT_FALSE(anyOutcome(r, bothKilled));
}

TEST(ScModel, SingleThreadIsDeterministic)
{
    ProgramBuilder b("seq", 1);
    b.thread(0).store(0, 5).load(0, 0).addi(0, 0, 1).storeReg(1, 0).halt();
    Program p = b.build();
    ScModel m(p);
    auto r = exploreOutcomes(m);
    ASSERT_EQ(r.outcomes.size(), 1u);
    EXPECT_EQ(r.outcomes.begin()->memory[1], 6);
}

TEST(ScModel, StepRecordsTrace)
{
    Program p = litmus::fig1StoreBuffer();
    ScModel m(p);
    auto s = m.initial();
    Execution trace(p.numThreads(), p.numLocations(), p.initialMemory());
    while (!m.isFinal(s)) {
        bool stepped = false;
        for (ProcId q = 0; q < p.numThreads(); ++q)
            if (m.step(s, q, &trace)) {
                stepped = true;
                break;
            }
        ASSERT_TRUE(stepped);
    }
    EXPECT_EQ(trace.ops().size(), 4u);
    EXPECT_TRUE(trace.valuesPlausible());
}

TEST(WriteBufferModel, AdmitsBothKilled)
{
    Program p = litmus::fig1StoreBuffer();
    WriteBufferModel m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, bothKilled))
        << "reads passing buffered writes must allow (0,0)";
    // And it is a strict superset of SC for this program.
    ScModel sc(p);
    EXPECT_TRUE(exploreOutcomes(sc).subsetOf(r));
}

TEST(WriteBufferModel, ForwardsOwnBufferedStore)
{
    ProgramBuilder b("fwd", 1);
    b.thread(0).store(0, 9).load(0, 0).halt();
    Program p = b.build();
    WriteBufferModel m(p);
    auto r = exploreOutcomes(m);
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[0][0], 9) << "store-to-load forwarding";
}

TEST(WriteBufferModel, SyncDrainsBuffer)
{
    // With sync ops around the accesses, MP must be exact.
    Program p = litmus::messagePassingSync();
    WriteBufferModel m(p);
    auto r = exploreOutcomes(m);
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][1], 1)
            << "after the sync flag is observed, data must be visible";
}

TEST(NetworkModel, AdmitsBothKilled)
{
    Program p = litmus::fig1StoreBuffer();
    NetworkReorderModel m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, bothKilled));
}

TEST(NetworkModel, PerLocationOrderPreserved)
{
    // P0 writes x twice; P1 reads x twice.  New-then-old is forbidden
    // because same-location writes arrive in order.
    ProgramBuilder b("colo", 2);
    b.thread(0).store(0, 1).store(0, 2).halt();
    b.thread(1).load(0, 0).load(1, 0).halt();
    Program p = b.build();
    NetworkReorderModel m(p);
    auto r = exploreOutcomes(m);
    for (const auto &o : r.outcomes)
        EXPECT_FALSE(o.regs[1][0] == 2 && o.regs[1][1] == 1)
            << "x=2 then x=1 would violate per-location ordering";
}

TEST(StaleCacheModel, AdmitsBothKilled)
{
    Program p = litmus::fig1StoreBuffer();
    StaleCacheModel m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, bothKilled))
        << "reads of stale cached copies must allow (0,0)";
}

TEST(StaleCacheModel, CoherentPerLocation)
{
    Program p = litmus::coherenceCoRR();
    StaleCacheModel m(p);
    auto r = exploreOutcomes(m);
    for (const auto &o : r.outcomes)
        EXPECT_FALSE(o.regs[1][0] == 1 && o.regs[1][1] == 0)
            << "new-then-old violates per-reader delivery order";
}

TEST(WoDef1Model, AdmitsBothKilledBetweenSyncs)
{
    Program p = litmus::fig1StoreBuffer();
    WoDef1Model m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, bothKilled))
        << "data accesses are unordered without synchronization";
}

TEST(WoDef1Model, MessagePassingWithoutSyncFails)
{
    Program p = litmus::messagePassing();
    WoDef1Model m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, [](const Outcome &o) {
        return o.regs[1][0] == 1 && o.regs[1][1] == 0;
    })) << "stale data after racy flag must be possible";
}

TEST(WoDef1Model, MessagePassingWithSyncIsExact)
{
    Program p = litmus::messagePassingSync();
    WoDef1Model m(p);
    auto r = exploreOutcomes(m);
    ASSERT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][1], 1);
}

TEST(WoDrf0Model, AdmitsBothKilled)
{
    Program p = litmus::fig1StoreBuffer();
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, bothKilled));
}

TEST(WoDrf0Model, MessagePassingWithSyncIsExact)
{
    Program p = litmus::messagePassingSync();
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    ASSERT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][1], 1)
            << "the reservation must hold P1's sync until data drains";
}

TEST(WoDrf0Model, Fig3AlwaysReadsOne)
{
    Program p = litmus::fig3Scenario();
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    ASSERT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][0], 1)
            << "P1's TAS succeeds only after W(x) is globally performed";
}

TEST(WoDrf0Model, LockedCounterIsExact)
{
    Program p = litmus::lockedCounter(2, 2);
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m, ExploreCfg{20'000'000});
    ASSERT_FALSE(r.outcomes.empty());
    EXPECT_FALSE(r.truncated);
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.memory[1], 4) << "2 procs x 2 increments";
}

TEST(WoDrf0Model, RacyCounterCanLoseUpdates)
{
    Program p = litmus::racyCounter(2, 1);
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    EXPECT_TRUE(anyOutcome(r, [](const Outcome &o) {
        return o.memory[0] == 1;
    })) << "racy increments may collide";
}

TEST(WoDrf0Model, WeakSyncReadRefinementStillCorrectForTestAndTas)
{
    // Test-and-TAS acquire depends on the TAS for ordering, so the
    // refinement must preserve the outcome.
    Program p = litmus::fig3ScenarioTestAndTas();
    WoDrf0Model m(p, 4, /*weak_sync_read=*/true);
    auto r = exploreOutcomes(m);
    ASSERT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][0], 1);
}

TEST(WoDrf0Model, WeakSyncReadOnlyAddsBehaviours)
{
    // Dropping the Test-side reservations can only remove blocking, so the
    // refined machine's outcome set contains the base machine's.
    for (const Program &p :
         {litmus::messagePassingSync(), litmus::fig3ScenarioTestAndTas(),
          litmus::fig1StoreBuffer()}) {
        WoDrf0Model base(p, 4, /*weak_sync_read=*/false);
        WoDrf0Model refined(p, 4, /*weak_sync_read=*/true);
        EXPECT_TRUE(
            exploreOutcomes(base).subsetOf(exploreOutcomes(refined)))
            << p.name();
    }
}

TEST(WoDrf0Model, WeakSyncReadStillExactForReleaseAcquire)
{
    // messagePassingSync releases with a sync *write* and acquires with a
    // sync-read spin; the refinement must keep it sequentially consistent,
    // because the acquire side still honors the release's reservation.
    Program p = litmus::messagePassingSync();
    WoDrf0Model m(p, 4, /*weak_sync_read=*/true);
    auto r = exploreOutcomes(m);
    ASSERT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][1], 1);
}

TEST(PendingPool, ForwardReturnsYoungestMatch)
{
    PendingPool pool{{0, 1}, {1, 5}, {0, 2}};
    EXPECT_EQ(poolForward(pool, 0), 2);
    EXPECT_EQ(poolForward(pool, 1), 5);
    EXPECT_FALSE(poolForward(pool, 9).has_value());
}

TEST(PendingPool, DrainKeepsPerLocationOrder)
{
    PendingPool pool{{0, 1}, {1, 5}, {0, 2}};
    EXPECT_TRUE(poolMayDrain(pool, 0));
    EXPECT_TRUE(poolMayDrain(pool, 1));
    EXPECT_FALSE(poolMayDrain(pool, 2)) << "older write to 0 pending";
}

TEST(WoDef1Model, OwnPendingWriteForwarded)
{
    // A processor must always read its own latest pending write.
    ProgramBuilder b("fwd-own", 1);
    b.thread(0).store(0, 7).load(0, 0).halt();
    Program p = b.build();
    WoDef1Model m(p);
    auto r = exploreOutcomes(m);
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[0][0], 7);
}

TEST(WoDef1Model, PerLocationProgramOrderPreserved)
{
    ProgramBuilder b("wwsame", 1);
    b.thread(0).store(0, 1).store(0, 2).halt();
    Program p = b.build();
    WoDef1Model m(p);
    for (const auto &o : exploreOutcomes(m).outcomes)
        EXPECT_EQ(o.memory[0], 2) << "same-location writes stay ordered";
}

TEST(WoDrf0Model, OwnReservationDoesNotBlockSelf)
{
    // P0 reserves s (pending data write) and then synchronizes on s again
    // itself: condition 5 restricts only OTHER processors.
    ProgramBuilder b("self-sync", 1);
    b.thread(0).store(0, 1).syncStore(1, 1).testAndSet(2, 1).halt();
    Program p = b.build();
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    EXPECT_FALSE(r.stuck);
    ASSERT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[0][2], 1) << "TAS reads own sync store";
}

TEST(WoDrf0Model, CrossedReleaseAcquireDoesNotDeadlockAbstractly)
{
    // The abstract machine implements condition 5 with per-synchronization
    // prefixes ("the more dynamic solution"), so the crossed pattern that
    // deadlocks the literal queue-mode hardware terminates here.
    const Addr d0 = 0, d1 = 1, A = 2, B = 3;
    ProgramBuilder b("crossed-abstract", 2);
    b.thread(0).store(d0, 1).release(A).acquireTasOnly(B).halt();
    b.thread(1).store(d1, 1).release(B).acquireTasOnly(A).halt();
    Program p = b.build();
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    EXPECT_FALSE(r.stuck) << "no reachable deadlock";
    EXPECT_FALSE(r.outcomes.empty());
    for (const auto &o : r.outcomes) {
        EXPECT_EQ(o.memory[d0], 1);
        EXPECT_EQ(o.memory[d1], 1);
    }
}

TEST(WoDrf0Model, ReservationOrdersDataBeforeSubsequentSync)
{
    // Directly probe condition 5 in the abstract machine: after P1's TAS
    // on the released location succeeds, P0's pre-release write must be
    // visible -- in every reachable state, not just final ones.
    Program p = litmus::fig3Scenario();
    WoDrf0Model m(p);
    auto r = exploreOutcomes(m);
    for (const auto &o : r.outcomes)
        EXPECT_EQ(o.regs[1][0], 1);
    EXPECT_FALSE(r.stuck);
}

TEST(Explorer, TruncationFlagHonoursBudget)
{
    Program p = litmus::lockedCounter(3, 2);
    WoDrf0Model m(p);
    ExploreCfg cfg;
    cfg.max_states = 50;
    auto r = exploreOutcomes(m, cfg);
    EXPECT_TRUE(r.truncated);
}

TEST(Explorer, WitnessChainReachesTheOutcome)
{
    Program p = litmus::fig1StoreBuffer();
    WriteBufferModel m(p);
    auto r = exploreOutcomes(m);
    // Find the both-killed outcome and ask for a witness.
    const Outcome *target = nullptr;
    for (const auto &o : r.outcomes)
        if (bothKilled(o))
            target = &o;
    ASSERT_NE(target, nullptr);
    const auto found = witnessChain(m, [&](const auto &s) {
        return m.isFinal(s) && m.outcome(s) == *target;
    });
    const auto &chain = found.chain;
    ASSERT_FALSE(chain.empty());
    EXPECT_FALSE(found.truncated);
    ASSERT_EQ(found.labels.size() + 1, chain.size());
    // The chain starts at the initial state and ends in a final state
    // with the requested outcome, advancing one transition at a time.
    EXPECT_EQ(m.encode(chain.front()), m.encode(m.initial()));
    EXPECT_TRUE(m.isFinal(chain.back()));
    EXPECT_TRUE(m.outcome(chain.back()) == *target);
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
        bool is_succ = false;
        for (const auto &succ : m.labeledSuccessors(chain[k]))
            is_succ = is_succ || (succ.label == found.labels[k] &&
                                  m.encode(succ.state) ==
                                      m.encode(chain[k + 1]));
        EXPECT_TRUE(is_succ) << "chain step " << k << " is not an edge";
    }
    // Dumps render without dying and mention the write buffer.
    std::string text;
    for (const auto &st : chain)
        text += m.dump(st);
    EXPECT_NE(text.find("mem:"), std::string::npos);
    EXPECT_NE(text.find("buffer:"), std::string::npos);
}

TEST(Explorer, WitnessChainEmptyForUnreachableOutcome)
{
    Program p = litmus::fig1StoreBuffer();
    ScModel m(p);
    Outcome impossible;
    impossible.regs = {{99}, {99}};
    impossible.memory = {7, 7};
    const auto found = witnessChain(m, [&](const auto &s) {
        return m.isFinal(s) && m.outcome(s) == impossible;
    });
    EXPECT_TRUE(found.chain.empty());
    EXPECT_FALSE(found.truncated);
    EXPECT_GT(found.states, 0u);
}

TEST(Explorer, WitnessChainReportsTheBudgetCut)
{
    Program p = litmus::fig1StoreBuffer();
    WriteBufferModel m(p);
    ExploreCfg cfg;
    cfg.max_states = 3;
    const auto found =
        witnessChain(m, [&](const auto &s) { return m.isFinal(s); }, cfg);
    EXPECT_TRUE(found.chain.empty());
    EXPECT_TRUE(found.truncated);
    EXPECT_EQ(found.states, 3u);
}

TEST(Explorer, AllModelDumpsRender)
{
    Program p = litmus::messagePassingSync();
    auto nonempty = [](const std::string &s) { return !s.empty(); };
    EXPECT_TRUE(nonempty(ScModel(p).dump(ScModel(p).initial())));
    EXPECT_TRUE(nonempty(
        WriteBufferModel(p).dump(WriteBufferModel(p).initial())));
    EXPECT_TRUE(nonempty(
        NetworkReorderModel(p).dump(NetworkReorderModel(p).initial())));
    EXPECT_TRUE(
        nonempty(StaleCacheModel(p).dump(StaleCacheModel(p).initial())));
    EXPECT_TRUE(nonempty(WoDef1Model(p).dump(WoDef1Model(p).initial())));
    EXPECT_TRUE(nonempty(WoDrf0Model(p).dump(WoDrf0Model(p).initial())));
}

TEST(Explorer, SubsetAndMinus)
{
    Program p = litmus::fig1StoreBuffer();
    ScModel sc(p);
    WriteBufferModel wb(p);
    auto rs = exploreOutcomes(sc);
    auto rw = exploreOutcomes(wb);
    EXPECT_TRUE(rs.subsetOf(rw));
    EXPECT_FALSE(rw.subsetOf(rs));
    auto extra = rw.minus(rs);
    EXPECT_EQ(extra.size(), rw.outcomes.size() - rs.outcomes.size());
}

TEST(AllRelaxedModels, AreSupersetsOfScOnFig1)
{
    Program p = litmus::fig1StoreBuffer();
    auto sc = exploreOutcomes(ScModel(p));
    EXPECT_TRUE(sc.subsetOf(exploreOutcomes(WriteBufferModel(p))));
    EXPECT_TRUE(sc.subsetOf(exploreOutcomes(NetworkReorderModel(p))));
    EXPECT_TRUE(sc.subsetOf(exploreOutcomes(StaleCacheModel(p))));
    EXPECT_TRUE(sc.subsetOf(exploreOutcomes(WoDef1Model(p))));
    EXPECT_TRUE(sc.subsetOf(exploreOutcomes(WoDrf0Model(p))));
}

} // namespace
} // namespace wo
