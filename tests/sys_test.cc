/**
 * @file
 * Full-system integration tests: programs running on the timed machine
 * under every ordering policy, the Figure-3 stall behaviour, the
 * stall-mode/deadlock design space, and SC-explainability of the traces
 * DRF0 programs produce (the timed half of the central theorem).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "asm/assembler.hh"
#include "campaign/fuzzer.hh"
#include "program/builder.hh"
#include "program/litmus.hh"
#include "program/workload.hh"
#include "models/explorer.hh"
#include "models/wo_drf0_model.hh"
#include "sc/sc_checker.hh"
#include "sys/system.hh"

namespace wo {
namespace {

SystemCfg
cfgFor(OrderingPolicy pol)
{
    SystemCfg cfg;
    cfg.policy = pol;
    cfg.net.hop_latency = 10;
    return cfg;
}

const OrderingPolicy all_policies[] = {
    OrderingPolicy::sc, OrderingPolicy::wo_def1, OrderingPolicy::wo_drf0,
    OrderingPolicy::wo_drf0_ro};

class EveryPolicy : public testing::TestWithParam<OrderingPolicy>
{
};

TEST_P(EveryPolicy, MessagePassingSyncDeliversData)
{
    Program p = litmus::messagePassingSync();
    System sys(p, cfgFor(GetParam()));
    auto r = sys.run();
    ASSERT_TRUE(r.completed) << policyName(GetParam());
    EXPECT_EQ(r.outcome.regs[1][1], 1);
}

TEST_P(EveryPolicy, Fig3ReadsOne)
{
    Program p = litmus::fig3Scenario(20);
    System sys(p, cfgFor(GetParam()));
    sys.warmShared(0, {1}); // x shared: the write takes long to perform
    auto r = sys.run();
    ASSERT_TRUE(r.completed) << policyName(GetParam());
    EXPECT_EQ(r.outcome.regs[1][0], 1) << policyName(GetParam());
}

TEST_P(EveryPolicy, LockedCounterExact)
{
    Program p = litmus::lockedCounter(4, 3);
    System sys(p, cfgFor(GetParam()));
    auto r = sys.run();
    ASSERT_TRUE(r.completed) << policyName(GetParam());
    EXPECT_EQ(r.outcome.memory[1], 12) << policyName(GetParam());
}

TEST_P(EveryPolicy, BarrierPublishesPreBarrierWrite)
{
    Program p = litmus::barrier(4);
    System sys(p, cfgFor(GetParam()));
    auto r = sys.run();
    ASSERT_TRUE(r.completed) << policyName(GetParam());
    for (ProcId q = 0; q < 4; ++q)
        EXPECT_EQ(r.outcome.regs[q][3], 42) << policyName(GetParam());
}

TEST_P(EveryPolicy, PingPongCompletes)
{
    Program p = litmus::pingPong(3);
    System sys(p, cfgFor(GetParam()));
    auto r = sys.run();
    ASSERT_TRUE(r.completed) << policyName(GetParam());
    EXPECT_EQ(r.outcome.memory[0], 6) << "2 threads x 3 rounds";
}

TEST_P(EveryPolicy, TimedExecutionOfDrf0ProgramIsSC)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Drf0WorkloadCfg wl;
        wl.seed = seed;
        wl.procs = 3;
        wl.regions = 2;
        wl.sections = 2;
        wl.ops_per_section = 3;
        wl.private_ops = 2;
        Program p = randomDrf0Program(wl);
        System sys(p, cfgFor(GetParam()));
        auto r = sys.run();
        ASSERT_TRUE(r.completed)
            << policyName(GetParam()) << " seed " << seed;
        ScCheckerCfg sc_cfg;
        sc_cfg.expected_final = r.outcome.memory;
        auto sc = checkSequentialConsistency(r.execution, sc_cfg);
        EXPECT_TRUE(sc.sc) << policyName(GetParam()) << " seed " << seed
                           << "\n" << r.execution.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, EveryPolicy,
                         testing::ValuesIn(all_policies),
                         [](const auto &info) {
                             std::string n = policyName(info.param);
                             for (auto &c : n)
                                 if (c == '-' || c == '+')
                                     c = '_';
                             return n;
                         });

TEST(Fig3Timing, Def1StallsReleaserNewImplementationDoesNot)
{
    Program p = litmus::fig3Scenario(0);
    auto run = [&](OrderingPolicy pol) {
        System sys(p, cfgFor(pol));
        sys.warmShared(0, {1});
        auto r = sys.run();
        EXPECT_TRUE(r.completed);
        return r;
    };
    auto def1 = run(OrderingPolicy::wo_def1);
    auto drf0 = run(OrderingPolicy::wo_drf0);

    // Locate P0's W(x) and Unset(s) timing records.
    auto find_op = [](const std::vector<OpTiming> &v, AccessKind k) {
        for (const auto &t : v)
            if (t.kind == k)
                return t;
        ADD_FAILURE() << "op not found";
        return OpTiming{};
    };
    auto d1_w = find_op(def1.timings[0], AccessKind::data_write);
    auto d1_s = find_op(def1.timings[0], AccessKind::sync_write);
    auto n_w = find_op(drf0.timings[0], AccessKind::data_write);
    auto n_s = find_op(drf0.timings[0], AccessKind::sync_write);

    // Definition 1: the Unset may not issue before W(x) globally performs.
    EXPECT_GE(d1_s.issued, d1_w.performed);
    // The new implementation issues the Unset immediately.
    EXPECT_LT(n_s.issued, n_w.performed);
    // And P0 finishes earlier under the new implementation.
    EXPECT_LT(drf0.timings[0].back().committed,
              def1.timings[0].back().committed);
    // Both implementations hold P1's read of x until after W(x) performs;
    // the data value must be correct in both.
    EXPECT_EQ(def1.outcome.regs[1][0], 1);
    EXPECT_EQ(drf0.outcome.regs[1][0], 1);
}

TEST(Fig3Timing, ReservationBlocksP1UntilWritePerformed)
{
    Program p = litmus::fig3Scenario(0);
    System sys(p, cfgFor(OrderingPolicy::wo_drf0));
    sys.warmShared(0, {1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    // P0's W(x) perform time bounds P1's successful TAS commit from below.
    Tick w_performed = 0;
    for (const auto &t : r.timings[0])
        if (t.kind == AccessKind::data_write)
            w_performed = t.performed;
    // The *last* TAS of P1 is the successful acquisition.
    Tick tas_commit = 0;
    for (const auto &t : r.timings[1])
        if (t.kind == AccessKind::sync_rmw)
            tas_commit = t.committed;
    ASSERT_GT(w_performed, 0u);
    ASSERT_GT(tas_commit, 0u);
    EXPECT_GE(tas_commit, w_performed)
        << "P1 may not acquire s before P0's W(x) is globally performed";
}

TEST(StallModes, CrossedReleaseAcquireDeadlocksInPureQueueMode)
{
    // P0: W(d0); release A; acquire B.   P1: W(d1); release B; acquire A.
    // With queue-mode reserve stalls and no miss throttle, the letter of
    // Section 5.3 deadlocks here; the paper's NACK-retry and bounded-miss
    // options both resolve it.  (See DESIGN.md.)
    const Addr d0 = 0, d1 = 1, A = 2, B = 3;
    auto make = [&] {
        ProgramBuilder b("crossed", 2);
        b.thread(0).store(d0, 1).release(A).acquireTasOnly(B).halt();
        b.thread(1).store(d1, 1).release(B).acquireTasOnly(A).halt();
        b.initLocation(A, 0).initLocation(B, 0);
        return b.build();
    };
    Program p = make();

    {
        SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
        cfg.cache.stall_mode = ReserveStallMode::queue;
        System sys(p, cfg);
        sys.warmShared(d0, {1});
        sys.warmShared(d1, {0});
        auto r = sys.run();
        EXPECT_TRUE(r.deadlocked) << "pure queue mode should deadlock";
    }
    {
        SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
        cfg.cache.stall_mode = ReserveStallMode::nack;
        System sys(p, cfg);
        sys.warmShared(d0, {1});
        sys.warmShared(d1, {0});
        auto r = sys.run();
        EXPECT_TRUE(r.completed) << "nack-retry must complete";
    }
    {
        SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
        cfg.cache.stall_mode = ReserveStallMode::queue;
        cfg.cache.reserved_miss_limit = 0;
        System sys(p, cfg);
        sys.warmShared(d0, {1});
        sys.warmShared(d1, {0});
        auto r = sys.run();
        EXPECT_TRUE(r.completed)
            << "queue mode with the bounded-miss refinement must complete";
    }
}

TEST(StallModes, QueueModeWorksForPlainLocking)
{
    SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
    cfg.cache.stall_mode = ReserveStallMode::queue;
    Program p = litmus::lockedCounter(3, 2);
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.memory[1], 6);
}

TEST(Policies, ScPolicySerializesEverything)
{
    // Under SC every access waits for the previous one: the data issue
    // stalls must be nonzero for a two-miss program.
    ProgramBuilder b("two-misses", 1);
    b.thread(0).store(0, 1).store(1, 2).halt();
    Program p = b.build();
    System sys(p, cfgFor(OrderingPolicy::sc));
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.cpu_stat_total("perform_stall_cycles"), 0u)
        << "SC must block on each store until globally performed";

    System sys2(p, cfgFor(OrderingPolicy::wo_drf0));
    auto r2 = sys2.run();
    ASSERT_TRUE(r2.completed);
    EXPECT_EQ(r2.cpu_stat_total("perform_stall_cycles"), 0u);
    EXPECT_LT(r2.finish_tick, r.finish_tick)
        << "overlapping stores must beat SC";
}

TEST(Policies, ReadOnlySyncAvoidsExclusiveSerialization)
{
    // Spinning on a flag with read-only sync loads: under wo_drf0 every
    // Test is a GetX (serialized through exclusive ownership); under
    // wo_drf0_ro the spins are shared-line hits after the first fill.
    Program p = litmus::messagePassingSync();
    auto write_misses = [](const Cache &c) -> std::uint64_t {
        return c.stats().find("write_misses").value_or(0);
    };
    SystemCfg base = cfgFor(OrderingPolicy::wo_drf0);
    System s1(p, base);
    auto r1 = s1.run();
    ASSERT_TRUE(r1.completed);
    const auto wm1 = write_misses(s1.cache(1));

    SystemCfg ro = cfgFor(OrderingPolicy::wo_drf0_ro);
    System s2(p, ro);
    auto r2 = s2.run();
    ASSERT_TRUE(r2.completed);
    const auto wm2 = write_misses(s2.cache(1));
    EXPECT_LT(wm2, wm1)
        << "read-only syncs must stop being exclusive (write) misses";
    EXPECT_EQ(r2.outcome.regs[1][1], 1) << "and stay correct";
}

TEST(Policies, RacyProgramCanGoNonScOnWeakMachine)
{
    // Figure 1 on the timed weak machine with warm caches can produce the
    // both-killed outcome for *some* timing; rather than rely on one
    // timing, check that the machine at least completes and that any
    // outcome it produces would be flagged correctly by the SC checker
    // when it is non-SC.  With zero jitter and symmetric latencies the
    // writes overlap the reads, which does produce (0,0).
    Program p = litmus::fig1StoreBuffer();
    SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
    System sys(p, cfg);
    sys.warmShared(litmus::loc_x, {0, 1});
    sys.warmShared(litmus::loc_y, {0, 1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.regs[0][0], 0);
    EXPECT_EQ(r.outcome.regs[1][0], 0);
    EXPECT_FALSE(isSequentiallyConsistent(r.execution))
        << "both-killed must be flagged non-SC";
}

TEST(Policies, ScPolicyKeepsFig1Sc)
{
    Program p = litmus::fig1StoreBuffer();
    System sys(p, cfgFor(OrderingPolicy::sc));
    sys.warmShared(litmus::loc_x, {0, 1});
    sys.warmShared(litmus::loc_y, {0, 1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(isSequentiallyConsistent(r.execution));
    EXPECT_FALSE(r.outcome.regs[0][0] == 0 && r.outcome.regs[1][0] == 0);
}

TEST(CrossValidation, TimedOutcomesWithinAbstractModel)
{
    // The timed Section-5.3 machine should be an instance of the abstract
    // Section-5 machine: every outcome the protocol produces (across
    // jitter seeds) must appear in the abstract model's exhaustive
    // outcome set.
    for (Program p :
         {litmus::fig1StoreBuffer(), litmus::messagePassingSync(),
          litmus::twoPlusTwoW(), litmus::sShape(), litmus::wrc()}) {
        WoDrf0Model abstract(p, /*max_pool=*/8);
        auto reference = exploreOutcomes(abstract);
        ASSERT_FALSE(reference.truncated);
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
            cfg.net.jitter = 7;
            cfg.net.seed = seed;
            System sys(p, cfg);
            if (p.name() == "fig1-store-buffer") {
                sys.warmShared(litmus::loc_x, {0, 1});
                sys.warmShared(litmus::loc_y, {0, 1});
            }
            auto r = sys.run();
            ASSERT_TRUE(r.completed) << p.name();
            EXPECT_TRUE(reference.outcomes.count(r.outcome))
                << p.name() << " seed " << seed << ": timed outcome "
                << r.outcome.toString()
                << " not reachable on the abstract machine";
        }
    }
}

TEST(Mlp, SingleMshrRestoresSequentialConsistency)
{
    // max_outstanding == 1 is exactly the Scheurich/Dubois SC issue rule,
    // so even the weak policy must stay SC on the racy Figure-1 program.
    Program p = litmus::fig1StoreBuffer();
    SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
    cfg.cpu.max_outstanding = 1;
    System sys(p, cfg);
    sys.warmShared(litmus::loc_x, {0, 1});
    sys.warmShared(litmus::loc_y, {0, 1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(isSequentiallyConsistent(r.execution));
    EXPECT_FALSE(r.outcome.regs[0][0] == 0 && r.outcome.regs[1][0] == 0);
}

TEST(Mlp, LimitIsRespectedAndCorrect)
{
    Program p = litmus::lockedCounter(3, 2);
    for (int mlp : {1, 2, 3}) {
        SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
        cfg.cpu.max_outstanding = mlp;
        System sys(p, cfg);
        auto r = sys.run();
        ASSERT_TRUE(r.completed) << "mlp " << mlp;
        EXPECT_EQ(r.outcome.memory[1], 6) << "mlp " << mlp;
    }
}

TEST(Determinism, SameSeedSameResult)
{
    Program p = litmus::lockedCounter(3, 2);
    SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
    cfg.net.jitter = 9;
    cfg.net.seed = 77;
    System a(p, cfg), b(p, cfg);
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.finish_tick, rb.finish_tick);
    EXPECT_TRUE(ra.outcome == rb.outcome);
}

TEST(EventKernel, UntracedRunRendersNoLabels)
{
    // Every scheduling site in the simulator hands the queue a lazy
    // label; a full-system run with no trace and non-verbose logging
    // must never pay to render one.
    Program p = litmus::lockedCounter(4, 3);
    SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
    cfg.net.jitter = 3;
    const std::uint64_t before = EventLabel::lazyMaterializations();
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(sys.eventQueue().executed(), 500u);
    EXPECT_EQ(EventLabel::lazyMaterializations() - before, 0u);
}

TEST(EventKernel, SeededLivelockDetectsAtTheGoldenTick)
{
    // The drain loop's livelock detector (event budget + NACK spin) must
    // survive kernel changes: a machine wedged by the dropped
    // reserve-clear fault has to be flagged at the same point in
    // simulated time as the pre-overhaul binary-heap kernel flagged it.
    const char *const leak = R"(program leak
thread 0
  tas r7 lock
  st data 1
  syncst lock 0
thread 1
  work 300
  tas r7 lock
  syncst lock 0
)";
    AsmResult a = assembleString(leak);
    ASSERT_TRUE(a.ok());

    SystemCfg cfg = cfgFor(OrderingPolicy::wo_drf0);
    cfg.cache.bug_drop_reserve_clear = true;
    cfg.max_events = 50'000; // the stuck machine would spin forever
    cfg.quiet = true;
    System sys(*a.program, cfg);
    SystemResult r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.livelocked);
    EXPECT_EQ(r.drain_tick, 650'081u);
    EXPECT_EQ(sys.eventQueue().now(), 650'081u);
}

/** Every SystemResult field of @p b equals @p a's. */
void
expectSameResult(const SystemResult &a, const SystemResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deadlocked, b.deadlocked);
    EXPECT_EQ(a.livelocked, b.livelocked);
    EXPECT_EQ(a.finish_tick, b.finish_tick);
    EXPECT_EQ(a.drain_tick, b.drain_tick);
    EXPECT_EQ(a.execution.toString(), b.execution.toString());
    ASSERT_EQ(a.execution.numProcs(), b.execution.numProcs());
    for (ProcId p = 0; p < a.execution.numProcs(); ++p)
        EXPECT_EQ(a.execution.procOps(p), b.execution.procOps(p));
    EXPECT_EQ(a.execution.initialMemory(), b.execution.initialMemory());
    EXPECT_TRUE(a.outcome == b.outcome);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.weak_sync_read_policy, b.weak_sync_read_policy);
    ASSERT_EQ(a.timings.size(), b.timings.size());
    for (std::size_t p = 0; p < a.timings.size(); ++p) {
        ASSERT_EQ(a.timings[p].size(), b.timings[p].size());
        for (std::size_t i = 0; i < a.timings[p].size(); ++i) {
            const OpTiming &x = a.timings[p][i], &y = b.timings[p][i];
            EXPECT_TRUE(x.proc == y.proc && x.pc == y.pc &&
                        x.kind == y.kind && x.addr == y.addr &&
                        x.reached == y.reached && x.issued == y.issued &&
                        x.committed == y.committed &&
                        x.performed == y.performed)
                << "timing " << p << "." << i;
        }
    }
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.stats_json, b.stats_json);
    EXPECT_EQ(a.monitor_violations, b.monitor_violations);
    EXPECT_EQ(a.monitor_hw_violations, b.monitor_hw_violations);
    EXPECT_EQ(a.monitor_races, b.monitor_races);
    EXPECT_EQ(a.monitor_report, b.monitor_report);
    EXPECT_EQ(a.sampler_csv, b.sampler_csv);
    EXPECT_EQ(a.cpu_counters, b.cpu_counters);
    EXPECT_EQ(a.stall_counters, b.stall_counters);
}

/** @p sys's monitor reads @p r's execution: the same ops, field for
 *  field. */
void
expectMonitorReadsTheRun(const System &sys, const SystemResult &r,
                         const std::string &what)
{
    SCOPED_TRACE(what);
    const std::vector<MemoryOp> &mon = sys.monitor()->execution().ops();
    const std::vector<MemoryOp> &run = r.execution.ops();
    ASSERT_EQ(mon.size(), run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
        const MemoryOp &x = mon[i], &y = run[i];
        EXPECT_TRUE(x.id == y.id && x.proc == y.proc && x.addr == y.addr &&
                    x.kind == y.kind && x.value_read == y.value_read &&
                    x.value_written == y.value_written &&
                    x.po_index == y.po_index &&
                    x.commit_tick == y.commit_tick)
            << "op " << i;
    }
}

TEST(Sys, ReusedMachineMatchesFreshSystem)
{
    // Campaign-lattice cells (litmus corpus, random draws and a .wo
    // file with a warm directive, x sc/def1/drf0 x timing seeds) run
    // back to back on one machine, with the configuration varied per
    // cell: seeded hardware faults, a starved event budget that ends
    // in livelock, monitor, stats collection and tracing on and off.
    CampaignSpec spec;
    spec.program_files = {WO_PROGRAMS_DIR "/fig3.wo"};
    const Fuzzer fuzzer(spec);
    std::unique_ptr<System> reused;
    std::set<ProcId> widths;
    std::set<Addr> sizes;
    int warmed = 0, hw = 0, livelocked = 0;
    for (std::uint64_t i = 0; i < 240; ++i) {
        Cell cell = fuzzer.baseCell(i);
        cell.inject_reserve_bug = i % 5 == 0;
        const MaterializedCell m = materializeCell(cell);
        ASSERT_TRUE(m.ok()) << cell.key();
        SystemCfg cfg = cell.systemCfg(i % 7 == 3 ? 60 : 200'000);
        cfg.monitor = i % 4 != 1;
        cfg.collect_stats = i % 2 == 0;
        cfg.trace = i % 6 == 4;

        System fresh(*m.program, cfg);
        if (reused)
            reused->reset(*m.program, cfg);
        else
            reused = std::make_unique<System>(*m.program, cfg);
        for (const auto &w : m.warm) {
            fresh.warmShared(w.addr, w.procs);
            reused->warmShared(w.addr, w.procs);
        }
        const SystemResult a = fresh.run();
        const SystemResult b = reused->run();
        expectSameResult(a, b, cell.key());
        EXPECT_EQ(fresh.eventQueue().executed(),
                  reused->eventQueue().executed());
        EXPECT_EQ(fresh.obs().traceJsonl(), reused->obs().traceJsonl());
        ASSERT_EQ(fresh.monitor() != nullptr, reused->monitor() != nullptr);
        if (fresh.monitor()) {
            EXPECT_EQ(fresh.monitor()->report(), reused->monitor()->report());
            EXPECT_EQ(fresh.monitor()->toJson().dump(),
                      reused->monitor()->toJson().dump());
            if (cfg.collect_stats) {
                expectMonitorReadsTheRun(fresh, a, "fresh " + cell.key());
                expectMonitorReadsTheRun(*reused, b, "reused " + cell.key());
            }
        }

        widths.insert(m.program->numThreads());
        sizes.insert(m.program->numLocations());
        warmed += !m.warm.empty();
        hw += a.monitor_hw_violations > 0;
        livelocked += a.livelocked;
    }
    // The interleaving covered what it claims to.
    EXPECT_GE(widths.size(), 2u);
    EXPECT_GE(sizes.size(), 3u);
    EXPECT_GT(warmed, 0);
    EXPECT_GT(hw, 0);
    EXPECT_GT(livelocked, 0);
}

} // namespace
} // namespace wo
