/**
 * @file
 * Tests for the always-on runtime verification layer: the online
 * SC/DRF0 invariant monitor (unit-level, hook by hook), the flight
 * recorder ring, the periodic sampler, the full program x policy
 * matrix (every stock combination must be hardware-clean), and the
 * seeded reserve-bit hardware bug that the monitor must catch at the
 * violating cycle with dumped evidence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "event/event_queue.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "obs/validate.hh"
#include "program/litmus.hh"
#include "sys/system.hh"

namespace wo {
namespace {

// ------------------------------------------------------- monitor: unit

/** Append one op to @p exec, the record @p m is bound to, and retire it
 *  into the monitor, as Cpu::retire does. */
void retire(Execution &exec, Monitor &m, ProcId p, Addr addr,
            AccessKind kind, Value value_read, Value value_written,
            Tick commit_tick, Tick now)
{
    exec.append(p, addr, kind, value_read, value_written, commit_tick);
    m.opRetired(exec.ops().back(), now);
}

TEST(Monitor, NegativeCounterIsHardwareViolation)
{
    Execution exec(2, 2);
    Monitor m(exec);
    m.counterChanged(0, -1, 7);
    EXPECT_EQ(m.totalViolations(), 1u);
    EXPECT_EQ(m.hardwareViolations(), 1u);
    EXPECT_EQ(m.countOf(ViolationKind::counter_negative), 1u);
    EXPECT_EQ(m.firstViolationTick(), 7u);
    EXPECT_FALSE(m.clean());
}

TEST(Monitor, ReserveBitHeldAtCounterZeroLeaks)
{
    Execution exec(2, 2);
    Monitor m(exec);
    m.counterChanged(1, 1, 1);
    m.reserveSet(1, 0, 2);
    EXPECT_EQ(m.totalViolations(), 0u);
    // S5.3: "all reserve bits are reset when the counter reads zero";
    // zero becoming observable with a bit still held is the breach.
    m.counterChanged(1, 0, 9);
    ASSERT_EQ(m.totalViolations(), 1u);
    EXPECT_EQ(m.countOf(ViolationKind::reserve_leak), 1u);
    EXPECT_EQ(m.violations()[0].tick, 9u);
    EXPECT_EQ(m.violations()[0].proc, 1u);
}

TEST(Monitor, StockClearBeforeZeroStaysClean)
{
    Execution exec(2, 2);
    Monitor m(exec);
    m.counterChanged(1, 1, 1);
    m.reserveSet(1, 0, 2);
    m.reserveCleared(1, 8);
    m.counterChanged(1, 0, 8);
    m.finalize(10, true, 0);
    EXPECT_EQ(m.totalViolations(), 0u);
    EXPECT_TRUE(m.clean());
}

TEST(Monitor, ReserveWithoutOutstandingAccessLeaks)
{
    Execution exec(2, 2);
    Monitor m(exec);
    m.reserveSet(0, 1, 3);
    EXPECT_EQ(m.countOf(ViolationKind::reserve_leak), 1u);
}

TEST(Monitor, UnsynchronizedConflictIsSoftwareRace)
{
    Execution exec(2, 1);
    Monitor m(exec);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 1, 5, 10);
    retire(exec, m, 1, 0, AccessKind::data_read, 1, 0, 6, 12);
    ASSERT_EQ(m.totalViolations(), 1u);
    EXPECT_EQ(m.races(), 1u);
    EXPECT_EQ(m.hardwareViolations(), 0u);
    EXPECT_TRUE(m.clean()); // races blame software, not the machine
    const MonitorViolation &v = m.violations()[0];
    EXPECT_EQ(v.kind, ViolationKind::drf0_race);
    EXPECT_NE(v.op_a, invalid_op);
    EXPECT_NE(v.op_b, invalid_op);
    EXPECT_NE(m.report().find("RACY PROGRAM"), std::string::npos);
}

TEST(Monitor, RacesPastTheRecordCapKeepTheirReport)
{
    // A racy counter raises far more races than max_recorded (64).
    // A race keeps only its evidence and its text is rendered from the
    // monitor's execution on demand; the report, the recorded list and
    // every count must read exactly as they did when every race was
    // formatted at raise (the digest below was recorded from that
    // monitor).
    const Program p = litmus::racyCounter(3, 12);
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.monitor = true;
    cfg.quiet = true;
    System sys(p, cfg);
    const SystemResult r = sys.run();
    const Monitor &mon = *sys.monitor();
    EXPECT_EQ(mon.races(), 189u);
    EXPECT_EQ(mon.totalViolations(), 189u);
    EXPECT_EQ(mon.hardwareViolations(), 0u);
    ASSERT_EQ(mon.violations().size(), Monitor::max_recorded);
    const Execution &exec = mon.execution();
    for (const MonitorViolation &v : mon.violations()) {
        ASSERT_EQ(v.kind, ViolationKind::drf0_race);
        EXPECT_EQ(mon.detail(v), exec.op(v.op_a).toString() +
                                     " races with " +
                                     exec.op(v.op_b).toString());
    }
    EXPECT_NE(r.monitor_report.find("... 125 more not recorded"),
              std::string::npos);

    std::string text = r.monitor_report;
    for (const MonitorViolation &v : mon.violations())
        text += mon.describe(v) + "\n";
    text += mon.toJson().dump();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(strprintf("%016llx", static_cast<unsigned long long>(h)),
              "f32dd1a7fd8d9cda");
}

TEST(Monitor, SyncOrderedHandoffIsRaceFree)
{
    // P0: W(x)=1; Set(s).   P1: Test(s)=1; R(x)=1.  The sync channel
    // on s orders the conflicting accesses to x -- and the read sees
    // its hb-last write, so the whole history is clean.
    Execution exec(2, 2);
    Monitor m(exec);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 1, 1, 10);
    retire(exec, m, 0, 1, AccessKind::sync_write, 0, 1, 2, 11);
    retire(exec, m, 1, 1, AccessKind::sync_read, 1, 0, 3, 12);
    retire(exec, m, 1, 0, AccessKind::data_read, 1, 0, 4, 13);
    m.finalize(20, true, 0);
    EXPECT_EQ(m.totalViolations(), 0u);
}

TEST(Monitor, StaleReadInRaceFreeHistoryBlamesHardware)
{
    // Same handoff, but the hardware returns the pre-write value of x.
    Execution exec(2, 2);
    Monitor m(exec);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 1, 1, 10);
    retire(exec, m, 0, 1, AccessKind::sync_write, 0, 1, 2, 11);
    retire(exec, m, 1, 1, AccessKind::sync_read, 1, 0, 3, 12);
    retire(exec, m, 1, 0, AccessKind::data_read, /*value_read=*/0, 0, 4, 13);
    ASSERT_EQ(m.totalViolations(), 1u);
    const MonitorViolation &v = m.violations()[0];
    EXPECT_EQ(v.kind, ViolationKind::stale_read);
    EXPECT_EQ(v.expected, 1);
    EXPECT_EQ(v.got, 0);
    EXPECT_EQ(v.tick, 13u);
    EXPECT_EQ(m.hardwareViolations(), 1u);
    EXPECT_NE(m.report().find("HARDWARE VIOLATION"), std::string::npos);
}

TEST(Monitor, InFlightRacyWriteValueIsNotBlamedOnHardware)
{
    // P1's read returns 6 -- the value of P0's racing write, which has
    // not *retired* into the monitor yet.  At the read the frontier is
    // empty and no retired write explains 6, so blaming the hardware
    // would be unsound; the verdict must wait.  When the write retires
    // it races with the read, voiding the contract on x: the only
    // finding is the software race.
    Execution exec(2, 1);
    Monitor m(exec);
    retire(exec, m, 1, 0, AccessKind::data_read, /*value_read=*/6, 0, 5, 10);
    EXPECT_EQ(m.totalViolations(), 0u); // suspicion held, not raised
    retire(exec, m, 0, 0, AccessKind::data_write, 0, /*value_written=*/6, 6,
           12);
    m.finalize(20, /*completed=*/true, 0);
    EXPECT_EQ(m.countOf(ViolationKind::stale_read), 0u);
    EXPECT_EQ(m.races(), 1u);
    EXPECT_EQ(m.hardwareViolations(), 0u);
    EXPECT_TRUE(m.clean());
}

TEST(Monitor, ResetForgetsThePreviousRunsValues)
{
    // Run B is the in-flight racy write above: P1 reads x -> 7 (initial
    // 0), then P0's racing write of 7 retires.  A fresh monitor defers
    // the unknown value and drops it on the race.  A reused monitor
    // whose run A wrote x = 7 must not still know 7: if it did, the
    // read would be a "known" stale value and blame the hardware.
    auto runB = [](Execution &exec, Monitor &m) {
        retire(exec, m, 1, 0, AccessKind::data_read, /*value_read=*/7, 0, 5,
               10);
        retire(exec, m, 0, 0, AccessKind::data_write, 0,
               /*value_written=*/7, 6, 12);
        m.finalize(20, /*completed=*/true, 0);
    };
    Execution fresh_exec(2, 1, {0});
    Monitor fresh(fresh_exec);
    runB(fresh_exec, fresh);
    ASSERT_EQ(fresh.hardwareViolations(), 0u);
    ASSERT_EQ(fresh.races(), 1u);

    Execution exec(2, 1, {0});
    Monitor reused(exec);
    retire(exec, reused, 0, 0, AccessKind::data_write, 0,
           /*value_written=*/7, 1, 2);
    reused.finalize(5, /*completed=*/true, 0);
    exec.reset(2, {0});
    reused.reset(exec, HbRelation::SyncFlavor::drf0);
    runB(exec, reused);
    EXPECT_EQ(reused.hardwareViolations(), fresh.hardwareViolations());
    EXPECT_EQ(reused.report(), fresh.report());
    EXPECT_EQ(reused.toJson().dump(), fresh.toJson().dump());
}

TEST(Monitor, NeverWrittenValueIsConfirmedStaleAtFinalize)
{
    // Race-free handoff, but the read returns 7 -- a value no write to
    // x ever produced and not the initial value.  Mid-run this could
    // still be an in-flight racy write, so nothing is raised; once the
    // run completes every write has retired, the value really came
    // from nowhere, and the deferred verdict lands with the read's
    // original tick.
    Execution exec(2, 2);
    Monitor m(exec);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 1, 1, 10);
    retire(exec, m, 0, 1, AccessKind::sync_write, 0, 1, 2, 11);
    retire(exec, m, 1, 1, AccessKind::sync_read, 1, 0, 3, 12);
    retire(exec, m, 1, 0, AccessKind::data_read, /*value_read=*/7, 0, 4, 13);
    EXPECT_EQ(m.totalViolations(), 0u); // deferred
    m.finalize(20, /*completed=*/true, 0);
    ASSERT_EQ(m.totalViolations(), 1u);
    const MonitorViolation &v = m.violations()[0];
    EXPECT_EQ(v.kind, ViolationKind::stale_read);
    EXPECT_EQ(v.tick, 13u); // the violating cycle, not finalize's
    EXPECT_EQ(v.got, 7);
    EXPECT_EQ(m.hardwareViolations(), 1u);
}

TEST(Monitor, PendingStaleDiesWithAFailedRun)
{
    // A deadlocked/livelocked run may hold the explaining write in
    // flight forever; the suspicion cannot be confirmed and is dropped.
    Execution exec(2, 1);
    Monitor m(exec);
    retire(exec, m, 1, 0, AccessKind::data_read, /*value_read=*/6, 0, 5, 10);
    m.finalize(20, /*completed=*/false, 0);
    EXPECT_EQ(m.totalViolations(), 0u);
    EXPECT_TRUE(m.clean());
}

TEST(Monitor, WritesRetiringAgainstCommitOrderViolateCoherence)
{
    Execution exec(1, 1);
    Monitor m(exec);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 1, /*commit=*/10, 10);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 2, /*commit=*/5, 12);
    ASSERT_EQ(m.totalViolations(), 1u);
    EXPECT_EQ(m.violations()[0].kind, ViolationKind::coherence_order);
    EXPECT_EQ(m.hardwareViolations(), 1u);
}

TEST(Monitor, WeakSyncReadFlavorExemptsSyncPairs)
{
    // Under the Section-6 refinement a Test does not publish to the
    // channel, so a later Set conflicts unordered -- but sync-sync
    // pairs are the synchronization mechanism itself, not a race.
    Execution exec(2, 1);
    Monitor m(exec, HbRelation::SyncFlavor::weak_sync_read);
    retire(exec, m, 0, 0, AccessKind::sync_read, 0, 0, 1, 10);
    retire(exec, m, 1, 0, AccessKind::sync_write, 0, 1, 2, 11);
    EXPECT_EQ(m.totalViolations(), 0u);
}

TEST(Monitor, FinalizeChecksQuiescence)
{
    Execution exec(2, 1);
    Monitor m(exec);
    m.counterChanged(0, 2, 5);
    m.finalize(100, /*completed=*/true, /*unperformed_ops=*/3);
    EXPECT_EQ(m.countOf(ViolationKind::counter_undrained), 1u);
    EXPECT_EQ(m.countOf(ViolationKind::unperformed_op), 1u);
    // finalize is idempotent.
    m.finalize(101, true, 3);
    EXPECT_EQ(m.totalViolations(), 2u);
}

TEST(Monitor, FailedRunsSkipQuiescenceChecks)
{
    // A deadlocked/livelocked machine legitimately holds outstanding
    // state; the termination itself is reported by the system.
    Execution exec(2, 1);
    Monitor m(exec);
    m.counterChanged(0, 2, 5);
    m.finalize(100, /*completed=*/false, 3);
    EXPECT_EQ(m.totalViolations(), 0u);
}

TEST(Monitor, JsonAndDotCarryTheVerdict)
{
    Execution exec(2, 1);
    Monitor m(exec);
    retire(exec, m, 0, 0, AccessKind::data_write, 0, 1, 5, 10);
    retire(exec, m, 1, 0, AccessKind::data_write, 0, 2, 6, 12);
    auto parsed = jsonParse(m.toJson().dump());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("races")->uintValue(), 1u);
    EXPECT_TRUE(parsed.value.find("clean")->boolValue());
    ASSERT_NE(parsed.value.find("by_kind")->find("drf0_race"), nullptr);
    const std::string dot = m.witnessDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, RingKeepsTheLastNOldestFirst)
{
    FlightRecorder fr(4);
    for (int i = 0; i < 10; ++i) {
        FlightEvent e;
        e.kind = FlightKind::issue;
        e.t = static_cast<Tick>(i);
        fr.record(e);
    }
    EXPECT_EQ(fr.capacity(), 4u);
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.recorded(), 10u);
    EXPECT_EQ(fr.dropped(), 6u);
    auto w = fr.window();
    ASSERT_EQ(w.size(), 4u);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(w[i].t, 6u + i);
}

TEST(FlightRecorder, WindowExportsValidChromeTrace)
{
    FlightRecorder fr(16);
    FlightEvent msg;
    msg.kind = FlightKind::msg;
    msg.t = 1;
    msg.t2 = 4;
    msg.proc = 0;
    msg.a = 1;
    msg.label = "ReqMiss";
    fr.record(msg);
    FlightEvent stall;
    stall.kind = FlightKind::stall;
    stall.t = 2;
    stall.t2 = 6;
    stall.proc = 1;
    stall.label = "cache_miss";
    fr.record(stall);
    FlightEvent ctr;
    ctr.kind = FlightKind::counter;
    ctr.t = 3;
    ctr.proc = 0;
    ctr.a = 2;
    fr.record(ctr);
    FlightEvent vio;
    vio.kind = FlightKind::violation;
    vio.t = 7;
    vio.proc = 1;
    vio.label = "reserve_leak";
    fr.record(vio);

    auto v = validateChromeTrace(fr.chromeTraceJson(2));
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_GE(v.complete, 2u); // the msg and stall spans
    EXPECT_GE(v.counters, 1u);
    EXPECT_GE(v.instants, 1u); // the violation marker
}

// ------------------------------------------------------------- sampler

TEST(Sampler, SamplesPeriodicallyAndStopsWithTheQueue)
{
    EventQueue eq;
    std::uint64_t work = 0;
    Sampler s(5);
    s.addProbe("work", [&] { return work; });
    eq.schedule(12, "work", [&] { work = 42; });
    s.start(eq);
    eq.runAll();
    // Baseline at 0, periodic at 5/10/15; the 15-tick firing finds the
    // queue empty and does not reschedule.
    EXPECT_EQ(s.sampleCount(), 4u);
    EXPECT_EQ(eq.pending(), 0u);

    const std::string csv = s.csv();
    EXPECT_EQ(csv.rfind("tick,work\n", 0), 0u);
    EXPECT_NE(csv.find("15,42"), std::string::npos);

    Json events = Json::array();
    s.appendCounterEvents(events);
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    auto v = validateChromeTrace(doc.dump());
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.counters, 4u); // one probe, four samples
}

// ---------------------------------------------------- system: matrix

AsmResult
load(const char *file)
{
    AsmResult a = assembleFile(std::string(WO_PROGRAMS_DIR) + "/" + file);
    EXPECT_TRUE(a.ok()) << file;
    return a;
}

SystemResult
runMonitored(const AsmResult &a, OrderingPolicy policy, SystemCfg cfg = {})
{
    cfg.policy = policy;
    cfg.monitor = true;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    return sys.run();
}

TEST(MonitorMatrix, EveryStockComboIsHardwareClean)
{
    // Per Definition 2 the machine owes SC appearance; the monitor
    // must find zero hardware violations on every stock program x
    // policy combination.  Racy programs void the contract and are
    // reported as software races -- deterministically here, since the
    // timed system is deterministic for a fixed seed.
    const struct
    {
        const char *file;
        bool racy;
    } programs[] = {
        {"dekker.wo", true},   {"fig1.wo", true}, {"fig3.wo", false},
        {"handoff.wo", false}, {"iriw.wo", true}, {"mp.wo", true},
        {"spinlock.wo", false},
    };
    const OrderingPolicy policies[] = {OrderingPolicy::sc,
                                       OrderingPolicy::wo_def1,
                                       OrderingPolicy::wo_drf0};
    for (const auto &p : programs) {
        AsmResult a = load(p.file);
        for (OrderingPolicy pol : policies) {
            SCOPED_TRACE(std::string(p.file) + " under " + policyName(pol));
            auto r = runMonitored(a, pol);
            EXPECT_TRUE(r.completed);
            EXPECT_EQ(r.monitor_hw_violations, 0u);
            if (p.racy)
                EXPECT_GT(r.monitor_races, 0u);
            else
                EXPECT_EQ(r.monitor_races, 0u);
        }
    }
}

TEST(MonitorMatrix, RunResultCarriesTheReport)
{
    AsmResult a = load("mp.wo");
    auto r = runMonitored(a, OrderingPolicy::wo_drf0);
    EXPECT_NE(r.monitor_report.find("RACY PROGRAM"), std::string::npos);
    EXPECT_NE(r.monitor_report.find("drf0_race"), std::string::npos);
    EXPECT_NE(r.stats_json.find("\"monitor\""), std::string::npos);
}

// ------------------------------------------------- system: seeded bug

/**
 * The seeded-fault scenario: P0 takes the lock, releases it while its
 * data store is still outstanding (reserving the lock line), and the
 * faulty cache then drops the reserve-bit clear when its counter
 * drains.  P1 arrives later and NACKs against the leaked reservation
 * forever: a silent livelock without the monitor, a pinpointed
 * reserve_leak with it.
 */
const char *const leak_source = R"(program leak
thread 0
  tas r7 lock
  st data 1
  syncst lock 0
thread 1
  work 300
  tas r7 lock
  syncst lock 0
)";

std::string
slurp(const std::string &path)
{
    std::string out;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(SeededBug, DroppedReserveClearIsCaughtWithEvidence)
{
    // The injected hardware fault: the cache "forgets" to reset its
    // reserve bits when the outstanding counter drains to zero,
    // breaking the S5.3 invariant.  The monitor must catch it the
    // cycle zero becomes observable, and the system must dump the
    // flight-recorder window plus the hb witness.
    AsmResult a = assembleString(leak_source);
    ASSERT_TRUE(a.ok());
    SystemCfg cfg;
    cfg.cache.bug_drop_reserve_clear = true;
    cfg.flight_recorder = true;
    cfg.max_events = 50'000; // the stuck machine would spin forever
    const std::string prefix = testing::TempDir() + "monitor_evidence";
    cfg.dump_on_fail = prefix;
    auto r = runMonitored(a, OrderingPolicy::wo_drf0, cfg);

    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.livelocked); // P1 NACKs against the leak forever
    EXPECT_GT(r.monitor_hw_violations, 0u);
    EXPECT_NE(r.monitor_report.find("HARDWARE VIOLATION"),
              std::string::npos);
    EXPECT_NE(r.monitor_report.find("reserve_leak"), std::string::npos);

    const std::string trace = slurp(prefix + ".trace.json");
    ASSERT_FALSE(trace.empty());
    auto v = validateChromeTrace(trace);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_GE(v.instants, 1u); // the mirrored violation marker

    const std::string dot = slurp(prefix + ".hb.dot");
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    const std::string report = slurp(prefix + ".monitor.txt");
    EXPECT_NE(report.find("reserve_leak"), std::string::npos);
}

TEST(SeededBug, DumpOnFailAloneStillCarriesTheWindow)
{
    // No --flight-recorder and no trace: the dump prefix alone attaches
    // the ring, so the evidence trace holds the failure window instead
    // of bare lane metadata.
    AsmResult a = assembleString(leak_source);
    ASSERT_TRUE(a.ok());
    SystemCfg cfg;
    cfg.cache.bug_drop_reserve_clear = true;
    cfg.max_events = 50'000;
    const std::string prefix =
        testing::TempDir() + "monitor_evidence_no_recorder";
    cfg.dump_on_fail = prefix;
    auto r = runMonitored(a, OrderingPolicy::wo_drf0, cfg);
    EXPECT_GT(r.monitor_hw_violations, 0u);

    const std::string trace = slurp(prefix + ".trace.json");
    auto v = validateChromeTrace(trace);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_GT(v.complete, 0u);
    EXPECT_NE(trace.find("\"violation:reserve_leak\""), std::string::npos);
}

TEST(SeededBug, MonitorPinpointsTheViolatingCycle)
{
    AsmResult a = assembleString(leak_source);
    ASSERT_TRUE(a.ok());
    SystemCfg cfg;
    cfg.cache.bug_drop_reserve_clear = true;
    cfg.max_events = 50'000;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.monitor = true;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    auto r = sys.run();
    const Monitor *m = sys.monitor();
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->countOf(ViolationKind::reserve_leak), 0u);
    // The violation is timestamped at the cycle zero became
    // observable with the bit held -- some 290k ticks of futile
    // retries before the livelock budget finally tripped.
    ASSERT_NE(m->firstViolationTick(), max_tick);
    EXPECT_LT(m->firstViolationTick(), 100u);
    EXPECT_LT(m->firstViolationTick(), r.drain_tick);
    ASSERT_FALSE(m->violations().empty());
    EXPECT_EQ(m->violations()[0].tick, m->firstViolationTick());
}

TEST(SeededBug, StockHardwarePassesTheSameScenario)
{
    AsmResult a = assembleString(leak_source);
    ASSERT_TRUE(a.ok());
    SystemCfg cfg;
    cfg.flight_recorder = true;
    auto r = runMonitored(a, OrderingPolicy::wo_drf0, cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.monitor_violations, 0u);
}

// --------------------------------------------- system: sampler wiring

TEST(SystemSampler, EmitsCsvAndCounterTracks)
{
    AsmResult a = load("fig3.wo");
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.sample_interval = 10;
    cfg.trace = true;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    auto r = sys.run();
    EXPECT_TRUE(r.completed);
    ASSERT_FALSE(r.sampler_csv.empty());
    EXPECT_EQ(r.sampler_csv.rfind("tick,", 0), 0u);
    EXPECT_NE(r.sampler_csv.find("cpu0.outstanding"), std::string::npos);
    EXPECT_NE(r.sampler_csv.find("net.in_flight"), std::string::npos);
    ASSERT_NE(sys.sampler(), nullptr);
    EXPECT_GT(sys.sampler()->sampleCount(), 1u);
    // The counter tracks ride along in the full Chrome trace.
    auto v = validateChromeTrace(sys.obs().chromeTraceJson());
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_GT(v.counters, 0u);
    EXPECT_NE(r.stats_json.find("\"sampler\""), std::string::npos);
}

/** Name, tid, ts and dur of every 'X' event of a Chrome trace, in order. */
std::vector<std::string>
completeEvents(const std::string &chrome)
{
    std::vector<std::string> out;
    JsonParseResult p = jsonParse(chrome);
    EXPECT_TRUE(p.ok) << p.error;
    for (const Json &e : p.value.find("traceEvents")->items())
        if (e.stringAt("ph") == "X")
            out.push_back(strprintf(
                "%s tid=%llu ts=%llu dur=%llu", e.stringAt("name").c_str(),
                static_cast<unsigned long long>(e.uintAt("tid")),
                static_cast<unsigned long long>(e.uintAt("ts")),
                static_cast<unsigned long long>(e.uintAt("dur"))));
    return out;
}

TEST(SystemRecorder, RingDumpRendersLikeTheFullTrace)
{
    // One record, one renderer: with a ring that holds the whole run,
    // the flight dump's ops, messages and stalls are exactly the full
    // trace's spans.
    AsmResult a = load("fig3.wo");
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.trace = true;
    cfg.flight_recorder = true;
    cfg.flight_recorder_capacity = 1 << 16;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    ASSERT_TRUE(sys.run().completed);
    ASSERT_EQ(sys.recorder()->dropped(), 0u);

    const auto full = completeEvents(sys.obs().chromeTraceJson());
    ASSERT_FALSE(full.empty());
    EXPECT_EQ(completeEvents(sys.recorder()->chromeTraceJson(2)), full);
}

TEST(SystemRecorder, AlwaysOnRingTracksTheRun)
{
    AsmResult a = load("fig3.wo");
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.flight_recorder = true;
    cfg.flight_recorder_capacity = 64;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    auto r = sys.run();
    EXPECT_TRUE(r.completed);
    ASSERT_NE(sys.recorder(), nullptr);
    EXPECT_GT(sys.recorder()->recorded(), 64u); // ring wrapped
    EXPECT_EQ(sys.recorder()->size(), 64u);
    auto v = validateChromeTrace(sys.recorder()->chromeTraceJson(2));
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_NE(r.stats_json.find("\"flight_recorder\""),
              std::string::npos);
}

} // namespace
} // namespace wo
