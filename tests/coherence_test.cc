/**
 * @file
 * Unit tests for the coherence substrate: the network's delivery
 * guarantees and the directory/cache protocol driven through small
 * single- and multi-processor programs with white-box inspection.
 */

#include <gtest/gtest.h>

#include "coherence/network.hh"
#include "program/builder.hh"
#include "program/litmus.hh"
#include "sys/system.hh"

namespace wo {
namespace {

/** The listed counter @p name of @p g; an unlisted one fails the test. */
std::uint64_t
counterOf(const StatGroup &g, const std::string &name)
{
    const std::optional<std::uint64_t> v = g.find(name);
    EXPECT_TRUE(v) << name << " is not listed";
    return v.value_or(0);
}

/** Collects messages it receives. */
class Sink : public MsgHandler
{
  public:
    void receive(const Message &msg) override { got.push_back(msg); }
    std::vector<Message> got;
};

TEST(Network, DeliversAfterLatency)
{
    EventQueue eq;
    Network net(eq, NetworkCfg{7, 0, 1});
    Sink sink;
    net.attach(0, &sink);
    net.attach(1, &sink);
    Message m;
    m.type = MsgType::get_s;
    m.src = 0;
    m.dst = 1;
    m.addr = 3;
    net.send(m);
    EXPECT_TRUE(sink.got.empty());
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(sink.got[0].addr, 3u);
}

TEST(Network, PerPairFifoDespiteJitter)
{
    EventQueue eq;
    Network net(eq, NetworkCfg{5, 50, 42});
    Sink sink;
    net.attach(0, &sink);
    net.attach(1, &sink);
    for (int i = 0; i < 20; ++i) {
        Message m;
        m.type = MsgType::get_s;
        m.src = 0;
        m.dst = 1;
        m.addr = static_cast<Addr>(i);
        net.send(m);
    }
    eq.runAll();
    ASSERT_EQ(sink.got.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(sink.got[static_cast<std::size_t>(i)].addr,
                  static_cast<Addr>(i))
            << "same-pair messages must stay FIFO";
}

TEST(Network, CountsMessages)
{
    EventQueue eq;
    Network net(eq, NetworkCfg{});
    Sink sink;
    net.attach(0, &sink);
    net.attach(1, &sink);
    Message m;
    m.type = MsgType::inv;
    m.src = 0;
    m.dst = 1;
    m.addr = 0;
    net.send(m);
    net.send(m);
    eq.runAll();
    EXPECT_EQ(counterOf(net.stats(), "messages"), 2u);
}

TEST(Network, CountsEachMessageTypeUnderItsName)
{
    EventQueue eq;
    Network net(eq, NetworkCfg{});
    Sink sink;
    net.attach(0, &sink);
    net.attach(1, &sink);
    constexpr int num_types = static_cast<int>(MsgType::nack) + 1;
    for (int t = 0; t < num_types; ++t) {
        Message m;
        m.type = static_cast<MsgType>(t);
        m.src = 0;
        m.dst = 1;
        net.send(m);
    }
    eq.runAll();
    EXPECT_EQ(counterOf(net.stats(), "messages"),
              static_cast<std::uint64_t>(num_types));
    for (int t = 0; t < num_types; ++t) {
        const std::string name =
            std::string("msg.") + msgTypeName(static_cast<MsgType>(t));
        EXPECT_EQ(counterOf(net.stats(), name), 1u);
    }
}

SystemCfg
quickCfg(OrderingPolicy pol = OrderingPolicy::wo_drf0)
{
    SystemCfg cfg;
    cfg.policy = pol;
    cfg.net.hop_latency = 5;
    return cfg;
}

TEST(Protocol, SingleCpuReadAfterWrite)
{
    ProgramBuilder b("raw", 1);
    b.thread(0).store(0, 7).load(0, 0).storeReg(1, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.memory[0], 7);
    EXPECT_EQ(r.outcome.memory[1], 7);
    EXPECT_EQ(r.outcome.regs[0][0], 7);
}

TEST(Protocol, ColdMissThenHit)
{
    ProgramBuilder b("hits", 1);
    b.thread(0).load(0, 0).load(1, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(counterOf(sys.cache(0).stats(), "read_misses"), 1u);
    EXPECT_EQ(counterOf(sys.cache(0).stats(), "read_hits"), 1u);
}

TEST(Protocol, WriteInvalidatesSharers)
{
    // P0 and P1 both warm-share x; P2's write must invalidate both and
    // only be globally performed after their acks.
    ProgramBuilder b("inval", 3);
    b.thread(0).work(100).load(0, 0).halt();
    b.thread(1).work(100).load(0, 0).halt();
    b.thread(2).store(0, 9).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    sys.warmShared(0, {0, 1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.memory[0], 9);
    // Both warm copies were invalidated at some point.
    const StatGroup &c0 = sys.cache(0).stats();
    const StatGroup &c1 = sys.cache(1).stats();
    EXPECT_EQ(counterOf(c0, "invalidations"), 1u);
    EXPECT_EQ(counterOf(c1, "invalidations"), 1u);
    // And the late loads re-fetched the new value.
    EXPECT_EQ(r.outcome.regs[0][0], 9);
    EXPECT_EQ(r.outcome.regs[1][0], 9);
}

TEST(Protocol, DirtyLineForwardedBetweenCaches)
{
    // P0 writes x (dirty); P1 reads it: the directory must forward.
    ProgramBuilder b("fwd", 2);
    b.thread(0).store(0, 5).halt();
    b.thread(1).work(200).load(0, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.regs[1][0], 5);
    EXPECT_EQ(r.outcome.memory[0], 5);
}

TEST(Protocol, DirtyLineOwnershipTransfer)
{
    // Write after write in different caches: exclusive transfer path.
    ProgramBuilder b("wxfer", 2);
    b.thread(0).store(0, 1).halt();
    b.thread(1).work(200).store(0, 2).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.memory[0], 2);
    EXPECT_TRUE(sys.cache(1).holdsModified(0));
}

TEST(Protocol, TestAndSetIsAtomicUnderContention)
{
    // Many processors TAS the same location once; exactly one wins 0.
    const ProcId procs = 4;
    ProgramBuilder b("tas-race", procs);
    for (ProcId q = 0; q < procs; ++q)
        b.thread(q).testAndSet(0, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    int winners = 0;
    for (ProcId q = 0; q < procs; ++q)
        winners += r.outcome.regs[q][0] == 0;
    EXPECT_EQ(winners, 1);
    EXPECT_EQ(r.outcome.memory[0], 1);
}

TEST(Protocol, UpgradeFromSharedCollectsAcks)
{
    // P0 warm-shares x, then upgrades: the directory must invalidate the
    // other sharer before the MemAck.
    ProgramBuilder b("upg", 2);
    b.thread(0).store(0, 3).halt();
    b.thread(1).work(150).load(0, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    sys.warmShared(0, {0, 1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.regs[1][0], 3);
    EXPECT_EQ(counterOf(sys.cache(1).stats(), "invalidations"), 1u);
}

TEST(Protocol, CounterReturnsToZero)
{
    ProgramBuilder b("drain", 2);
    b.thread(0).store(0, 1).store(1, 2).store(2, 3).halt();
    b.thread(1).store(3, 4).load(0, 3).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.cache(0).counter(), 0);
    EXPECT_EQ(sys.cache(1).counter(), 0);
    EXPECT_TRUE(sys.directory().quiescent());
}

TEST(Protocol, ReservationSetAndCleared)
{
    // P0: slow data write (x warm-shared by P1), then a sync release: the
    // release commits while x's invalidation is pending, so the line is
    // reserved; by quiesce time every reserve bit must be clear.
    ProgramBuilder b("resv", 2);
    b.thread(0).store(0, 1).syncStore(1, 1).halt();
    b.thread(1).work(500).syncLoad(0, 1).load(1, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg(OrderingPolicy::wo_drf0));
    sys.warmShared(0, {1});
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GE(counterOf(sys.cache(0).stats(), "reservations"),
              1u);
    EXPECT_FALSE(sys.cache(0).isReserved(1));
    EXPECT_EQ(sys.cache(0).counter(), 0);
}

TEST(ProtocolMesi, SilentUpgradeOnReadThenWrite)
{
    ProgramBuilder b("rtw", 1);
    b.thread(0).load(0, 0).addi(0, 0, 1).storeReg(0, 0).halt();
    Program p = b.build();
    SystemCfg cfg = quickCfg();
    cfg.dir.grant_exclusive_clean = true;
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    const StatGroup &c = sys.cache(0).stats();
    EXPECT_EQ(counterOf(c, "silent_upgrades"), 1u);
    EXPECT_FALSE(c.find("write_misses")) << "no GetX needed";
    EXPECT_EQ(r.outcome.memory[0], 1);
}

TEST(ProtocolMesi, ExclusiveCleanLineForwardedOnRemoteRead)
{
    // P0 reads x (granted E, never writes); P1 then reads: the directory
    // forwards to the clean owner, which downgrades via WbData.
    ProgramBuilder b("e-fwd", 2);
    b.thread(0).load(0, 0).halt();
    b.thread(1).work(200).load(0, 0).halt();
    Program p = b.build();
    p.setInitial(0, 5);
    SystemCfg cfg = quickCfg();
    cfg.dir.grant_exclusive_clean = true;
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.regs[0][0], 5);
    EXPECT_EQ(r.outcome.regs[1][0], 5);
}

TEST(ProtocolMesi, RemoteWriteTakesExclusiveCleanLine)
{
    ProgramBuilder b("e-steal", 2);
    b.thread(0).load(0, 0).halt();
    b.thread(1).work(200).store(0, 9).halt();
    Program p = b.build();
    SystemCfg cfg = quickCfg();
    cfg.dir.grant_exclusive_clean = true;
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.memory[0], 9);
    EXPECT_TRUE(sys.cache(1).holdsModified(0));
}

TEST(ProtocolMesi, SuiteStaysCorrect)
{
    for (OrderingPolicy pol :
         {OrderingPolicy::sc, OrderingPolicy::wo_def1,
          OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro}) {
        SystemCfg cfg = quickCfg(pol);
        cfg.dir.grant_exclusive_clean = true;
        Program p = litmus::lockedCounter(4, 2);
        System sys(p, cfg);
        auto r = sys.run();
        ASSERT_TRUE(r.completed) << policyName(pol);
        EXPECT_EQ(r.outcome.memory[1], 8) << policyName(pol);

        Program bar = litmus::barrier(3);
        System sys2(bar, cfg);
        auto r2 = sys2.run();
        ASSERT_TRUE(r2.completed) << policyName(pol);
        for (ProcId q = 0; q < 3; ++q)
            EXPECT_EQ(r2.outcome.regs[q][3], 42) << policyName(pol);
    }
}

TEST(Protocol, MissLatencyHistogramsRecorded)
{
    ProgramBuilder b("lat", 1);
    b.thread(0).load(0, 0).store(1, 2).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    const StatGroup &g = sys.cache(0).stats();
    ASSERT_TRUE(g.findHistogram("read_miss_latency"));
    ASSERT_TRUE(g.findHistogram("write_miss_latency"));
    EXPECT_EQ(g.findHistogram("read_miss_latency")->count(), 1u);
    // Round trip through the directory: at least two hops.
    EXPECT_GE(g.findHistogram("read_miss_latency")->min(), 10u);
}

TEST(Protocol, ExecutionTraceIsPlausibleAndOrdered)
{
    ProgramBuilder b("trace", 2);
    b.thread(0).store(0, 1).store(1, 2).halt();
    b.thread(1).load(0, 1).load(1, 0).halt();
    Program p = b.build();
    System sys(p, quickCfg());
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.execution.valuesPlausible());
    // Per-processor subsequences are in program order by construction.
    EXPECT_EQ(r.execution.procOps(0).size(), 2u);
    EXPECT_EQ(r.execution.procOps(1).size(), 2u);
}

} // namespace
} // namespace wo
