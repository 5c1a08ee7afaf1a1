/**
 * @file
 * Cross-cutting integration tests: the full tool-chain paths a user walks
 * (assemble -> check -> explore -> run -> audit -> serialize -> analyze),
 * contract reporting, and a handful of end-to-end invariants that tie the
 * abstract and timed halves of the laboratory together.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "campaign/verify.hh"
#include "common/random.hh"
#include "core/conditions.hh"
#include "core/drf0_checker.hh"
#include "core/lockset.hh"
#include "execution/trace_io.hh"
#include "hb/dot.hh"
#include "hb/lemma1.hh"
#include "models/wo_drf0_model.hh"
#include "program/litmus.hh"
#include "sc/sc_checker.hh"
#include "sys/system.hh"

namespace wo {
namespace {

TEST(Pipeline, AssembleCheckRunAuditSerializeAnalyze)
{
    // The full happy path over one source text.
    auto a = assembleString(R"(
program pipeline
thread 0
  st data 11
  syncst flag 1
thread 1
spin:
  syncld r0 flag
  beq r0 0 spin
  ld r1 data
)");
    ASSERT_TRUE(a.ok());
    const Program &p = *a.program;

    // Software side.
    EXPECT_TRUE(checkDrf0(p).obeys);
    // (Not monitor-disciplined -- it is a flag handoff -- so lockset must
    // say so without crashing.)
    EXPECT_FALSE(checkLockDiscipline(p).certified);

    // Abstract hardware side.
    EXPECT_EQ(checkScSubset(p, "drf0").def2.state, CheckState::agree);

    // Timed hardware side.
    SystemCfg cfg;
    cfg.net.jitter = 3;
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.outcome.regs[1][1], 11);
    EXPECT_TRUE(checkSufficientConditions(r).ok);
    EXPECT_TRUE(checkHbLastWrite(r.execution).ok);

    // Serialize, re-parse, re-analyze.
    auto reparsed = traceFromText(traceToText(r.execution));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(isSequentiallyConsistent(*reparsed.execution));

    // And the dot export renders the same trace.
    std::string dot = executionToDot(*reparsed.execution);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Pipeline, RacyProgramFailsExactlyWhereItShould)
{
    Program p = litmus::messagePassing();
    EXPECT_FALSE(checkDrf0(p).obeys);
    EXPECT_EQ(checkScSubset(p, "drf0").def2.state, CheckState::escapes_sc);
    // The timed machine still satisfies its hardware-side invariants.
    SystemCfg cfg;
    System sys(p, cfg);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(checkSufficientConditions(r).ok)
        << "conditions are hardware invariants, software-independent";
}

TEST(Contract, ReportRendersAllColumns)
{
    // The evidence report names every check, the SC-subset answer and
    // whether the DRF0 classification had to be read.
    const std::string sync =
        checkScSubset(litmus::messagePassingSync(), "drf0").detail();
    EXPECT_NE(sync.find("dpor_divergence:  unknown (not run)"),
              std::string::npos)
        << sync;
    EXPECT_NE(sync.find("axiom_divergence: unknown (not run)"),
              std::string::npos)
        << sync;
    EXPECT_NE(sync.find("def2_subset:      agree"), std::string::npos)
        << sync;
    EXPECT_NE(sync.find("drf0: not needed"), std::string::npos) << sync;

    const VerifyResult racy = checkScSubset(litmus::messagePassing(), "drf0");
    const std::string text = racy.detail();
    EXPECT_NE(text.find("def2_subset:      escapes-sc"), std::string::npos)
        << text;
    EXPECT_NE(text.find("drf0: violates"), std::string::npos) << text;
    ASSERT_FALSE(racy.def2.witness.empty());
    EXPECT_NE(text.find(racy.def2.witness.begin()->toString()),
              std::string::npos)
        << text;
}

TEST(Invariants, TimedOutcomeAlwaysAmongAbstractForCannedSuite)
{
    for (const Program &p :
         {litmus::messagePassingSync(), litmus::fig3Scenario(),
          litmus::coherenceCoRR(), litmus::loadBuffering()}) {
        WoDrf0Model abstract(p, 8);
        auto reference = exploreOutcomes(abstract);
        SystemCfg cfg;
        System sys(p, cfg);
        auto r = sys.run();
        ASSERT_TRUE(r.completed) << p.name();
        EXPECT_TRUE(reference.outcomes.count(r.outcome)) << p.name();
    }
}

TEST(Invariants, HistogramPercentilesMonotone)
{
    Histogram h;
    Rng rng(4);
    for (int i = 0; i < 500; ++i)
        h.sample(rng.below(1000));
    std::uint64_t prev = 0;
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
        auto v = h.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
    EXPECT_EQ(h.percentile(0), h.min());
    EXPECT_EQ(h.percentile(100), h.max());
}

TEST(Invariants, LitmusProgramsRoundTripThroughAsmWithVerdicts)
{
    for (const Program &p :
         {litmus::fig1StoreBuffer(), litmus::messagePassingSync(),
          litmus::twoPlusTwoW(), litmus::sShape(), litmus::wrc(),
          litmus::loadBuffering(), litmus::coWW()}) {
        auto re = assembleString(disassemble(p));
        ASSERT_TRUE(re.ok()) << p.name();
        EXPECT_EQ(checkDrf0(p).obeys, checkDrf0(*re.program).obeys)
            << p.name();
    }
}

} // namespace
} // namespace wo
