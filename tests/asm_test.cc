/**
 * @file
 * Tests for the program assembler: grammar coverage, symbolic locations,
 * labels, error reporting, round-tripping through disassemble, and
 * semantic equivalence with builder-constructed programs.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/drf0_checker.hh"
#include "models/explorer.hh"
#include "models/sc_model.hh"
#include "program/litmus.hh"

namespace wo {
namespace {

TEST(Assembler, ParsesHandoff)
{
    auto r = assembleString(R"(
program handoff
thread 0
  st data 42
  syncst flag 1
thread 1
spin:
  syncld r0 flag
  beq r0 0 spin
  ld r1 data
)");
    ASSERT_TRUE(r.ok()) << (r.errors.empty()
                                ? "?"
                                : r.errors[0].toString());
    const Program &p = *r.program;
    EXPECT_EQ(p.name(), "handoff");
    EXPECT_EQ(p.numThreads(), 2);
    EXPECT_EQ(p.numLocations(), 2u);
    EXPECT_EQ(p.locationName(0), "data");
    EXPECT_EQ(p.locationName(1), "flag");
    // Thread 1's beq points back to the syncld.
    EXPECT_EQ(p.thread(1).at(1).target, 0u);
    // Ends in halt automatically.
    EXPECT_EQ(p.thread(0).code.back().op, Opcode::halt);
}

TEST(Assembler, SemanticsMatchBuilderProgram)
{
    auto r = assembleString(R"(
program fig1
thread 0
  st X 1
  ld r0 Y
thread 1
  st Y 1
  ld r0 X
)");
    ASSERT_TRUE(r.ok());
    // Same SC outcome set as the canned builder version.
    ScModel asm_model(*r.program);
    Program built = litmus::fig1StoreBuffer();
    ScModel built_model(built);
    EXPECT_EQ(exploreOutcomes(asm_model).outcomes,
              exploreOutcomes(built_model).outcomes);
}

TEST(Assembler, InitDirective)
{
    auto r = assembleString(R"(
init s 7
thread 0
  ld r0 s
)");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.program->initialValue(0), 7);
}

TEST(Assembler, NumericAndSymbolicLocationsCoexist)
{
    auto r = assembleString(R"(
thread 0
  st 3 1
  st named 2
)");
    ASSERT_TRUE(r.ok());
    // 'named' must not collide with explicit address 3.
    const Program &p = *r.program;
    EXPECT_EQ(p.thread(0).at(0).addr, 3u);
    EXPECT_EQ(p.thread(0).at(1).addr, 4u);
    // Every location up to the highest is materialized, so a huge or
    // negative explicit address is an error, not a giant program.
    EXPECT_FALSE(assembleString("thread 0\n  st 4294967295 1\n").ok());
    EXPECT_FALSE(assembleString("thread 0\n  st -1 1\n").ok());
    EXPECT_TRUE(assembleString("thread 0\n  st 65535 1\n").ok());
}

TEST(Assembler, StoreRegisterForm)
{
    auto r = assembleString(R"(
thread 0
  movi r2 9
  st x r2
)");
    ASSERT_TRUE(r.ok());
    const Instruction &st = r.program->thread(0).at(1);
    EXPECT_FALSE(st.use_imm);
    EXPECT_EQ(st.src, 2);
}

TEST(Assembler, AllOpcodesParse)
{
    auto r = assembleString(R"(
program everything
thread 0
top:
  movi r1 5
  add r2 r1 r1
  addi r3 r2 -1
  ld r4 x
  st x 1
  st x r4
  syncld r5 s
  syncst s 0
  tas r6 s
  beq r1 5 fwd
  bne r1 4 fwd
  jmp fwd
fwd:
  work 10
  halt
)");
    ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "?"
                                             : r.errors[0].toString());
    EXPECT_EQ(r.program->thread(0).size(), 14u);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    auto r = assembleString("thread 0\n  ld r0\n  bogus 1 2\n");
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.errors.size(), 2u);
    EXPECT_EQ(r.errors[0].line, 2);
    EXPECT_NE(r.errors[0].toString().find("usage"), std::string::npos);
    EXPECT_EQ(r.errors[1].line, 3);
    EXPECT_NE(r.errors[1].toString().find("unknown instruction"),
              std::string::npos);
}

TEST(Assembler, RejectsBadRegisterAndThreadless)
{
    auto r = assembleString("thread 0\n  ld r99 x\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("register"), std::string::npos);

    auto r2 = assembleString("  ld r0 x\n");
    ASSERT_FALSE(r2.ok());
    EXPECT_NE(r2.errors[0].message.find("before any 'thread'"),
              std::string::npos);
}

TEST(Assembler, UndefinedLabelIsRejected)
{
    // Source text can come from outside (a fleet worker's reproducer),
    // so a bad label is a line-numbered error, never a fatal exit --
    // also when the label exists only in another thread.
    auto r = assembleString("thread 0\n  jmp nowhere\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.errors[0].line, 2);
    EXPECT_NE(r.errors[0].message.find("undefined label 'nowhere'"),
              std::string::npos);
    auto other = assembleString(
        "thread 0\nhere:\n  halt\nthread 1\n  jmp here\n");
    EXPECT_FALSE(other.ok());
    auto dup = assembleString("thread 0\nL:\nL:\n  jmp L\n");
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.errors[0].line, 3);
    EXPECT_NE(dup.errors[0].message.find("duplicate label"),
              std::string::npos);
}

TEST(Assembler, EmptySourceFails)
{
    auto r = assembleString("# just a comment\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("no threads"), std::string::npos);
}

TEST(Assembler, FileNotFound)
{
    auto r = assembleFile("/nonexistent/path.wo");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("cannot open"), std::string::npos);
}

TEST(Assembler, ProbeDirectivesParse)
{
    auto r = assembleString(R"(
thread 0
  st x 1
  ld r0 y
thread 1
  st y 1
  ld r0 x
probe 0 r0 0
probe 1 r0 0
probe mem x 1
)");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.probe.size(), 3u);
    EXPECT_FALSE(r.probe[0].is_memory);
    EXPECT_EQ(r.probe[0].proc, 0);
    EXPECT_EQ(r.probe[0].value, 0);
    EXPECT_TRUE(r.probe[2].is_memory);
    EXPECT_EQ(r.probe[2].toString(), "mem[0]=1");
}

TEST(Assembler, ProbeMatchesOutcomes)
{
    std::vector<ProbeTerm> probe;
    ProbeTerm t;
    t.proc = 1;
    t.reg = 0;
    t.value = 5;
    probe.push_back(t);
    ProbeTerm m;
    m.is_memory = true;
    m.addr = 0;
    m.value = 7;
    probe.push_back(m);

    Outcome yes{{{0}, {5}}, {7}};
    Outcome wrong_reg{{{0}, {4}}, {7}};
    Outcome wrong_mem{{{0}, {5}}, {8}};
    EXPECT_TRUE(probeMatches(probe, yes));
    EXPECT_FALSE(probeMatches(probe, wrong_reg));
    EXPECT_FALSE(probeMatches(probe, wrong_mem));
    EXPECT_TRUE(probeMatches({}, wrong_mem)) << "empty probe matches all";
}

TEST(Assembler, ProbeOutOfRangeRejected)
{
    auto r = assembleString("thread 0\n  st x 1\nprobe 7 r0 0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errors[0].message.find("probe thread"),
              std::string::npos);
    auto r2 = assembleString("thread 0\n  st x 1\nprobe mem 44 0\n");
    ASSERT_FALSE(r2.ok());
    EXPECT_NE(r2.errors[0].message.find("probe location"),
              std::string::npos);
}

#ifdef WO_PROGRAMS_DIR
TEST(Assembler, AllSampleProgramsAssemble)
{
    const char *names[] = {"handoff.wo", "fig1.wo",     "fig3.wo",
                           "mp.wo",      "dekker.wo",   "spinlock.wo",
                           "iriw.wo"};
    for (const char *n : names) {
        auto r = assembleFile(std::string(WO_PROGRAMS_DIR) + "/" + n);
        EXPECT_TRUE(r.ok()) << n << ": "
                            << (r.errors.empty()
                                    ? "?"
                                    : r.errors[0].toString());
    }
}

TEST(Assembler, SampleVerdictsAreAsDocumented)
{
    auto check = [](const char *n) {
        auto r = assembleFile(std::string(WO_PROGRAMS_DIR) + "/" + n);
        EXPECT_TRUE(r.ok()) << n;
        return checkDrf0(*r.program).obeys;
    };
    EXPECT_TRUE(check("handoff.wo"));
    EXPECT_TRUE(check("fig3.wo"));
    EXPECT_TRUE(check("spinlock.wo"));
    EXPECT_FALSE(check("fig1.wo"));
    EXPECT_FALSE(check("mp.wo"));
    EXPECT_FALSE(check("dekker.wo"));
    EXPECT_FALSE(check("iriw.wo"));
}
#endif

TEST(Disassembler, RoundTripsToFixedPoint)
{
    for (const Program &p :
         {litmus::fig1StoreBuffer(), litmus::messagePassingSync(),
          litmus::fig3Scenario(10), litmus::lockedCounter(2, 2),
          litmus::barrier(3)}) {
        std::string once = disassemble(p);
        auto re = assembleString(once);
        ASSERT_TRUE(re.ok()) << p.name() << ": "
                             << (re.errors.empty()
                                     ? "?"
                                     : re.errors[0].toString());
        std::string twice = disassemble(*re.program);
        EXPECT_EQ(once, twice) << p.name();
    }
}

TEST(Disassembler, RoundTripPreservesSemantics)
{
    Program p = litmus::messagePassingSync();
    auto re = assembleString(disassemble(p));
    ASSERT_TRUE(re.ok());
    ScModel a(p), b(*re.program);
    EXPECT_EQ(exploreOutcomes(a).outcomes, exploreOutcomes(b).outcomes);
    EXPECT_EQ(checkDrf0(p).obeys, checkDrf0(*re.program).obeys);
}

} // namespace
} // namespace wo
