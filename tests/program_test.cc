/**
 * @file
 * Unit tests for the program IR, the builder, the canned litmus programs
 * and the random workload generators.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "program/builder.hh"
#include "program/litmus.hh"
#include "program/program.hh"
#include "program/workload.hh"

namespace wo {
namespace {

TEST(Instruction, Classification)
{
    Instruction ld;
    ld.op = Opcode::load_data;
    EXPECT_TRUE(ld.readsMemory());
    EXPECT_FALSE(ld.writesMemory());
    EXPECT_FALSE(ld.isSync());

    Instruction tas;
    tas.op = Opcode::test_and_set;
    EXPECT_TRUE(tas.readsMemory());
    EXPECT_TRUE(tas.writesMemory());
    EXPECT_TRUE(tas.isSync());
    EXPECT_FALSE(tas.isReadOnlySync());

    Instruction tst;
    tst.op = Opcode::sync_load;
    EXPECT_TRUE(tst.isReadOnlySync());

    Instruction b;
    b.op = Opcode::branch_eq;
    EXPECT_FALSE(b.accessesMemory());
}

TEST(Builder, BuildsAndResolvesLabels)
{
    ProgramBuilder b("t", 1);
    b.thread(0)
        .movi(0, 3)
        .label("top")
        .addi(0, 0, -1)
        .bne(0, 0, "top")
        .halt();
    Program p = b.build();
    EXPECT_EQ(p.numThreads(), 1);
    // The bne at index 2 must point at the addi at index 1.
    EXPECT_EQ(p.thread(0).at(2).target, 1u);
}

TEST(Builder, UndefinedLabelIsFatal)
{
    ProgramBuilder b("t", 1);
    b.thread(0).jmp("nowhere").halt();
    EXPECT_EXIT(b.build(), testing::ExitedWithCode(1), "undefined label");
}

TEST(Builder, DuplicateLabelPanics)
{
    ProgramBuilder b("t", 1);
    auto &t = b.thread(0);
    t.label("l");
    EXPECT_DEATH(t.label("l"), "twice");
}

TEST(Builder, AutoHaltAppended)
{
    ProgramBuilder b("t", 2);
    b.thread(0).store(0, 1); // no explicit halt
    Program p = b.build();
    EXPECT_EQ(p.thread(0).code.back().op, Opcode::halt);
    EXPECT_EQ(p.thread(1).code.back().op, Opcode::halt);
}

TEST(Builder, LocationsGrowOnDemand)
{
    ProgramBuilder b("t", 1);
    b.thread(0).store(9, 1).halt();
    Program p = b.build();
    EXPECT_EQ(p.numLocations(), 10u);
}

TEST(Builder, InitLocationSetsInitialValue)
{
    ProgramBuilder b("t", 1);
    b.thread(0).load(0, 2).halt();
    b.initLocation(2, 77);
    Program p = b.build();
    EXPECT_EQ(p.initialValue(2), 77);
    EXPECT_EQ(p.initialValue(0), 0);
}

TEST(Builder, AcquireEmitsTestAndTas)
{
    ProgramBuilder b("t", 1);
    b.thread(0).acquire(0).halt();
    Program p = b.build();
    int sync_loads = 0, tases = 0;
    for (const auto &i : p.thread(0).code) {
        sync_loads += i.op == Opcode::sync_load;
        tases += i.op == Opcode::test_and_set;
    }
    EXPECT_EQ(sync_loads, 1);
    EXPECT_EQ(tases, 1);
}

TEST(Builder, AcquireLabelsKeepTheirPrintfNames)
{
    // Each acquire defines the next auto label, "__acq<n>" (Test and
    // TestAndSet, four instructions) or "__acqt<n>" (TestAndSet only,
    // two); a jump to the printf rendering of the name must land on
    // the acquire's first instruction.
    ProgramBuilder b("t", 1);
    auto &t = b.thread(0);
    std::vector<Pc> starts;
    Pc pc = 0;
    constexpr int num_acquires = 1100;
    for (int n = 0; n < num_acquires; ++n) {
        starts.push_back(pc);
        if (n % 2 == 0) {
            t.acquire(0);
            pc += 4;
        } else {
            t.acquireTasOnly(0);
            pc += 2;
        }
    }
    char name[32];
    for (int n = 0; n < num_acquires; ++n) {
        std::snprintf(name, sizeof name, n % 2 == 0 ? "__acq%d" : "__acqt%d",
                      n);
        t.jmp(name);
    }
    const Program p = b.build();
    for (int n = 0; n < num_acquires; ++n) {
        const Instruction &j = p.thread(0).code[pc + n];
        ASSERT_EQ(j.op, Opcode::jump);
        EXPECT_EQ(j.target, starts[n]) << n;
    }
}

TEST(Program, DisassemblyMentionsEverything)
{
    Program p = litmus::fig1StoreBuffer();
    std::string s = p.toString();
    EXPECT_NE(s.find("ST"), std::string::npos);
    EXPECT_NE(s.find("LD"), std::string::npos);
    EXPECT_NE(s.find("P0"), std::string::npos);
    EXPECT_NE(s.find("P1"), std::string::npos);
}

TEST(Program, LocationNames)
{
    Program p = litmus::fig1StoreBuffer();
    EXPECT_EQ(p.locationName(litmus::loc_x), "X");
    EXPECT_EQ(p.locationName(litmus::loc_y), "Y");
}

TEST(Litmus, Fig1Shape)
{
    Program p = litmus::fig1StoreBuffer();
    ASSERT_EQ(p.numThreads(), 2);
    EXPECT_EQ(p.thread(0).at(0).op, Opcode::store_data);
    EXPECT_EQ(p.thread(0).at(1).op, Opcode::load_data);
    EXPECT_EQ(p.thread(0).at(0).addr, litmus::loc_x);
    EXPECT_EQ(p.thread(0).at(1).addr, litmus::loc_y);
}

TEST(Litmus, Fig3LockStartsHeld)
{
    Program p = litmus::fig3Scenario();
    EXPECT_EQ(p.initialValue(1), 1) << "s must start held by P0";
    EXPECT_EQ(p.initialValue(0), 0);
}

TEST(Litmus, BarrierHasOneSyncStoreOfGoPerThread)
{
    Program p = litmus::barrier(3);
    ASSERT_EQ(p.numThreads(), 3);
    for (ProcId t = 0; t < 3; ++t) {
        int go_stores = 0;
        for (const auto &i : p.thread(t).code)
            go_stores += i.op == Opcode::sync_store && i.addr == 2;
        EXPECT_EQ(go_stores, 1);
    }
}

TEST(Workload, Drf0GeneratorIsDeterministic)
{
    Drf0WorkloadCfg cfg;
    cfg.seed = 123;
    Program a = randomDrf0Program(cfg);
    Program b = randomDrf0Program(cfg);
    EXPECT_EQ(a.toString(), b.toString());
}

TEST(Workload, Drf0GeneratorVariesBySeed)
{
    Drf0WorkloadCfg cfg;
    cfg.seed = 1;
    Program a = randomDrf0Program(cfg);
    cfg.seed = 2;
    Program b = randomDrf0Program(cfg);
    EXPECT_NE(a.toString(), b.toString());
}

TEST(Workload, Drf0DataAccessesOnlyInsideCriticalSections)
{
    Drf0WorkloadCfg cfg;
    cfg.procs = 3;
    cfg.regions = 2;
    cfg.sections = 3;
    cfg.seed = 99;
    Program p = randomDrf0Program(cfg);
    const Addr data_base = cfg.regions;
    const Addr private_base = data_base + cfg.regions * cfg.locs_per_region;
    for (ProcId t = 0; t < p.numThreads(); ++t) {
        int depth = 0;
        for (const auto &i : p.thread(t).code) {
            if (i.op == Opcode::test_and_set)
                depth = 1;
            if (i.op == Opcode::sync_store)
                depth = 0;
            const bool is_region_data =
                (i.op == Opcode::load_data || i.op == Opcode::store_data) &&
                i.addr >= data_base && i.addr < private_base;
            if (is_region_data) {
                EXPECT_EQ(depth, 1)
                    << "shared data access outside critical section";
            }
        }
    }
}

TEST(Workload, RacyGeneratorHasNoSyncOps)
{
    RacyWorkloadCfg cfg;
    cfg.seed = 4;
    Program p = randomRacyProgram(cfg);
    for (ProcId t = 0; t < p.numThreads(); ++t)
        for (const auto &i : p.thread(t).code)
            EXPECT_FALSE(i.isSync());
}

TEST(Workload, GeneratedNamesKeepTheirPrintfBytes)
{
    char want[64];
    for (std::uint64_t seed :
         {0ULL, 1ULL, 9ULL, 10ULL, 12345ULL, 4294967296ULL,
          18446744073709551615ULL}) {
        const auto s = static_cast<unsigned long long>(seed);
        Drf0WorkloadCfg d;
        d.seed = seed;
        d.regions = 12;
        const Program drf0 = randomDrf0Program(d);
        std::snprintf(want, sizeof want, "drf0-rand-s%llu", s);
        EXPECT_EQ(drf0.name(), want);
        for (Addr r = 0; r < d.regions; ++r) {
            std::snprintf(want, sizeof want, "L%u", r);
            EXPECT_EQ(drf0.locationName(r), want);
        }
        RacyWorkloadCfg racy;
        racy.seed = seed;
        std::snprintf(want, sizeof want, "racy-rand-s%llu", s);
        EXPECT_EQ(randomRacyProgram(racy).name(), want);
    }
}

TEST(Workload, SyntheticMixRespectsSyncPercentExtremes)
{
    Program none = syntheticMix(2, 4, 2, 20, 0, 0, 7);
    for (ProcId t = 0; t < none.numThreads(); ++t)
        for (const auto &i : none.thread(t).code)
            EXPECT_FALSE(i.isSync());

    Program all = syntheticMix(2, 4, 2, 20, 100, 0, 7);
    int syncs = 0, datas = 0;
    for (ProcId t = 0; t < all.numThreads(); ++t) {
        for (const auto &i : all.thread(t).code) {
            syncs += i.isSync();
            datas += i.accessesMemory() && !i.isSync();
        }
    }
    EXPECT_EQ(datas, 0);
    EXPECT_EQ(syncs, 40);
}

TEST(Program, ValidationCatchesBadBranchTarget)
{
    std::vector<ThreadCode> threads(1);
    Instruction b;
    b.op = Opcode::branch_eq;
    b.target = 99;
    Instruction h;
    h.op = Opcode::halt;
    threads[0].code = {b, h};
    EXPECT_EXIT(Program("bad", std::move(threads), 1),
                testing::ExitedWithCode(1), "branch target");
}

TEST(Program, ValidationCatchesMissingHalt)
{
    std::vector<ThreadCode> threads(1);
    Instruction s;
    s.op = Opcode::store_data;
    s.addr = 0;
    threads[0].code = {s};
    EXPECT_EXIT(Program("bad", std::move(threads), 1),
                testing::ExitedWithCode(1), "HALT");
}

} // namespace
} // namespace wo
