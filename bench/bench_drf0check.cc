/**
 * @file
 * Experiment E9 -- the DRF0 definition as a practical checking problem
 * (Section 4: "current work is being done on determining when programs
 * are data-race-free").
 *
 * Part 1 prints the verdict table for the canned program suite (one
 * column: the verdict does not depend on the happens-before flavor) with
 * the SC states the check explored.  Part 2 is a google-benchmark suite measuring
 * the cost of the laboratory's three core analyses: whole-program DRF0
 * checking, exhaustive outcome exploration, and SC-explainability
 * checking.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/table.hh"
#include "core/drf0_checker.hh"
#include "hb/race.hh"
#include "models/explorer.hh"
#include "models/sc_model.hh"
#include "models/wo_drf0_model.hh"
#include "program/litmus.hh"
#include "program/workload.hh"
#include "sc/sc_checker.hh"
#include "sys/system.hh"

namespace wo {
namespace {

void
verdictTable()
{
    std::printf("== E9: DRF0 verdicts for the program suite ==\n");
    std::vector<Program> suite;
    suite.push_back(litmus::fig1StoreBuffer());
    suite.push_back(litmus::messagePassing());
    suite.push_back(litmus::messagePassingSync());
    suite.push_back(litmus::coherenceCoRR());
    suite.push_back(litmus::iriw());
    suite.push_back(litmus::fig3Scenario());
    suite.push_back(litmus::fig3ScenarioTestAndTas());
    suite.push_back(litmus::lockedCounter(2, 2));
    suite.push_back(litmus::racyCounter(2, 2));
    suite.push_back(litmus::barrier(3));
    suite.push_back(litmus::pingPong(2));

    Table t({"program", "DRF0", "SC states explored"});
    for (const auto &p : suite) {
        auto v = checkDrf0(p);
        t.addRow({p.name(),
                  v.exhausted ? "inconclusive"
                              : v.obeys ? "obeys" : "VIOLATES",
                  strprintf("%llu", (unsigned long long)v.states)});
    }
    t.print();
    std::printf("\n");
}

void
BM_CheckDrf0Litmus(benchmark::State &state)
{
    Program p = litmus::lockedCounter(2, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto v = checkDrf0(p);
        benchmark::DoNotOptimize(v.obeys);
    }
}
BENCHMARK(BM_CheckDrf0Litmus)->Arg(1)->Arg(2);

void
BM_CheckDrf0Random(benchmark::State &state)
{
    Drf0WorkloadCfg cfg;
    cfg.procs = 2;
    cfg.sections = 1;
    cfg.ops_per_section = static_cast<int>(state.range(0));
    cfg.seed = 3;
    Program p = randomDrf0Program(cfg);
    for (auto _ : state) {
        auto v = checkDrf0(p);
        benchmark::DoNotOptimize(v.obeys);
    }
}
BENCHMARK(BM_CheckDrf0Random)->Arg(1)->Arg(2)->Arg(3);

void
BM_ExploreScOutcomes(benchmark::State &state)
{
    Program p = litmus::lockedCounter(2, static_cast<int>(state.range(0)));
    ScModel m(p);
    for (auto _ : state) {
        auto r = exploreOutcomes(m);
        benchmark::DoNotOptimize(r.outcomes.size());
    }
}
BENCHMARK(BM_ExploreScOutcomes)->Arg(1)->Arg(2)->Arg(3);

void
BM_ExploreWoDrf0Outcomes(benchmark::State &state)
{
    Program p = litmus::lockedCounter(2, static_cast<int>(state.range(0)));
    WoDrf0Model m(p);
    for (auto _ : state) {
        auto r = exploreOutcomes(m);
        benchmark::DoNotOptimize(r.outcomes.size());
    }
}
BENCHMARK(BM_ExploreWoDrf0Outcomes)->Arg(1)->Arg(2);

void
BM_ScCheckTimedExecution(benchmark::State &state)
{
    Drf0WorkloadCfg wl;
    wl.procs = static_cast<ProcId>(state.range(0));
    wl.regions = 2;
    wl.sections = 3;
    wl.ops_per_section = 4;
    wl.seed = 11;
    Program p = randomDrf0Program(wl);
    SystemCfg cfg;
    System sys(p, cfg);
    auto r = sys.run();
    for (auto _ : state) {
        auto sc = checkSequentialConsistency(r.execution);
        benchmark::DoNotOptimize(sc.sc);
    }
}
BENCHMARK(BM_ScCheckTimedExecution)->Arg(2)->Arg(3)->Arg(4);

void
BM_RaceDetectVectorClocks(benchmark::State &state)
{
    Drf0WorkloadCfg wl;
    wl.procs = 4;
    wl.regions = 2;
    wl.sections = static_cast<int>(state.range(0));
    wl.ops_per_section = 4;
    wl.seed = 13;
    Program p = randomDrf0Program(wl);
    SystemCfg cfg;
    System sys(p, cfg);
    auto r = sys.run();
    for (auto _ : state) {
        auto races = findRaces(r.execution);
        benchmark::DoNotOptimize(races.size());
    }
}
BENCHMARK(BM_RaceDetectVectorClocks)->Arg(2)->Arg(4)->Arg(8);

void
BM_TimedSystemRun(benchmark::State &state)
{
    Program p = litmus::lockedCounter(
        static_cast<ProcId>(state.range(0)), 3);
    for (auto _ : state) {
        SystemCfg cfg;
        System sys(p, cfg);
        auto r = sys.run();
        benchmark::DoNotOptimize(r.finish_tick);
    }
}
BENCHMARK(BM_TimedSystemRun)->Arg(2)->Arg(4)->Arg(8);

} // namespace
} // namespace wo

int
main(int argc, char **argv)
{
    wo::verdictTable();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
