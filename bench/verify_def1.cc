/**
 * @file
 * Experiment E4 -- Section 6, first claim: "the hardware of Definition 1
 * is weakly ordered by Definition 2 with respect to DRF0".
 *
 * Checks the Definition-2 contract for the abstract Definition-1 machine
 * over the canned litmus suite and a batch of random lock-disciplined
 * programs: every program that obeys DRF0 must appear sequentially
 * consistent; programs that violate DRF0 are unconstrained (and the table
 * shows several really do exceed SC, i.e. the machine is genuinely weak).
 */

#include <cstdio>

#include "campaign/verify.hh"
#include "common/table.hh"
#include "core/drf0_checker.hh"
#include "program/litmus.hh"
#include "program/workload.hh"

namespace wo {
namespace {

void
run()
{
    std::vector<Program> suite;
    suite.push_back(litmus::fig1StoreBuffer());
    suite.push_back(litmus::messagePassing());
    suite.push_back(litmus::messagePassingSync());
    suite.push_back(litmus::coherenceCoRR());
    suite.push_back(litmus::fig3Scenario());
    suite.push_back(litmus::fig3ScenarioTestAndTas());
    suite.push_back(litmus::lockedCounter(2, 1));
    suite.push_back(litmus::lockedCounter(2, 1, true));
    suite.push_back(litmus::barrier(2));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Drf0WorkloadCfg cfg;
        cfg.seed = seed;
        cfg.procs = 2;
        cfg.sections = 1;
        cfg.ops_per_section = 2;
        cfg.private_ops = 1;
        suite.push_back(randomDrf0Program(cfg));
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RacyWorkloadCfg cfg;
        cfg.seed = seed;
        suite.push_back(randomRacyProgram(cfg));
    }

    std::printf("== E4: Definition-2 contract for the Definition-1 "
                "machine w.r.t. DRF0 ==\n");
    VerifyCfg cfg;
    cfg.max_states = ExploreCfg{}.max_states;
    bool holds = true;
    Table t({"program", "obeys DRF0", "appears SC", "contract"});
    for (const Program &p : suite) {
        const bool obeys = checkDrf0(p).obeys;
        const CheckState s = checkScSubset(p, "def1", cfg).def2.state;
        holds = holds && s != CheckState::violated;
        t.addRow({p.name(), obeys ? "yes" : "no",
                  s == CheckState::agree ? "yes" : "NO",
                  !obeys ? "n/a (racy)"
                         : (s == CheckState::agree ? "ok" : "VIOLATED")});
    }
    t.print();
    std::printf("contract %s over %zu programs\n",
                holds ? "HOLDS" : "VIOLATED", suite.size());
    std::printf("Paper's claim: every DRF0 row must appear SC; racy rows "
                "may legally exceed SC (several do, showing the machine "
                "is genuinely weaker than SC).\n");
    return;
}

} // namespace
} // namespace wo

int
main()
{
    wo::run();
    return 0;
}
