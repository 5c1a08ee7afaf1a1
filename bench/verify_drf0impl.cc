/**
 * @file
 * Experiment E5 -- the central theorem (Section 5 / Appendix B): the new
 * implementation is weakly ordered with respect to DRF0 under
 * Definition 2, i.e. it appears sequentially consistent to every DRF0
 * program -- while genuinely exceeding SC on racy programs (which is why
 * Definition 1 does not admit it, and why it is faster).
 *
 * Three parts:
 *  1. the Definition-2 contract table for the abstract Section-5 machine
 *     (base and read-only-sync-refined);
 *  2. the same theorem on the *timed* Section-5.3 machine: executions of
 *     random DRF0 programs are SC-explainable (Lemma 1's executable form);
 *  3. the divergence table: racy programs on which the machine produces
 *     outcomes SC cannot.
 */

#include <cstdio>

#include "campaign/verify.hh"
#include "common/table.hh"
#include "core/conditions.hh"
#include "core/drf0_checker.hh"
#include "program/litmus.hh"
#include "program/workload.hh"
#include "sc/sc_checker.hh"
#include "sys/system.hh"

namespace wo {
namespace {

void
contractTable()
{
    std::vector<Program> suite;
    suite.push_back(litmus::fig1StoreBuffer());
    suite.push_back(litmus::messagePassing());
    suite.push_back(litmus::messagePassingSync());
    suite.push_back(litmus::fig3Scenario());
    suite.push_back(litmus::fig3ScenarioTestAndTas());
    suite.push_back(litmus::lockedCounter(2, 1));
    suite.push_back(litmus::barrier(2));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Drf0WorkloadCfg cfg;
        cfg.seed = seed;
        cfg.procs = 2;
        cfg.sections = 1;
        cfg.ops_per_section = 2;
        cfg.test_and_tas = (seed % 2) == 0;
        suite.push_back(randomDrf0Program(cfg));
    }

    VerifyCfg cfg;
    cfg.max_states = ExploreCfg{}.max_states;
    for (const char *model : {"drf0", "drf0ro"}) {
        // drf0ro claims the read-only-sync refinement, which classifies
        // every program as DRF0 does, so one verdict serves both.
        const bool refined = std::string(model) == "drf0ro";
        std::printf("== E5.%d: Definition-2 contract for the Section-5 "
                    "machine (%s) ==\n",
                    refined ? 2 : 1,
                    refined ? "with read-only-sync refinement" : "base");
        bool holds = true;
        Table t({"program", "obeys DRF0", "appears SC", "contract"});
        for (const Program &p : suite) {
            const bool obeys = checkDrf0(p).obeys;
            const CheckState s = checkScSubset(p, model, cfg).def2.state;
            holds = holds && s != CheckState::violated;
            t.addRow({p.name(), obeys ? "yes" : "no",
                      s == CheckState::agree ? "yes" : "NO",
                      !obeys ? "n/a (racy)"
                             : (s == CheckState::agree ? "ok"
                                                       : "VIOLATED")});
        }
        t.print();
        std::printf("contract %s\n\n", holds ? "HOLDS" : "VIOLATED");
    }
}

void
timedTheorem()
{
    std::printf("== E5.3: timed Section-5.3 machine -- SC-explainability "
                "of DRF0 executions, plus the Section-5.1 "
                "sufficient-conditions audit ==\n");
    Table t({"policy", "programs", "completed", "SC-explainable",
             "conditions 2-5 hold"});
    for (OrderingPolicy pol :
         {OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro,
          OrderingPolicy::wo_def1, OrderingPolicy::sc}) {
        int total = 0, completed = 0, sc_ok = 0, cond_ok = 0;
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            Drf0WorkloadCfg wl;
            wl.seed = seed;
            wl.procs = 3;
            wl.regions = 2;
            wl.sections = 2;
            wl.ops_per_section = 3;
            wl.private_ops = 2;
            wl.test_and_tas = (seed % 2) == 0;
            Program p = randomDrf0Program(wl);
            SystemCfg cfg;
            cfg.policy = pol;
            cfg.net.hop_latency = 10;
            cfg.net.jitter = 5;
            cfg.net.seed = seed;
            System sys(p, cfg);
            auto r = sys.run();
            ++total;
            if (!r.completed)
                continue;
            ++completed;
            ScCheckerCfg sc_cfg;
            sc_cfg.expected_final = r.outcome.memory;
            if (checkSequentialConsistency(r.execution, sc_cfg).sc)
                ++sc_ok;
            if (checkSufficientConditions(r).ok)
                ++cond_ok;
        }
        t.addRow({policyName(pol), strprintf("%d", total),
                  strprintf("%d", completed), strprintf("%d", sc_ok),
                  strprintf("%d", cond_ok)});
    }
    t.print();
    std::printf("Every completed run of a DRF0 program must be "
                "SC-explainable under every policy.\n\n");
}

void
divergenceTable()
{
    std::printf("== E5.4: the machine is genuinely weaker than SC on "
                "racy programs ==\n");
    Table t({"racy program", "SC outcomes", "machine outcomes",
             "beyond SC"});
    std::vector<Program> racy;
    racy.push_back(litmus::fig1StoreBuffer());
    racy.push_back(litmus::messagePassing());
    racy.push_back(litmus::racyCounter(2, 1));
    VerifyCfg cfg;
    cfg.max_states = ExploreCfg{}.max_states;
    for (const auto &p : racy) {
        const VerifyResult r = checkScSubset(p, "drf0", cfg);
        t.addRow({p.name(), strprintf("%zu", r.sc.outcomes.size()),
                  strprintf("%zu", r.dpor.outcomes.size()),
                  strprintf("%zu", r.def2.witness.size())});
    }
    t.print();
}

} // namespace
} // namespace wo

int
main()
{
    wo::contractTable();
    wo::timedTheorem();
    wo::divergenceTable();
    return 0;
}
