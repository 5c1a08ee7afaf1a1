/**
 * @file
 * Experiment E11 -- MESI exclusive-clean ablation.
 *
 * The paper's protocol is MSI-shaped; granting a sole reader the line in
 * exclusive-clean state (MESI's E) lets the read-then-write pattern --
 * ubiquitous in the lock-protected critical sections DRF0 encourages --
 * upgrade silently instead of issuing a second (GetX) transaction.  This
 * bench quantifies the saving in time, misses and protocol messages, and
 * checks that the optimization composes with the counter/reserve-bit
 * machinery (results stay correct).
 */

#include <cstdio>

#include "common/table.hh"
#include "program/litmus.hh"
#include "program/workload.hh"
#include "sys/system.hh"

namespace wo {
namespace {

struct RunStats
{
    Tick time = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t silent = 0;
    std::uint64_t messages = 0;
    bool ok = false;
    Value counter = 0;
};

RunStats
run(const Program &p, bool mesi)
{
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.net.hop_latency = 10;
    cfg.dir.grant_exclusive_clean = mesi;
    System sys(p, cfg);
    auto r = sys.run();
    RunStats s;
    s.ok = r.completed;
    s.time = r.finish_tick;
    for (ProcId q = 0; q < p.numThreads(); ++q) {
        const StatGroup &c = sys.cache(q).stats();
        s.write_misses += c.find("write_misses").value_or(0);
        s.silent += c.find("silent_upgrades").value_or(0);
    }
    s.messages = sys.network().stats().find("messages").value_or(0);
    if (p.numLocations() > 1)
        s.counter = r.outcome.memory[1];
    return s;
}

void
ablation()
{
    std::printf("== E11: MESI exclusive-clean grant ablation (WO-DRF0) "
                "==\n");
    Table t({"workload", "variant", "time", "write misses",
             "silent upgrades", "messages"});
    struct Case
    {
        const char *label;
        Program prog;
    };
    std::vector<Case> cases;
    cases.push_back({"locked counter 4x3", litmus::lockedCounter(4, 3)});
    {
        // Private-heavy workload: read-then-write on private locations is
        // where E pays off most.
        Drf0WorkloadCfg wl;
        wl.procs = 4;
        wl.regions = 1;
        wl.locs_per_region = 2;
        wl.private_locs = 4;
        wl.sections = 2;
        wl.ops_per_section = 2;
        wl.private_ops = 6;
        wl.seed = 21;
        cases.push_back({"private-heavy DRF0", randomDrf0Program(wl)});
    }
    cases.push_back({"barrier 6", litmus::barrier(6)});
    for (const auto &c : cases) {
        for (bool mesi : {false, true}) {
            auto s = run(c.prog, mesi);
            t.addRow({c.label, mesi ? "MESI" : "MSI",
                      s.ok ? strprintf("%llu", (unsigned long long)s.time)
                           : "DNF",
                      strprintf("%llu", (unsigned long long)s.write_misses),
                      strprintf("%llu", (unsigned long long)s.silent),
                      strprintf("%llu", (unsigned long long)s.messages)});
        }
    }
    t.print();
    std::printf("Read: E converts read-then-write GetX upgrades into "
                "silent transitions; savings concentrate on private "
                "data.\n");
}

} // namespace
} // namespace wo

int
main()
{
    wo::ablation();
    return 0;
}
