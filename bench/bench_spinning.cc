/**
 * @file
 * Experiment E6 -- Section 6's performance discussion of repeated
 * synchronization testing:
 *
 *   "One very important case where the example implementation is likely
 *    to be slower ... occurs when software performs repeated testing of a
 *    synchronization variable (e.g., the Test from a Test-and-TestAndSet
 *    ...).  The example implementation serializes all these
 *    synchronization operations, treating them as writes. ... the
 *    unnecessary serialization can be avoided by improving on DRF0 ...
 *    the read-only synchronization operations need not be serialized."
 *
 * Tables: contended lock-based counters under every policy, with bare-TAS
 * vs Test-and-TAS spinning, base vs read-only-sync-refined machines.  The
 * refined machine turns spin Tests into shared-line hits, cutting write
 * misses and execution time.
 */

#include <cstdio>

#include "common/table.hh"
#include "obs/artifact.hh"
#include "program/litmus.hh"
#include "sys/system.hh"

namespace wo {
namespace {

struct RunStats
{
    Tick time = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t messages = 0;
    bool ok = false;
};

RunStats
run(const Program &p, OrderingPolicy pol)
{
    SystemCfg cfg;
    cfg.policy = pol;
    cfg.net.hop_latency = 10;
    System sys(p, cfg);
    auto r = sys.run();
    RunStats s;
    s.ok = r.completed;
    s.time = r.finish_tick;
    for (ProcId q = 0; q < p.numThreads(); ++q) {
        const StatGroup &c = sys.cache(q).stats();
        s.write_misses += c.find("write_misses").value_or(0);
        s.read_misses += c.find("read_misses").value_or(0);
    }
    return s;
}

Table
spinTable(ProcId procs, int iters)
{
    std::printf("== E6: %u processors x %d lock-protected increments ==\n",
                procs, iters);
    Table t({"spin idiom", "policy", "exec time", "write misses",
             "read misses"});
    struct Variant
    {
        const char *label;
        bool tas_only;
        OrderingPolicy pol;
    };
    const Variant variants[] = {
        {"bare TAS", true, OrderingPolicy::wo_def1},
        {"bare TAS", true, OrderingPolicy::wo_drf0},
        {"Test-and-TAS", false, OrderingPolicy::wo_def1},
        {"Test-and-TAS", false, OrderingPolicy::wo_drf0},
        {"Test-and-TAS", false, OrderingPolicy::wo_drf0_ro},
        {"Test-and-TAS", false, OrderingPolicy::sc},
    };
    for (const auto &v : variants) {
        Program p = litmus::lockedCounter(procs, iters, v.tas_only);
        auto s = run(p, v.pol);
        t.addRow({v.label, policyName(v.pol),
                  s.ok ? strprintf("%llu", (unsigned long long)s.time)
                       : "DNF",
                  strprintf("%llu", (unsigned long long)s.write_misses),
                  strprintf("%llu", (unsigned long long)s.read_misses)});
    }
    t.print();
    std::printf("Read: under WO-DRF0 every spin Test is an exclusive "
                "(write) miss -- the serialization the paper worries "
                "about; WO-DRF0+RO turns them into read misses/hits and "
                "recovers the time.\n\n");
    return t;
}

Table
barrierTable()
{
    std::printf("== E6b: barrier spinning (paper: 'spinning on a barrier "
                "count') ==\n");
    Table t({"processors", "WO-DRF0", "WO-DRF0+RO", "speedup"});
    for (ProcId procs : {2, 4, 6, 8}) {
        Program p = litmus::barrier(procs);
        auto base = run(p, OrderingPolicy::wo_drf0);
        auto ro = run(p, OrderingPolicy::wo_drf0_ro);
        t.addRow({strprintf("%u", procs),
                  base.ok ? strprintf("%llu", (unsigned long long)base.time)
                          : "DNF",
                  ro.ok ? strprintf("%llu", (unsigned long long)ro.time)
                        : "DNF",
                  (base.ok && ro.ok && ro.time)
                      ? strprintf("%.2fx",
                                  (double)base.time / (double)ro.time)
                      : "-"});
    }
    t.print();
    std::printf("Read: the release flag's spin-read traffic dominates as "
                "processor count grows; the refinement removes it.\n");
    return t;
}

} // namespace
} // namespace wo

int
main()
{
    wo::Json payload = wo::Json::object();
    payload.set("spin_4procs_2iters", wo::tableToJson(wo::spinTable(4, 2)));
    payload.set("spin_8procs_1iter", wo::tableToJson(wo::spinTable(8, 1)));
    payload.set("barrier", wo::tableToJson(wo::barrierTable()));
    wo::writeBenchArtifact("bench_spinning", std::move(payload));
    return 0;
}
