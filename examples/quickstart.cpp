/**
 * @file
 * Quickstart: the library in five minutes.
 *
 *  1. Build a small parallel program with the fluent builder.
 *  2. Ask whether it obeys the DRF0 synchronization model.
 *  3. Explore every outcome on the idealized SC machine and on the
 *     paper's weakly ordered machine.
 *  4. Verify the Definition-2 contract: because the program is DRF0, the
 *     weak machine must appear sequentially consistent to it.
 *  5. Run it on the timed cache-coherent system and inspect the result.
 */

#include <cstdio>

#include "campaign/verify.hh"
#include "core/drf0_checker.hh"
#include "models/sc_model.hh"
#include "models/wo_drf0_model.hh"
#include "program/builder.hh"
#include "sys/system.hh"

int
main()
{
    using namespace wo;

    // -- 1. a producer/consumer handshake ---------------------------------
    const Addr data = 0, flag = 1;
    ProgramBuilder b("quickstart", 2);
    b.thread(0)
        .store(data, 42)     // ordinary write
        .syncStore(flag, 1); // release: write-only synchronization
    b.thread(1)
        .label("spin")
        .syncLoad(0, flag)   // acquire: read-only synchronization
        .beq(0, 0, "spin")
        .load(1, data);      // must observe 42
    b.nameLocation(data, "data").nameLocation(flag, "flag");
    Program prog = b.build();
    std::printf("%s\n", prog.toString().c_str());

    // -- 2. software side of the contract: does it obey DRF0? -------------
    SyncModelVerdict verdict = checkDrf0(prog);
    std::printf("DRF0 check: %s\n\n", verdict.toString().c_str());

    // -- 3. outcome sets on the SC and weakly ordered machines ------------
    ScModel sc(prog);
    auto sc_outcomes = exploreOutcomes(sc);
    WoDrf0Model weak(prog);
    auto weak_outcomes = exploreOutcomes(weak);
    std::printf("SC machine: %zu outcome(s); weak machine: %zu "
                "outcome(s)\n",
                sc_outcomes.outcomes.size(),
                weak_outcomes.outcomes.size());
    for (const auto &o : weak_outcomes.outcomes)
        std::printf("  weak outcome: %s\n", o.toString().c_str());

    // -- 4. hardware side of the contract (Definition 2) ------------------
    auto conformance = checkScSubset(prog, "drf0");
    std::printf("Definition-2 conformance:\n%s\n",
                conformance.def2.report("def2_subset").c_str());

    // -- 5. the timed cache-coherent system (Section 5.3 hardware) --------
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.net.hop_latency = 10;
    System system(prog, cfg);
    auto run = system.run();
    std::printf("timed run: completed=%d, finish tick=%llu, consumer "
                "read data=%lld\n",
                run.completed,
                static_cast<unsigned long long>(run.finish_tick),
                static_cast<long long>(run.outcome.regs[1][1]));
    std::printf("\nretired execution trace:\n%s",
                run.execution.toString().c_str());
    return 0;
}
