/**
 * @file
 * Throughput of the distributed fleet against the in-process campaign
 * on the same lattice: the identical (seed, cells) base stream run
 * single-process (the zero-overhead baseline), then through a
 * coordinator with 1, 2 and 4 in-process workers.  The 1-worker fleet
 * column prices the coordination tax -- protocol framing, the lease
 * round-trips and the journal merge -- and the multi-worker columns
 * price its scaling.  On a single-core host extra workers only
 * interleave, so the artifact stamps hw_threads and a
 * workersN_oversubscribed flag per row; downstream gates skip
 * oversubscribed rows the same way they do for the campaign bench.
 */

#include <cstdio>
#include <chrono>
#include <thread>
#include <vector>

#include "campaign/scheduler.hh"
#include "common/table.hh"
#include "fleet/coordinator.hh"
#include "fleet/worker.hh"
#include "obs/artifact.hh"

namespace wo {
namespace {

constexpr std::uint64_t cells = 2000;
constexpr int worker_counts[] = {1, 2, 4};

struct FleetRun
{
    double wall_s = 0;
    double cells_per_sec = 0;
};

CampaignSpec
benchSpec()
{
    CampaignSpec spec;
    spec.seed = 7;
    spec.cells = cells;
    spec.max_events = 200'000;
    spec.shrink = false; // conforming hardware: nothing to shrink
    return spec;
}

FleetRun
runFleetAt(int workers, const std::string &tag)
{
    CoordinatorCfg ccfg;
    ccfg.out_dir = "bench-fleet-out/" + tag;
    Coordinator coord(ccfg);
    if (!coord.start())
        wo_panic("bench_fleet: %s", coord.lastError().c_str());

    std::vector<std::unique_ptr<FleetWorker>> fleet;
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) {
        WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", coord.port()};
        fleet.push_back(std::make_unique<FleetWorker>(wcfg));
        threads.emplace_back(
            [w = fleet.back().get()] { w->connectAndRun(); });
    }
    if (!coord.waitForWorkers(workers, 10'000))
        wo_panic("bench_fleet: workers never connected");

    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t id = coord.submitLocal(benchSpec());
    Json summary;
    if (!coord.waitCampaign(id, 0, &summary))
        wo_panic("bench_fleet: campaign never completed");
    FleetRun run;
    run.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    run.cells_per_sec =
        run.wall_s > 0 ? static_cast<double>(cells) / run.wall_s : 0;

    const Json *hc = summary.find("hardware_clean");
    if (!hc || !hc->isBool() || !hc->boolValue())
        wo_panic("bench_fleet: conforming hardware reported a "
                 "violation");
    coord.stop();
    for (auto &t : threads)
        t.join();
    return run;
}

FleetRun
runLocal()
{
    CampaignCfg cfg;
    cfg.jobs = 1;
    cfg.cells = cells;
    cfg.out_dir = "bench-fleet-out/local";
    cfg.seed = 7;
    cfg.max_events = 200'000;
    cfg.shrink = false;
    cfg.frontier = false; // the fleet's exact cell set
    const CampaignSummary sum = runCampaign(cfg);
    if (!sum.hardwareClean())
        wo_panic("bench_fleet: conforming hardware reported a "
                 "violation");
    return {sum.wall_s, sum.cells_per_sec};
}

} // namespace
} // namespace wo

int
main()
{
    using namespace wo;

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("== fleet throughput: %llu cells, in-process baseline "
                "vs 1/2/4 fleet workers (%u hardware threads) ==\n",
                static_cast<unsigned long long>(cells), hw);

    const FleetRun local = runLocal();
    std::vector<FleetRun> runs;
    for (int n : worker_counts)
        runs.push_back(runFleetAt(n, strprintf("w%d", n)));

    const auto oversub = [&](int workers) {
        // The coordinator's pump thread is near-idle, so only the
        // worker count itself competes for cores.
        return hw != 0 && static_cast<unsigned>(workers) > hw;
    };
    const auto speedup = [&](const FleetRun &r) {
        return r.wall_s > 0 ? runs[0].wall_s / r.wall_s : 0.0;
    };

    Table t({"setup", "wall s", "cells/s", "speedup vs w1", "oversub"});
    t.addRow({"in-process", strprintf("%.2f", local.wall_s),
              strprintf("%.1f", local.cells_per_sec), "-", "-"});
    for (std::size_t i = 0; i < runs.size(); ++i)
        t.addRow({strprintf("%d worker(s)", worker_counts[i]),
                  strprintf("%.2f", runs[i].wall_s),
                  strprintf("%.1f", runs[i].cells_per_sec),
                  strprintf("%.2fx", speedup(runs[i])),
                  oversub(worker_counts[i]) ? "yes" : "-"});
    t.print();
    std::printf("Read: the 1-worker column vs the in-process row is "
                "the coordination tax (framing, lease round-trips, "
                "journal merge); multi-worker columns are its scaling. "
                "Rows marked oversub ran more workers than hardware "
                "threads and measure time-slicing, not scaling.\n");

    Json payload = Json::object();
    payload.set("cells", Json(cells));
    payload.set("hw_threads", Json(static_cast<std::uint64_t>(hw)));
    payload.set("local_wall_s", Json(local.wall_s));
    payload.set("local_cells_per_sec", Json(local.cells_per_sec));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string p =
            strprintf("workers%d_", worker_counts[i]);
        payload.set(p + "wall_s", Json(runs[i].wall_s));
        payload.set(p + "cells_per_sec", Json(runs[i].cells_per_sec));
        payload.set(p + "oversubscribed",
                    Json(oversub(worker_counts[i])));
    }
    // Coordination tax as a ratio: 1.0 = the fleet path is free.
    payload.set("overhead_vs_local",
                Json(runs[0].cells_per_sec > 0
                         ? local.cells_per_sec / runs[0].cells_per_sec
                         : 0.0));
    payload.set("speedup_2", Json(speedup(runs[1])));
    payload.set("speedup_4", Json(speedup(runs[2])));
    payload.set("table", tableToJson(t));
    writeBenchArtifact("fleet", std::move(payload));
    return 0;
}
