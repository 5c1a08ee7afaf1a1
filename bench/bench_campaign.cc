/**
 * @file
 * Throughput scaling of the campaign engine: the same cell budget
 * fanned over 1, 2, 4 and 8 workers.  The budget is sized by wall time,
 * not fixed: a short calibration run measures the 1-worker rate, and
 * every row then runs the cells one worker needs for target_wall_s,
 * so fixed costs (thread start, journal open and close) stay small
 * next to the measured work however fast a cell gets.  Cells are embarrassingly
 * parallel (each is an independent simulated run), so cells/sec should
 * scale close to linearly with the worker count on a multi-core host;
 * the artifact records the absolute rates, the speedups and the
 * per-cell latency percentiles (p50/p99 of a cell's wall time -- a
 * serialization point on the hot path shows up as a p99 that grows
 * with the worker count even when throughput still looks fine).  On a
 * single-core host the extra workers can only interleave, so the
 * speedup column degrades gracefully toward 1x -- the artifact is
 * honest either way and records hw_threads so downstream asserts can
 * gate on the hardware actually present.
 */

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "campaign/scheduler.hh"
#include "common/table.hh"
#include "obs/artifact.hh"

namespace wo {
namespace {

constexpr int worker_counts[] = {1, 2, 4, 8};
/** Wall time the 1-worker row is sized to. */
constexpr double target_wall_s = 1.5;
/** Cells of the calibration run (and the budget's floor). */
constexpr std::uint64_t calibration_cells = 2000;

CampaignSummary
runAt(int jobs, std::uint64_t cells, const std::string &tag)
{
    CampaignCfg cfg;
    cfg.jobs = jobs;
    cfg.cells = cells;
    cfg.out_dir = "bench-campaign-out/" + tag;
    cfg.seed = 7;
    cfg.max_events = 200'000;
    cfg.shrink = false; // conforming hardware: nothing to shrink
    auto sum = runCampaign(cfg);
    if (!sum.hardwareClean())
        wo_panic("bench_campaign: conforming hardware reported a "
                 "violation");
    return sum;
}

} // namespace
} // namespace wo

int
main()
{
    using namespace wo;

    const unsigned hw = std::thread::hardware_concurrency();
    // The first run pays the cold start (page faults, the heap's first
    // growth); the second one's rate sizes the budget.
    runAt(1, calibration_cells, "calibrate");
    const CampaignSummary probe =
        runAt(1, calibration_cells, "calibrate");
    const std::uint64_t cells = std::max(
        calibration_cells,
        static_cast<std::uint64_t>(probe.cells_per_sec * target_wall_s));
    std::printf("== campaign throughput: %llu cells (%.1f s at one "
                "worker) at 1/2/4/8 workers (%u hardware threads) ==\n",
                static_cast<unsigned long long>(cells), target_wall_s, hw);

    std::vector<CampaignSummary> sums;
    for (int jobs : worker_counts)
        sums.push_back(runAt(jobs, cells, strprintf("j%d", jobs)));
    const CampaignSummary &s1 = sums[0];
    const auto speedup = [&](const CampaignSummary &s) {
        return s.wall_s > 0 ? s1.wall_s / s.wall_s : 0.0;
    };
    // A row running more workers than hardware threads measures
    // time-slicing, not scaling: speedup and p99 on such a row say
    // nothing about the scheduler, and the artifact says so instead of
    // letting downstream gates read noise as regression.  Unknown
    // concurrency (hw == 0) stays unflagged -- there is nothing honest
    // to derive from it.
    const auto oversub = [&](int jobs) {
        return hw != 0 && static_cast<unsigned>(jobs) > hw;
    };

    Table t({"workers", "wall s", "cells/s", "speedup vs 1", "p50 ms",
             "p99 ms", "oversub"});
    for (std::size_t i = 0; i < sums.size(); ++i)
        t.addRow({strprintf("%d", worker_counts[i]),
                  strprintf("%.2f", sums[i].wall_s),
                  strprintf("%.1f", sums[i].cells_per_sec),
                  strprintf("%.2fx", speedup(sums[i])),
                  strprintf("%.3f", sums[i].lat_p50_ms),
                  strprintf("%.3f", sums[i].lat_p99_ms),
                  oversub(worker_counts[i]) ? "yes" : "-"});
    t.print();
    std::printf("Read: a cell is one full simulated run, so the fleet "
                "is embarrassingly parallel; speedup tracks the "
                "physical core count and per-cell p99 stays flat when "
                "the hot path has no serialization point.  Rows marked "
                "oversub ran more workers than hardware threads and "
                "measure time-slicing, not scaling.\n");

    Json payload = Json::object();
    payload.set("cells", Json(cells));
    payload.set("target_wall_s", Json(target_wall_s));
    payload.set("hw_threads", Json(static_cast<std::uint64_t>(hw)));
    for (std::size_t i = 0; i < sums.size(); ++i) {
        const std::string p = strprintf("jobs%d_", worker_counts[i]);
        payload.set(p + "wall_s", Json(sums[i].wall_s));
        payload.set(p + "cells_per_sec", Json(sums[i].cells_per_sec));
        payload.set(p + "p50_ms", Json(sums[i].lat_p50_ms));
        payload.set(p + "p99_ms", Json(sums[i].lat_p99_ms));
        payload.set(p + "oversubscribed",
                    Json(oversub(worker_counts[i])));
    }
    payload.set("speedup_2", Json(speedup(sums[1])));
    payload.set("speedup_4", Json(speedup(sums[2])));
    payload.set("speedup_8", Json(speedup(sums[3])));
    payload.set("table", tableToJson(t));
    writeBenchArtifact("campaign", std::move(payload));
    return 0;
}
