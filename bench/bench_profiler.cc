/**
 * @file
 * Overhead of the self-profiler: the same campaign workload run with
 * sampling off and with sampling on at the default rate, interleaved
 * A/B/A/B so drift hits both sides equally.  The observability
 * contract is that `--profile` is cheap enough to leave on whenever a
 * scaling question comes up: the artifact records the wall-time ratio
 * and CI asserts it stays below 1.10x (best-of-reps, so scheduler
 * noise on a loaded runner cannot fail the gate spuriously).
 *
 * The campaign is sized by wall time, as bench_campaign sizes its rows:
 * a calibration run measures the unprofiled rate and every timed run
 * gets the cells that rate clears in target_wall_s.  A fixed cell count
 * shrank to milliseconds as cells got cheaper, and the ratio then
 * measured the profiler's start-up instead of its sampling cost.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "campaign/scheduler.hh"
#include "common/table.hh"
#include "obs/artifact.hh"

namespace wo {
namespace {

/** Wall time each timed run is sized to. */
constexpr double target_wall_s = 1.0;
/** Cells of the calibration run (and the budget's floor). */
constexpr std::uint64_t calibration_cells = 2000;
constexpr int reps = 3;
constexpr double default_hz = 97;

CampaignSummary
runOnce(std::uint64_t cells, bool profile, const std::string &tag)
{
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = cells;
    cfg.out_dir = "bench-campaign-out/prof-" + tag;
    cfg.seed = 11;
    cfg.max_events = 200'000;
    cfg.shrink = false; // conforming hardware: nothing to shrink
    cfg.profile = profile;
    cfg.profile_hz = default_hz;
    auto sum = runCampaign(cfg);
    if (!sum.hardwareClean())
        wo_panic("bench_profiler: conforming hardware reported a "
                 "violation");
    return sum;
}

} // namespace
} // namespace wo

int
main()
{
    using namespace wo;

    // The first run pays the cold start; the second one's rate sizes
    // the budget.
    runOnce(calibration_cells, false, "calibrate");
    const CampaignSummary probe =
        runOnce(calibration_cells, false, "calibrate");
    const std::uint64_t cells = std::max(
        calibration_cells,
        static_cast<std::uint64_t>(probe.cells_per_sec * target_wall_s));
    std::printf("== profiler overhead: %llu cells (%.1f s unprofiled) x2 "
                "workers, off vs on at %.0f Hz, %d interleaved reps ==\n",
                static_cast<unsigned long long>(cells), target_wall_s,
                default_hz, reps);

    std::vector<double> off_s, on_s;
    std::uint64_t samples = 0;
    for (int r = 0; r < reps; ++r) {
        off_s.push_back(
            runOnce(cells, false, strprintf("off-r%d", r)).wall_s);
        const CampaignSummary on =
            runOnce(cells, true, strprintf("on-r%d", r));
        on_s.push_back(on.wall_s);
        samples = on.profile_samples;
    }
    const double off_best = *std::min_element(off_s.begin(), off_s.end());
    const double on_best = *std::min_element(on_s.begin(), on_s.end());
    const double ratio = off_best > 0 ? on_best / off_best : 0.0;

    Table t({"mode", "best wall s", "samples"});
    t.addRow({"profile off", strprintf("%.3f", off_best), "0"});
    t.addRow({"profile on", strprintf("%.3f", on_best),
              strprintf("%llu",
                        static_cast<unsigned long long>(samples))});
    t.print();
    std::printf("overhead: %.3fx (CI gates this below 1.10x)\n", ratio);

    Json payload = Json::object();
    payload.set("target_wall_s", Json(target_wall_s));
    payload.set("cells", Json(cells));
    payload.set("hz", Json(default_hz));
    payload.set("reps", Json(std::uint64_t{reps}));
    payload.set("off_best_s", Json(off_best));
    payload.set("on_best_s", Json(on_best));
    payload.set("overhead_ratio", Json(ratio));
    payload.set("samples", Json(samples));
    payload.set("table", tableToJson(t));
    writeBenchArtifact("profiler_overhead", std::move(payload));
    return 0;
}
