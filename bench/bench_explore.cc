/**
 * @file
 * Exploration-engine throughput and the DPOR reduction ratio.
 *
 * Two headline numbers per engine on a small racy corpus (the
 * commuting-worker `mixed` shape next to a pure message-passing race):
 * states expanded per second, and how many states the sleep-set DPOR
 * engine visits relative to the naive visited-set BFS on the same
 * (program, model) pair, over every model of the registry, so the
 * aggregate states/sec covers each machine's step function.  The
 * ratio is the reduction machinery's
 * reason to exist -- a ratio drifting toward 1.0 on the racy corpus
 * means the commutation test or the footprint partition broke, long
 * before any outcome-set divergence would show up in the golden
 * equivalence suite.
 *
 * A third section measures the work-stealing parallel DPOR at 1 and 4
 * workers on the heaviest pair and stamps jobs4_speedup into the
 * artifact.  One exploration of that pair takes milliseconds, so each
 * side repeats it until it has run for par_target_wall_s, as
 * bench_campaign sizes its rows by wall time: the speedup then compares
 * rates over a second of engine work, not thread start-up and clock
 * granularity.  Like bench_campaign, rows running more workers than
 * hardware threads are flagged oversubscribed so the perf gate skips
 * the speedup assertion instead of reading time-slicing as regression.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.hh"
#include "common/table.hh"
#include "models/explorer.hh"
#include "models/model_registry.hh"
#include "obs/artifact.hh"

namespace wo {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

// Message passing raced by an independent two-location worker: the
// worker's interleavings multiply the BFS state count but commute with
// everything, so DPOR prunes them structurally.
const char *const racy_source = R"(program bench_racy
thread 0
  st data 1
  st flag 1
thread 1
  ld r0 flag
  ld r1 data
thread 2
  st scratch 1
  ld r2 scratch
  st scratch2 2
  ld r3 scratch2
)";

struct PairStats
{
    std::string model;
    std::uint64_t dpor_states = 0;
    std::uint64_t bfs_states = 0;
    double dpor_s = 0;
    double bfs_s = 0;
};

} // namespace
} // namespace wo

int
main()
{
    using namespace wo;

    AsmResult a = assembleString(racy_source);
    if (!a.ok())
        wo_panic("bench_explore: corpus program failed to assemble");
    const Program &prog = *a.program;

    // Repeat each exploration enough that the per-pair timing is
    // dominated by engine work, not clock granularity.
    constexpr int reps = 40;
    const std::vector<std::string> &models = modelNames();

    std::vector<PairStats> pairs;
    std::uint64_t dpor_total = 0, bfs_total = 0;
    double dpor_time = 0, bfs_time = 0;
    for (const std::string &model : models) {
        PairStats p;
        p.model = model;
        const bool known = withModelByName(prog, model, [&](auto &m) {
            ExploreCfg cfg;
            auto t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < reps; ++i) {
                const ExploreResult r = exploreOutcomesDpor(m, cfg);
                if (!r.conclusive())
                    wo_panic("bench_explore: DPOR inconclusive");
                p.dpor_states += r.states;
            }
            p.dpor_s = secondsSince(t0);
            t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < reps; ++i) {
                const ExploreResult r = exploreOutcomesBfs(m, cfg);
                if (!r.conclusive())
                    wo_panic("bench_explore: BFS inconclusive");
                p.bfs_states += r.states;
            }
            p.bfs_s = secondsSince(t0);
        });
        if (!known)
            wo_panic("bench_explore: unknown model");
        dpor_total += p.dpor_states;
        bfs_total += p.bfs_states;
        dpor_time += p.dpor_s;
        bfs_time += p.bfs_s;
        pairs.push_back(std::move(p));
    }

    const double dpor_rate = dpor_time > 0 ? dpor_total / dpor_time : 0;
    const double bfs_rate = bfs_time > 0 ? bfs_total / bfs_time : 0;
    const double reduction =
        dpor_total > 0 ? static_cast<double>(bfs_total) / dpor_total : 0;

    std::printf("== exploration engines: %d reps per model on the racy "
                "corpus ==\n",
                reps);
    Table t({"model", "dpor states", "bfs states", "ratio",
             "dpor states/s", "bfs states/s", "verdict ms"});
    for (const auto &p : pairs)
        t.addRow({p.model,
                  strprintf("%llu", static_cast<unsigned long long>(
                                        p.dpor_states)),
                  strprintf("%llu", static_cast<unsigned long long>(
                                        p.bfs_states)),
                  strprintf("%.2fx",
                            p.dpor_states
                                ? static_cast<double>(p.bfs_states) /
                                      p.dpor_states
                                : 0.0),
                  strprintf("%.0f",
                            p.dpor_s > 0 ? p.dpor_states / p.dpor_s : 0),
                  strprintf("%.0f",
                            p.bfs_s > 0 ? p.bfs_states / p.bfs_s : 0),
                  strprintf("%.3f", p.dpor_s / reps * 1000.0)});
    t.print();
    std::printf("Read: the ratio column is the DPOR reduction (BFS "
                "states per DPOR state, higher is better); it must stay "
                "well above 1.0 on this corpus or the commutation test "
                "has stopped pruning.  Aggregate: DPOR %.0f states/s, "
                "BFS %.0f states/s, reduction %.2fx.\n",
                dpor_rate, bfs_rate, reduction);
    if (reduction <= 1.0)
        wo_panic("bench_explore: DPOR explored no fewer states than "
                 "BFS on the racy corpus");

    // Parallel scaling: the heaviest pair (stale-cache: broadcasts
    // everywhere, the deepest frontier on this corpus) at 1 and 4
    // work-stealing workers.  Outcomes are bit-identical by contract,
    // so the only number of interest is the exploration rate.
    const unsigned hw = std::thread::hardware_concurrency();
    constexpr double par_target_wall_s = 1.0;
    const int par_jobs[] = {1, 4};
    double par_s[2] = {0, 0};
    std::uint64_t par_reps[2] = {0, 0};
    std::uint64_t par_states = 0;
    std::uint64_t par_steals[2] = {0, 0}; // summed over each side's reps
    for (std::size_t i = 0; i < 2; ++i) {
        const bool known =
            withModelByName(prog, "stale", [&](auto &m) {
                ExploreCfg cfg;
                cfg.jobs = par_jobs[i];
                const auto t0 = std::chrono::steady_clock::now();
                do {
                    const ExploreResult res = exploreOutcomesDpor(m, cfg);
                    if (!res.conclusive())
                        wo_panic("bench_explore: parallel DPOR "
                                 "inconclusive");
                    par_states = res.states;
                    par_steals[i] += res.steals;
                    ++par_reps[i];
                    par_s[i] = secondsSince(t0);
                } while (par_s[i] < par_target_wall_s);
            });
        if (!known)
            wo_panic("bench_explore: unknown model");
    }
    // Explorations per second on each side; their ratio is the speedup.
    const double par_rate[2] = {par_reps[0] / par_s[0],
                                par_reps[1] / par_s[1]};
    const double jobs4_speedup = par_rate[1] / par_rate[0];
    const bool jobs4_oversub = hw != 0 && 4u > hw;
    std::printf("Parallel DPOR on stale (%llu states per exploration, "
                "each side >= %.1f s): jobs1 %llu in %.3fs, jobs4 %llu "
                "in %.3fs (%.0f steals per exploration), speedup "
                "%.2fx%s\n",
                static_cast<unsigned long long>(par_states),
                par_target_wall_s,
                static_cast<unsigned long long>(par_reps[0]), par_s[0],
                static_cast<unsigned long long>(par_reps[1]), par_s[1],
                static_cast<double>(par_steals[1]) / par_reps[1],
                jobs4_speedup,
                jobs4_oversub ? " [oversubscribed: more workers than "
                                "hardware threads; measures "
                                "time-slicing, not scaling]"
                              : "");

    Json payload = Json::object();
    payload.set("reps", Json(static_cast<std::uint64_t>(reps)));
    payload.set("dpor_states_per_sec", Json(dpor_rate));
    payload.set("bfs_states_per_sec", Json(bfs_rate));
    payload.set("dpor_reduction_ratio", Json(reduction));
    payload.set("dpor_states", Json(dpor_total));
    payload.set("bfs_states", Json(bfs_total));
    payload.set("par_target_wall_s", Json(par_target_wall_s));
    payload.set("jobs1_reps", Json(par_reps[0]));
    payload.set("jobs4_reps", Json(par_reps[1]));
    payload.set("jobs1_wall_s", Json(par_s[0]));
    payload.set("jobs4_wall_s", Json(par_s[1]));
    payload.set("jobs4_speedup", Json(jobs4_speedup));
    payload.set("jobs1_oversubscribed", Json(hw != 0 && 1u > hw));
    payload.set("jobs4_oversubscribed", Json(jobs4_oversub));
    payload.set("table", tableToJson(t));
    writeBenchArtifact("explore", std::move(payload));
    return 0;
}
