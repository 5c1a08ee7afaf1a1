/**
 * @file
 * fleet_run: a Coordinator plus in-process FleetWorkers over loopback
 * TCP, and the fleet layer metrics.
 */

#include <memory>
#include <set>
#include <thread>

#include "fleet/coordinator.hh"
#include "fleet/worker.hh"
#include "layers.hh"

namespace pb {

namespace {

/** One fleet campaign, from coordinator start to stop. */
struct FleetRep
{
    bool ok = false;
    double setup_s = 0;     //!< coordinator start + worker connection
    double wall_s = 0;      //!< submit to summary
    double cpu_s = 0;       //!< whole process, start to stop
    double worker_cpu_s = 0; //!< the worker threads' own CPU clocks
    wo::Json summary;
    std::vector<JournalCell> cells;

    std::uint64_t
    num(const char *key) const
    {
        const wo::Json *v = summary.find(key);
        return v && v->isNumber() ? v->uintValue() : 0;
    }

    std::uint64_t
    failures() const
    {
        return num("hw") + num("deadlocked") + num("livelocked") +
               num("errors");
    }

    double leases = 0; //!< merged shards plus reassigned leases
};

FleetRep
fleetOnce(const Args &args, std::uint64_t cells, int workers,
          const std::string &dir)
{
    freshDir(dir);
    FleetRep r;
    const double c0 = processCpuS();
    const auto t0 = Clock::now();
    wo::CoordinatorCfg ccfg;
    ccfg.out_dir = dir;
    wo::Coordinator coord(ccfg);
    if (!coord.start())
        return r;
    std::vector<std::unique_ptr<wo::FleetWorker>> fleet;
    std::vector<double> wcpu(static_cast<std::size_t>(workers), 0.0);
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) {
        wo::WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", coord.port()};
        fleet.push_back(std::make_unique<wo::FleetWorker>(wcfg));
        threads.emplace_back([w = fleet.back().get(), cpu = &wcpu[i]] {
            w->connectAndRun();
            *cpu = threadCpuS();
        });
    }
    if (coord.waitForWorkers(workers, 10'000)) {
        r.setup_s = since(t0);
        wo::FleetCampaignSpec spec;
        spec.seed = args.seed;
        spec.cells = cells;
        spec.policies = wo::CampaignCfg{}.policies; // campaign_run's lattice
        spec.max_events = cell_max_events;
        spec.shrink = false;
        const auto t1 = Clock::now();
        const std::uint64_t id = coord.submitLocal(spec);
        r.ok = coord.waitCampaign(id, 150'000, &r.summary);
        r.wall_s = since(t1);
    }
    coord.stop();
    for (auto &t : threads)
        t.join();
    r.cpu_s = processCpuS() - c0;
    for (double c : wcpu)
        r.worker_cpu_s += c;
    r.cells = readJournal(dir + "/c1/campaign.journal.jsonl");
    std::set<std::int64_t> shards;
    for (const JournalCell &c : r.cells)
        shards.insert(c.shard);
    r.leases = static_cast<double>(shards.size() +
                                   r.num("reassigned_leases"));
    return r;
}

int
fleetWorkers(const Args &args)
{
    return std::max(1, args.jobs - 1); // the coordinator takes a core
}

/** In-process cells/s at the fleet's worker count (the tax's base). */
std::vector<CampaignRep>
inProcess(const Args &args, std::uint64_t cells, int reps)
{
    std::vector<CampaignRep> out;
    const wo::CampaignCfg cfg = runCampaignCfg(
        args, cells, fleetWorkers(args), args.out_dir + "/fleet-inproc");
    for (int i = 0; i < reps; ++i)
        out.push_back(timedCampaign(cfg));
    return out;
}

double
rateOf(const std::vector<CampaignRep> &reps)
{
    std::vector<double> r;
    for (const CampaignRep &c : reps)
        r.push_back(c.sum.ran / c.wall_s);
    return median(r);
}

/** fleet.* from @p reps and the in-process rate; returns fleet cells/s. */
double
reportFleet(const std::vector<FleetRep> &reps, std::uint64_t cells,
            int workers, double inproc_rate, Report &rep)
{
    std::vector<double> rate, coord, util, leases;
    double reassigned = 0, dups = 0;
    for (const FleetRep &r : reps) {
        rate.push_back(cells / r.wall_s);
        coord.push_back(1e6 * (r.cpu_s - r.worker_cpu_s) / cells);
        util.push_back(r.worker_cpu_s / (workers * r.wall_s));
        leases.push_back(r.leases);
        reassigned += r.num("reassigned_leases");
        dups += r.num("duplicate_results");
    }
    const double fleet_rate = median(rate);
    rep.metric("fleet.coord_cpu_us_per_cell", median(coord), "us");
    rep.metric("fleet.worker_util", median(util), "ratio");
    rep.metric("fleet.tax", inproc_rate / fleet_rate, "ratio");
    rep.metric("fleet.leases", median(leases), "count");
    rep.metric("fleet.reassigned_leases", reassigned, "count");
    rep.metric("fleet.duplicate_results", dups, "count");
    return fleet_rate;
}

} // namespace

double
traceFleetLayers(const Args &args, std::uint64_t cells, int reps,
                 Report &rep)
{
    const int workers = fleetWorkers(args);
    std::vector<FleetRep> runs;
    for (int i = 0; i < reps; ++i) {
        runs.push_back(fleetOnce(args, cells, workers,
                                 args.out_dir + "/census-fleet"));
        rep.check(runs.back().ok, "census fleet campaign did not complete");
    }
    return reportFleet(runs, cells, workers,
                       rateOf(inProcess(args, cells, 2)), rep);
}

void
fleetRun(const Args &args, Report &rep)
{
    const std::uint64_t cells = args.tiny ? 1'000 : 20'000;
    const int workers = fleetWorkers(args);
    const std::string dir = args.out_dir + "/fleet_run";
    const double window = args.trace ? args.seconds * 0.4 : args.seconds;

    // Warm-up: a first fleet campaign pays for cold heaps and code.
    fleetOnce(args, cells / 4, workers, dir);

    std::vector<FleetRep> reps;
    std::vector<double> setup, wall, rate, cell_ms;
    std::string digest;
    const auto t0 = Clock::now();
    do {
        FleetRep r = fleetOnce(args, cells, workers, dir);
        rep.check(r.ok, "fleet_run: the fleet campaign did not complete");
        if (!r.ok)
            break;
        const wo::Json *hc = r.summary.find("hardware_clean");
        rep.check(hc && hc->isBool() && hc->boolValue(),
                  "fleet_run: hardware violation on conforming hardware");
        const std::string d = runDigest(r.cells);
        if (digest.empty())
            digest = args.expect_digest.empty() ? d : args.expect_digest;
        rep.check(d == digest, "fleet_run: merged-journal digest " + d +
                                   " differs from " + digest);
        rep.attempt(r.num("ran"), r.failures());
        setup.push_back(r.setup_s);
        wall.push_back(r.wall_s);
        rate.push_back(cells / r.wall_s);
        for (const JournalCell &c : r.cells)
            cell_ms.push_back(c.ms);
        r.cells.clear(); // keep only what the layer metrics need
        r.cells.shrink_to_fit();
        reps.push_back(std::move(r));
    } while (!args.tiny && since(t0) < window);

    // fleet == in-process: the same (seed, cells) run in one process
    // must merge to the identical cell results.
    const std::vector<CampaignRep> local =
        inProcess(args, cells, args.trace ? 3 : 1);
    const std::string ld = runDigest(readJournal(
        args.out_dir + "/fleet-inproc/campaign.journal.jsonl"));
    rep.check(ld == digest, "fleet_run: in-process digest " + ld +
                                " differs from the fleet's " + digest);

    rep.metric("cells_per_sec", median(rate), "1/s");
    rep.metric("verdict_s", median(wall), "s");
    rep.metric("cell_p50_ms", median(cell_ms), "ms");
    rep.metric("cell_p99_ms", quantile(cell_ms, 0.99), "ms");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.info.set("digest", wo::Json(digest));
    rep.info.set("cells_per_campaign", wo::Json(cells));
    rep.info.set("workers", wo::Json(workers));

    if (!args.trace || reps.empty())
        return;
    reportFleet(reps, cells, workers, rateOf(local), rep);
    reportCampaignLayers(local, rep);
    const CellTrace ct = traceCellLayers(args, baseCells(args, cells),
                                         workers, args.seconds * 0.3, rep);
    rep.check(ct.digest == digest,
              "fleet_run: traced driver digest " + ct.digest +
                  " differs from the fleet's " + digest);
    rep.metric("trace.cells_per_sec", ct.cells_per_sec, "1/s");
    rep.metric("trace.untraced_cells_per_sec", rateOf(local), "1/s");
    censusLayers(args, rep);
}

} // namespace pb
