/**
 * @file
 * campaign_run and campaign_verify, the traced cell driver and the
 * campaign layer metrics.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

#include "campaign/fuzzer.hh"
#include "campaign/journal.hh"
#include "layers.hh"
#include "models/model_registry.hh"

namespace pb {

wo::CampaignCfg
runCampaignCfg(const Args &args, std::uint64_t cells, int jobs,
               const std::string &dir)
{
    wo::CampaignCfg cfg;
    cfg.jobs = jobs;
    cfg.cells = cells;
    cfg.seed = args.seed;
    cfg.out_dir = dir;
    cfg.frontier = false; // the cell set is a function of (seed, cells)
    cfg.shrink = false;
    cfg.max_events = cell_max_events;
    return cfg;
}

CampaignRep
timedCampaign(const wo::CampaignCfg &cfg)
{
    CampaignRep r;
    const Usage u0 = usageNow();
    const auto t0 = Clock::now();
    r.sum = wo::runCampaign(cfg);
    r.wall_s = since(t0);
    r.usage = usageNow().minus(u0);
    return r;
}

void
sampleCampaignSetup(wo::CampaignCfg cfg, int reps, std::vector<double> &out)
{
    // An empty campaign does everything a campaign does before its
    // first cell and after its last: engine and journal set-up, the
    // header, worker spawn and join, the journal close and summary.
    // Callers take a few samples after every measured unit, so the
    // median spans the whole window rather than one moment of it.
    cfg.cells = 0;
    cfg.out_dir += "-setup";
    for (int i = 0; i < reps; ++i)
        out.push_back(timedCampaign(cfg).wall_s);
}

std::uint64_t
runCellFailures(const wo::CampaignSummary &s)
{
    return s.hw + s.deadlocked + s.livelocked + s.errors;
}

void
reportCampaignLayers(const std::vector<CampaignRep> &reps, Report &rep)
{
    if (reps.empty())
        return;
    double cpu = 0, wall_jobs = 0, cells = 0, vcsw = 0, skips = 0;
    double lane_wall = 0, writer_wall = 0, writer_flush = 0;
    double span[wo::num_span_kinds] = {};
    for (const CampaignRep &r : reps) {
        const int jobs = static_cast<int>(r.sum.lanes.size()) - 1;
        cpu += r.usage.cpuS();
        wall_jobs += r.wall_s * jobs;
        cells += static_cast<double>(r.sum.ran);
        vcsw += static_cast<double>(r.usage.nvcsw);
        skips += static_cast<double>(r.sum.skipped);
        for (const auto &l : r.sum.lanes) {
            if (l.lane == "journal-writer") {
                writer_wall += l.wall_ms;
                writer_flush += l.span_ms[static_cast<int>(
                    wo::SpanKind::writer_flush)];
                continue;
            }
            lane_wall += l.wall_ms;
            for (int k = 0; k < wo::num_span_kinds; ++k)
                span[k] += l.span_ms[k];
        }
    }
    const auto frac = [&](wo::SpanKind k) {
        return lane_wall > 0 ? span[static_cast<int>(k)] / lane_wall : 0;
    };
    const double n = static_cast<double>(reps.size());
    rep.metric("campaign.cpu_util", wall_jobs > 0 ? cpu / wall_jobs : 0,
               "ratio");
    rep.metric("campaign.idle_frac", frac(wo::SpanKind::idle), "ratio");
    rep.metric("campaign.run_frac", frac(wo::SpanKind::run), "ratio");
    rep.metric("campaign.materialize_frac",
               frac(wo::SpanKind::materialize), "ratio");
    rep.metric("campaign.journal_push_frac",
               frac(wo::SpanKind::journal_push), "ratio");
    rep.metric("campaign.vol_ctx_switches_per_kcell",
               cells > 0 ? vcsw / (cells / 1000.0) : 0, "1/kcell");
    rep.metric("campaign.duplicate_skips", skips / n, "count");
    rep.metric("journal.writer_flush_frac",
               writer_wall > 0 ? writer_flush / writer_wall : 0, "ratio");
}

std::vector<wo::Cell>
baseCells(const Args &args, std::uint64_t n)
{
    wo::FuzzerCfg fcfg;
    fcfg.seed = args.seed;
    const wo::Fuzzer fuzzer(fcfg);
    std::vector<wo::Cell> cells;
    std::set<std::string> keys;
    for (std::uint64_t i = 0; i < n; ++i) {
        wo::Cell c = fuzzer.baseCell(i);
        if (keys.insert(c.key()).second)
            cells.push_back(std::move(c));
    }
    return cells;
}

std::vector<std::string>
seedModels(const Args &args)
{
    std::vector<std::string> m = wo::modelNames();
    std::rotate(m.begin(), m.begin() + args.seed % m.size(), m.end());
    return m;
}

// ---- the traced cell driver ----------------------------------------

namespace {

/** What one cell's System run reduced to, as runCell reduces it. */
wo::CellResult
reduce(const wo::Cell &cell, const wo::System &sys,
       const wo::SystemResult &sr)
{
    wo::CellResult r;
    r.key = cell.key();
    r.completed = sr.completed;
    r.deadlocked = sr.deadlocked;
    r.livelocked = sr.livelocked;
    r.finish_tick = sr.finish_tick;
    r.outcome_sig = wo::fnv1aHex(sr.outcome.toString());
    const wo::Monitor *mon = sys.monitor();
    const wo::MonitorSummary s = mon->summary();
    r.hw = s.hardware;
    r.races = s.races;
    r.total = s.total;
    for (int k = 0; k < wo::num_violation_kinds; ++k)
        r.by_kind[k] = s.by_kind[k];
    for (const auto &v : mon->violations())
        if (wo::violationBlamesHardware(v.kind)) {
            r.primary_kind = wo::violationKindName(v.kind);
            break;
        }
    return r;
}

struct alignas(64) DriverLane
{
    double mat_s = 0, build_s = 0, run_s = 0, teardown_s = 0;
    double append_s = 0;
    std::uint64_t cells = 0, failed = 0, events = 0;
    std::uint64_t allocs = 0, alloc_bytes = 0;
    // Simulated counts and digest rows of the first pass only.
    std::uint64_t pass_events = 0, pass_ticks = 0;
    std::vector<std::string> rows;
};

double
spanS(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** run() seconds of @p cell with the monitor on and off. */
std::pair<double, double>
monitorReplay(const wo::Cell &cell, wo::MaterializeCache &cache)
{
    const wo::MaterializedCell m = wo::materializeCell(cell, &cache);
    if (!m.ok())
        return {0, 0};
    double t[2] = {0, 0};
    for (int on = 1; on >= 0; --on) {
        wo::SystemCfg cfg = cell.systemCfg(cell_max_events);
        cfg.monitor = on;
        wo::System sys(*m.program, cfg);
        for (const auto &w : m.warm)
            sys.warmShared(w.addr, w.procs);
        const auto t0 = Clock::now();
        sys.run();
        t[on] = since(t0);
    }
    return {t[1], t[0]};
}

/**
 * Simulated events per cell over @p cells, from plain System runs with
 * no span or counter: the untraced side of the traced driver's
 * event.events_per_cell.
 */
double
eventsPerCell(const std::vector<wo::Cell> &cells)
{
    wo::MaterializeCache cache;
    std::uint64_t events = 0;
    for (const wo::Cell &cell : cells) {
        const wo::MaterializedCell m = wo::materializeCell(cell, &cache);
        if (!m.ok())
            continue;
        wo::System sys(*m.program, cell.systemCfg(cell_max_events));
        for (const auto &w : m.warm)
            sys.warmShared(w.addr, w.procs);
        sys.run();
        events += sys.eventQueue().executed();
    }
    return static_cast<double>(events) /
           std::max<double>(1, static_cast<double>(cells.size()));
}

} // namespace

CellTrace
traceCellLayers(const Args &args, const std::vector<wo::Cell> &cells,
                int threads, double seconds, Report &rep)
{
    const std::string dir = args.out_dir + "/trace-cells";
    freshDir(dir);
    wo::Journal journal(dir + "/campaign.journal.jsonl");
    journal.reserveKeys(cells.size());
    journal.open(/*fresh=*/true);

    std::vector<DriverLane> lanes(static_cast<std::size_t>(threads));
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> limit{~std::uint64_t{0}};
    const std::uint64_t n = cells.size();
    const auto t0 = Clock::now();
    setAllocCounting(true);
    auto loop = [&](DriverLane &lane) {
        wo::MaterializeCache cache;
        for (;;) {
            const std::uint64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            // The thread that opens a new pass decides whether the
            // window is over; the simulated counts come from the first
            // pass alone, so a cell or two past the limit changes none.
            if (i > 0 && i % n == 0 && since(t0) >= seconds)
                limit.store(i, std::memory_order_relaxed);
            if (i >= limit.load(std::memory_order_relaxed))
                break;
            const wo::Cell &cell = cells[i % n];
            const auto a0 = Clock::now();
            const wo::MaterializedCell m = wo::materializeCell(cell, &cache);
            const auto a1 = Clock::now();
            lane.mat_s += spanS(a0, a1);
            if (!m.ok()) {
                ++lane.failed;
                continue;
            }
            // Allocations of build, run and teardown; the benchmark's
            // own reduce() between run and teardown is left out.
            std::uint64_t allocs = threadAllocs();
            std::uint64_t bytes = threadAllocBytes();
            std::optional<wo::System> sys;
            sys.emplace(*m.program, cell.systemCfg(cell_max_events));
            for (const auto &w : m.warm)
                sys->warmShared(w.addr, w.procs);
            const auto a2 = Clock::now();
            std::optional<wo::SystemResult> sr;
            sr.emplace(sys->run());
            const auto a3 = Clock::now();
            allocs = threadAllocs() - allocs;
            bytes = threadAllocBytes() - bytes;
            wo::CellResult r = reduce(cell, *sys, *sr);
            const std::uint64_t events = sys->eventQueue().executed();
            lane.events += events;
            const std::uint64_t allocs4 = threadAllocs();
            const std::uint64_t bytes4 = threadAllocBytes();
            const auto a4 = Clock::now();
            sr.reset();
            sys.reset();
            const auto a5 = Clock::now();
            lane.allocs += allocs + threadAllocs() - allocs4;
            lane.alloc_bytes += bytes + threadAllocBytes() - bytes4;
            r.wall_ms = 1000.0 * spanS(a1, a3);
            journal.appendCell(r);
            const auto a6 = Clock::now();
            lane.build_s += spanS(a1, a2);
            lane.run_s += spanS(a2, a3);
            lane.teardown_s += spanS(a4, a5);
            lane.append_s += spanS(a5, a6);
            ++lane.cells;
            if (r.hw || r.deadlocked || r.livelocked)
                ++lane.failed;
            if (i < n) {
                lane.pass_events += events;
                lane.pass_ticks += r.finish_tick;
                lane.rows.push_back(r.key + "|" + r.verdict() + "|" +
                                    r.outcome_sig + "|" +
                                    std::to_string(r.finish_tick));
            }
        }
    };
    std::vector<std::thread> pool;
    for (DriverLane &lane : lanes)
        pool.emplace_back(loop, std::ref(lane));
    for (auto &t : pool)
        t.join();
    const double wall = since(t0);
    setAllocCounting(false);
    journal.close();

    DriverLane tot;
    std::vector<std::string> rows;
    for (DriverLane &l : lanes) {
        tot.mat_s += l.mat_s;
        tot.build_s += l.build_s;
        tot.run_s += l.run_s;
        tot.teardown_s += l.teardown_s;
        tot.append_s += l.append_s;
        tot.cells += l.cells;
        tot.failed += l.failed;
        tot.events += l.events;
        tot.pass_events += l.pass_events;
        tot.pass_ticks += l.pass_ticks;
        tot.allocs += l.allocs;
        tot.alloc_bytes += l.alloc_bytes;
        rows.insert(rows.end(), l.rows.begin(), l.rows.end());
    }
    const double c = std::max<double>(1, static_cast<double>(tot.cells));

    // The monitor's share of run(): the same cells replayed with the
    // monitor off, on and off interleaved per cell so drift cancels.
    wo::MaterializeCache cache;
    double on = 0, off = 0;
    const std::size_t stride = std::max<std::size_t>(1, n / 400);
    for (std::size_t i = 0; i < n; i += stride) {
        const auto [t_on, t_off] = monitorReplay(cells[i], cache);
        on += t_on;
        off += t_off;
    }

    rep.metric("cell.materialize_us", 1e6 * tot.mat_s / c, "us");
    rep.metric("journal.append_us", 1e6 * tot.append_s / c, "us");
    rep.metric("sys.build_us", 1e6 * tot.build_s / c, "us");
    rep.metric("sys.run_us", 1e6 * tot.run_s / c, "us");
    rep.metric("sys.teardown_us", 1e6 * tot.teardown_s / c, "us");
    rep.metric("sys.allocs_per_cell", static_cast<double>(tot.allocs) / c,
               "count");
    rep.metric("sys.alloc_bytes_per_cell",
               static_cast<double>(tot.alloc_bytes) / c, "B");
    rep.metric("sys.run_ns_per_event",
               tot.events ? 1e9 * tot.run_s / static_cast<double>(tot.events)
                          : 0,
               "ns");
    rep.metric("obs.monitor_share", on > 0 ? 1.0 - off / on : 0, "ratio");
    const double pass = std::max<double>(1, static_cast<double>(n));
    rep.metric("event.events_per_cell",
               static_cast<double>(tot.pass_events) / pass, "count");
    rep.metric("sys.ticks_per_cell",
               static_cast<double>(tot.pass_ticks) / pass, "count");
    rep.check(tot.failed == 0, "traced cell driver: a cell failed");

    CellTrace out;
    out.cells_per_sec = wall > 0 ? static_cast<double>(tot.cells) / wall : 0;
    out.digest = digestOf(std::move(rows));
    return out;
}

// ---- campaign_run ---------------------------------------------------

void
campaignRun(const Args &args, Report &rep)
{
    const std::uint64_t cells = args.tiny ? 2'000 : 60'000;
    const std::string dir = args.out_dir + "/campaign_run";
    const wo::CampaignCfg cfg = runCampaignCfg(args, cells, args.jobs, dir);
    std::vector<double> setup;
    sampleCampaignSetup(cfg, 7, setup);

    // Warm-up: fault in the heap and code before the timed reps.  Its
    // rate is listed with the reps so a cold outlier stays visible.
    wo::CampaignCfg warm = cfg;
    warm.cells = cells / 4;
    const CampaignRep w = timedCampaign(warm);

    const double window = args.trace ? args.seconds * 0.4 : args.seconds;
    std::vector<CampaignRep> reps;
    std::vector<double> rate, wall, cell_ms;
    std::string digest;
    const auto t0 = Clock::now();
    do {
        CampaignRep r = timedCampaign(cfg);
        const std::vector<JournalCell> journal =
            readJournal(dir + "/campaign.journal.jsonl");
        for (const JournalCell &c : journal)
            cell_ms.push_back(c.ms);
        const std::string d = runDigest(journal);
        if (digest.empty())
            digest = args.expect_digest.empty() ? d : args.expect_digest;
        rep.check(d == digest, "campaign_run: rep digest " + d +
                                   " differs from " + digest);
        rep.check(r.sum.hardwareClean(),
                  "campaign_run: hardware violation on conforming "
                  "hardware");
        rep.attempt(r.sum.ran, runCellFailures(r.sum));
        rate.push_back(r.sum.ran / r.wall_s);
        wall.push_back(r.wall_s);
        reps.push_back(std::move(r));
        sampleCampaignSetup(cfg, 7, setup);
    } while (!args.tiny && since(t0) < window);

    // Worker-count parity: the same (seed, cells) at 1 and at N workers.
    const std::uint64_t pcells = args.tiny ? 500 : 10'000;
    const wo::CampaignCfg p1 = runCampaignCfg(args, pcells, 1, dir + "-j1");
    const wo::CampaignCfg pn =
        runCampaignCfg(args, pcells, args.jobs, dir + "-jn");
    wo::runCampaign(p1);
    wo::runCampaign(pn);
    const std::string d1 =
        runDigest(readJournal(p1.out_dir + "/campaign.journal.jsonl"));
    const std::string dn =
        runDigest(readJournal(pn.out_dir + "/campaign.journal.jsonl"));
    rep.check(d1 == dn, "campaign_run: 1-worker digest " + d1 +
                            " differs from the " +
                            std::to_string(args.jobs) + "-worker " + dn);

    rep.metric("cells_per_sec", median(rate), "1/s");
    rep.metric("verdict_s", median(wall), "s");
    rep.metric("cell_p50_ms", median(cell_ms), "ms");
    rep.metric("cell_p99_ms", quantile(cell_ms, 0.99), "ms");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.info.set("digest", wo::Json(digest));
    rep.info.set("cells_per_campaign", wo::Json(cells));
    rep.info.set("latency_samples",
                 wo::Json(static_cast<std::uint64_t>(cell_ms.size())));
    rep.info.set("warmup_cells_per_sec", wo::Json(w.sum.ran / w.wall_s));
    wo::Json rates = wo::Json::array();
    for (double x : rate)
        rates.push(wo::Json(x));
    rep.info.set("rep_cells_per_sec", std::move(rates));

    if (!args.trace) {
        // The first (at most) 2,000 base cells, replayed untraced: at
        // the tiny size this is the traced driver's whole cell list.
        rep.info.set("events_per_cell", wo::Json(eventsPerCell(
                                            baseCells(args, 2'000))));
        return;
    }
    reportCampaignLayers(reps, rep);
    const std::vector<wo::Cell> list = baseCells(args, cells);
    const CellTrace ct = traceCellLayers(args, list, args.jobs,
                                         args.seconds * 0.4, rep);
    rep.check(ct.digest == digest,
              "campaign_run: traced driver digest " + ct.digest +
                  " differs from the campaign's " + digest);
    rep.metric("trace.cells_per_sec", ct.cells_per_sec, "1/s");
    rep.metric("trace.untraced_cells_per_sec", median(rate), "1/s");
    censusLayers(args, rep);
}

// ---- campaign_verify ------------------------------------------------

void
campaignVerify(const Args &args, Report &rep)
{
    // Each model's verify stream starts with the litmus corpus (keys
    // carry no timing coordinates, so these cells are the same for
    // every seed) and continues with seed-drawn random programs.  The
    // benchmark stops before the random draws: their DRF0 check costs
    // anywhere from milliseconds to a 10 s exhausted step budget, which
    // would make a run's wall time depend on the seed drawn.
    const std::uint64_t cells =
        args.tiny ? 3 : wo::litmusCorpus().size();
    const std::vector<std::string> models = seedModels(args);
    const std::string dir = args.out_dir + "/campaign_verify";
    auto cfgFor = [&](const std::string &model) {
        wo::CampaignCfg cfg = runCampaignCfg(args, cells, args.jobs,
                                             dir + "/" + model);
        cfg.verify = true;
        cfg.verify_models = {model};
        return cfg;
    };
    std::vector<double> setup;
    sampleCampaignSetup(cfgFor(models[0]), 7, setup);

    const double window = args.trace ? args.seconds * 0.4 : args.seconds;
    std::vector<CampaignRep> reps;
    std::vector<double> round_wall, round_rate, cell_ms, verdict_ms;
    std::uint64_t unresolved = 0;
    std::string digest;
    const auto t0 = Clock::now();
    do {
        std::vector<JournalCell> rows;
        double wall = 0;
        std::uint64_t round_cells = 0;
        for (const std::string &m : models) {
            const wo::CampaignCfg cfg = cfgFor(m);
            CampaignRep r = timedCampaign(cfg);
            std::vector<JournalCell> j =
                readJournal(cfg.out_dir + "/campaign.journal.jsonl");
            // The median is that of cells with a verdict: over every
            // cell it falls in the gap between ~1 ms verdicts and
            // 30-500 ms inconclusive cells and moves by a fifth from one
            // process to the next.  p99 keeps the inconclusive tail.
            for (const JournalCell &c : j) {
                cell_ms.push_back(c.ms);
                if (c.verdict == "clean" || c.verdict == "nonsc")
                    verdict_ms.push_back(c.ms);
            }
            rows.insert(rows.end(), j.begin(), j.end());
            wall += r.wall_s;
            round_cells += r.sum.ran;
            // Inconclusive cells give no verdict but are not failures:
            // on the seed code their share is the workload's baseline.
            rep.attempt(r.sum.ran, r.sum.hw + r.sum.errors,
                        r.sum.inconclusive);
            unresolved += r.sum.inconclusive;
            reps.push_back(std::move(r));
            sampleCampaignSetup(cfg, 3, setup);
        }
        round_wall.push_back(wall);
        round_rate.push_back(round_cells / wall);
        const std::string d = verifyDigest(rows);
        if (digest.empty())
            digest = args.expect_digest.empty() ? d : args.expect_digest;
        rep.check(d == digest, "campaign_verify: round digest " + d +
                                   " differs from " + digest);
    } while (!args.tiny && since(t0) < window);

    rep.metric("cells_per_sec", median(round_rate), "1/s");
    rep.metric("verdict_s", median(round_wall), "s");
    rep.metric("cell_p50_ms", median(verdict_ms), "ms");
    rep.metric("cell_p99_ms", quantile(cell_ms, 0.99), "ms");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.info.set("digest", wo::Json(digest));
    rep.info.set("all_cells_p50_ms", wo::Json(median(cell_ms)));
    rep.info.set("rounds", wo::Json(static_cast<std::uint64_t>(
                               round_wall.size())));
    rep.info.set("cells_per_round",
                 wo::Json(cells * models.size()));
    rep.info.set("inconclusive_per_round",
                 wo::Json(static_cast<double>(unresolved) /
                          static_cast<double>(round_wall.size())));

    if (!args.trace)
        return;
    reportCampaignLayers(reps, rep);
    rep.metric("verify.inconclusive",
               static_cast<double>(unresolved) /
                   static_cast<double>(round_wall.size()),
               "count");
    const double pairs_per_sec =
        traceVerifyLayers(models, cells, args.jobs, rep);
    rep.metric("trace.cells_per_sec", pairs_per_sec, "1/s");
    rep.metric("trace.untraced_cells_per_sec", median(round_rate), "1/s");
    censusLayers(args, rep);
}

// ---- census ---------------------------------------------------------

void
censusLayers(const Args &args, Report &rep)
{
    const std::uint64_t cells = args.tiny ? 500 : 4'000;
    if (!rep.has("campaign.cpu_util")) {
        const wo::CampaignCfg cfg = runCampaignCfg(
            args, cells * 5, args.jobs, args.out_dir + "/census-campaign");
        std::vector<CampaignRep> reps;
        for (int i = 0; i < 3; ++i)
            reps.push_back(timedCampaign(cfg));
        reportCampaignLayers(reps, rep);
    }
    if (!rep.has("sys.build_us"))
        traceCellLayers(args, baseCells(args, cells), args.jobs, 0, rep);
    if (!rep.has("verify.dpor_ms")) {
        const std::vector<std::string> one = {seedModels(args)[0]};
        traceVerifyLayers(one, args.tiny ? 3 : wo::litmusCorpus().size(),
                          args.jobs, rep);
    }
    if (!rep.has("verify.inconclusive"))
        rep.metric("verify.inconclusive", 0, "count");
    if (!rep.has("fleet.tax"))
        traceFleetLayers(args, cells, 2, rep);
}

} // namespace pb
