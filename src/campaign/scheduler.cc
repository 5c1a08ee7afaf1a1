#include "scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/journal.hh"
#include "campaign/shrink.hh"
#include "campaign/verify.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/artifact.hh"
#include "obs/httpd.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace wo {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Per-worker deques with stealing.  A worker pushes and pops its own
 * back (LIFO keeps a bug's freshly-mutated neighborhood hot in cache
 * and in mind); thieves take from the front, i.e. the oldest, most
 * "different" work, the classic Cilk/Chase-Lev discipline.  Mutexed
 * rather than lock-free: a cell costs a full simulated run, so deque
 * contention is noise.
 */
class StealDeques
{
  public:
    explicit StealDeques(int n)
    {
        for (int i = 0; i < n; ++i)
            slots_.push_back(std::make_unique<Slot>());
    }

    void
    push(int w, Cell c)
    {
        std::lock_guard<std::mutex> lock(slots_[w]->mu);
        slots_[w]->q.push_back(std::move(c));
    }

    bool
    popLocal(int w, Cell &out)
    {
        std::lock_guard<std::mutex> lock(slots_[w]->mu);
        if (slots_[w]->q.empty())
            return false;
        out = std::move(slots_[w]->q.back());
        slots_[w]->q.pop_back();
        return true;
    }

    /** One full round over the victims, starting at a random one. */
    bool
    steal(int thief, Cell &out, Rng &rng)
    {
        const int n = static_cast<int>(slots_.size());
        if (n <= 1)
            return false;
        int victim = static_cast<int>(rng.below(n));
        for (int i = 0; i < n; ++i, victim = (victim + 1) % n) {
            if (victim == thief)
                continue;
            std::lock_guard<std::mutex> lock(slots_[victim]->mu);
            if (slots_[victim]->q.empty())
                continue;
            out = std::move(slots_[victim]->q.front());
            slots_[victim]->q.pop_front();
            return true;
        }
        return false;
    }

  private:
    struct Slot
    {
        std::mutex mu;
        std::deque<Cell> q;
    };
    std::vector<std::unique_ptr<Slot>> slots_;
};

/**
 * Per-worker campaign state.  Each worker owns one cache-line-aligned
 * block, so the hot path never bounces a shared counter line between
 * cores.  The atomics at the front are written only by the owning
 * worker (relaxed -- they order nothing) and summed by the progress
 * reporter and at join; the plain fields are touched by nobody else
 * until the fleet has joined.
 */
struct alignas(64) WorkerStats
{
    // Live counters the progress reporter may read mid-run.
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> ran{0};
    std::atomic<std::uint64_t> resumed{0};    //!< journaled by a past run
    std::atomic<std::uint64_t> duplicates{0}; //!< repeated in this run
    std::atomic<std::uint64_t> hw{0}; //!< live copy of tally.hw
    // Verify-cell explorer totals (zero for run campaigns), live so
    // /metrics can report the memoization rate mid-campaign.
    std::atomic<std::uint64_t> dpor_probes{0};
    std::atomic<std::uint64_t> dpor_memo_hits{0};

    /**
     * Live per-cell latency, as power-of-two microsecond buckets:
     * bucket b counts cells whose wall time fell in (2^(b-1), 2^b]
     * us (the last bucket absorbs overflow).  Owner-written relaxed
     * like the counters above, so /metrics and /progress can render a
     * histogram and live p50/p99 mid-run without touching lat_ms.
     */
    static constexpr int num_lat_buckets = 28; //!< 2^27 us ~ 134 s
    std::atomic<std::uint64_t> lat_count{0};
    std::atomic<std::uint64_t> lat_sum_us{0};
    std::atomic<std::uint64_t> lat_bucket[num_lat_buckets] = {};

    void
    recordLatency(double ms)
    {
        const std::uint64_t us =
            ms <= 0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
        int b = 0;
        while (b + 1 < num_lat_buckets && (std::uint64_t{1} << b) < us)
            ++b;
        lat_bucket[b].fetch_add(1, std::memory_order_relaxed);
        lat_sum_us.fetch_add(us, std::memory_order_relaxed);
        lat_count.fetch_add(1, std::memory_order_relaxed);
    }

    // Merged only at join.
    VerdictTally tally;
    std::vector<double> lat_ms;           //!< per-cell wall time

    void
    classify(const CellResult &r)
    {
        dpor_probes.fetch_add(r.dpor_probes, std::memory_order_relaxed);
        dpor_memo_hits.fetch_add(r.dpor_memo_hits,
                                 std::memory_order_relaxed);
        tally.add(r.verdict());
        hw.store(tally.hw, std::memory_order_relaxed);
    }
};

/** The quantile of a sorted sample (nearest-rank). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Shared campaign state (one per runCampaign call; no globals). */
struct Engine
{
    explicit Engine(const CampaignCfg &c)
        : cfg(c),
          fuzzer(c),
          lanes(new Timeline[static_cast<std::size_t>(c.jobs) + 1]),
          journal(c.journal_path,
                  JournalCfg{c.sync_every, c.flush_interval_ms,
                             &lanes[c.jobs]}),
          deques(c.jobs),
          wstats(new WorkerStats[static_cast<std::size_t>(c.jobs)])
    {
        // One shared epoch so every lane lines up in the trace.  Raw
        // span events are kept only under --profile; the aggregates
        // behind the summary decomposition are always on.
        const Timeline::Clock::time_point epoch =
            Timeline::Clock::now();
        for (int w = 0; w < c.jobs; ++w)
            lanes[w].configure(strprintf("worker%d", w), epoch,
                               c.profile);
        lanes[c.jobs].configure("journal-writer", epoch, c.profile);
    }

    const CampaignCfg &cfg;
    Fuzzer fuzzer;
    // jobs worker lanes + the journal-writer lane (declared before the
    // journal, whose writer thread holds a pointer into it).
    std::unique_ptr<Timeline[]> lanes;
    Journal journal;
    StealDeques deques;
    std::unique_ptr<WorkerStats[]> wstats;
    Clock::time_point t0;

    // The only cross-worker atomics on the hot path: the global cell
    // budget and the base-stream cursor.  Both are plain tickets --
    // no ordering is carried through them, so relaxed is enough.
    std::atomic<std::uint64_t> tickets{0};
    std::atomic<std::uint64_t> base_index{0};
    std::atomic<std::uint64_t> unique_failures{0};
    std::atomic<bool> done{false};

    /** One unique failure, queued for the /events SSE stream.  The
     *  feed is appended off the hot path (only on a first-of-dedup
     *  discovery, after shrinking) and only ever grows, so stream
     *  cursors stay valid. */
    struct FailureEvent
    {
        std::string dedup, kind, cell, file;
    };
    std::mutex feed_mu;
    std::vector<FailureEvent> failure_feed;

    std::uint64_t
    sumLive(std::atomic<std::uint64_t> WorkerStats::*f) const
    {
        std::uint64_t total = 0;
        for (int w = 0; w < cfg.jobs; ++w)
            total += (wstats[w].*f).load(std::memory_order_relaxed);
        return total;
    }

    bool
    timeUp() const
    {
        if (cfg.time_budget_s <= 0)
            return false;
        return std::chrono::duration<double>(Clock::now() - t0).count() >
               cfg.time_budget_s;
    }

    void handleFailure(const Cell &cell, CellRun &run);
    void worker(int w);

    // --- Live control plane (every reader below touches only
    // owner-written relaxed atomics, the lanes' live totals and the
    // mutex-guarded failure feed; none stalls the fleet).

    /** Merged live latency: counts, sum and cumulative buckets. */
    struct LatSnapshot
    {
        std::uint64_t count = 0;
        std::uint64_t sum_us = 0;
        std::uint64_t cum[WorkerStats::num_lat_buckets] = {};
    };

    LatSnapshot
    latSnapshot() const
    {
        LatSnapshot s;
        for (int w = 0; w < cfg.jobs; ++w) {
            const WorkerStats &ws = wstats[w];
            s.count += ws.lat_count.load(std::memory_order_relaxed);
            s.sum_us += ws.lat_sum_us.load(std::memory_order_relaxed);
            for (int b = 0; b < WorkerStats::num_lat_buckets; ++b)
                s.cum[b] +=
                    ws.lat_bucket[b].load(std::memory_order_relaxed);
        }
        for (int b = 1; b < WorkerStats::num_lat_buckets; ++b)
            s.cum[b] += s.cum[b - 1];
        return s;
    }

    /** Bucket-resolution quantile: the smallest upper bound covering
     *  quantile @p q, in ms. */
    static double
    latQuantileMs(const LatSnapshot &s, double q)
    {
        if (s.count == 0)
            return 0;
        const std::uint64_t want = static_cast<std::uint64_t>(
            q * static_cast<double>(s.count - 1)) + 1;
        for (int b = 0; b < WorkerStats::num_lat_buckets; ++b)
            if (s.cum[b] >= want)
                return static_cast<double>(std::uint64_t{1} << b) /
                       1000.0;
        return static_cast<double>(
                   std::uint64_t{1}
                   << (WorkerStats::num_lat_buckets - 1)) /
               1000.0;
    }

    /** Worker @p w's live idle share of its elapsed time, in %. */
    double
    idlePct(int w) const
    {
        const std::uint64_t el = lanes[w].liveElapsedNs();
        return el > 0 ? 100.0 *
                            static_cast<double>(
                                lanes[w].liveNs(SpanKind::idle)) /
                            static_cast<double>(el)
                      : 0.0;
    }

    double
    elapsedS() const
    {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    }

    /** The live metrics tree (rendered by /metrics as Prometheus
     *  text with prefix "wo_campaign"). */
    Json metricsJson() const;

    /** The /progress JSON document. */
    Json progressJson() const;

    /** Mount /healthz, /metrics, /progress and /events on @p srv. */
    void mountControlPlane(HttpServer &srv);
};

Json
Engine::metricsJson() const
{
    MetricsRegistry reg;
    reg.set("cells.total", Json(cfg.cells));
    reg.set("cells.completed",
            Json(sumLive(&WorkerStats::completed)));
    reg.set("cells.ran", Json(sumLive(&WorkerStats::ran)));
    reg.set("cells.resumed", Json(sumLive(&WorkerStats::resumed)));
    reg.set("cells.duplicate", Json(sumLive(&WorkerStats::duplicates)));
    reg.set("cells.hw_failed", Json(sumLive(&WorkerStats::hw)));
    reg.set("failures.unique",
            Json(unique_failures.load(std::memory_order_relaxed)));
    reg.set("explore.commutation_probes",
            Json(sumLive(&WorkerStats::dpor_probes)));
    reg.set("explore.memo_hits",
            Json(sumLive(&WorkerStats::dpor_memo_hits)));
    reg.set("frontier.novelty", Json(fuzzer.noveltyCount()));
    reg.set("jobs", Json(static_cast<std::uint64_t>(cfg.jobs)));
    reg.set("done", Json(done.load(std::memory_order_relaxed)));
    reg.set("wall_seconds", Json(elapsedS()));

    for (int w = 0; w < cfg.jobs; ++w) {
        const WorkerStats &ws = wstats[w];
        const std::string base = strprintf("worker{worker=\"%d\"}", w);
        reg.set(base + ".completed",
                Json(ws.completed.load(std::memory_order_relaxed)));
        reg.set(base + ".ran",
                Json(ws.ran.load(std::memory_order_relaxed)));
        reg.set(base + ".resumed",
                Json(ws.resumed.load(std::memory_order_relaxed)));
        reg.set(base + ".duplicate",
                Json(ws.duplicates.load(std::memory_order_relaxed)));
    }
    // Per-lane span decomposition (workers + the journal writer):
    // where each thread's wall clock is going, right now.
    for (int i = 0; i <= cfg.jobs; ++i) {
        const Timeline &tl = lanes[i];
        const std::string base =
            strprintf("lane{lane=\"%s\"}", tl.lane().c_str());
        reg.set(base + ".elapsed_ns", Json(tl.liveElapsedNs()));
        for (int k = 0; k < num_span_kinds; ++k)
            reg.set(base + strprintf(".span_ns{span=\"%s\"}",
                                     spanKindName(
                                         static_cast<SpanKind>(k))),
                    Json(tl.liveNs(static_cast<SpanKind>(k))));
    }

    // The live per-cell latency histogram (bucket bounds in us).
    const LatSnapshot s = latSnapshot();
    Json h = Json::object();
    h.set("count", Json(s.count));
    h.set("sum", Json(s.sum_us));
    Json buckets = Json::array();
    for (int b = 0; b < WorkerStats::num_lat_buckets; ++b) {
        Json e = Json::object();
        e.set("le", Json(std::uint64_t{1} << b));
        e.set("n", Json(s.cum[b]));
        buckets.push(std::move(e));
        if (s.cum[b] >= s.count)
            break; // the rest only repeats the total
    }
    h.set("buckets", std::move(buckets));
    reg.set("cell_latency_us", std::move(h));
    return reg.json();
}

Json
Engine::progressJson() const
{
    Json p = Json::object();
    Json cells = Json::object();
    cells.set("total", Json(cfg.cells));
    cells.set("completed", Json(sumLive(&WorkerStats::completed)));
    cells.set("ran", Json(sumLive(&WorkerStats::ran)));
    cells.set("resumed", Json(sumLive(&WorkerStats::resumed)));
    cells.set("duplicate", Json(sumLive(&WorkerStats::duplicates)));
    cells.set("hw_failed", Json(sumLive(&WorkerStats::hw)));
    p.set("cells", std::move(cells));
    p.set("unique_failures",
          Json(unique_failures.load(std::memory_order_relaxed)));
    p.set("novelty", Json(fuzzer.noveltyCount()));
    p.set("wall_s", Json(elapsedS()));
    p.set("done", Json(done.load(std::memory_order_relaxed)));

    const LatSnapshot s = latSnapshot();
    Json lat = Json::object();
    lat.set("count", Json(s.count));
    lat.set("mean_ms",
            Json(s.count > 0 ? static_cast<double>(s.sum_us) /
                                   static_cast<double>(s.count) / 1000.0
                             : 0.0));
    lat.set("p50_ms", Json(latQuantileMs(s, 0.50)));
    lat.set("p99_ms", Json(latQuantileMs(s, 0.99)));
    p.set("latency", std::move(lat));

    Json workers = Json::array();
    for (int w = 0; w < cfg.jobs; ++w) {
        const WorkerStats &ws = wstats[w];
        Json wj = Json::object();
        wj.set("worker", Json(static_cast<std::uint64_t>(w)));
        wj.set("completed",
               Json(ws.completed.load(std::memory_order_relaxed)));
        wj.set("ran", Json(ws.ran.load(std::memory_order_relaxed)));
        wj.set("resumed",
               Json(ws.resumed.load(std::memory_order_relaxed)));
        wj.set("duplicate",
               Json(ws.duplicates.load(std::memory_order_relaxed)));
        wj.set("idle_pct", Json(idlePct(w)));
        workers.push(std::move(wj));
    }
    p.set("workers", std::move(workers));
    return p;
}

void
Engine::mountControlPlane(HttpServer &srv)
{
    srv.handle("/healthz", [](const HttpRequest &) {
        HttpResponse r;
        r.body = "ok\n";
        return r;
    });
    srv.handle("/metrics", [this](const HttpRequest &) {
        HttpResponse r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = prometheusText(metricsJson(), "wo_campaign");
        return r;
    });
    srv.handle("/progress", [this](const HttpRequest &) {
        HttpResponse r;
        r.content_type = "application/json";
        r.body = progressJson().dump(1) + "\n";
        return r;
    });
    // Each connection copies this generator (and with it a pristine
    // cursor), so a late subscriber first replays every unique failure
    // discovered so far, then follows along live.
    srv.stream("/events",
               [this, cursor = std::size_t{0}](std::string &chunk)
                   mutable {
        {
            std::lock_guard<std::mutex> lock(feed_mu);
            for (; cursor < failure_feed.size(); ++cursor) {
                const FailureEvent &f = failure_feed[cursor];
                Json j = Json::object();
                j.set("dedup", Json(f.dedup));
                j.set("kind", Json(f.kind));
                j.set("cell", Json(f.cell));
                j.set("file", Json(f.file));
                chunk += "event: failure\ndata: " + j.dump(0) + "\n\n";
            }
        }
        chunk += "event: progress\ndata: " + progressJson().dump(0) +
                 "\n\n";
        if (done.load(std::memory_order_relaxed)) {
            chunk += "event: done\ndata: {}\n\n";
            return false;
        }
        return true;
    });
}

void
Engine::handleFailure(const Cell &cell, CellRun &run)
{
    const std::optional<CellFailure> f =
        shrinkCellFailure(cell, run, cfg, cfg.out_dir);
    if (!f)
        return; // cannot name it: leave the cell verdict as evidence
    const ShrinkOutcome &s = f->shrunk;
    FailureRecord rec;
    rec.dedup = f->id.dedup;
    rec.kind = run.result.primary_kind;
    rec.first_cell = run.result.key;
    rec.repro_path = f->id.stem + ".wo";
    rec.instructions = s.instructions;
    rec.orig_instructions = s.orig_instructions;
    rec.reproduced = s.reproduced;
    if (!journal.recordFailure(rec))
        return; // the journal's failure map already counts the repeat

    unique_failures.fetch_add(1, std::memory_order_relaxed);
    writeFile(rec.repro_path, s.wo_text);
    if (cell.kind == CellKind::verify) {
        // The evidence bundle of an engine disagreement: re-judge the
        // minimum and write the outcome-set diff report next to the
        // reproducer (a flight-recorder replay would only show one
        // timed run, which is not what disagreed).
        VerifyResult ev =
            verifyProgramOnModel(*s.program, cell.model, cell.verifyCfg());
        writeFile(f->id.stem + ".verify.txt", ev.detail());
    } else {
        // The evidence bundle: re-run the minimum with the flight
        // recorder on and the failure dump pointed into the out dir.
        SystemCfg ev = cell.systemCfg(cfg.max_events);
        ev.flight_recorder = true;
        ev.dump_on_fail = f->id.stem;
        System sys(*s.program, ev);
        for (const auto &wt : s.warm)
            sys.warmShared(wt.addr, wt.procs);
        sys.run();
    }

    // Feed the /events subscribers; a unique discovery already paid
    // for a shrink and an evidence re-run, so this lock is noise.
    std::lock_guard<std::mutex> lock(feed_mu);
    failure_feed.push_back(
        {rec.dedup, rec.kind, rec.first_cell, rec.repro_path});
}

void
Engine::worker(int w)
{
    WorkerStats &ws = wstats[w];
    // This thread owns lane w: spans opened anywhere below it (cell
    // materialize/run, journal pushes, shrinking) accrue here, and the
    // self-profiler samples it under the same lane name.
    Timeline &tl = lanes[w];
    Timeline::setCurrent(&tl);
    tl.markStart();
    Profiler::ThreadGuard prof_guard(tl.lane());
    MaterializeCache cache; // worker-owned: lookups never synchronize
    Rng rng(cfg.seed * 7919 + static_cast<std::uint64_t>(w) + 1);
    while (!timeUp()) {
        // idle covers everything between finishing one cell and
        // starting the next: the ticket, deque pop/steal, the resume
        // check and the skip path.
        Timeline::Scope idle_span(&tl, SpanKind::idle);
        const std::uint64_t ticket =
            tickets.fetch_add(1, std::memory_order_relaxed);
        if (ticket >= cfg.cells)
            break;
        // Even tickets always advance the deterministic base stream;
        // only odd ones may take fuzz-frontier work.  A hot mutant
        // neighborhood (every timing mutant of a racy cell tends to
        // show a fresh outcome signature) can therefore never starve
        // base coverage -- at least half the budget walks the stream.
        Cell cell;
        const bool frontier =
            cfg.frontier && (ticket & 1) &&
            (deques.popLocal(w, cell) || deques.steal(w, cell, rng));
        if (!frontier)
            cell = fuzzer.baseCell(
                base_index.fetch_add(1, std::memory_order_relaxed));

        const KeyClaim claim = journal.claim(cell.key());
        if (claim != KeyClaim::fresh) {
            (claim == KeyClaim::resumed ? ws.resumed : ws.duplicates)
                .fetch_add(1, std::memory_order_relaxed);
            ws.completed.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        idle_span.close();
        CellRun run = runCell(cell, cfg.max_events, &cache);
        ws.classify(run.result);
        ws.lat_ms.push_back(run.result.wall_ms);
        ws.recordLatency(run.result.wall_ms);
        // Novelty is still tracked with the frontier off (the summary
        // reports it), but earned mutants go nowhere: no ticket would
        // ever pop them.
        for (Cell &m : fuzzer.observe(cell, run.result))
            if (cfg.frontier)
                deques.push(w, std::move(m));
        if (run.result.hardwareFailure() && run.program) {
            Timeline::Scope shrink_span(&tl, SpanKind::shrink);
            const auto s0 = Clock::now();
            handleFailure(cell, run);
            run.result.shrink_us = static_cast<std::uint64_t>(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          s0)
                    .count());
        }
        // Journaled after shrinking so the cell line carries the full
        // span decomposition; a crash mid-shrink therefore re-runs the
        // cell on resume, which re-discovers the failure -- correct,
        // just not free.
        journal.appendCell(run.result);
        ws.ran.fetch_add(1, std::memory_order_relaxed);
        ws.completed.fetch_add(1, std::memory_order_relaxed);
    }
    tl.markEnd();
    Timeline::setCurrent(nullptr);
}

} // namespace

CampaignSummary
runCampaign(const CampaignCfg &user_cfg)
{
    CampaignCfg cfg = user_cfg;
    if (cfg.jobs < 1)
        cfg.jobs = 1;
    if (cfg.policies.empty())
        cfg.policies = {OrderingPolicy::wo_drf0};
    if (cfg.journal_path.empty())
        cfg.journal_path = cfg.out_dir + "/campaign.journal.jsonl";
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    if (ec)
        warn("cannot create campaign out dir '%s': %s",
             cfg.out_dir.c_str(), ec.message().c_str());

    Engine eng(cfg);
    if (cfg.resume)
        eng.journal.load();
    // Size the lock-free seen set for this run's appends before any
    // worker can touch it.
    eng.journal.reserveKeys(static_cast<std::size_t>(cfg.cells));
    eng.journal.open(/*fresh=*/!cfg.resume);
    if (!cfg.resume) {
        Json meta = campaignSpecToJson(cfg);
        meta.set("jobs", Json(static_cast<std::uint64_t>(cfg.jobs)));
        meta.set("sync_every", Json(cfg.sync_every));
        eng.journal.writeHeader(std::move(meta));
    }

    // Self-profiling: the fleet threads register themselves (worker(),
    // writerLoop()); the coordinating thread registers here so the
    // folded output also shows where the join/report time goes.
    Profiler::ThreadGuard prof_guard("campaign-main");
    std::unique_ptr<Profiler> prof;
    if (cfg.profile) {
        ProfilerCfg pcfg;
        pcfg.hz = cfg.profile_hz;
        prof = std::make_unique<Profiler>(pcfg);
        if (!prof->start()) {
            warn("profiler: another instance is active; sampling off");
            prof.reset();
        }
    }

    eng.t0 = Clock::now();
    // Mount the control plane before the fleet exists: a scrape that
    // races the first cell just reads zeros.
    if (cfg.serve)
        eng.mountControlPlane(*cfg.serve);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(cfg.jobs));
    for (int w = 0; w < cfg.jobs; ++w)
        workers.emplace_back([&eng, w] { eng.worker(w); });

    std::thread reporter;
    if (cfg.progress)
        reporter = std::thread([&eng] {
            // The reporter reads only owner-written per-worker atomics
            // and the unique-failure counter: no lock is taken, so a
            // 200 ms print can never stall the fleet.
            while (!eng.done.load(std::memory_order_relaxed)) {
                const double secs = std::chrono::duration<double>(
                                        Clock::now() - eng.t0)
                                        .count();
                const std::uint64_t c =
                    eng.sumLive(&WorkerStats::completed);
                // Live idle% per worker: one relaxed read of the
                // owner-written idle total against the lane's own
                // elapsed clock.  A starving fleet shows up here
                // mid-run, not in the post-mortem.
                std::string idle = " idle%[";
                for (int w = 0; w < eng.cfg.jobs; ++w)
                    idle += strprintf("%s%.0f", w ? " " : "",
                                      eng.idlePct(w));
                idle += "]";
                std::fprintf(
                    stderr,
                    "\r[campaign] %llu/%llu cells  %llu run  %llu "
                    "resumed  %llu duplicate  %llu hw-fail (%llu unique)  "
                    "%.1f cells/s%s ",
                    static_cast<unsigned long long>(c),
                    static_cast<unsigned long long>(eng.cfg.cells),
                    static_cast<unsigned long long>(
                        eng.sumLive(&WorkerStats::ran)),
                    static_cast<unsigned long long>(
                        eng.sumLive(&WorkerStats::resumed)),
                    static_cast<unsigned long long>(
                        eng.sumLive(&WorkerStats::duplicates)),
                    static_cast<unsigned long long>(
                        eng.sumLive(&WorkerStats::hw)),
                    static_cast<unsigned long long>(
                        eng.unique_failures.load(
                            std::memory_order_relaxed)),
                    secs > 0 ? static_cast<double>(c) / secs : 0.0,
                    idle.c_str());
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
            std::fputc('\n', stderr);
        });

    for (auto &t : workers)
        t.join();
    eng.done = true;
    if (reporter.joinable())
        reporter.join();
    // Drain and commit the journal before anything reads it back: once
    // close() returns, every appended line is durable.
    eng.journal.close();

    CampaignSummary sum;
    std::vector<double> lat;
    for (int w = 0; w < cfg.jobs; ++w) {
        WorkerStats &ws = eng.wstats[w];
        sum.ran += ws.ran.load(std::memory_order_relaxed);
        const std::uint64_t dup =
            ws.duplicates.load(std::memory_order_relaxed);
        sum.duplicates += dup;
        sum.skipped += ws.resumed.load(std::memory_order_relaxed) + dup;
        sum.merge(ws.tally);
        lat.insert(lat.end(), ws.lat_ms.begin(), ws.lat_ms.end());
    }
    std::sort(lat.begin(), lat.end());
    sum.lat_p50_ms = quantile(lat, 0.50);
    sum.lat_p99_ms = quantile(lat, 0.99);
    sum.novelty = eng.fuzzer.noveltyCount();
    sum.wall_s =
        std::chrono::duration<double>(Clock::now() - eng.t0).count();
    sum.cells_per_sec =
        sum.wall_s > 0 ? static_cast<double>(sum.ran) / sum.wall_s : 0;

    // Per-lane decomposition: the jobs workers plus the journal
    // writer, each thread's wall clock split by span kind.  This is
    // the campaign explaining its own scaling curve.
    for (int i = 0; i <= cfg.jobs; ++i) {
        const Timeline &tl = eng.lanes[i];
        CampaignSummary::LaneSummary ls;
        ls.lane = tl.lane();
        ls.wall_ms = tl.wallMs();
        for (int k = 0; k < num_span_kinds; ++k) {
            const SpanAgg a = tl.agg(static_cast<SpanKind>(k));
            ls.span_ms[k] = a.total_ms;
            ls.span_count[k] = a.count;
            ls.span_max_ms[k] = a.max_ms;
        }
        sum.lanes.push_back(std::move(ls));
    }

    if (prof) {
        prof->stop();
        sum.profile_samples = prof->samples();
        sum.profile_dropped = prof->dropped();
        sum.profiler_json = prof->toJson();
        sum.folded_path = cfg.profile_out.empty()
                              ? cfg.out_dir + "/campaign.folded.txt"
                              : cfg.profile_out;
        writeFile(sum.folded_path, prof->folded());
        std::vector<const Timeline *> lane_ptrs;
        for (int i = 0; i <= cfg.jobs; ++i)
            lane_ptrs.push_back(&eng.lanes[i]);
        sum.trace_path = cfg.out_dir + "/campaign.trace.json";
        writeFile(sum.trace_path, timelinesChromeJson(lane_ptrs));
    }

    // Failures: the journal knows every deduplicated failure, including
    // those recorded before a resume.
    sum.failures = eng.journal.failures();
    // The machine-readable summary next to the journal: what `wotool
    // report` reads for the outcome matrix and lane decomposition.
    writeFile(cfg.out_dir + "/campaign.summary.json",
              sum.toJson().dump(1) + "\n");
    // Handlers capture the engine on this stack frame: the server must
    // be quiet before it unwinds.  Streams deliver their final
    // progress + done events on the next poll; simple requests served
    // after `done` just read the final totals.
    if (cfg.serve)
        cfg.serve->stop();
    return sum;
}

std::string
CampaignSummary::table() const
{
    std::string out;
    out += strprintf(
        "campaign: %llu cells (%llu run, %llu resumed, %llu duplicate), "
        "%.2f s, %.1f cells/s (cell p50 %.3f ms, p99 %.3f ms), "
        "%llu frontier discoveries\n",
        static_cast<unsigned long long>(ran + skipped),
        static_cast<unsigned long long>(ran),
        static_cast<unsigned long long>(resumed()),
        static_cast<unsigned long long>(duplicates), wall_s,
        cells_per_sec, lat_p50_ms, lat_p99_ms,
        static_cast<unsigned long long>(novelty));
    out += strprintf(
        "verdicts: %llu clean, %llu race, %llu hw-violation, "
        "%llu deadlock, %llu livelock, %llu error\n",
        static_cast<unsigned long long>(clean),
        static_cast<unsigned long long>(racy),
        static_cast<unsigned long long>(hw),
        static_cast<unsigned long long>(deadlocked),
        static_cast<unsigned long long>(livelocked),
        static_cast<unsigned long long>(errors));
    if (inconclusive > 0 || nonsc > 0)
        out += strprintf(
            "verify: %llu inconclusive (budget-tripped), %llu non-SC "
            "(expected on counterexample machines)\n",
            static_cast<unsigned long long>(inconclusive),
            static_cast<unsigned long long>(nonsc));
    for (const LaneSummary &l : lanes) {
        if (l.wall_ms <= 0)
            continue;
        out += strprintf("lane %-14s %8.1f ms:", l.lane.c_str(),
                         l.wall_ms);
        for (int k = 0; k < num_span_kinds; ++k) {
            if (l.span_count[k] == 0)
                continue;
            out += strprintf(
                " %s %.0f%%",
                spanKindName(static_cast<SpanKind>(k)),
                100.0 * l.span_ms[k] / l.wall_ms);
        }
        out += "\n";
    }
    if (!folded_path.empty())
        out += strprintf(
            "profile: %llu samples (%llu dropped) -> %s, trace %s\n",
            static_cast<unsigned long long>(profile_samples),
            static_cast<unsigned long long>(profile_dropped),
            folded_path.c_str(), trace_path.c_str());
    bool any_kind = false;
    for (int k = 0; k < num_violation_kinds; ++k)
        any_kind = any_kind || by_kind[k] > 0;
    if (any_kind) {
        out += "hw cells by kind:";
        for (int k = 0; k < num_violation_kinds; ++k)
            if (by_kind[k] > 0)
                out += strprintf(
                    " %s=%llu",
                    violationKindName(static_cast<ViolationKind>(k)),
                    static_cast<unsigned long long>(by_kind[k]));
        out += "\n";
    }
    if (failures.empty()) {
        out += "hardware: CLEAN (no violation survived shrinking)\n";
        return out;
    }
    out += strprintf("failures (%zu unique after dedup):\n",
                     failures.size());
    for (const FailureRecord &f : failures)
        out += strprintf(
            "  %-16s x%-4llu -> %s (%zu insns%s%s)\n", f.kind.c_str(),
            static_cast<unsigned long long>(f.count),
            f.repro_path.c_str(), f.instructions,
            f.orig_instructions > 0
                ? strprintf(", from %zu", f.orig_instructions).c_str()
                : "",
            f.reproduced ? ", reproduced" : "");
    return out;
}

Json
CampaignSummary::toJson() const
{
    Json j = Json::object();
    j.set("ran", Json(ran));
    j.set("skipped", Json(skipped));
    j.set("resumed", Json(resumed()));
    j.set("duplicate", Json(duplicates));
    VerdictTally::toJson(j);
    j.set("novelty", Json(novelty));
    j.set("wall_s", Json(wall_s));
    j.set("cells_per_sec", Json(cells_per_sec));
    j.set("lat_p50_ms", Json(lat_p50_ms));
    j.set("lat_p99_ms", Json(lat_p99_ms));
    Json lanes_j = Json::array();
    for (const LaneSummary &l : lanes) {
        Json lj = Json::object();
        lj.set("lane", Json(l.lane));
        lj.set("wall_ms", Json(l.wall_ms));
        Json spans = Json::object();
        for (int k = 0; k < num_span_kinds; ++k) {
            if (l.span_count[k] == 0)
                continue;
            Json s = Json::object();
            s.set("ms", Json(l.span_ms[k]));
            s.set("count", Json(l.span_count[k]));
            s.set("max_ms", Json(l.span_max_ms[k]));
            spans.set(spanKindName(static_cast<SpanKind>(k)),
                      std::move(s));
        }
        lj.set("spans", std::move(spans));
        lanes_j.push(std::move(lj));
    }
    j.set("lanes", std::move(lanes_j));
    if (!profiler_json.isNull()) {
        j.set("profiler", profiler_json);
        j.set("folded", Json(folded_path));
        j.set("trace", Json(trace_path));
    }
    Json fails = Json::array();
    for (const FailureRecord &f : failures)
        fails.push(failureRecordToJson(f));
    j.set("failures", std::move(fails));
    return j;
}

} // namespace wo
