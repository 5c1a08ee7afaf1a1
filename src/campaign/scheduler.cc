#include "scheduler.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "campaign/fuzzer.hh"
#include "common/logging.hh"
#include "common/steal_queue.hh"
#include "obs/artifact.hh"
#include "obs/control_plane.hh"
#include "obs/httpd.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace wo {

namespace {

/** Shared campaign state (one per runCampaign call; no globals). */
struct Engine
{
    explicit Engine(const CampaignCfg &c)
        : cfg(c),
          fuzzer(c),
          lanes(new Timeline[static_cast<std::size_t>(c.jobs) + 1]),
          ledger(c.jobs, c.out_dir, c.journal_path,
                 JournalCfg{c.sync_every, c.flush_interval_ms,
                            &lanes[c.jobs]},
                 lanes.get()),
          mutants(static_cast<unsigned>(c.jobs))
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
    // ledger, whose journal writer thread holds a pointer into it).
    std::unique_ptr<Timeline[]> lanes;
    Ledger ledger;
    // Fuzz-frontier mutants: a worker pops its own newest (a bug's
    // fresh neighborhood stays hot), idle workers steal the oldest.
    StealQueue<Cell> mutants;

    // The only cross-worker atomics on the hot path: the global cell
    // budget and the base-stream cursor.  Both are plain tickets --
    // no ordering is carried through them, so relaxed is enough.
    std::atomic<std::uint64_t> tickets{0};
    std::atomic<std::uint64_t> base_index{0};

    bool
    timeUp() const
    {
        return cfg.time_budget_s > 0 &&
               ledger.elapsedS() > cfg.time_budget_s;
    }

    void worker(int w);
};

void
Engine::worker(int w)
{
    // This thread owns lane w: spans opened anywhere below it (cell
    // materialize/run, journal pushes, shrinking) accrue here, and the
    // self-profiler samples it under the same lane name.
    Timeline &tl = lanes[w];
    Timeline::setCurrent(&tl);
    tl.markStart();
    Profiler::ThreadGuard prof_guard(tl.lane());
    CellContext ctx; // worker-owned: cache and machine never synchronize
    while (!timeUp()) {
        // idle covers everything between finishing one cell and
        // starting the next: the ticket, mutant take, the resume
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
            cfg.frontier && (ticket & 1) && mutants.take(w, cell);
        if (!frontier)
            cell = fuzzer.baseCell(
                base_index.fetch_add(1, std::memory_order_relaxed));

        std::string key = cell.key();
        const KeyClaim claim = ledger.journal().claim(key);
        if (claim != KeyClaim::fresh) {
            ledger.recordSkip(w, claim);
            continue;
        }
        idle_span.close();
        ShrunkCellRun out =
            runAndShrinkCell(cell, cfg, &ctx, std::move(key));
        // Novelty is still tracked with the frontier off (the summary
        // reports it), but earned mutants go nowhere: no ticket would
        // ever pop them.
        for (Cell &m : fuzzer.observe(cell, out.run.result))
            if (cfg.frontier)
                mutants.push(w, std::move(m));
        if (out.failure)
            ledger.fileFailure(cell, out.run.result.primary_kind,
                               *out.failure);
        // Journaled after shrinking so the cell line carries the full
        // span decomposition; a crash mid-shrink therefore re-runs the
        // cell on resume, which re-discovers the failure -- correct,
        // just not free.
        ledger.recordCell(w, out.run.result);
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

    Engine eng(cfg);
    if (cfg.resume)
        eng.ledger.replay();
    Json meta = campaignSpecToJson(cfg);
    meta.set("jobs", Json(static_cast<std::uint64_t>(cfg.jobs)));
    meta.set("sync_every", Json(cfg.sync_every));
    eng.ledger.open(cfg, std::move(meta));

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

    // Mount the control plane before the fleet exists: a scrape that
    // races the first cell just reads zeros.
    if (cfg.serve)
        mountControlPlane(
            *cfg.serve, "wo_campaign",
            {[&eng] {
                 MetricsRegistry reg;
                 eng.ledger.metrics(reg);
                 reg.set("frontier.novelty",
                         Json(eng.fuzzer.noveltyCount()));
                 return reg.json();
             },
             [&eng] {
                 Json p = eng.ledger.progressJson();
                 p.set("novelty", Json(eng.fuzzer.noveltyCount()));
                 return p;
             },
             [&eng](std::vector<std::size_t> &cursors, std::string &chunk) {
                 cursors.resize(1);
                 return eng.ledger.failureEvents(cursors[0], chunk);
             }});
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(cfg.jobs));
    for (int w = 0; w < cfg.jobs; ++w)
        workers.emplace_back([&eng, w] { eng.worker(w); });

    std::thread reporter;
    if (cfg.progress)
        reporter = std::thread([&eng] {
            // The progress line reads only owner-written slot counters
            // and live lane totals: no lock is taken, so a 200 ms
            // print can never stall the fleet.
            while (!eng.ledger.done()) {
                std::fprintf(stderr, "\r[campaign] %s ",
                             eng.ledger.progressLine().c_str());
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
            std::fputc('\n', stderr);
        });

    for (auto &t : workers)
        t.join();
    // Commits the journal: from here every appended line is durable.
    CampaignSummary sum = eng.ledger.close();
    if (reporter.joinable())
        reporter.join();
    sum.novelty = eng.fuzzer.noveltyCount();

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

    // The machine-readable summary next to the journal: what `wotool
    // report` reads for the outcome matrix and lane decomposition.
    eng.ledger.writeSummary(sum.toJson());
    // Handlers capture the engine on this stack frame: the server must
    // be quiet before it unwinds.  stop() gives every stream one last
    // poll, which delivers its final progress + done events; simple
    // requests served after `done` just read the final totals.
    if (cfg.serve)
        cfg.serve->stop();
    return sum;
}

} // namespace wo
