/**
 * @file
 * explore_dpor, the explorer's timing adapter and the verify-engine
 * layer metrics.
 */

#include <atomic>
#include <optional>
#include <thread>

#include "asm/assembler.hh"
#include "axiom/axiom_eval.hh"
#include "campaign/cell.hh"
#include "core/drf0_checker.hh"
#include "layers.hh"
#include "models/explorer.hh"
#include "models/model_registry.hh"

namespace pb {

namespace {

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/**
 * A forwarding model for exploreOutcomesDpor that times the three
 * model calls the engine makes per state into the calling thread's
 * SpanClock.  Everything else the engine does (visited insert, sleep
 * sets, stealing) is the remainder of the workers' CPU time.
 */
template <typename M>
class Timed
{
  public:
    using State = typename M::State;
    static constexpr bool stores_broadcast =
        wo::explorer_detail::modelBroadcasts<M>();

    explicit Timed(const M &m) : m_(m) {}

    static const char *name() { return M::name(); }
    State initial() const { return m_.initial(); }
    bool isFinal(const State &s) const { return m_.isFinal(s); }
    wo::Outcome outcome(const State &s) const { return m_.outcome(s); }
    const wo::Program &program() const { return m_.program(); }

    void
    pendingAddrs(const State &s, wo::ProcId p,
                 std::vector<wo::Addr> &out) const
    {
        m_.pendingAddrs(s, p, out);
    }

    std::vector<wo::LabeledSucc<State>>
    labeledSuccessors(const State &s) const
    {
        const auto t0 = Clock::now();
        auto r = m_.labeledSuccessors(s);
        threadSpanClock().step_ns += nsSince(t0);
        return r;
    }

    std::optional<State>
    stepLabel(const State &s, const wo::TransLabel &l) const
    {
        const auto t0 = Clock::now();
        auto r = m_.stepLabel(s, l);
        threadSpanClock().probe_ns += nsSince(t0);
        return r;
    }

    wo::StateHash
    hashState(const State &s) const
    {
        const auto t0 = Clock::now();
        const wo::StateHash h = m_.hashState(s);
        threadSpanClock().hash_ns += nsSince(t0);
        return h;
    }

  private:
    const M &m_;
};

/** Outcome-set hash plus the counters bit-identical at any jobs. */
std::string
exploreDigest(const wo::ExploreResult &r)
{
    std::vector<std::string> rows;
    for (const wo::Outcome &o : r.outcomes)
        rows.push_back(o.toString());
    return digestOf(std::move(rows)) + "/" + std::to_string(r.states) +
           "/" + std::to_string(r.transitions) + "/" +
           std::to_string(r.commutation_probes);
}

/** Explorer counters summed over explorations, for explore.* metrics. */
struct ExploreTotals
{
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t runs = 0, states = 0, transitions = 0, sleep_pruned = 0;
    std::uint64_t probes = 0, memo_hits = 0, visited_bytes = 0;

    void
    add(const wo::ExploreResult &r)
    {
        ++runs;
        states += r.states;
        transitions += r.transitions;
        sleep_pruned += r.sleep_pruned;
        probes += r.commutation_probes;
        memo_hits += r.memo_hits;
        visited_bytes += r.visited_bytes;
    }

    void
    merge(const ExploreTotals &o)
    {
        wall_s += o.wall_s;
        cpu_s += o.cpu_s;
        runs += o.runs;
        states += o.states;
        transitions += o.transitions;
        sleep_pruned += o.sleep_pruned;
        probes += o.probes;
        memo_hits += o.memo_hits;
        visited_bytes += o.visited_bytes;
    }
};

/**
 * explore.* from traced explorations: per-state span costs, the engine
 * remainder, and per-exploration counts (totals / runs).
 */
void
reportExplore(const ExploreTotals &t, const SpanClock &c, int jobs,
              Report &rep)
{
    const double st = std::max<double>(1, static_cast<double>(t.states));
    const double runs = std::max<double>(1, static_cast<double>(t.runs));
    const double spans =
        static_cast<double>(c.step_ns + c.probe_ns + c.hash_ns);
    rep.metric("explore.step_ns_per_state", c.step_ns / st, "ns");
    rep.metric("explore.probe_ns_per_state", c.probe_ns / st, "ns");
    rep.metric("explore.hash_ns_per_state", c.hash_ns / st, "ns");
    rep.metric("explore.engine_self_ns_per_state",
               std::max(0.0, 1e9 * t.cpu_s - spans) / st, "ns");
    rep.metric("explore.cpu_util",
               t.wall_s > 0 ? t.cpu_s / (t.wall_s * jobs) : 0, "ratio");
    rep.metric("explore.states", t.states / runs, "count");
    rep.metric("explore.transitions", t.transitions / runs, "count");
    rep.metric("explore.sleep_pruned", t.sleep_pruned / runs, "count");
    rep.metric("explore.commutation_probes", t.probes / runs, "count");
    rep.metric("explore.memo_hit_ratio",
               t.probes ? static_cast<double>(t.memo_hits) / t.probes : 0,
               "ratio");
    rep.metric("explore.visited_bytes", t.visited_bytes / runs, "B");
}

} // namespace

// ---- explore_dpor ---------------------------------------------------

void
exploreDpor(const Args &args, Report &rep)
{
    // The program is fixed and committed: the seed does not apply (see
    // README.md).  Set-up is what a user pays before exploring:
    // assembling the program and building the model.  It takes
    // microseconds, so a batch of set-ups precedes every exploration and
    // the median spans the whole window rather than one moment of it.
    const std::string path = args.program_dir +
                             (args.tiny ? "/explore_tiny.wo"
                                        : "/explore4x5.wo");
    std::optional<wo::Program> prog;
    std::vector<double> setup;
    auto setUp = [&] {
        for (int i = 0; i < 125; ++i) {
            const auto t0 = Clock::now();
            wo::AsmResult a = wo::assembleFile(path);
            if (!a.ok())
                return false;
            {
                const wo::WriteBufferModel model(*a.program);
                setup.push_back(since(t0));
            }
            if (!prog) // the explored program is the first one built
                prog = std::move(a.program);
        }
        return true;
    };
    if (!setUp()) {
        rep.check(false, "explore_dpor: cannot assemble " + path);
        return;
    }
    const wo::WriteBufferModel model(*prog);

    auto explore = [&](int jobs) {
        wo::ExploreCfg cfg;
        cfg.jobs = jobs;
        return wo::exploreOutcomesDpor(model, cfg);
    };
    auto failedRun = [](const wo::ExploreResult &r) {
        return r.truncated || r.stuck ? 1u : 0u;
    };

    // The first exploration warms the heap and is the reference every
    // later one must reproduce bit for bit.
    const wo::ExploreResult ref = explore(args.jobs);
    rep.attempt(1, failedRun(ref));
    const std::string digest =
        args.expect_digest.empty() ? exploreDigest(ref) : args.expect_digest;

    const double window = args.trace ? args.seconds * 0.3 : args.seconds;
    std::vector<double> wall;
    ExploreTotals untraced;
    const auto t0 = Clock::now();
    do {
        setUp();
        const double c0 = processCpuS();
        const auto e0 = Clock::now();
        const wo::ExploreResult r = explore(args.jobs);
        wall.push_back(since(e0));
        untraced.cpu_s += processCpuS() - c0;
        untraced.wall_s += wall.back();
        untraced.add(r);
        rep.attempt(1, failedRun(r));
        rep.check(exploreDigest(r) == digest,
                  "explore_dpor: exploration digest " + exploreDigest(r) +
                      " differs from " + digest);
    } while (since(t0) < window);

    // jobs invariance: the sequential engine must explore the same
    // fixpoint.
    const auto j0 = Clock::now();
    const wo::ExploreResult seq = explore(1);
    const double seq_s = since(j0);
    rep.attempt(1, failedRun(seq));
    rep.check(exploreDigest(seq) == digest,
              "explore_dpor: jobs=1 digest " + exploreDigest(seq) +
                  " differs from " + digest);

    double total = 0;
    for (double w : wall)
        total += w;
    rep.metric("cells_per_sec", static_cast<double>(wall.size()) / total,
               "1/s");
    rep.metric("verdict_s", median(wall), "s");
    rep.metric("cell_p50_ms", 1000.0 * median(wall), "ms");
    rep.metric("cell_p99_ms", 1000.0 * quantile(wall, 0.99), "ms");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.info.set("digest", wo::Json(digest));
    rep.info.set("explorations", wo::Json(static_cast<std::uint64_t>(
                                     wall.size())));
    rep.info.set("states", wo::Json(ref.states));
    rep.info.set("jobs1_s", wo::Json(seq_s));

    if (!args.trace)
        return;
    const double rate = static_cast<double>(untraced.states) /
                        std::max(1e-9, untraced.wall_s);
    rep.metric("explore.states_per_sec", rate, "1/s");
    rep.metric("explore.jobs1_states_per_sec",
               static_cast<double>(seq.states) / seq_s, "1/s");

    const Timed<wo::WriteBufferModel> timed(model);
    ExploreTotals traced;
    resetSpanClocks();
    const auto t1 = Clock::now();
    do {
        wo::ExploreCfg cfg;
        cfg.jobs = args.jobs;
        const double c0 = processCpuS();
        const auto e0 = Clock::now();
        const wo::ExploreResult r = wo::exploreOutcomesDpor(timed, cfg);
        traced.wall_s += since(e0);
        traced.cpu_s += processCpuS() - c0;
        traced.add(r);
        rep.attempt(1, failedRun(r));
        rep.check(exploreDigest(r) == digest,
                  "explore_dpor: traced digest " + exploreDigest(r) +
                      " differs from " + digest);
    } while (since(t1) < args.seconds * 0.5);
    // The utilization is the untraced engine's; the span split needs
    // the traced one.
    rep.metric("explore.cpu_util",
               untraced.cpu_s / (untraced.wall_s * args.jobs), "ratio");
    reportExplore(traced, sumSpanClocks(), args.jobs, rep);
    rep.metric("trace.cells_per_sec",
               static_cast<double>(traced.runs) / traced.wall_s, "1/s");
    rep.metric("trace.untraced_cells_per_sec",
               static_cast<double>(wall.size()) / total, "1/s");
    censusLayers(args, rep);
}

// ---- verify engines -------------------------------------------------

namespace {

struct alignas(64) VerifyLane
{
    double dpor_s = 0, bfs_s = 0, sc_s = 0, axiom_s = 0, drf0_s = 0;
    std::uint64_t pairs = 0, inconclusive = 0, exhausted = 0;
    ExploreTotals dpor;
};

/** The verify judge's engines on one (program, model) pair, each timed. */
void
verifyPair(const wo::Program &prog, const std::string &model,
           VerifyLane &lane)
{
    wo::ExploreCfg dpor_cfg;
    dpor_cfg.max_states = wo::CampaignCfg{}.max_states;
    wo::ExploreCfg bfs_cfg = dpor_cfg;
    bfs_cfg.algo = wo::ExploreAlgo::bfs;

    wo::ExploreResult dpor, bfs;
    wo::withModelByName(prog, model, [&](auto &m) {
        const Timed<std::decay_t<decltype(m)>> timed(m);
        const double c0 = threadCpuS();
        const auto t0 = Clock::now();
        dpor = wo::exploreOutcomesDpor(timed, dpor_cfg);
        lane.dpor_s += since(t0);
        lane.dpor.cpu_s += threadCpuS() - c0;
        const auto t1 = Clock::now();
        bfs = wo::exploreOutcomesBfs(m, bfs_cfg);
        lane.bfs_s += since(t1);
    });
    lane.dpor.wall_s = lane.dpor_s;
    lane.dpor.add(dpor);

    auto t = Clock::now();
    const wo::ScModel sc_model(prog);
    const wo::ExploreResult sc = wo::exploreOutcomesDpor(sc_model, dpor_cfg);
    lane.sc_s += since(t);
    t = Clock::now();
    const wo::AxiomResult ax = wo::axiomScOutcomes(prog);
    lane.axiom_s += since(t);
    t = Clock::now();
    const wo::SyncModelVerdict v = wo::checkDrf0(prog);
    lane.drf0_s += since(t);

    ++lane.pairs;
    lane.exhausted += v.exhausted;
    const bool extra = dpor.conclusive() && sc.conclusive() &&
                       !dpor.subsetOf(sc);
    lane.inconclusive +=
        !dpor.conclusive() || !bfs.conclusive() || !sc.conclusive() ||
        !ax.conclusive ||
        (extra && wo::modelClaimsConformance(model) && v.exhausted);
}

} // namespace

double
traceVerifyLayers(const std::vector<std::string> &models,
                  std::size_t programs, int threads, Report &rep)
{
    const auto &corpus = wo::litmusCorpus();
    programs = std::min(programs, corpus.size());
    const std::size_t n = programs * models.size();
    std::vector<VerifyLane> lanes(static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    resetSpanClocks();
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (VerifyLane &lane : lanes)
        pool.emplace_back([&, l = &lane] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;) {
                const wo::Program prog = corpus[i % programs].make();
                verifyPair(prog, models[i / programs], *l);
            }
        });
    for (auto &t : pool)
        t.join();
    const double wall = since(t0);

    VerifyLane tot;
    for (const VerifyLane &l : lanes) {
        tot.dpor_s += l.dpor_s;
        tot.bfs_s += l.bfs_s;
        tot.sc_s += l.sc_s;
        tot.axiom_s += l.axiom_s;
        tot.drf0_s += l.drf0_s;
        tot.pairs += l.pairs;
        tot.inconclusive += l.inconclusive;
        tot.exhausted += l.exhausted;
        tot.dpor.merge(l.dpor);
    }
    const double pairs = std::max<double>(1, static_cast<double>(tot.pairs));
    rep.metric("verify.dpor_ms", 1000.0 * tot.dpor_s / pairs, "ms");
    rep.metric("verify.bfs_ms", 1000.0 * tot.bfs_s / pairs, "ms");
    rep.metric("verify.sc_ms", 1000.0 * tot.sc_s / pairs, "ms");
    rep.metric("axiom.eval_ms", 1000.0 * tot.axiom_s / pairs, "ms");
    rep.metric("core.drf0_check_ms", 1000.0 * tot.drf0_s / pairs, "ms");
    rep.metric("verify.inconclusive", static_cast<double>(tot.inconclusive),
               "count");
    rep.metric("core.drf0_check_exhausted",
               static_cast<double>(tot.exhausted), "count");

    // explore.* on the verify pairs (sequential DPOR inside each pair).
    const double rate = static_cast<double>(tot.dpor.states) /
                        std::max(1e-9, tot.dpor.wall_s);
    rep.metric("explore.states_per_sec", rate, "1/s");
    rep.metric("explore.jobs1_states_per_sec", rate, "1/s");
    reportExplore(tot.dpor, sumSpanClocks(), 1, rep);
    rep.info.set("verify_pairs", wo::Json(tot.pairs));
    return wall > 0 ? static_cast<double>(tot.pairs) / wall : 0;
}

} // namespace pb
