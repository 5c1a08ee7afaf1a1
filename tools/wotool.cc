/**
 * @file
 * wotool -- the command-line front end to the weak-ordering laboratory.
 *
 *     wotool check   <file>
 *         DRF0 verdict for an assembly program: exit 0 when it obeys,
 *         1 with a racy witness execution, 3 when the state budget left
 *         the check inconclusive.
 *
 *     wotool explore <file> [--model sc|wb|net|stale|def1|drf0|drf0ro]
 *                    [--algo dpor|bfs|both] [--axiom] [--max-states N]
 *                    [--jobs N] [--witness N]
 *         Exhaustive outcome set on an abstract machine.  The default
 *         engine is sleep-set DPOR with hashed-state dedup; --algo bfs
 *         runs the naive golden reference instead, --algo both runs
 *         the two and compares outcome sets (plus the reduction
 *         ratio).  --jobs runs the DPOR search on N work-stealing
 *         threads; results are bit-identical to --jobs 1.  --axiom
 *         additionally cross-checks the operational SC machine against
 *         the independent axiomatic evaluator (src/axiom/).  Exit 0
 *         when everything agrees, 1 on an engine divergence, 3 when a
 *         state/step budget left the result inconclusive.  See
 *         docs/EXPLORE.md.
 *
 *     wotool verify  <file> [--model ...] [--max-states N]
 *         The verify judge's record (campaign/verify.hh), one line per
 *         check.  Exit 0 when the outcome set is within SC's, 1 when
 *         it escapes SC or any check is violated, 3 when a truncated
 *         or stuck exploration left the SC-subset check unanswered.
 *
 *     wotool run     <file> [--policy sc|def1|drf0|drf0ro] [--hop N]
 *                    [--jitter N] [--seed N] [--trace]
 *                    [--trace-json F] [--trace-jsonl F] [--stats-json F]
 *                    [--monitor] [--flight-recorder] [--flight-capacity N]
 *                    [--sample-interval N] [--sample-csv F]
 *                    [--dump-on-fail PREFIX] [--max-events N]
 *         Execute on the timed cache-coherent system; print the outcome,
 *         timing and statistics.  --trace-json writes a Chrome
 *         trace-event file (load it in Perfetto / chrome://tracing),
 *         --trace-jsonl a compact line-oriented log, --stats-json the
 *         unified metrics tree (see docs/OBSERVABILITY.md).  --monitor
 *         turns on the online SC/DRF0 invariant monitor,
 *         --flight-recorder the bounded always-on event ring,
 *         --sample-interval the periodic counter sampler, and
 *         --dump-on-fail the failure-evidence dump (PREFIX.trace.json,
 *         PREFIX.hb.dot, PREFIX.monitor.txt).
 *
 *     wotool monitor <file> [run options above]
 *         Run with the online monitor always on and print its verdict.
 *         Exit 0 when the run completed with no hardware violation
 *         (races are reported but, per Definition 2, blame software),
 *         1 on a hardware violation or a failed run.
 *
 *     wotool stats   <file> [--policy sc|def1|drf0|drf0ro]
 *         Run and print the metrics JSON to stdout.
 *
 *     wotool campaign [spec options] [--jobs N] [--time-budget SECS]
 *                     [--out-dir DIR] [--resume]
 *                     [--serve-port N] [--serve-addr A]
 *         The spec options ([--cells N] [--seed N] [--policy LIST]
 *         [--programs F1,F2,...] [--no-shrink] [--max-events N]
 *         [--inject-reserve-bug] [--verify] [--verify-models LIST]
 *         [--max-states N] [--explore-jobs N] [--inject-axiom-bug])
 *         describe the campaign; submit takes the same ones.
 *         Bulk Definition-2 verification: fan a fuzzed stream of
 *         (program x policy x seed) cells over a work-stealing worker
 *         fleet, shrink every hardware violation to a minimal .wo
 *         reproducer, and journal everything so a killed campaign
 *         resumes where it stopped.  Exits nonzero iff a hardware
 *         violation survived shrinking.  --verify switches the stream
 *         to model-checking cells (program x model): DPOR vs BFS vs
 *         axiomatic-SC cross-checks whose disagreements auto-file
 *         shrunk reproducers the same way (see docs/EXPLORE.md);
 *         --inject-axiom-bug seeds a deliberate axiomatic bug to
 *         exercise that path end to end.  --serve-port mounts the live
 *         control plane (/healthz, /metrics, /progress, /events); run
 *         and monitor accept it too.  See docs/CAMPAIGN.md and
 *         docs/OBSERVABILITY.md.
 *
 *     wotool report <out-dir> [--out F] [--title T] [--bench F,...]
 *         Merge a campaign's journal, summary, failure evidence and
 *         BENCH_*.json artifacts into one self-contained static
 *         report.html (inline CSS/JS, embedded hb witness SVGs).
 *
 *     wotool serve [--port N] [--addr A] [--out-dir DIR] [...]
 *     wotool worker --connect host:port [--jobs N] [...]
 *     wotool submit --connect host:port [spec options]
 *         The distributed fleet (src/fleet/, docs/FLEET.md): serve
 *         runs the long-lived coordinator, worker lends a process to
 *         it, submit enqueues a campaign against the warm fleet and
 *         exits with its verdict.
 *
 *     wotool disasm  <file>
 *         Parse and print back (normalizes labels/locations).
 *
 * The subcommand table below is the single source of truth for both
 * the usage text and the dispatcher, so the two cannot drift apart.
 *
 * See src/asm/assembler.hh for the input grammar.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unistd.h>
#include <vector>

#include "asm/assembler.hh"
#include "axiom/axiom_eval.hh"
#include "campaign/scheduler.hh"
#include "campaign/verify.hh"
#include "common/input_limits.hh"
#include "fleet/client.hh"
#include "fleet/coordinator.hh"
#include "fleet/proto.hh"
#include "fleet/worker.hh"
#include "core/drf0_checker.hh"
#include "core/lockset.hh"
#include "execution/trace_io.hh"
#include "hb/dot.hh"
#include "hb/lemma1.hh"
#include "hb/race.hh"
#include "models/model_registry.hh"
#include "obs/artifact.hh"
#include "obs/control_plane.hh"
#include "obs/httpd.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "sc/sc_checker.hh"
#include "sys/system.hh"

namespace wo {
namespace {

/**
 * One wotool subcommand.  The table (bottom of this file) drives the
 * usage text, the dispatcher and the accepted options, so a dispatchable
 * subcommand can never be missing from the usage text (and vice versa),
 * and an option its usage row does not list is refused.
 */
struct Command
{
    const char *name;
    /// When true, argv[2] is an assembly file that is parsed before
    /// dispatch; the handler receives the result.  When false the
    /// handler gets a null AsmResult and argv[2..] are all options.
    bool needs_program;
    int (*handler)(const AsmResult *a, int argc, char **argv);
    const char *help; //!< usage lines, each "  "-indented, '\n'-ended
};

extern const Command commands[];
extern const std::size_t num_commands;

int
usage()
{
    std::string names;
    for (std::size_t i = 0; i < num_commands; ++i)
        names += std::string(i ? "|" : "") + commands[i].name;
    std::fprintf(stderr, "usage: wotool <%s> [<file>] [options]\n",
                 names.c_str());
    for (std::size_t i = 0; i < num_commands; ++i)
        std::fputs(commands[i].help, stderr);
    return 2;
}

/**
 * Tiny argv scanner: returns the value of --name, or nullptr.  Scans
 * from argv[2] because campaign takes no file argument; for the file
 * subcommands argv[2] is a filename, which cannot equal "--name".
 */
const char *
opt(int argc, char **argv, const char *name)
{
    for (int i = 2; i < argc - 1; ++i)
        if (!std::strcmp(argv[i], name))
            return argv[i + 1];
    return nullptr;
}

bool
flag(int argc, char **argv, const char *name)
{
    for (int i = 2; i < argc; ++i)
        if (!std::strcmp(argv[i], name))
            return true;
    return false;
}

/**
 * Uniform bad-option diagnostic: every malformed value exits 2 the
 * same way, with a pointer at the usage text, no matter which
 * subcommand it came from.
 */
bool
badOpt(const char *name, const char *wanted, const char *got)
{
    std::fprintf(stderr,
                 "wotool: %s wants %s, got '%s'\n"
                 "        (run wotool with no arguments for usage)\n",
                 name, wanted, got);
    return false;
}

/**
 * Strict unsigned option: decimal digits only (input_limits.hh), from
 * @p min to @p max.
 */
bool
parseU64Opt(int argc, char **argv, const char *name, std::uint64_t min,
            std::uint64_t &out,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const char *v = opt(argc, argv, name);
    if (!v)
        return true;
    std::uint64_t x = 0;
    if (parseDecimal(v, x) && x >= min && x <= max) {
        out = x;
        return true;
    }
    const std::string wanted =
        max < std::numeric_limits<std::uint64_t>::max()
            ? strprintf("an integer from %llu to %llu",
                        static_cast<unsigned long long>(min),
                        static_cast<unsigned long long>(max))
        : min > 0 ? "a positive integer"
                  : "an integer";
    return badOpt(name, wanted.c_str(), v);
}

/**
 * Strict thread-count option (--jobs, --explore-jobs): 1 to
 * max_thread_count, refused past it rather than truncated.
 */
bool
parseThreadsOpt(int argc, char **argv, const char *name, int &out)
{
    const char *v = opt(argc, argv, name);
    if (!v || parseThreadCount(v, out))
        return true;
    const std::string wanted = strprintf(
        "a thread count from 1 to %llu",
        static_cast<unsigned long long>(max_thread_count));
    return badOpt(name, wanted.c_str(), v);
}

/** Strict int option (counts and timeouts other than threads). */
bool
parseIntOpt(int argc, char **argv, const char *name, int min, int &out)
{
    std::uint64_t x = static_cast<std::uint64_t>(out);
    if (!parseU64Opt(argc, argv, name, static_cast<std::uint64_t>(min), x,
                     1'000'000))
        return false;
    out = static_cast<int>(x);
    return true;
}

/**
 * Strict decimal number option (input_limits.hh): finite, and >= 0
 * (time budgets) or > 0 with @p positive (rates).  No hex, inf or nan.
 */
bool
parseDoubleOpt(int argc, char **argv, const char *name, double &out,
               bool positive = false)
{
    const char *v = opt(argc, argv, name);
    if (!v)
        return true;
    double x = 0;
    if (!parseDecimal(v, x) || !std::isfinite(x) || x < 0 ||
        (positive && x == 0))
        return badOpt(name,
                      positive ? "a positive number"
                               : "a non-negative number",
                      v);
    out = x;
    return true;
}

/** Strict --connect host:port (required for worker/submit). */
bool
parseConnectOpt(int argc, char **argv, HostPort &out)
{
    const char *v = opt(argc, argv, "--connect");
    if (!v) {
        badOpt("--connect", "host:port", "(missing)");
        return false;
    }
    if (!parseHostPort(v, out))
        return badOpt("--connect", "host:port with a port in 1..65535",
                      v);
    return true;
}

int
cmdCheck(const AsmResult *a, int, char **)
{
    const Program &prog = *a->program;
    auto v = checkDrf0(prog);
    std::printf("%s: %s\n", prog.name().c_str(), v.toString().c_str());
    if (v.witness) {
        std::printf("witness idealized execution:\n%s",
                    v.witness->toString().c_str());
        for (const auto &r : v.races)
            std::printf("  %s\n", r.toString(*v.witness).c_str());
    }
    return v.exhausted ? 3 : v.obeys ? 0 : 1;
}

/**
 * Dispatch to the model named by --model (default drf0) through the
 * shared registry (models/model_registry.hh), so the CLI surface and
 * the campaign's verify cells always spell the same machine list.
 */
template <typename Fn>
int
withModel(const Program &prog, const char *model, Fn &&fn)
{
    const std::string m = model ? model : "drf0";
    int rc = 2;
    if (!withModelByName(prog, m, [&](auto &mm) { rc = fn(mm); })) {
        std::fprintf(stderr, "unknown model '%s'\n", m.c_str());
        return 2;
    }
    return rc;
}

/** Is @p name a registered model flag name? */
bool
knownModel(const std::string &name)
{
    const auto &known = modelNames();
    return std::find(known.begin(), known.end(), name) != known.end();
}

/**
 * Exit contract (shared with `verify`): 0 all engines agree, 1 an
 * engine disagreement (a checker bug caught red-handed), 2 usage,
 * 3 inconclusive (a budget was hit; no verdict either way).  The
 * comparisons are the verify judge's checks 1 and 2.
 */
int
cmdExplore(const AsmResult *a, int argc, char **argv)
{
    const Program &prog = *a->program;
    ExploreCfg cfg;
    std::uint64_t witness_idx = 0;
    if (!parseU64Opt(argc, argv, "--max-states", 1, cfg.max_states) ||
        !parseU64Opt(argc, argv, "--witness", 0, witness_idx) ||
        !parseThreadsOpt(argc, argv, "--jobs", cfg.jobs))
        return 2;
    const bool want_witness = opt(argc, argv, "--witness") != nullptr;
    const char *algo_v = opt(argc, argv, "--algo");
    const std::string algo = algo_v ? algo_v : "dpor";
    if (algo != "dpor" && algo != "bfs" && algo != "both") {
        badOpt("--algo", "dpor|bfs|both", algo.c_str());
        return 2;
    }
    cfg.algo = algo == "bfs" ? ExploreAlgo::bfs : ExploreAlgo::dpor;
    const bool axiom = flag(argc, argv, "--axiom");

    return withModel(prog, opt(argc, argv, "--model"), [&](auto &model) {
        auto engineLine = [&](const char *engine,
                              const ExploreResult &r) {
            std::printf("%s on %s [%s]: %llu states, %zu outcome(s)%s%s\n",
                        prog.name().c_str(), model.name(), engine,
                        static_cast<unsigned long long>(r.states),
                        r.outcomes.size(),
                        r.truncated ? " [truncated]" : "",
                        r.stuck ? " [stuck states]" : "");
        };
        auto r = exploreOutcomes(model, cfg);
        engineLine(algo == "bfs" ? "bfs" : "dpor", r);
        if (cfg.algo == ExploreAlgo::dpor) {
            std::printf("  dpor: %llu transitions, %llu sleep-pruned, "
                        "%llu revisits deduplicated\n",
                        static_cast<unsigned long long>(r.transitions),
                        static_cast<unsigned long long>(r.sleep_pruned),
                        static_cast<unsigned long long>(
                            r.revisit_pruned));
            std::printf("  dpor: %llu commutation probes, %llu "
                        "visited-table bytes, %d job(s)\n",
                        static_cast<unsigned long long>(
                            r.commutation_probes),
                        static_cast<unsigned long long>(r.visited_bytes),
                        cfg.jobs);
        }
        std::size_t idx = 0;
        for (const auto &o : r.outcomes)
            std::printf("  #%zu %s\n", idx++, o.toString().c_str());

        // Exit 1 on any violated check, else 3 on the first unknown.
        int rc = 0;
        std::string why = r.conclusive() ? ""
                                         : "a state budget was hit (raise "
                                           "--max-states)";
        auto report = [&](const char *name, const CheckRecord &c) {
            std::printf("%s", c.report(name).c_str());
            if (c.state == CheckState::violated)
                rc = 1;
            else if (c.state == CheckState::unknown && why.empty())
                why = c.reason;
        };
        if (algo == "both") {
            auto b = exploreOutcomesBfs(model, cfg);
            engineLine("bfs", b);
            report("dpor_divergence", checkEngines(r, b));
            std::printf("DPOR visited %llu of %llu BFS states (%.1f%%)\n",
                        static_cast<unsigned long long>(r.states),
                        static_cast<unsigned long long>(b.states),
                        b.states ? 100.0 * static_cast<double>(r.states) /
                                       static_cast<double>(b.states)
                                 : 100.0);
        }
        if (axiom) {
            const AxiomResult ax = axiomScOutcomes(prog);
            std::printf("axiomatic SC: %zu outcome(s), %llu candidates, "
                        "%llu judgements\n",
                        ax.outcomes.size(),
                        static_cast<unsigned long long>(ax.candidates),
                        static_cast<unsigned long long>(ax.judgements));
            report("axiom_divergence",
                   checkAxiom(ax, exploreOutcomes(ScModel(prog), cfg)));
        }

        if (want_witness) {
            if (witness_idx >= r.outcomes.size()) {
                std::fprintf(stderr, "--witness %llu out of range\n",
                             static_cast<unsigned long long>(
                                 witness_idx));
                return 2;
            }
            auto it = r.outcomes.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(witness_idx));
            const auto chain =
                witnessChain(model,
                             [&](const auto &s) {
                                 return model.isFinal(s) &&
                                        model.outcome(s) == *it;
                             })
                    .chain;
            std::printf("\nwitness chain for outcome #%llu "
                        "(%zu states):\n",
                        static_cast<unsigned long long>(witness_idx),
                        chain.size());
            for (std::size_t k = 0; k < chain.size(); ++k) {
                std::printf("--- state %zu ---\n%s", k,
                            model.dump(chain[k]).c_str());
            }
        }
        if (rc == 0 && !why.empty()) {
            std::printf("inconclusive: %s\n", why.c_str());
            rc = 3;
        }
        return rc;
    });
}

int
cmdVerify(const AsmResult *a, int argc, char **argv)
{
    const Program &prog = *a->program;
    VerifyCfg cfg;
    cfg.max_states = ExploreCfg{}.max_states;
    if (!parseU64Opt(argc, argv, "--max-states", 1, cfg.max_states))
        return 2;
    const char *model_v = opt(argc, argv, "--model");
    const std::string model = model_v ? model_v : "drf0";
    if (!knownModel(model)) {
        std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
        return 2;
    }
    const VerifyResult r = verifyProgramOnModel(prog, model, cfg);
    std::printf("%s on %s:\n%s", prog.name().c_str(), model.c_str(),
                r.detail().c_str());
    if (r.violation() || r.nonsc())
        return 1;
    return r.def2.state == CheckState::agree ? 0 : 3;
}

bool
parsePolicy(int argc, char **argv, OrderingPolicy &out)
{
    const char *pol = opt(argc, argv, "--policy");
    if (parsePolicyName(pol ? pol : "drf0", out))
        return true;
    std::fprintf(stderr, "unknown policy '%s'\n", pol);
    return false;
}

/** Write @p text to @p path, reporting success on stdout. */
int
emitFile(const char *path, const std::string &text, const char *what)
{
    if (!writeFile(path, text)) {
        std::fprintf(stderr, "cannot write '%s'\n", path);
        return 2;
    }
    std::printf("wrote %s to %s\n", what, path);
    return 0;
}

/** --profile / --profile-hz / --profile-out (run, monitor, campaign);
 *  either value option implies --profile. */
bool
parseProfileOpts(int argc, char **argv, bool &profile, double &hz,
                 std::string &out)
{
    profile = flag(argc, argv, "--profile") ||
              opt(argc, argv, "--profile-hz");
    if (!parseDoubleOpt(argc, argv, "--profile-hz", hz, true))
        return false;
    if (const char *v = opt(argc, argv, "--profile-out")) {
        profile = true;
        out = v;
    }
    return true;
}

/** Shared option parsing for the run/monitor subcommands. */
bool
parseRunCfg(int argc, char **argv, SystemCfg &cfg)
{
    if (!parsePolicy(argc, argv, cfg.policy))
        return false;
    // Strict numeric options: trailing garbage ("10x", "3,000") exits 2
    // with the uniform badOpt diagnostic, never silently truncates.
    std::uint64_t flight_capacity = cfg.flight_recorder_capacity;
    if (!parseU64Opt(argc, argv, "--hop", 0, cfg.net.hop_latency) ||
        !parseU64Opt(argc, argv, "--jitter", 0, cfg.net.jitter) ||
        !parseU64Opt(argc, argv, "--seed", 0, cfg.net.seed) ||
        !parseU64Opt(argc, argv, "--flight-capacity", 1,
                     flight_capacity) ||
        !parseU64Opt(argc, argv, "--sample-interval", 0,
                     cfg.sample_interval) ||
        !parseU64Opt(argc, argv, "--max-events", 1, cfg.max_events))
        return false;
    cfg.monitor = flag(argc, argv, "--monitor");
    cfg.flight_recorder =
        flag(argc, argv, "--flight-recorder") ||
        opt(argc, argv, "--flight-capacity") != nullptr;
    cfg.flight_recorder_capacity =
        static_cast<std::size_t>(flight_capacity);
    if (const char *v = opt(argc, argv, "--dump-on-fail"))
        cfg.dump_on_fail = v;
    if (!parseProfileOpts(argc, argv, cfg.profile, cfg.profile_hz,
                          cfg.profile_out))
        return false;
    if (cfg.profile && cfg.profile_out.empty())
        cfg.profile_out = "profile.folded.txt";
    // Fault injection, so a campaign-shrunk counterexample can be
    // replayed under the same (buggy) cache it was found on.
    if (flag(argc, argv, "--inject-reserve-bug"))
        cfg.cache.bug_drop_reserve_clear = true;
    return true;
}

/** Post-run artifact emission common to run/monitor. */
int
emitRunArtifacts(const SystemCfg &cfg, const SystemResult &r, int argc,
                 char **argv)
{
    if (cfg.profile && !cfg.profile_out.empty())
        std::printf("wrote profile (folded stacks) to %s\n",
                    cfg.profile_out.c_str());
    if (const char *path = opt(argc, argv, "--sample-csv")) {
        if (r.sampler_csv.empty()) {
            std::fprintf(stderr,
                         "--sample-csv requires --sample-interval N\n");
            return 2;
        }
        if (int rc = emitFile(path, r.sampler_csv, "sampler CSV"))
            return rc;
    }
    return 0;
}

/** Parse --serve-port/--serve-addr (call only when --serve-port is
 *  present).  Prints and returns false on a bad value. */
bool
parseServeOpts(int argc, char **argv, HttpServerCfg &scfg)
{
    std::uint64_t port = 0;
    if (!parseU64Opt(argc, argv, "--serve-port", 0, port, 65535))
        return false;
    scfg.port = static_cast<std::uint16_t>(port);
    if (const char *a = opt(argc, argv, "--serve-addr"))
        scfg.addr = a;
    return true;
}

/**
 * Bind the --serve-port control plane; the caller mounts its routes on
 * it (routes may be added while serving).  @p out stays null when
 * serving was not requested; false (error printed) on a bad flag or
 * bind failure.
 */
bool
startControlPlane(int argc, char **argv, const char *who,
                  const char *routes, std::unique_ptr<HttpServer> &out)
{
    if (!opt(argc, argv, "--serve-port"))
        return true;
    HttpServerCfg scfg;
    if (!parseServeOpts(argc, argv, scfg))
        return false;
    out = std::make_unique<HttpServer>(scfg);
    if (!out->start()) {
        std::fprintf(stderr, "cannot start control plane: %s\n",
                     out->lastError().c_str());
        return false;
    }
    std::fprintf(stderr, "[%s] control plane on http://%s:%u (%s)\n", who,
                 scfg.addr.c_str(), out->port(), routes);
    return true;
}

/**
 * The run/monitor control plane: the campaign's surface, serving the
 * most recently published stats snapshot.  The single-run simulator
 * is not instrumented with the live atomics a campaign has, so the
 * snapshot appears when the run completes (until then both /metrics
 * and /progress read {"done": false}); the server answers from
 * bind until command exit, which lets an external scraper distinguish
 * "starting", "running" and "finished" without races.
 */
class RunServe
{
  public:
    /// Parse the serve flags and bind.  Returns 0 when serving was not
    /// requested, 1 on success, -1 on failure (error already printed;
    /// the caller exits 2).
    int maybeStart(int argc, char **argv)
    {
        if (!startControlPlane(argc, argv, "serve",
                               "/healthz /metrics /progress /events", srv_))
            return -1;
        if (!srv_)
            return 0;
        const auto snapshot = [this] {
            std::lock_guard<std::mutex> lk(mu_);
            if (!stats_.isNull())
                return stats_;
            Json j = Json::object();
            j.set("done", Json(false));
            return j;
        };
        mountControlPlane(*srv_, "wo",
                          {snapshot, snapshot,
                           [this](std::vector<std::size_t> &, std::string &) {
                               std::lock_guard<std::mutex> lk(mu_);
                               return !stats_.isNull();
                           }});
        return 1;
    }

    /// Publish the finished run's metrics tree to /metrics + /progress.
    void publish(const std::string &stats_json)
    {
        JsonParseResult p = jsonParse(stats_json);
        std::lock_guard<std::mutex> lk(mu_);
        if (p.ok)
            stats_ = std::move(p.value);
    }

  private:
    std::mutex mu_;
    Json stats_;
    // Declared last, so it stops before the state its handlers read.
    std::unique_ptr<HttpServer> srv_;
};

/**
 * The timed-run front end of run, monitor and stats: build one System
 * for the file's program, apply its `warm` terms, run it, and hand the
 * machine and its result to @p report, whose value is the exit code.
 * With @p served (run, monitor) the --serve-port control plane is bound
 * first and answers until the command returns, the result is published
 * to it, and the headline and outcome lines are printed before
 * @p report runs.
 */
template <typename Report>
int
timedRun(const AsmResult &a, const SystemCfg &cfg, bool served, int argc,
         char **argv, Report &&report)
{
    const Program &prog = *a.program;
    RunServe serve;
    if (served && serve.maybeStart(argc, argv) < 0)
        return 2;
    System sys(prog, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    const SystemResult r = sys.run();
    if (served) {
        serve.publish(r.stats_json);
        std::printf("%s under %s: %s, finish tick %llu\n",
                    prog.name().c_str(), policyName(cfg.policy),
                    r.completed
                        ? "completed"
                        : (r.deadlocked ? "DEADLOCKED" : "LIVELOCKED"),
                    static_cast<unsigned long long>(r.finish_tick));
        std::printf("outcome: %s\n", r.outcome.toString().c_str());
    }
    return report(sys, r);
}

int
cmdRun(const AsmResult *a, int argc, char **argv)
{
    const Program &prog = *a->program;
    SystemCfg cfg;
    if (!parseRunCfg(argc, argv, cfg))
        return 2;
    const char *trace_json = opt(argc, argv, "--trace-json");
    const char *trace_jsonl = opt(argc, argv, "--trace-jsonl");
    const char *stats_json = opt(argc, argv, "--stats-json");
    cfg.trace = trace_json || trace_jsonl;

    return timedRun(*a, cfg, true, argc, argv,
                    [&](const System &sys, const SystemResult &r) {
        auto sc = checkSequentialConsistency(r.execution);
        std::printf("execution is %sSC-explainable\n", sc.sc ? "" : "NOT ");
        if (cfg.monitor)
            std::fputs(r.monitor_report.c_str(), stdout);
        if (flag(argc, argv, "--trace")) {
            std::printf("trace:\n%s", r.execution.toString().c_str());
            std::printf("stats:\n%s", r.stats.c_str());
        }
        if (const char *path = opt(argc, argv, "--save-trace"))
            if (int rc = emitFile(path, traceToText(r.execution), "trace"))
                return rc;
        if (const char *path = opt(argc, argv, "--dot")) {
            DotCfg dc;
            dc.title = prog.name() + " on " + policyName(cfg.policy);
            if (int rc = emitFile(path, executionToDot(r.execution, dc),
                                  "happens-before graph"))
                return rc;
        }
        if (trace_json)
            if (int rc = emitFile(trace_json, sys.obs().chromeTraceJson(),
                                  "Chrome trace"))
                return rc;
        if (trace_jsonl)
            if (int rc = emitFile(trace_jsonl, sys.obs().traceJsonl(),
                                  "trace JSONL"))
                return rc;
        if (stats_json)
            if (int rc = emitFile(stats_json, r.stats_json + "\n",
                                  "metrics JSON"))
                return rc;
        if (int rc = emitRunArtifacts(cfg, r, argc, argv))
            return rc;
        // A run fails when it never finished, when it produced a
        // non-SC-explainable history, or when the monitor caught the
        // hardware red-handed.
        if (!r.completed || !sc.sc)
            return 1;
        if (cfg.monitor && r.monitor_hw_violations > 0)
            return 1;
        return 0;
    });
}

int
cmdMonitor(const AsmResult *a, int argc, char **argv)
{
    SystemCfg cfg;
    if (!parseRunCfg(argc, argv, cfg))
        return 2;
    cfg.monitor = true;
    return timedRun(*a, cfg, true, argc, argv,
                    [&](const System &, const SystemResult &r) {
        std::fputs(r.monitor_report.c_str(), stdout);
        if (int rc = emitRunArtifacts(cfg, r, argc, argv))
            return rc;
        // Races blame software (Definition 2 voids the contract), so a
        // racy-but-hardware-clean run still exits 0; only a broken run
        // or a hardware violation is a failure.
        return (r.completed && r.monitor_hw_violations == 0) ? 0 : 1;
    });
}

int
cmdStats(const AsmResult *a, int argc, char **argv)
{
    SystemCfg cfg;
    if (!parsePolicy(argc, argv, cfg.policy))
        return 2;
    return timedRun(*a, cfg, false, argc, argv,
                    [](const System &, const SystemResult &r) {
        std::printf("%s\n", r.stats_json.c_str());
        return r.completed ? 0 : 1;
    });
}

int
cmdLitmus(const AsmResult *a, int, char **)
{
    const Program &prog = *a->program;
    if (a->probe.empty()) {
        std::fprintf(stderr,
                     "%s has no 'probe' directives to evaluate\n",
                     prog.name().c_str());
        return 2;
    }
    std::string cond;
    for (const auto &t : a->probe)
        cond += (cond.empty() ? "" : " & ") + t.toString();
    std::printf("%s: probe %s\n", prog.name().c_str(), cond.c_str());

    // A found witness outcome is definite even under truncation, but
    // "forbidden" needs the full state space: a truncated or stuck
    // exploration without a witness is only INCONCLUSIVE.
    int rc = 0;
    for (const std::string &name : modelNames()) {
        withModelByName(prog, name, [&](auto &model) {
            auto r = exploreOutcomes(model);
            bool allowed = false;
            for (const auto &o : r.outcomes)
                allowed = allowed || probeMatches(a->probe, o);
            const bool conclusive = allowed || r.conclusive();
            std::printf("  %-7s %-22s %s\n", name.c_str(), model.name(),
                        allowed      ? "ALLOWED"
                        : conclusive ? "forbidden"
                                     : "INCONCLUSIVE");
            // The exit code answers the probe on the SC machine.
            if (name == "sc")
                rc = allowed ? 0 : conclusive ? 1 : 3;
        });
    }
    return rc;
}

int
cmdAnalyzeTrace(const AsmResult *, int, char **argv)
{
    const char *path = argv[2];
    TraceParseResult t = traceFromFile(path);
    if (!t.ok()) {
        for (const auto &e : t.errors)
            std::fprintf(stderr, "%s: %s\n", path, e.toString().c_str());
        return 2;
    }
    const Execution &e = *t.execution;
    std::printf("trace: %u processors, %zu operations\n", e.numProcs(),
                e.ops().size());
    std::string why;
    if (!e.valuesPlausible(&why))
        std::printf("values: implausible (%s)\n", why.c_str());
    auto sc = checkSequentialConsistency(e);
    std::printf("SC-explainable: %s (%llu states searched)\n",
                sc.sc ? "yes" : "NO",
                static_cast<unsigned long long>(sc.states));
    auto races = findRaces(e);
    std::printf("races under DRF0 happens-before: %zu\n", races.size());
    for (const auto &r : races)
        std::printf("  %s\n", r.toString(e).c_str());
    auto lemma = checkHbLastWrite(e);
    std::printf("Lemma-1 (hb-last-write) witness: %s\n",
                lemma.ok ? "holds" : "fails");
    for (const auto &v : lemma.violations)
        std::printf("  %s\n", v.toString(e).c_str());
    return sc.sc ? 0 : 1;
}

/**
 * The campaign-spec options, shared by `campaign` and `submit`: both
 * describe the same CampaignSpec, one run locally, one on a fleet.
 */
bool
parseSpecOpts(int argc, char **argv, CampaignSpec &spec)
{
    if (!parseU64Opt(argc, argv, "--cells", 1, spec.cells,
                     max_cell_count) ||
        !parseU64Opt(argc, argv, "--seed", 0, spec.seed) ||
        !parseU64Opt(argc, argv, "--max-events", 1, spec.max_events) ||
        !parseU64Opt(argc, argv, "--shrink-max-runs", 1,
                     spec.shrink_max_runs) ||
        !parseU64Opt(argc, argv, "--max-states", 1, spec.max_states) ||
        !parseThreadsOpt(argc, argv, "--explore-jobs", spec.explore_jobs))
        return false;
    if (const char *v = opt(argc, argv, "--policy")) {
        spec.policies.clear();
        for (const auto &name : splitCommas(v)) {
            OrderingPolicy p;
            if (!parsePolicyName(name, p))
                return badOpt("--policy",
                              "a comma list of sc|def1|drf0|drf0ro",
                              name.c_str());
            spec.policies.push_back(p);
        }
        if (spec.policies.empty())
            return badOpt("--policy", "at least one policy name", v);
    }
    if (const char *v = opt(argc, argv, "--programs"))
        spec.program_files = splitCommas(v);
    spec.shrink = !flag(argc, argv, "--no-shrink");
    spec.inject_reserve_bug = flag(argc, argv, "--inject-reserve-bug");
    // Verify campaigns: model-check program x model cells (dual-engine
    // explorer + axiomatic cross-check) instead of timed simulations.
    spec.verify = flag(argc, argv, "--verify");
    if (const char *v = opt(argc, argv, "--verify-models")) {
        spec.verify = true;
        for (const auto &name : splitCommas(v)) {
            if (!knownModel(name))
                return badOpt("--verify-models",
                              "a comma list of sc|wb|net|stale|def1|"
                              "drf0|drf0ro",
                              name.c_str());
            spec.verify_models.push_back(name);
        }
        if (spec.verify_models.empty())
            return badOpt("--verify-models", "at least one model name",
                          v);
    }
    if (flag(argc, argv, "--inject-axiom-bug")) {
        spec.verify = true;
        spec.inject_axiom_bug = true;
    }
    return true;
}

int
cmdCampaign(const AsmResult *, int argc, char **argv)
{
    CampaignCfg cfg;
    if (!parseSpecOpts(argc, argv, cfg) ||
        !parseThreadsOpt(argc, argv, "--jobs", cfg.jobs) ||
        !parseDoubleOpt(argc, argv, "--time-budget",
                        cfg.time_budget_s) ||
        !parseU64Opt(argc, argv, "--sync-every", 1, cfg.sync_every))
        return 2;
    if (const char *v = opt(argc, argv, "--out-dir"))
        cfg.out_dir = v;
    if (const char *v = opt(argc, argv, "--journal"))
        cfg.journal_path = v;
    cfg.frontier = !flag(argc, argv, "--no-frontier");
    cfg.resume = flag(argc, argv, "--resume");
    if (!parseProfileOpts(argc, argv, cfg.profile, cfg.profile_hz,
                          cfg.profile_out))
        return 2;
    cfg.progress = isatty(fileno(stderr)) != 0;

    // The live control plane: bind before the fleet spawns so an
    // early scrape sees zeros rather than a refused connection.
    // runCampaign mounts the routes and stops the server before
    // returning, so its handlers never outlive the engine.
    std::unique_ptr<HttpServer> server;
    if (!startControlPlane(argc, argv, "campaign",
                           "/healthz /metrics /progress /events", server))
        return 2;
    cfg.serve = server.get();

    CampaignSummary sum = runCampaign(cfg);
    std::fputs(sum.table().c_str(), stdout);
    return sum.hardwareClean() ? 0 : 1;
}

int
cmdReport(const AsmResult *, int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "report wants a campaign out-dir argument\n");
        return 2;
    }
    ReportCfg cfg;
    cfg.out_dir = argv[2];
    if (const char *v = opt(argc, argv, "--out"))
        cfg.html_path = v;
    if (const char *v = opt(argc, argv, "--title"))
        cfg.title = v;
    if (const char *v = opt(argc, argv, "--bench"))
        cfg.bench_files = splitCommas(v);
    std::string error;
    const std::string path = writeCampaignReport(cfg, &error);
    if (path.empty()) {
        std::fprintf(stderr, "report: %s\n", error.c_str());
        return 2;
    }
    std::printf("wrote campaign report to %s\n", path.c_str());
    return 0;
}

// --- the distributed fleet (src/fleet/, docs/FLEET.md) ---------------

int
cmdServe(const AsmResult *, int argc, char **argv)
{
    CoordinatorCfg cfg;
    std::uint64_t port = 0;
    int lease_timeout = cfg.lease_timeout_ms;
    if (!parseU64Opt(argc, argv, "--port", 0, port, 65535) ||
        !parseU64Opt(argc, argv, "--shard-size", 1, cfg.shard_size) ||
        !parseIntOpt(argc, argv, "--lease-timeout", 1, lease_timeout) ||
        !parseIntOpt(argc, argv, "--max-outstanding", 1,
                     cfg.max_outstanding) ||
        !parseU64Opt(argc, argv, "--sync-every", 1, cfg.sync_every) ||
        !parseIntOpt(argc, argv, "--max-campaigns", 0,
                     cfg.max_campaigns))
        return 2;
    cfg.port = static_cast<std::uint16_t>(port);
    cfg.lease_timeout_ms = lease_timeout;
    if (const char *v = opt(argc, argv, "--addr"))
        cfg.addr = v;
    if (const char *v = opt(argc, argv, "--out-dir"))
        cfg.out_dir = v;
    cfg.resume = flag(argc, argv, "--resume");
    cfg.verbose = flag(argc, argv, "--verbose");

    std::unique_ptr<HttpServer> server;
    if (!startControlPlane(argc, argv, "serve",
                           "/healthz /metrics /progress /events", server))
        return 2;
    cfg.serve = server.get();

    Coordinator coord(cfg);
    if (!coord.start()) {
        std::fprintf(stderr, "serve: %s\n", coord.lastError().c_str());
        return 2;
    }
    // Scripts (and the CI smoke job) discover an ephemeral port here.
    writeFile(cfg.out_dir + "/serve.port",
              strprintf("%u\n", coord.port()));
    std::fprintf(stderr,
                 "[serve] fleet coordinator on %s:%u (out-dir %s)\n",
                 cfg.addr.c_str(), coord.port(), cfg.out_dir.c_str());
    coord.waitDone();
    coord.stop();
    std::fprintf(stderr, "[serve] done: %d campaign(s) completed\n",
                 coord.campaignsCompleted());
    return 0;
}

int
cmdWorker(const AsmResult *, int argc, char **argv)
{
    WorkerCfg cfg;
    if (!parseConnectOpt(argc, argv, cfg.connect) ||
        !parseThreadsOpt(argc, argv, "--jobs", cfg.jobs) ||
        !parseIntOpt(argc, argv, "--heartbeat-ms", 1, cfg.heartbeat_ms))
        return 2;
    if (const char *v = opt(argc, argv, "--name"))
        cfg.name = v;
    cfg.verbose = !flag(argc, argv, "--quiet");

    FleetWorker worker(cfg);
    if (!worker.connectAndRun()) {
        std::fprintf(stderr, "worker: %s\n",
                     worker.lastError().c_str());
        return 1;
    }
    return 0;
}

int
cmdSubmit(const AsmResult *, int argc, char **argv)
{
    SubmitCfg cfg;
    if (!parseConnectOpt(argc, argv, cfg.connect) ||
        !parseSpecOpts(argc, argv, cfg.spec))
        return 2;
    int idle_timeout = 0;
    if (!parseIntOpt(argc, argv, "--idle-timeout", 1, idle_timeout))
        return 2;
    cfg.idle_timeout_ms = idle_timeout;
    cfg.quiet = flag(argc, argv, "--quiet");

    SubmitResult r = submitCampaign(cfg);
    if (!r.ok) {
        std::fprintf(stderr, "submit: %s\n", r.error.c_str());
        return 2;
    }
    std::printf("%s\n", r.summary.dump(1).c_str());
    // Same verdict contract as `wotool campaign`: nonzero iff the
    // hardware was caught misbehaving.
    return r.hardware_clean ? 0 : 1;
}

int
cmdLockset(const AsmResult *a, int, char **)
{
    const Program &prog = *a->program;
    auto r = checkLockDiscipline(prog);
    if (r.certified) {
        std::printf("%s: CERTIFIED by the static monitor discipline\n",
                    prog.name().c_str());
        for (Addr addr = 0; addr < prog.numLocations(); ++addr)
            for (Addr l : r.protection[addr])
                std::printf("  %s protected by %s\n",
                            prog.locationName(addr).c_str(),
                            prog.locationName(l).c_str());
        return 0;
    }
    std::printf("%s: not certified:\n", prog.name().c_str());
    for (const auto &i : r.issues)
        std::printf("  %s\n", i.toString(prog).c_str());
    return 1;
}

int
cmdDisasm(const AsmResult *a, int, char **)
{
    std::printf("%s", disassemble(*a->program).c_str());
    return 0;
}

/**
 * The single source of truth for wotool's surface: usage() prints it,
 * toolMain() dispatches from it.  Every subcommand, including stats
 * and campaign, must have a row here.
 */
const Command commands[] = {
    {"check", true, cmdCheck, "  check <file>\n"},
    {"explore", true, cmdExplore,
     "  explore <file> [--model sc|wb|net|stale|def1|drf0|drf0ro]\n"
     "          [--algo dpor|bfs|both] [--axiom] [--max-states N]\n"
     "          [--jobs N] [--witness N]   (exit 1 on engine\n"
     "          divergence, 3 when a budget made the result\n"
     "          inconclusive; --jobs N explores on N work-stealing\n"
     "          threads with bit-identical results)\n"},
    {"verify", true, cmdVerify,
     "  verify <file> [--model sc|wb|net|stale|def1|drf0|drf0ro]\n"
     "         [--max-states N]   (one line per check; exit 1 when\n"
     "         outcomes escape SC or a check is violated, 3 when\n"
     "         the SC-subset check has no answer)\n"},
    {"run", true, cmdRun,
     "  run <file> [--policy sc|def1|drf0|drf0ro] [--hop N]\n"
     "      [--jitter N] [--seed N] [--trace] [--dot F]\n"
     "      [--save-trace F] [--trace-json F] [--trace-jsonl F]\n"
     "      [--stats-json F] [--monitor] [--flight-recorder]\n"
     "      [--flight-capacity N] [--sample-interval N]\n"
     "      [--sample-csv F] [--dump-on-fail PREFIX]\n"
     "      [--max-events N] [--inject-reserve-bug]\n"
     "      [--profile] [--profile-hz N] [--profile-out F]\n"
     "      [--serve-port N] [--serve-addr A]\n"},
    {"monitor", true, cmdMonitor,
     "  monitor <file> [run options]  (always-on monitor verdict;\n"
     "          exit 1 on hardware violation or failed run)\n"},
    {"stats", true, cmdStats,
     "  stats <file> [--policy sc|def1|drf0|drf0ro]  (metrics JSON\n"
     "        on stdout)\n"},
    {"campaign", false, cmdCampaign,
     "  campaign [spec options] [--jobs N] [--time-budget SECS]\n"
     "           [--out-dir DIR] [--journal F] [--resume]\n"
     "           [--no-frontier] [--sync-every N]\n"
     "           [--profile] [--profile-hz N] [--profile-out F]\n"
     "           [--serve-port N] [--serve-addr A]\n"
     "           (bulk verification; exit 1 iff a hardware violation\n"
     "           survived shrinking; --verify model-checks program x\n"
     "           model cells -- DPOR vs BFS vs axiomatic SC -- and\n"
     "           files shrunk reproducers for any disagreement;\n"
     "           --profile writes folded stacks +\n"
     "           a per-worker Chrome trace under --out-dir;\n"
     "           --serve-port exposes the live /healthz /metrics\n"
     "           /progress /events control plane; --no-frontier runs\n"
     "           the deterministic base stream only)\n"
     "      spec options (campaign and submit): [--cells N] [--seed N]\n"
     "           [--policy sc,def1,drf0,...] [--programs F1,F2,...]\n"
     "           [--max-events N] [--no-shrink] [--shrink-max-runs N]\n"
     "           [--inject-reserve-bug] [--verify]\n"
     "           [--verify-models sc,wb,net,...] [--max-states N]\n"
     "           [--explore-jobs N] [--inject-axiom-bug]\n"},
    {"serve", false, cmdServe,
     "  serve [--port N] [--addr A] [--out-dir DIR] [--shard-size N]\n"
     "        [--lease-timeout MS] [--max-outstanding N]\n"
     "        [--sync-every N] [--resume] [--max-campaigns N]\n"
     "        [--serve-port N] [--serve-addr A] [--verbose]\n"
     "        (long-running fleet coordinator; shards submitted\n"
     "        campaigns into worker leases, merges one crash-safe\n"
     "        journal per campaign under --out-dir, writes the bound\n"
     "        port to <out-dir>/serve.port; --resume re-leases only\n"
     "        the unjournaled cells; see docs/FLEET.md)\n"},
    {"worker", false, cmdWorker,
     "  worker --connect host:port [--name S] [--jobs N]\n"
     "         [--heartbeat-ms N] [--quiet]\n"
     "         (lend this process to a fleet: runs leased cells,\n"
     "         shrinks failures locally, streams results back)\n"},
    {"submit", false, cmdSubmit,
     "  submit --connect host:port [spec options]\n"
     "         [--idle-timeout MS] [--quiet]\n"
     "         (enqueue a campaign on a warm fleet, stream progress,\n"
     "         exit with the campaign verdict: 1 iff a hardware\n"
     "         violation was found)\n"},
    {"report", false, cmdReport,
     "  report <out-dir> [--out F] [--title T] [--bench F1,F2,...]\n"
     "         (merge the campaign journal, evidence bundles and\n"
     "         BENCH_*.json into one self-contained report.html)\n"},
    {"lockset", true, cmdLockset, "  lockset <file>\n"},
    {"litmus", true, cmdLitmus,
     "  litmus <file>   (evaluate the file's 'probe' condition on\n"
     "         every abstract machine)\n"},
    {"disasm", true, cmdDisasm, "  disasm <file>\n"},
    {"analyze-trace", false, cmdAnalyzeTrace,
     "  analyze-trace <file>  (file is a trace, not a program;\n"
     "                SC check + race report + Lemma 1)\n"},
};
const std::size_t num_commands =
    sizeof(commands) / sizeof(commands[0]);

/** Does @p help list the option @p name (whole, not as a prefix)? */
bool
helpListsOption(const std::string &help, const char *name)
{
    const std::size_t len = std::strlen(name);
    for (std::size_t at = help.find(name); at != std::string::npos;
         at = help.find(name, at + 1)) {
        const char next = help.c_str()[at + len];
        if (!std::isalnum(static_cast<unsigned char>(next)) && next != '-')
            return true;
    }
    return false;
}

/**
 * The usage text that defines @p c's options: its own row, plus run's
 * row when it takes "[run options]" and the campaign row's spec
 * options when it takes "[spec options]".
 */
std::string
optionsHelp(const Command &c)
{
    std::string help = c.help;
    const bool run_opts = help.find("[run options]") != std::string::npos;
    const bool spec_opts = help.find("[spec options]") != std::string::npos;
    for (const Command &other : commands) {
        if (run_opts && !std::strcmp(other.name, "run"))
            help += other.help;
        const char *spec = std::strstr(other.help, "spec options (");
        if (spec_opts && spec)
            help += spec;
    }
    return help;
}

/**
 * Reject any "--x" token that @p c's usage does not list, so a typo
 * fails loudly instead of silently running the defaults.
 */
bool
optionsListed(const Command &c, int argc, char **argv)
{
    const std::string help = optionsHelp(c);
    for (int i = 2; i < argc; ++i)
        if (!std::strncmp(argv[i], "--", 2) &&
            !helpListsOption(help, argv[i]))
            return badOpt(c.name, "an option its usage lists", argv[i]);
    return true;
}

int
toolMain(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    for (const Command &c : commands) {
        if (cmd != c.name)
            continue;
        if (!optionsListed(c, argc, argv))
            return 2;
        if (!c.needs_program) {
            // analyze-trace takes a file path in argv[2] and report a
            // directory; campaign is all options.
            if ((cmd == "analyze-trace" || cmd == "report") &&
                argc < 3)
                return usage();
            return c.handler(nullptr, argc, argv);
        }
        if (argc < 3)
            return usage();
        AsmResult a = assembleFile(argv[2]);
        if (!a.ok()) {
            for (const auto &e : a.errors)
                std::fprintf(stderr, "%s: %s\n", argv[2],
                             e.toString().c_str());
            return 2;
        }
        return c.handler(&a, argc, argv);
    }
    return usage();
}

} // namespace
} // namespace wo

int
main(int argc, char **argv)
{
    return wo::toolMain(argc, argv);
}
