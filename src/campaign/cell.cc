#include "cell.hh"

#include <chrono>
#include <cstdio>

#include "campaign/verify.hh"
#include "common/logging.hh"
#include "obs/timeline.hh"
#include "program/litmus.hh"

namespace wo {

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
fnv1aHex(const std::string &text)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(text)));
    return std::string(hex, 16);
}

bool
parsePolicyName(const std::string &name, OrderingPolicy &out)
{
    if (name == "sc")
        out = OrderingPolicy::sc;
    else if (name == "def1")
        out = OrderingPolicy::wo_def1;
    else if (name == "drf0")
        out = OrderingPolicy::wo_drf0;
    else if (name == "drf0ro")
        out = OrderingPolicy::wo_drf0_ro;
    else
        return false;
    return true;
}

const char *
policyFlagName(OrderingPolicy p)
{
    switch (p) {
      case OrderingPolicy::sc: return "sc";
      case OrderingPolicy::wo_def1: return "def1";
      case OrderingPolicy::wo_drf0: return "drf0";
      case OrderingPolicy::wo_drf0_ro: return "drf0ro";
    }
    return "?";
}

namespace {

/** Keys are embedded in JSONL unescaped: keep them to a safe charset. */
std::string
sanitizeSpec(const std::string &spec)
{
    std::string out;
    out.reserve(spec.size());
    for (char c : spec) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '/' ||
                          c == '-' || c == '_' || c == '+';
        out += safe ? c : '_';
    }
    return out;
}

std::string
sourceTag(const Cell &c)
{
    switch (c.source) {
      case CellSource::file:
        return "file:" + sanitizeSpec(c.spec);
      case CellSource::litmus:
        return "litmus:" + sanitizeSpec(c.spec);
      case CellSource::drf0_rand:
        return strprintf(
            "drf0:p%ur%ul%uv%us%do%dq%dt%dw%lldg%llu", c.drf0.procs,
            c.drf0.regions, c.drf0.locs_per_region, c.drf0.private_locs,
            c.drf0.sections, c.drf0.ops_per_section, c.drf0.private_ops,
            c.drf0.test_and_tas ? 1 : 0,
            static_cast<long long>(c.drf0.work_cycles),
            static_cast<unsigned long long>(c.drf0.seed));
      case CellSource::racy_rand:
        return strprintf("racy:p%ul%uo%dg%llu", c.racy.procs, c.racy.locs,
                         c.racy.ops_per_thread,
                         static_cast<unsigned long long>(c.racy.seed));
    }
    return "?";
}

} // namespace

std::string
Cell::key() const
{
    // Verify cells are untimed: program x model identifies the work,
    // so the timing coordinates stay out of the key and a resumed (or
    // over-long) stream skips repeats instead of re-checking them.
    if (kind == CellKind::verify) {
        std::string k = programId();
        if (inject_axiom_bug)
            k += "|ABUG";
        return k;
    }
    std::string k = programId() +
                    strprintf("|n%llu|h%llu|j%llu",
                              static_cast<unsigned long long>(net_seed),
                              static_cast<unsigned long long>(hop),
                              static_cast<unsigned long long>(jitter));
    if (inject_reserve_bug)
        k += "|BUG";
    return k;
}

std::string
Cell::programId() const
{
    if (kind == CellKind::verify)
        return "verify:" + sourceTag(*this) + "|" + sanitizeSpec(model);
    return sourceTag(*this) + "|" + policyFlagName(policy);
}

std::string
Cell::familyId() const
{
    switch (source) {
      case CellSource::file: return "file:" + sanitizeSpec(spec);
      case CellSource::litmus: return "litmus:" + sanitizeSpec(spec);
      case CellSource::drf0_rand: return "drf0-rand";
      case CellSource::racy_rand: return "racy-rand";
    }
    return "?";
}

SystemCfg
Cell::systemCfg(std::uint64_t max_events) const
{
    SystemCfg cfg;
    cfg.policy = policy;
    cfg.net.seed = net_seed;
    cfg.net.hop_latency = hop;
    cfg.net.jitter = jitter;
    cfg.cache.bug_drop_reserve_clear = inject_reserve_bug;
    cfg.monitor = true;
    cfg.quiet = true;
    // Cells read only the verdict, outcome and monitor summary; the
    // stats/JSON renders would dominate thousands of tiny runs.
    cfg.collect_stats = false;
    cfg.max_events = max_events;
    return cfg;
}

VerifyCfg
Cell::verifyCfg() const
{
    VerifyCfg cfg;
    cfg.max_states = max_states;
    cfg.jobs = explore_jobs;
    cfg.axiom.inject_bug = inject_axiom_bug;
    return cfg;
}

const std::vector<LitmusCorpusEntry> &
litmusCorpus()
{
    static const std::vector<LitmusCorpusEntry> corpus = {
        {"fig1", &litmus::fig1StoreBuffer},
        {"mp", &litmus::messagePassing},
        {"mp_sync", &litmus::messagePassingSync},
        {"corr", &litmus::coherenceCoRR},
        {"iriw", &litmus::iriw},
        {"lb", &litmus::loadBuffering},
        {"wrc", &litmus::wrc},
        {"2+2w", &litmus::twoPlusTwoW},
        {"s", &litmus::sShape},
        {"coww", &litmus::coWW},
        {"fig3", []() { return litmus::fig3Scenario(2); }},
        {"fig3_tt", []() { return litmus::fig3ScenarioTestAndTas(2); }},
        {"counter2x2", []() { return litmus::lockedCounter(2, 2); }},
        {"counter_tas", []() { return litmus::lockedCounter(2, 2, true); }},
        {"racy_counter", []() { return litmus::racyCounter(2, 2); }},
        {"barrier3", []() { return litmus::barrier(3); }},
        {"pingpong", []() { return litmus::pingPong(3); }},
    };
    return corpus;
}

const MaterializedCell *
MaterializeCache::find(const std::string &family_id) const
{
    auto it = map_.find(family_id);
    if (it == map_.end())
        return nullptr;
    ++hits_;
    return &it->second;
}

const MaterializedCell &
MaterializeCache::put(std::string family_id, MaterializedCell m)
{
    ++misses_;
    return map_.insert_or_assign(std::move(family_id), std::move(m))
        .first->second;
}

MaterializedCell
materializeCell(const Cell &cell, MaterializeCache *cache)
{
    // Only deterministic repeated sources are cacheable; random draws
    // embed a per-cell generator seed and never repeat.
    const bool cacheable = cache && (cell.source == CellSource::file ||
                                     cell.source == CellSource::litmus);
    if (cacheable) {
        const std::string id = cell.familyId();
        if (const MaterializedCell *hit = cache->find(id))
            return *hit;
        return cache->put(id, materializeCell(cell, nullptr));
    }

    MaterializedCell m;
    switch (cell.source) {
      case CellSource::file: {
          AsmResult a = assembleFile(cell.spec);
          if (!a.ok()) {
              m.error = cell.spec + ": ";
              m.error += a.errors.empty() ? "unreadable"
                                          : a.errors[0].toString();
              return m;
          }
          m.program = std::move(a.program);
          m.warm = std::move(a.warm);
          return m;
      }
      case CellSource::litmus: {
          for (const auto &e : litmusCorpus())
              if (cell.spec == e.name) {
                  m.program = e.make();
                  return m;
              }
          m.error = "unknown litmus corpus entry '" + cell.spec + "'";
          return m;
      }
      case CellSource::drf0_rand:
        m.program = randomDrf0Program(cell.drf0);
        return m;
      case CellSource::racy_rand:
        m.program = randomRacyProgram(cell.racy);
        return m;
    }
    m.error = "corrupt cell source";
    return m;
}

std::string
CellResult::verdict() const
{
    if (hw > 0)
        return "hw:" + (primary_kind.empty() ? std::string("?")
                                             : primary_kind);
    if (!completed && primary_kind == "materialize_error")
        return "error";
    if (!why_inconclusive.empty())
        return "inconclusive";
    if (nonsc)
        return "nonsc";
    if (deadlocked)
        return "deadlock";
    if (livelocked)
        return "livelock";
    if (races > 0)
        return "race";
    return "clean";
}

void
VerdictTally::add(const std::string &verdict, const std::string &why)
{
    if (verdict == "clean") {
        ++clean;
    } else if (verdict == "race") {
        ++racy;
    } else if (verdict.rfind("hw:", 0) == 0) {
        ++hw;
        ViolationKind k;
        if (violationKindFromName(verdict.substr(3), k))
            ++by_kind[static_cast<int>(k)];
    } else if (verdict == "deadlock") {
        ++deadlocked;
    } else if (verdict == "livelock") {
        ++livelocked;
    } else if (verdict == "inconclusive") {
        ++inconclusive;
        ++inconclusive_why[why];
    } else if (verdict == "nonsc") {
        ++nonsc;
    } else {
        ++errors;
    }
}

void
VerdictTally::merge(const VerdictTally &o)
{
    clean += o.clean;
    racy += o.racy;
    hw += o.hw;
    deadlocked += o.deadlocked;
    livelocked += o.livelocked;
    errors += o.errors;
    inconclusive += o.inconclusive;
    nonsc += o.nonsc;
    for (int k = 0; k < num_violation_kinds; ++k)
        by_kind[k] += o.by_kind[k];
    for (const auto &[why, n] : o.inconclusive_why)
        inconclusive_why[why] += n;
}

void
VerdictTally::toJson(Json &j) const
{
    j.set("clean", Json(clean));
    j.set("racy", Json(racy));
    j.set("hw", Json(hw));
    j.set("deadlocked", Json(deadlocked));
    j.set("livelocked", Json(livelocked));
    j.set("errors", Json(errors));
    j.set("inconclusive", Json(inconclusive));
    j.set("nonsc", Json(nonsc));
    Json by = Json::object();
    for (int k = 0; k < num_violation_kinds; ++k)
        if (by_kind[k] > 0)
            by.set(violationKindName(static_cast<ViolationKind>(k)),
                   Json(by_kind[k]));
    j.set("by_kind", std::move(by));
    Json why = Json::object();
    for (const auto &[reason, n] : inconclusive_why)
        why.set(reason, Json(n));
    j.set("inconclusive_why", std::move(why));
}

Json
cellResultToJson(const CellResult &r)
{
    Json j = Json::object();
    j.set("key", Json(r.key));
    j.set("verdict", Json(r.verdict()));
    j.set("hw", Json(r.hw));
    j.set("races", Json(r.races));
    j.set("sig", Json(r.outcome_sig));
    j.set("tick", Json(r.finish_tick));
    j.set("ms", Json(r.wall_ms));
    j.set("mat_us", Json(r.mat_us));
    j.set("run_us", Json(r.run_us));
    if (r.shrink_us > 0)
        j.set("shrink_us", Json(r.shrink_us));
    if (!r.primary_kind.empty())
        j.set("kind", Json(r.primary_kind));
    if (!r.why_inconclusive.empty()) {
        j.set("inconclusive", Json(true));
        j.set("why", Json(r.why_inconclusive));
    }
    if (r.nonsc)
        j.set("nonsc", Json(true));
    if (r.dpor_states > 0 || r.bfs_states > 0) {
        j.set("dpor_states", Json(r.dpor_states));
        j.set("bfs_states", Json(r.bfs_states));
        j.set("dpor_probes", Json(r.dpor_probes));
        j.set("dpor_memo_hits", Json(r.dpor_memo_hits));
    }
    return j;
}

System &
CellContext::machine(const Program &prog, const SystemCfg &cfg)
{
    if (sys_)
        sys_->reset(prog, cfg);
    else
        sys_ = std::make_unique<System>(prog, cfg);
    return *sys_;
}

CellRun
runCell(const Cell &cell, std::uint64_t max_events, CellContext *ctx)
{
    CellContext local;
    if (!ctx)
        ctx = &local;
    CellRun run;
    CellResult &r = run.result;
    r.key = cell.key();

    // Timeline spans accrue to whatever lane the calling thread owns
    // (a campaign worker's, or none when run standalone).
    Timeline *tl = Timeline::current();
    MaterializedCell m;
    {
        Timeline::Scope mat_span(tl, SpanKind::materialize);
        const auto m0 = std::chrono::steady_clock::now();
        m = materializeCell(cell, &ctx->cache);
        r.mat_us = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - m0)
                .count());
    }
    if (!m.ok()) {
        r.primary_kind = "materialize_error";
        return run;
    }
    run.program = std::move(m.program);
    run.warm = std::move(m.warm);

    if (cell.kind == CellKind::verify) {
        // The dual-engine judge replaces the timed simulation.  Warm
        // directives are a timed-system concern; exploration always
        // starts from the zeroed initial image.
        Timeline::Scope verify_span(tl, SpanKind::run);
        const auto t0 = std::chrono::steady_clock::now();
        VerifyResult v =
            verifyProgramOnModel(*run.program, cell.model, cell.verifyCfg());
        r.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        r.run_us = static_cast<std::uint64_t>(r.wall_ms * 1000.0);

        r.completed = true;
        r.why_inconclusive = v.whyInconclusive();
        r.nonsc = v.nonsc();
        r.dpor_states = v.dpor.states;
        r.bfs_states = v.bfs.states;
        r.dpor_probes = v.dpor.commutation_probes;
        r.dpor_memo_hits = v.dpor.memo_hits;
        if (const auto kind = v.violation()) {
            r.hw = 1;
            r.total = 1;
            r.by_kind[static_cast<int>(*kind)] = 1;
            r.primary_kind = violationKindName(*kind);
        }
        // The outcome signature hashes the hardware outcome set, so
        // the frontier's novelty tracking sees outcome-set changes
        // across program shapes exactly like it does for run cells.
        std::string sig_src;
        for (const auto &o : v.dpor.outcomes)
            sig_src += o.toString() + "\n";
        r.outcome_sig = fnv1aHex(sig_src);
        return run;
    }

    Timeline::Scope run_span(tl, SpanKind::run);
    const auto t0 = std::chrono::steady_clock::now();
    System &sys = ctx->machine(*run.program, cell.systemCfg(max_events));
    for (const auto &w : run.warm)
        sys.warmShared(w.addr, w.procs);
    SystemResult sr = sys.run();
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.run_us = static_cast<std::uint64_t>(r.wall_ms * 1000.0);

    r.completed = sr.completed;
    r.deadlocked = sr.deadlocked;
    r.livelocked = sr.livelocked;
    r.finish_tick = sr.finish_tick;
    std::string &text = ctx->scratch();
    text.clear();
    sr.outcome.appendTo(text);
    r.outcome_sig = fnv1aHex(text);

    const Monitor *mon = sys.monitor();
    MonitorSummary s = mon->summary();
    r.hw = s.hardware;
    r.races = s.races;
    r.total = s.total;
    for (int k = 0; k < num_violation_kinds; ++k)
        r.by_kind[k] = s.by_kind[k];
    // First *recorded* hardware-blaming violation names the failure.
    for (const auto &v : mon->violations())
        if (violationBlamesHardware(v.kind)) {
            r.primary_kind = violationKindName(v.kind);
            break;
        }
    return run;
}

} // namespace wo
