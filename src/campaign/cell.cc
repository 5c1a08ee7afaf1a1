#include "cell.hh"

#include <chrono>

#include "campaign/verify.hh"
#include "common/logging.hh"
#include "obs/timeline.hh"
#include "program/litmus.hh"

namespace wo {

std::uint64_t
fnv1a64(std::string_view text)
{
    Fnv1a64 h;
    h.append(text);
    return h.h;
}

std::string
fnv1aHex(std::string_view text)
{
    std::string hex(16, '0'); // printf's "%016llx"
    std::uint64_t h = fnv1a64(text);
    for (int i = 15; i >= 0; --i, h >>= 4)
        hex[i] = "0123456789abcdef"[h & 0xf];
    return hex;
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

/** Keys are embedded in JSONL unescaped: keep them to a safe charset
 *  (every other byte becomes '_'). */
template <class Out>
void
writeSanitized(Out &out, std::string_view spec)
{
    std::size_t run = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const char c = spec[i];
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '/' ||
                          c == '-' || c == '_' || c == '+';
        if (safe)
            continue;
        out.append(spec.substr(run, i - run));
        out.append("_");
        run = i + 1;
    }
    out.append(spec.substr(run));
}

/** Append @p tag then @p v's decimal text. */
template <class Out, class T>
void
writeField(Out &out, std::string_view tag, T v)
{
    out.append(tag);
    appendNumber(out, v);
}

template <class Out>
void
writeSourceTag(Out &out, const Cell &c)
{
    switch (c.source) {
      case CellSource::file:
        out.append("file:");
        writeSanitized(out, c.spec);
        return;
      case CellSource::litmus:
        out.append("litmus:");
        writeSanitized(out, c.spec);
        return;
      case CellSource::drf0_rand:
        writeField(out, "drf0:p", c.drf0.procs);
        writeField(out, "r", c.drf0.regions);
        writeField(out, "l", c.drf0.locs_per_region);
        writeField(out, "v", c.drf0.private_locs);
        writeField(out, "s", c.drf0.sections);
        writeField(out, "o", c.drf0.ops_per_section);
        writeField(out, "q", c.drf0.private_ops);
        writeField(out, "t", c.drf0.test_and_tas ? 1 : 0);
        writeField(out, "w", c.drf0.work_cycles);
        writeField(out, "g", c.drf0.seed);
        return;
      case CellSource::racy_rand:
        writeField(out, "racy:p", c.racy.procs);
        writeField(out, "l", c.racy.locs);
        writeField(out, "o", c.racy.ops_per_thread);
        writeField(out, "g", c.racy.seed);
        return;
    }
    out.append("?");
}

} // namespace

template <class Out>
void
Cell::writeProgramId(Out &out) const
{
    if (kind == CellKind::verify) {
        out.append("verify:");
        writeSourceTag(out, *this);
        out.append("|");
        writeSanitized(out, model);
        return;
    }
    writeSourceTag(out, *this);
    out.append("|");
    out.append(policyFlagName(policy));
}

template <class Out>
void
Cell::writeFamilyId(Out &out) const
{
    switch (source) {
      case CellSource::file:
        out.append("file:");
        writeSanitized(out, spec);
        return;
      case CellSource::litmus:
        out.append("litmus:");
        writeSanitized(out, spec);
        return;
      case CellSource::drf0_rand: out.append("drf0-rand"); return;
      case CellSource::racy_rand: out.append("racy-rand"); return;
    }
    out.append("?");
}

template void Cell::writeProgramId(std::string &) const;
template void Cell::writeProgramId(Fnv1a64 &) const;
template void Cell::writeFamilyId(std::string &) const;
template void Cell::writeFamilyId(Fnv1a64 &) const;

std::string
Cell::key() const
{
    std::string k;
    k.reserve(64);
    writeProgramId(k);
    // Verify cells are untimed: program x model identifies the work,
    // so the timing coordinates stay out of the key and a resumed (or
    // over-long) stream skips repeats instead of re-checking them.
    if (kind == CellKind::verify) {
        if (inject_axiom_bug)
            k += "|ABUG";
        return k;
    }
    writeField(k, "|n", net_seed);
    writeField(k, "|h", hop);
    writeField(k, "|j", jitter);
    if (inject_reserve_bug)
        k += "|BUG";
    return k;
}

std::string
Cell::programId() const
{
    std::string id;
    writeProgramId(id);
    return id;
}

std::string
Cell::familyId() const
{
    std::string id;
    writeFamilyId(id);
    return id;
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
    forEachCellField(r, [&j](const char *name, const auto &v) {
        j.set(name, Json(v));
    });
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
runCell(const Cell &cell, std::uint64_t max_events, CellContext *ctx,
        std::string key)
{
    CellContext local;
    if (!ctx)
        ctx = &local;
    CellRun run;
    CellResult &r = run.result;
    r.key = key.empty() ? cell.key() : std::move(key);

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
        for (const auto &o : v.dpor.outcomes) {
            o.appendTo(sig_src);
            sig_src += '\n';
        }
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
