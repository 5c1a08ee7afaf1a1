#include "verify.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "core/drf0_checker.hh"
#include "models/model_registry.hh"
#include "models/sc_model.hh"

namespace wo {

namespace {

/**
 * The one rule for comparing two engines' outcome sets: no answer
 * while @p why_unknown is set (a side is inconclusive), else unequal
 * sets are @p on_gap, witnessed by their symmetric difference.
 */
CheckRecord
compareOutcomeSets(const std::set<Outcome> &a, const std::set<Outcome> &b,
                   std::string why_unknown, const char *on_gap)
{
    if (!why_unknown.empty())
        return {CheckState::unknown, std::move(why_unknown), {}};
    CheckRecord c{CheckState::agree, "", {}};
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::inserter(c.witness,
                                                c.witness.end()));
    if (!c.witness.empty())
        c = {CheckState::violated, on_gap, std::move(c.witness)};
    return c;
}

std::string
budgetHit(const char *who, bool conclusive)
{
    return conclusive ? "" : std::string(who) + " exploration hit the "
                                                "state budget";
}

/** Check 3 on the explored sets in @p r; fills r.def2 and r.drf0. */
void
judgeScSubset(const Program &prog, VerifyResult &r)
{
    std::string gap = budgetHit("hardware", r.dpor.conclusive());
    if (gap.empty())
        gap = budgetHit("SC", r.sc.conclusive());
    if (!gap.empty()) {
        r.def2 = {CheckState::unknown, std::move(gap), {}};
        return;
    }
    std::set<Outcome> extra = r.dpor.minus(r.sc);
    if (extra.empty()) {
        r.def2 = {CheckState::agree, "", {}};
        return;
    }
    if (!modelClaimsConformance(r.model)) {
        r.def2 = {CheckState::escapes_sc,
                  "the model claims no synchronization model",
                  std::move(extra)};
        return;
    }
    const SyncModelVerdict v = checkDrf0(prog);
    r.drf0 = v.exhausted ? "exhausted" : v.obeys ? "obeys" : "violates";
    if (v.exhausted)
        r.def2 = {CheckState::unknown,
                  "non-SC outcomes with exhausted DRF0 classification",
                  {}};
    else if (v.obeys)
        r.def2 = {CheckState::violated,
                  "DRF0-obeying program saw non-SC outcomes on a "
                  "conformance-claiming model",
                  std::move(extra)};
    else
        r.def2 = {CheckState::escapes_sc,
                  "the program violates the claimed model",
                  std::move(extra)};
}

/** Checks 1 to 3 when @p all, else check 3 alone. */
VerifyResult
judge(const Program &prog, const std::string &model_name,
      const VerifyCfg &cfg, bool all)
{
    VerifyResult r;
    r.model = model_name;
    ExploreCfg ecfg; // BFS ignores jobs
    ecfg.max_states = cfg.max_states;
    ecfg.jobs = cfg.jobs;
    const bool known = withModelByName(prog, model_name, [&](auto &m) {
        r.dpor = exploreOutcomesDpor(m, ecfg);
        if (all && r.dpor.conclusive())
            r.bfs = exploreOutcomesBfs(m, ecfg);
    });
    if (!known) {
        r.engines.reason = "unknown model '" + model_name + "'";
        return r;
    }
    if (all) {
        r.engines = checkEngines(r.dpor, r.bfs);
        if (r.violation())
            return r;
    }
    r.sc = exploreOutcomesDpor(ScModel(prog), ecfg);
    if (all) {
        // The evaluator cannot unfold a spin loop (it stops at the first
        // repeated loop head) or a counter whose values never settle,
        // and check 2 honestly has no answer there.
        r.axiom = axiomScOutcomes(prog, cfg.axiom);
        r.axiom_sc = checkAxiom(r.axiom, r.sc);
        if (r.violation())
            return r;
    }
    judgeScSubset(prog, r);
    return r;
}

std::string
engineLine(const char *name, const ExploreResult &r)
{
    return strprintf("%s: %zu outcomes, %llu states, %llu transitions%s%s\n",
                     name, r.outcomes.size(),
                     static_cast<unsigned long long>(r.states),
                     static_cast<unsigned long long>(r.transitions),
                     r.truncated ? " [truncated]" : "",
                     r.stuck ? " [stuck]" : "");
}

} // namespace

std::string
CheckRecord::report(const char *name) const
{
    static const char *const names[] = {"agree", "escapes-sc", "violated",
                                        "unknown"};
    std::string s = strprintf("%-17s %s", (std::string(name) + ":").c_str(),
                              names[static_cast<int>(state)]);
    if (!witness.empty())
        s += strprintf(": %zu outcome(s)", witness.size());
    if (!reason.empty())
        s += " (" + reason + ")";
    s += "\n";
    std::size_t shown = 0;
    for (const auto &o : witness) {
        if (shown++ == 8) {
            s += strprintf("  ... and %zu more\n", witness.size() - 8);
            break;
        }
        s += "  " + o.toString() + "\n";
    }
    return s;
}

CheckRecord
checkEngines(const ExploreResult &dpor, const ExploreResult &bfs)
{
    return compareOutcomeSets(
        dpor.outcomes, bfs.outcomes,
        budgetHit("hardware", dpor.conclusive() && bfs.conclusive()),
        "DPOR and BFS disagree");
}

CheckRecord
checkAxiom(const AxiomResult &axiom, const ExploreResult &sc)
{
    std::string gap = budgetHit("SC", sc.conclusive());
    if (gap.empty() && !axiom.conclusive)
        gap = "axiomatic evaluation inconclusive: " + axiom.why_inconclusive;
    return compareOutcomeSets(axiom.outcomes, sc.outcomes, std::move(gap),
                              "axiomatic and operational SC disagree");
}

std::optional<ViolationKind>
VerifyResult::violation() const
{
    if (engines.state == CheckState::violated)
        return ViolationKind::dpor_divergence;
    if (axiom_sc.state == CheckState::violated)
        return ViolationKind::axiom_divergence;
    if (def2.state == CheckState::violated)
        return ViolationKind::def2_subset;
    return std::nullopt;
}

std::string
VerifyResult::whyInconclusive() const
{
    for (const CheckRecord *c : {&engines, &axiom_sc, &def2}) {
        if (c->state == CheckState::violated)
            break;
        if (c->state == CheckState::unknown)
            return c->reason;
    }
    return "";
}

std::string
VerifyResult::verdict() const
{
    if (const auto kind = violation())
        return std::string("hw:") + violationKindName(*kind);
    if (inconclusive())
        return "inconclusive";
    return nonsc() ? "nonsc" : "ok";
}

std::string
VerifyResult::detail() const
{
    std::string s = "verify model=" + model + " verdict=" + verdict() + "\n";
    s += engineLine("hw dpor", dpor);
    s += dpor.conclusive() ? engineLine("hw bfs ", bfs) : "hw bfs : not run\n";
    s += engineLine("sc dpor", sc);
    s += strprintf("axiom:   %zu outcomes, %llu candidates, %llu judgements%s\n",
                   axiom.outcomes.size(),
                   static_cast<unsigned long long>(axiom.candidates),
                   static_cast<unsigned long long>(axiom.judgements),
                   axiom.conclusive ? "" : " [inconclusive]");
    s += engines.report("dpor_divergence");
    s += axiom_sc.report("axiom_divergence");
    s += def2.report("def2_subset");
    return s + "drf0: " + drf0 + "\n";
}

VerifyResult
verifyProgramOnModel(const Program &prog, const std::string &model_name,
                     const VerifyCfg &cfg)
{
    return judge(prog, model_name, cfg, /*all=*/true);
}

VerifyResult
checkScSubset(const Program &prog, const std::string &model_name,
              const VerifyCfg &cfg)
{
    return judge(prog, model_name, cfg, /*all=*/false);
}

bool
verifyReproduces(const Program &prog, const std::string &model_name,
                 ViolationKind kind, const VerifyCfg &cfg)
{
    return verifyProgramOnModel(prog, model_name, cfg).violation() == kind;
}

} // namespace wo
