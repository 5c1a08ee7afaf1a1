#include "spec.hh"

#include <algorithm>

#include "campaign/cell.hh"
#include "common/input_limits.hh"
#include "models/model_registry.hh"

namespace wo {

namespace {

std::string
joinCommas(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

} // namespace

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i < text.size() && text[i] != ',') {
            cur += text[i];
            continue;
        }
        if (!cur.empty())
            out.push_back(cur);
        cur.clear();
    }
    return out;
}

Json
campaignSpecToJson(const CampaignSpec &spec)
{
    Json j = Json::object();
    j.set("seed", Json(spec.seed));
    j.set("cells", Json(spec.cells));
    std::vector<std::string> pols;
    for (OrderingPolicy p : spec.policies)
        pols.push_back(policyFlagName(p));
    j.set("policies", Json(joinCommas(pols)));
    Json files = Json::array();
    for (const auto &f : spec.program_files)
        files.push(Json(f));
    j.set("programs", std::move(files));
    j.set("max_events", Json(spec.max_events));
    j.set("shrink", Json(spec.shrink));
    j.set("shrink_max_runs", Json(spec.shrink_max_runs));
    j.set("inject_reserve_bug", Json(spec.inject_reserve_bug));
    if (spec.verify) {
        j.set("verify", Json(true));
        j.set("verify_models", Json(joinCommas(spec.verify_models)));
        j.set("max_states", Json(spec.max_states));
        j.set("explore_jobs",
              Json(static_cast<std::uint64_t>(spec.explore_jobs)));
        j.set("inject_axiom_bug", Json(spec.inject_axiom_bug));
    }
    return j;
}

bool
campaignSpecFromJson(const Json &j, CampaignSpec &out, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    if (!j.isObject())
        return fail("spec is not an object");
    // Absent or mistyped members keep their defaults.
    auto num = [&](const char *name, std::uint64_t &field) {
        if (const Json *v = j.find(name); v && v->isNumber())
            field = v->uintValue();
    };
    auto boolean = [&](const char *name, bool &field) {
        if (const Json *v = j.find(name); v && v->isBool())
            field = v->boolValue();
    };
    auto list = [&](const char *name) {
        const Json *v = j.find(name);
        return v && v->isString() ? splitCommas(v->stringValue())
                                  : std::vector<std::string>{};
    };
    CampaignSpec spec;
    num("seed", spec.seed);
    num("cells", spec.cells);
    num("max_events", spec.max_events);
    num("shrink_max_runs", spec.shrink_max_runs);
    num("max_states", spec.max_states);
    // Every verify cell starts this many explorer threads on every
    // worker the spec reaches: bound it before narrowing it.
    std::uint64_t explore_jobs = 1;
    num("explore_jobs", explore_jobs);
    if (!threadCountOk(explore_jobs))
        return fail(strprintf("spec.explore_jobs must be 1..%llu, got %llu",
                              static_cast<unsigned long long>(
                                  max_thread_count),
                              static_cast<unsigned long long>(explore_jobs)));
    spec.explore_jobs = static_cast<int>(explore_jobs);
    boolean("shrink", spec.shrink);
    boolean("inject_reserve_bug", spec.inject_reserve_bug);
    boolean("verify", spec.verify);
    boolean("inject_axiom_bug", spec.inject_axiom_bug);
    // The journal reserves a seen-key table for the whole budget
    // before the first cell runs: bound it before anything is sized.
    if (!cellCountOk(spec.cells))
        return fail(strprintf("spec.cells must be 1..%llu, got %llu",
                              static_cast<unsigned long long>(
                                  max_cell_count),
                              static_cast<unsigned long long>(spec.cells)));
    if (spec.max_events == 0)
        return fail("spec.max_events must be positive");
    if (spec.max_states == 0)
        return fail("spec.max_states must be positive");

    const std::vector<std::string> pols = list("policies");
    // The base stream crosses every cell with a policy, so an empty
    // list is never meaningful: keep the campaign trio.
    if (!pols.empty())
        spec.policies.clear();
    for (const std::string &name : pols) {
        OrderingPolicy p;
        if (!parsePolicyName(name, p))
            return fail("unknown policy '" + name + "'");
        spec.policies.push_back(p);
    }
    const auto &known = modelNames();
    for (const std::string &name : list("verify_models")) {
        if (std::find(known.begin(), known.end(), name) == known.end())
            return fail("unknown model '" + name + "'");
        spec.verify_models.push_back(name);
    }
    if (const Json *v = j.find("programs"); v && v->isArray())
        for (const Json &f : v->items())
            if (f.isString())
                spec.program_files.push_back(f.stringValue());
    out = std::move(spec);
    return true;
}

} // namespace wo
