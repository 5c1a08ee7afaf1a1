#include "drf0_checker.hh"

#include <utility>

#include "common/logging.hh"
#include "models/explorer.hh"
#include "models/sc_model.hh"

namespace wo {

std::string
SyncModelVerdict::toString() const
{
    const auto n = static_cast<unsigned long long>(states);
    if (exhausted)
        return strprintf("inconclusive: no race in the first %llu SC "
                         "states (state budget exhausted)", n);
    if (obeys)
        return strprintf("obeys (%llu SC states)", n);
    std::string s = strprintf("violates: race found after %llu SC states", n);
    if (witness && !races.empty())
        s += "; first " + races.front().toString(*witness);
    return s;
}

namespace {

/**
 * The first processors p < q whose next accesses in @p s conflict and
 * are not both synchronization, if any.
 */
std::optional<std::pair<ProcId, ProcId>>
racingPair(const Program &prog, const ScState &s)
{
    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        if (s.threads[p].halted)
            continue;
        const Instruction *a = currentAccess(prog.thread(p), s.threads[p]);
        for (ProcId q = p + 1; q < prog.numThreads(); ++q) {
            if (s.threads[q].halted)
                continue;
            const Instruction *b =
                currentAccess(prog.thread(q), s.threads[q]);
            if (a->addr == b->addr &&
                (a->writesMemory() || b->writesMemory()) &&
                !(a->isSync() && b->isSync()))
                return std::pair{p, q};
        }
    }
    return std::nullopt;
}

} // namespace

SyncModelVerdict
checkDrf0(const Program &prog, const Drf0CheckerCfg &cfg)
{
    const ScModel model(prog);
    ExploreCfg search;
    search.max_states = cfg.max_states;
    const auto found = witnessChain(
        model,
        [&](const ScState &s) { return racingPair(prog, s).has_value(); },
        search);

    SyncModelVerdict v;
    v.states = found.states;
    v.exhausted = found.truncated;
    if (found.chain.empty()) {
        v.obeys = !v.exhausted;
        if (v.exhausted)
            warn("DRF0 check of '%s' exhausted its state budget: no verdict",
                 prog.name().c_str());
        return v;
    }
    // The path to the racy state, then its two accesses back to back.
    Execution e(prog.numThreads(), prog.numLocations(),
                prog.initialMemory());
    ScState s = model.initial();
    for (const TransLabel &l : found.labels)
        model.step(s, l.proc, &e);
    const auto [p, q] = *racingPair(prog, s);
    const auto n = static_cast<OpId>(e.ops().size());
    model.step(s, p, &e);
    model.step(s, q, &e);
    v.races.push_back(Race{n, n + 1});
    v.witness = std::move(e);
    return v;
}

} // namespace wo
