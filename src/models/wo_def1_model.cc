#include "wo_def1_model.hh"

#include "common/logging.hh"

namespace wo {

WoDef1Model::WoDef1Model(const Program &prog, std::size_t max_pool)
    : Base(prog), max_pool_(max_pool)
{
    wo_assert(max_pool_ > 0, "need at least one pool slot");
}

WoDef1Model::State
WoDef1Model::initial() const
{
    State s = startState();
    s.pools.resize(prog_.numThreads());
    return s;
}

bool
WoDef1Model::isFinal(const State &s) const
{
    for (const auto &pool : s.pools)
        if (!pool.empty())
            return false;
    return allHalted(s);
}

void
WoDef1Model::instrSucc(const State &s, ProcId p, Succs &out) const
{
    const ThreadCtx &t = s.threads[p];
    if (t.halted)
        return;
    const Instruction *i = currentAccess(prog_.thread(p), t);
    switch (i->op) {
      case Opcode::load_data: {
        auto fwd = poolForward(s.pools[p], i->addr);
        const Value v = fwd ? *fwd : s.mem[i->addr];
        State next = s;
        completeAccess(prog_.thread(p), next.threads[p], v);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      case Opcode::store_data: {
        if (s.pools[p].size() >= max_pool_)
            break;
        State next = s;
        next.pools[p].push_back(PendingWrite{i->addr, storeValue(*i, t)});
        completeAccess(prog_.thread(p), next.threads[p], 0);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      case Opcode::sync_load:
      case Opcode::sync_store:
      case Opcode::test_and_set: {
        // Definition 1, condition 2: the issuing processor stalls here
        // until all its previous data accesses are globally performed.
        if (!s.pools[p].empty())
            break;
        State next = s;
        const Value old = next.mem[i->addr];
        if (i->writesMemory())
            next.mem[i->addr] = storeValue(*i, t);
        completeAccess(prog_.thread(p), next.threads[p], old);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      default:
        wo_panic("unexpected opcode at access point: %s",
                 opcodeName(i->op));
    }
}

void
WoDef1Model::drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
                        Succs &out) const
{
    // poolMayDrain admits only the oldest pending write per location, so
    // (p, addr) uniquely names each drain edge.
    const auto &pool = s.pools[p];
    for (std::size_t k = 0; k < pool.size(); ++k) {
        if (only && pool[k].addr != *only)
            continue;
        if (!poolMayDrain(pool, k))
            continue;
        State next = s;
        PendingWrite w = next.pools[p][k];
        next.pools[p].erase(next.pools[p].begin() +
                            static_cast<std::ptrdiff_t>(k));
        next.mem[w.addr] = w.value;
        out.push_back({drainLabel(p, w.addr), std::move(next)});
    }
}

std::string
WoDef1Model::dump(const State &s) const
{
    std::string out = dumpThreadsAndMem(prog_, s.threads, s.mem);
    for (ProcId p = 0; p < prog_.numThreads(); ++p) {
        if (s.pools[p].empty())
            continue;
        out += strprintf("  P%u pending:", p);
        for (const auto &w : s.pools[p])
            out += strprintf(" [%u]<-%lld", w.addr,
                             static_cast<long long>(w.value));
        out += "\n";
    }
    return out;
}

} // namespace wo
