#include "network_model.hh"

#include "common/logging.hh"

namespace wo {

NetworkReorderModel::NetworkReorderModel(const Program &prog,
                                         std::size_t max_flights)
    : Base(prog), max_flights_(max_flights)
{
    wo_assert(max_flights_ > 0, "need at least one in-flight slot");
}

NetworkReorderModel::State
NetworkReorderModel::initial() const
{
    State s = startState();
    s.flights.resize(prog_.numThreads());
    return s;
}

bool
NetworkReorderModel::isFinal(const State &s) const
{
    for (const auto &f : s.flights)
        if (!f.empty())
            return false;
    return allHalted(s);
}

void
NetworkReorderModel::instrSucc(const State &s, ProcId p, Succs &out) const
{
    const ThreadCtx &t = s.threads[p];
    if (t.halted)
        return;
    const Instruction *i = currentAccess(prog_.thread(p), t);
    switch (i->op) {
      case Opcode::load_data: {
        // The read's arrival at its module is instantaneous, so it may
        // overtake older in-flight writes to other modules; it may not
        // overtake the processor's own write to the same location.
        if (poolForward(s.flights[p], i->addr))
            break;
        State next = s;
        completeAccess(prog_.thread(p), next.threads[p], s.mem[i->addr]);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      case Opcode::store_data: {
        if (s.flights[p].size() >= max_flights_)
            break;
        State next = s;
        next.flights[p].push_back(PendingWrite{i->addr, storeValue(*i, t)});
        completeAccess(prog_.thread(p), next.threads[p], 0);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      case Opcode::sync_load:
      case Opcode::sync_store:
      case Opcode::test_and_set: {
        if (!s.flights[p].empty())
            break; // wait for every in-flight write to arrive
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
NetworkReorderModel::drainSuccs(const State &s, ProcId p,
                                std::optional<Addr> only,
                                Succs &out) const
{
    // Any in-flight write whose processor has no older in-flight write
    // to the same location may reach memory.
    const auto &fl = s.flights[p];
    for (std::size_t k = 0; k < fl.size(); ++k) {
        if (only && fl[k].addr != *only)
            continue;
        if (!poolMayDrain(fl, k))
            continue;
        State next = s;
        PendingWrite f = next.flights[p][k];
        next.flights[p].erase(next.flights[p].begin() +
                              static_cast<std::ptrdiff_t>(k));
        next.mem[f.addr] = f.value;
        // Unique per (p, addr): only the oldest flight per location
        // may arrive, so no two arrivals of p share an address.
        out.push_back({drainLabel(p, f.addr), std::move(next)});
    }
}

std::string
NetworkReorderModel::dump(const State &s) const
{
    std::string out = dumpThreadsAndMem(prog_, s.threads, s.mem);
    for (ProcId p = 0; p < prog_.numThreads(); ++p) {
        if (s.flights[p].empty())
            continue;
        out += strprintf("  P%u in-flight:", p);
        for (const auto &f : s.flights[p])
            out += strprintf(" [%u]<-%lld", f.addr,
                             static_cast<long long>(f.value));
        out += "\n";
    }
    return out;
}

} // namespace wo
