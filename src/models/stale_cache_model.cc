#include "stale_cache_model.hh"

#include "common/logging.hh"

namespace wo {

StaleCacheModel::StaleCacheModel(const Program &prog, std::size_t max_inbox)
    : Base(prog), max_inbox_(max_inbox)
{
    wo_assert(max_inbox_ > 0, "need at least one inbox slot");
}

StaleCacheModel::State
StaleCacheModel::initial() const
{
    State s = startState();
    s.copy.assign(prog_.numThreads(), s.mem);
    s.inbox.resize(prog_.numThreads());
    return s;
}

namespace {

bool
allInboxesEmpty(const StaleCacheState &s)
{
    for (const auto &q : s.inbox)
        if (!q.empty())
            return false;
    return true;
}

bool
inboxesHaveRoom(const StaleCacheState &s, ProcId writer,
                std::size_t cap)
{
    for (ProcId q = 0; q < s.inbox.size(); ++q)
        if (q != writer && s.inbox[q].size() >= cap)
            return false;
    return true;
}

} // namespace

bool
StaleCacheModel::isFinal(const State &s) const
{
    return allInboxesEmpty(s) && allHalted(s);
}

template <typename Out>
void
StaleCacheModel::instrSucc(const State &s, ProcId p, Out &out) const
{
    const ThreadCtx &t = s.threads[p];
    if (t.halted)
        return;
    const Instruction *i = currentAccess(prog_.thread(p), t);
    switch (i->op) {
      case Opcode::load_data: {
        // Reads hit the local copy: no waiting, possibly stale.
        State &next = out.emplace_back(instrLabel(p), s).state;
        completeAccess(prog_.thread(p), next.threads[p],
                       s.copy[p][i->addr]);
        break;
      }
      case Opcode::store_data: {
        if (!inboxesHaveRoom(s, p, max_inbox_))
            break;
        const Value v = storeValue(*i, t);
        State &next = out.emplace_back(instrLabel(p), s).state;
        next.mem[i->addr] = v;     // commit (write serialization point)
        next.copy[p][i->addr] = v; // own copy updated immediately
        for (ProcId q = 0; q < prog_.numThreads(); ++q)
            if (q != p)
                next.inbox[q].push_back(PendingWrite{i->addr, v});
        completeAccess(prog_.thread(p), next.threads[p], 0);
        break;
      }
      case Opcode::sync_load:
      case Opcode::sync_store:
      case Opcode::test_and_set: {
        // Heavyweight synchronization: a full system barrier.
        if (!allInboxesEmpty(s))
            break;
        State &next = out.emplace_back(instrLabel(p), s).state;
        const Value old = next.mem[i->addr];
        if (i->writesMemory()) {
            const Value v = storeValue(*i, t);
            next.mem[i->addr] = v;
            for (ProcId q = 0; q < prog_.numThreads(); ++q)
                next.copy[q][i->addr] = v;
        }
        completeAccess(prog_.thread(p), next.threads[p], old);
        break;
      }
      default:
        wo_panic("unexpected opcode at access point: %s",
                 opcodeName(i->op));
    }
}

template <typename Out>
void
StaleCacheModel::drainSuccs(const State &s, ProcId q,
                            std::optional<Addr> only, Out &out) const
{
    // Delivery steps: pop the front of the receiver's inbox.  The label
    // carries the *receiver* q (one front entry per inbox, so q alone is
    // unique); the delivered address refines it for readability.
    if (s.inbox[q].empty())
        return;
    const PendingWrite u = s.inbox[q].front();
    if (only && u.addr != *only)
        return;
    State &next = out.emplace_back(drainLabel(q, u.addr), s).state;
    next.inbox[q].erase(next.inbox[q].begin());
    next.copy[q][u.addr] = u.value;
}

template void StaleCacheModel::instrSucc(const State &, ProcId,
                                         Succs &) const;
template void StaleCacheModel::instrSucc(const State &, ProcId,
                                         StepSuccs &) const;
template void StaleCacheModel::drainSuccs(const State &, ProcId,
                                          std::optional<Addr>,
                                          Succs &) const;
template void StaleCacheModel::drainSuccs(const State &, ProcId,
                                          std::optional<Addr>,
                                          StepSuccs &) const;

std::string
StaleCacheModel::dump(const State &s) const
{
    std::string out = dumpThreadsAndMem(prog_, s.threads, s.mem);
    for (ProcId p = 0; p < prog_.numThreads(); ++p) {
        out += strprintf("  P%u copies:", p);
        for (std::size_t a = 0; a < s.copy[p].size(); ++a)
            out += strprintf(" [%zu]=%lld", a,
                             static_cast<long long>(s.copy[p][a]));
        if (!s.inbox[p].empty()) {
            out += "  inbox:";
            for (const auto &u : s.inbox[p])
                out += strprintf(" [%u]<-%lld", u.addr,
                                 static_cast<long long>(u.value));
        }
        out += "\n";
    }
    return out;
}

} // namespace wo
