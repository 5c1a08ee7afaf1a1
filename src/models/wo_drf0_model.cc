#include "wo_drf0_model.hh"

#include "common/logging.hh"

namespace wo {

WoDrf0Model::WoDrf0Model(const Program &prog, std::size_t max_pool,
                         bool weak_sync_read)
    : Base(prog), max_pool_(max_pool), weak_sync_read_(weak_sync_read)
{
    wo_assert(max_pool_ > 0, "need at least one pool slot");
}

WoDrf0Model::State
WoDrf0Model::initial() const
{
    State s = startState();
    s.pools.resize(prog_.numThreads());
    return s;
}

bool
WoDrf0Model::isFinal(const State &s) const
{
    for (const auto &pool : s.pools)
        if (!pool.empty())
            return false;
    return allHalted(s);
}

void
WoDrf0Model::instrSucc(const State &s, ProcId p, Succs &out) const
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
        // Condition 5: another processor's active reservation on this
        // location stalls the synchronization operation -- but NOT the
        // issuing processor's own pending accesses; it does not wait
        // for its own pool (the departure from Definition 1).
        auto res = s.reserved.find(i->addr);
        if (res != s.reserved.end() && res->second.owner != p)
            break;
        State next = s;
        const Value old = next.mem[i->addr];
        if (i->writesMemory())
            next.mem[i->addr] = storeValue(*i, t);
        // Reserve the location for the issuing processor if it still
        // has pending pre-synchronization writes.  Under the Section-6
        // refinement, a pure Test does not publish ordering and thus
        // sets no reservation.
        const bool publishes =
            !(weak_sync_read_ && i->op == Opcode::sync_load);
        // (If the pool is empty no reservation by p can be active:
        // prefix counts never exceed the pool size, and zero-prefix
        // reservations are erased at drain time.)
        if (publishes && !next.pools[p].empty()) {
            next.reserved[i->addr] = Drf0Reservation{
                p, static_cast<std::uint32_t>(next.pools[p].size())};
        }
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
WoDrf0Model::drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
                        Succs &out) const
{
    // Draining entry k of processor p shrinks every reservation prefix of
    // p that still covers k; prefixes hitting zero clear the reservation
    // ("all reserve bits are reset when the counter reads zero" -- here,
    // when the awaited prefix has drained).
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
        for (auto it = next.reserved.begin(); it != next.reserved.end();) {
            if (it->second.owner == p && it->second.prefix_count > k) {
                if (--it->second.prefix_count == 0) {
                    it = next.reserved.erase(it);
                    continue;
                }
            }
            ++it;
        }
        out.push_back({drainLabel(p, w.addr), std::move(next)});
    }
}

std::string
WoDrf0Model::dump(const State &s) const
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
    for (const auto &[addr, r] : s.reserved)
        out += strprintf("  reserved [%u] by P%u awaiting %u write(s)\n",
                         addr, r.owner, r.prefix_count);
    return out;
}

} // namespace wo
