#include "write_buffer_model.hh"

#include "common/logging.hh"

namespace wo {

WriteBufferModel::WriteBufferModel(const Program &prog, std::size_t capacity)
    : Base(prog), capacity_(capacity)
{
    wo_assert(capacity_ > 0, "write buffer needs capacity >= 1");
}

WriteBufferModel::State
WriteBufferModel::initial() const
{
    State s = startState();
    s.buffers.resize(prog_.numThreads());
    return s;
}

bool
WriteBufferModel::isFinal(const State &s) const
{
    for (const auto &b : s.buffers)
        if (!b.empty())
            return false;
    return allHalted(s);
}

void
WriteBufferModel::instrSucc(const State &s, ProcId p, Succs &out) const
{
    const ThreadCtx &t = s.threads[p];
    if (t.halted)
        return;
    const Instruction *i = currentAccess(prog_.thread(p), t);
    switch (i->op) {
      case Opcode::load_data: {
        // Forward from the youngest matching buffered store, else read
        // memory directly -- passing any older buffered stores.
        auto fwd = poolForward(s.buffers[p], i->addr);
        const Value v = fwd ? *fwd : s.mem[i->addr];
        State next = s;
        completeAccess(prog_.thread(p), next.threads[p], v);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      case Opcode::store_data: {
        if (s.buffers[p].size() >= capacity_)
            break; // buffer full: wait for a drain
        State next = s;
        next.buffers[p].push_back(PendingWrite{i->addr, storeValue(*i, t)});
        completeAccess(prog_.thread(p), next.threads[p], 0);
        out.push_back({instrLabel(p), std::move(next)});
        break;
      }
      case Opcode::sync_load:
      case Opcode::sync_store:
      case Opcode::test_and_set: {
        // Strongly ordered synchronization: requires an empty buffer,
        // then acts on memory atomically.
        if (!s.buffers[p].empty())
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
WriteBufferModel::drainSuccs(const State &s, ProcId p,
                             std::optional<Addr> only, Succs &out) const
{
    // Only the oldest entry may drain.
    if (s.buffers[p].empty())
        return;
    const PendingWrite e = s.buffers[p].front();
    if (only && e.addr != *only)
        return;
    State next = s;
    next.buffers[p].erase(next.buffers[p].begin());
    next.mem[e.addr] = e.value;
    out.push_back({drainLabel(p, e.addr), std::move(next)});
}

std::string
WriteBufferModel::dump(const State &s) const
{
    std::string out = dumpThreadsAndMem(prog_, s.threads, s.mem);
    for (ProcId p = 0; p < prog_.numThreads(); ++p) {
        if (s.buffers[p].empty())
            continue;
        out += strprintf("  P%u buffer:", p);
        for (const auto &e : s.buffers[p])
            out += strprintf(" [%u]<-%lld", e.addr,
                             static_cast<long long>(e.value));
        out += "\n";
    }
    return out;
}

} // namespace wo
