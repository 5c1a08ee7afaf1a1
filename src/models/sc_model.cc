#include "sc_model.hh"

#include "common/logging.hh"

namespace wo {

bool
ScModel::step(State &s, ProcId p, Execution *trace) const
{
    ThreadCtx &t = s.threads[p];
    if (t.halted)
        return false;
    const Instruction *i = currentAccess(prog_.thread(p), t);
    const Value old = s.mem[i->addr];
    Value written = 0;
    if (i->writesMemory()) {
        written = storeValue(*i, t);
        s.mem[i->addr] = written;
    }
    if (trace)
        trace->append(p, i->addr, accessKindOf(i->op),
                      i->readsMemory() ? old : 0, written);
    completeAccess(prog_.thread(p), t, old);
    return true;
}

std::string
ScModel::dump(const State &s) const
{
    return dumpThreadsAndMem(prog_, s.threads, s.mem);
}

} // namespace wo
