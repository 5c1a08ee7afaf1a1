#include "thread_ctx.hh"

#include "common/logging.hh"

namespace wo {

void
runLocal(const ThreadCode &code, ThreadCtx &t)
{
    while (!t.halted) {
        const Instruction &i = code.at(t.pc);
        switch (i.op) {
          case Opcode::mov_imm:
            t.regs[i.dst] = i.imm;
            ++t.pc;
            break;
          case Opcode::add:
            t.regs[i.dst] = t.regs[i.src] + t.regs[i.src2];
            ++t.pc;
            break;
          case Opcode::add_imm:
            t.regs[i.dst] = t.regs[i.src] + i.imm;
            ++t.pc;
            break;
          case Opcode::branch_eq:
            t.pc = (t.regs[i.src] == i.imm) ? i.target : t.pc + 1;
            break;
          case Opcode::branch_ne:
            t.pc = (t.regs[i.src] != i.imm) ? i.target : t.pc + 1;
            break;
          case Opcode::jump:
            t.pc = i.target;
            break;
          case Opcode::delay:
            ++t.pc; // time is not modelled here
            break;
          case Opcode::halt:
            t.halted = true;
            break;
          default:
            return; // a memory access: stop
        }
    }
}

const Instruction *
currentAccess(const ThreadCode &code, const ThreadCtx &t)
{
    if (t.halted)
        return nullptr;
    const Instruction &i = code.at(t.pc);
    wo_assert(i.accessesMemory(),
              "thread not at a memory access (pc %u: %s); runLocal missing?",
              t.pc, i.toString().c_str());
    return &i;
}

Value
storeValue(const Instruction &inst, const ThreadCtx &t)
{
    if (inst.op == Opcode::test_and_set)
        return 1; // TestAndSet writes 1 by definition
    return inst.use_imm ? inst.imm : t.regs[inst.src];
}

AccessKind
accessKindOf(Opcode op)
{
    switch (op) {
      case Opcode::load_data: return AccessKind::data_read;
      case Opcode::store_data: return AccessKind::data_write;
      case Opcode::sync_load: return AccessKind::sync_read;
      case Opcode::sync_store: return AccessKind::sync_write;
      case Opcode::test_and_set: return AccessKind::sync_rmw;
      default:
        wo_panic("opcode %s is not a memory access", opcodeName(op));
    }
}

std::string
dumpThreadsAndMem(const Program &prog, std::span<const ThreadCtx> threads,
                  std::span<const Value> mem)
{
    std::string out;
    for (ProcId p = 0; p < threads.size(); ++p) {
        const ThreadCtx &t = threads[p];
        out += strprintf("  P%u pc=%u%s", p, t.pc,
                         t.halted ? " halted" : "");
        if (!t.halted)
            out += " @ " + prog.thread(p).at(t.pc).toString();
        out += "\n";
    }
    out += "  mem:";
    for (std::size_t a = 0; a < mem.size(); ++a)
        out += strprintf(" %s=%lld",
                         prog.locationName(static_cast<Addr>(a)).c_str(),
                         static_cast<long long>(mem[a]));
    out += "\n";
    return out;
}

void
completeAccess(const ThreadCode &code, ThreadCtx &t, Value value_read)
{
    const Instruction *i = currentAccess(code, t);
    wo_assert(i != nullptr, "completing access on a halted thread");
    if (i->readsMemory())
        t.regs[i->dst] = value_read;
    ++t.pc;
    runLocal(code, t);
}

} // namespace wo
