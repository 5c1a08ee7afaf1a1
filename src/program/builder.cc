#include "builder.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/text.hh"

namespace wo {

Instruction &
ThreadBuilder::emit(Instruction inst)
{
    code_.push_back(inst);
    return code_.back();
}

ThreadBuilder &
ThreadBuilder::load(RegId dst, Addr a)
{
    Instruction i;
    i.op = Opcode::load_data;
    i.dst = dst;
    i.addr = a;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::store(Addr a, Value imm)
{
    Instruction i;
    i.op = Opcode::store_data;
    i.addr = a;
    i.imm = imm;
    i.use_imm = true;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::storeReg(Addr a, RegId src)
{
    Instruction i;
    i.op = Opcode::store_data;
    i.addr = a;
    i.src = src;
    i.use_imm = false;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::syncLoad(RegId dst, Addr a)
{
    Instruction i;
    i.op = Opcode::sync_load;
    i.dst = dst;
    i.addr = a;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::syncStore(Addr a, Value imm)
{
    Instruction i;
    i.op = Opcode::sync_store;
    i.addr = a;
    i.imm = imm;
    i.use_imm = true;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::testAndSet(RegId dst, Addr a)
{
    Instruction i;
    i.op = Opcode::test_and_set;
    i.dst = dst;
    i.addr = a;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::movi(RegId dst, Value imm)
{
    Instruction i;
    i.op = Opcode::mov_imm;
    i.dst = dst;
    i.imm = imm;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::add(RegId dst, RegId src, RegId src2)
{
    Instruction i;
    i.op = Opcode::add;
    i.dst = dst;
    i.src = src;
    i.src2 = src2;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::addi(RegId dst, RegId src, Value imm)
{
    Instruction i;
    i.op = Opcode::add_imm;
    i.dst = dst;
    i.src = src;
    i.imm = imm;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::beq(RegId src, Value imm, const std::string &label)
{
    Instruction i;
    i.op = Opcode::branch_eq;
    i.src = src;
    i.imm = imm;
    emit(i);
    fixups_.emplace_back(static_cast<Pc>(code_.size() - 1), label);
    return *this;
}

ThreadBuilder &
ThreadBuilder::bne(RegId src, Value imm, const std::string &label)
{
    Instruction i;
    i.op = Opcode::branch_ne;
    i.src = src;
    i.imm = imm;
    emit(i);
    fixups_.emplace_back(static_cast<Pc>(code_.size() - 1), label);
    return *this;
}

ThreadBuilder &
ThreadBuilder::jmp(const std::string &label)
{
    Instruction i;
    i.op = Opcode::jump;
    emit(i);
    fixups_.emplace_back(static_cast<Pc>(code_.size() - 1), label);
    return *this;
}

ThreadBuilder &
ThreadBuilder::work(Value cycles)
{
    Instruction i;
    i.op = Opcode::delay;
    i.imm = cycles;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::label(const std::string &label)
{
    wo_assert(!labels_.count(label), "label '%s' defined twice",
              label.c_str());
    labels_[label] = static_cast<Pc>(code_.size());
    return *this;
}

ThreadBuilder &
ThreadBuilder::halt()
{
    Instruction i;
    i.op = Opcode::halt;
    emit(i);
    return *this;
}

ThreadBuilder &
ThreadBuilder::acquire(Addr lock, RegId scratch)
{
    // Test-and-TestAndSet: spin with a read-only sync load, then attempt
    // the atomic; on failure go back to spinning.
    std::string l = numbered("__acq", next_auto_label_++);
    label(l);
    syncLoad(scratch, lock);
    bne(scratch, 0, l);
    testAndSet(scratch, lock);
    bne(scratch, 0, l);
    return *this;
}

ThreadBuilder &
ThreadBuilder::acquireTasOnly(Addr lock, RegId scratch)
{
    std::string l = numbered("__acqt", next_auto_label_++);
    label(l);
    testAndSet(scratch, lock);
    bne(scratch, 0, l);
    return *this;
}

ThreadBuilder &
ThreadBuilder::release(Addr lock)
{
    return syncStore(lock, 0);
}

ProgramBuilder::ProgramBuilder(std::string name, ProcId num_threads,
                               Addr num_locations, Value initial)
    : name_(std::move(name)), num_locations_(num_locations),
      initial_(initial), threads_(num_threads)
{
    wo_assert(num_threads > 0, "program needs at least one thread");
}

ThreadBuilder &
ProgramBuilder::thread(ProcId p)
{
    wo_assert(p < threads_.size(), "thread %u out of range", p);
    return threads_[p];
}

ProgramBuilder &
ProgramBuilder::nameLocation(Addr a, std::string loc_name)
{
    loc_names_.emplace_back(a, std::move(loc_name));
    return *this;
}

ProgramBuilder &
ProgramBuilder::initLocation(Addr a, Value v)
{
    loc_inits_.emplace_back(a, v);
    return *this;
}

Program
ProgramBuilder::build()
{
    Addr max_loc = num_locations_;
    std::vector<ThreadCode> codes;
    codes.reserve(threads_.size());
    for (auto &tb : threads_) {
        if (tb.code_.empty() || tb.code_.back().op != Opcode::halt)
            tb.halt();
        for (const auto &[idx, lbl] : tb.fixups_) {
            auto it = tb.labels_.find(lbl);
            if (it == tb.labels_.end())
                wo_fatal("program '%s': undefined label '%s'", name_.c_str(),
                         lbl.c_str());
            tb.code_[idx].target = it->second;
        }
        for (const auto &inst : tb.code_)
            if (inst.accessesMemory())
                max_loc = std::max(max_loc, inst.addr + 1);
        codes.push_back(ThreadCode{tb.code_});
    }
    for (auto &[a, v] : loc_inits_)
        max_loc = std::max(max_loc, a + 1);
    Program prog(name_, std::move(codes), max_loc, initial_);
    for (auto &[a, n] : loc_names_)
        prog.nameLocation(a, n);
    for (auto &[a, v] : loc_inits_)
        prog.setInitial(a, v);
    return prog;
}

} // namespace wo
