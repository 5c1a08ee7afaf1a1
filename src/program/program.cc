#include "program.hh"

#include "common/logging.hh"

namespace wo {

const Instruction &
ThreadCode::at(Pc pc) const
{
    wo_assert(pc < code.size(), "pc %u out of range (%zu instructions)", pc,
              code.size());
    return code[pc];
}

Program::Program(std::string name, std::vector<ThreadCode> threads,
                 Addr num_locations, Value initial)
    : name_(std::move(name)), threads_(std::move(threads)),
      num_locations_(num_locations), initials_(num_locations, initial),
      loc_names_(num_locations)
{
    validate();
}

Value
Program::initialValue(Addr a) const
{
    wo_assert(a < num_locations_, "location %u out of range", a);
    return initials_[a];
}

void
Program::setInitial(Addr a, Value v)
{
    wo_assert(a < num_locations_, "location %u out of range", a);
    initials_[a] = v;
}

const ThreadCode &
Program::thread(ProcId p) const
{
    wo_assert(p < threads_.size(), "thread %u out of range", p);
    return threads_[p];
}

void
Program::nameLocation(Addr a, std::string name)
{
    wo_assert(a < num_locations_, "location %u out of range", a);
    loc_names_[a] = std::move(name);
}

std::string
Program::locationName(Addr a) const
{
    if (a < loc_names_.size() && !loc_names_[a].empty())
        return loc_names_[a];
    return strprintf("[%u]", a);
}

std::size_t
Program::staticSize() const
{
    std::size_t n = 0;
    for (const auto &t : threads_)
        n += t.code.size();
    return n;
}

std::string
Program::toString() const
{
    std::string out = strprintf("program %s: %u threads, %u locations\n",
                                name_.c_str(),
                                static_cast<unsigned>(threads_.size()),
                                num_locations_);
    for (ProcId p = 0; p < numThreads(); ++p) {
        out += strprintf("  P%u:\n", p);
        const ThreadCode &t = threads_[p];
        for (Pc pc = 0; pc < t.size(); ++pc)
            out += strprintf("    %3u: %s\n", pc, t.at(pc).toString().c_str());
    }
    return out;
}

void
Program::validate() const
{
    if (threads_.empty())
        wo_fatal("program '%s' has no threads", name_.c_str());
    for (std::size_t p = 0; p < threads_.size(); ++p) {
        const ThreadCode &t = threads_[p];
        if (t.code.empty() || t.code.back().op != Opcode::halt)
            wo_fatal("program '%s' thread %zu does not end in HALT",
                     name_.c_str(), p);
        for (Pc pc = 0; pc < t.size(); ++pc) {
            const Instruction &i = t.at(pc);
            if (i.accessesMemory() && i.addr >= num_locations_)
                wo_fatal("program '%s' P%zu@%u: address %u out of range",
                         name_.c_str(), p, pc, i.addr);
            if (i.dst >= num_regs || i.src >= num_regs || i.src2 >= num_regs)
                wo_fatal("program '%s' P%zu@%u: register out of range",
                         name_.c_str(), p, pc);
            if (i.isBranch() && i.target >= t.size())
                wo_fatal("program '%s' P%zu@%u: branch target %u out of range",
                         name_.c_str(), p, pc, i.target);
            if (i.op == Opcode::delay && i.imm < 0)
                wo_fatal("program '%s' P%zu@%u: negative delay", name_.c_str(),
                         p, pc);
        }
    }
}

} // namespace wo
