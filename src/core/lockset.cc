#include "lockset.hh"

#include <map>

#include "common/logging.hh"

namespace wo {

std::string
LocksetIssue::toString(const Program &prog) const
{
    const char *what = "";
    switch (kind) {
      case Kind::unprotected_access:
        what = "no common lock protects";
        break;
      case Kind::naked_sync:
        what = "synchronization outside the monitor idiom at";
        break;
      case Kind::release_not_held:
        what = "release of a lock not definitely held at";
        break;
    }
    return strprintf("P%u@%u: %s %s%s%s", proc, pc, what,
                     prog.locationName(addr).c_str(),
                     detail.empty() ? "" : ": ", detail.c_str());
}

namespace {

/** A held-lock set with a distinguished "top" (unknown: everything). */
struct Held
{
    bool top = true;
    std::set<Addr> locks;

    /** Meet (intersection); returns true if this changed. */
    bool
    meet(const Held &other)
    {
        if (other.top)
            return false;
        if (top) {
            top = false;
            locks = other.locks;
            return true;
        }
        std::set<Addr> inter;
        for (Addr l : locks)
            if (other.locks.count(l))
                inter.insert(l);
        if (inter == locks)
            return false;
        locks = std::move(inter);
        return true;
    }
};

struct ThreadAnalysis
{
    // held[pc]: locks definitely held when the instruction at pc executes.
    std::vector<Held> held;
    // Instructions that are part of a recognized synchronization idiom.
    std::vector<bool> idiom;
    // pc of acquire-bne -> the lock its fall-through edge acquires.
    std::map<Pc, Addr> acquires;
};

/** Is the instruction at @p pc `bne r, 0, <backward>` consuming @p reg? */
bool
isSpinBack(const ThreadCode &code, Pc pc, RegId reg)
{
    if (pc >= code.size())
        return false;
    const Instruction &i = code.at(pc);
    return i.op == Opcode::branch_ne && i.src == reg && i.imm == 0 &&
           i.target <= pc;
}

/** Recognize the acquire/spin idioms and releases for one thread. */
void
matchIdioms(const ThreadCode &code, ThreadAnalysis &ta,
            std::vector<LocksetIssue> &issues, ProcId proc)
{
    ta.idiom.assign(code.size(), false);
    for (Pc pc = 0; pc < code.size(); ++pc) {
        const Instruction &i = code.at(pc);
        switch (i.op) {
          case Opcode::test_and_set:
            if (isSpinBack(code, pc + 1, i.dst)) {
                ta.idiom[pc] = true;
                ta.idiom[pc + 1] = true;
                ta.acquires[pc + 1] = i.addr;
            } else {
                issues.push_back(LocksetIssue{
                    LocksetIssue::Kind::naked_sync, proc, pc, i.addr,
                    "TestAndSet not followed by its spin branch"});
            }
            break;
          case Opcode::sync_load:
            // The Test of Test-and-TAS: a spin on the same register.
            if (isSpinBack(code, pc + 1, i.dst)) {
                ta.idiom[pc] = true;
                ta.idiom[pc + 1] = true;
            } else {
                issues.push_back(LocksetIssue{
                    LocksetIssue::Kind::naked_sync, proc, pc, i.addr,
                    "sync load outside a spin idiom"});
            }
            break;
          case Opcode::sync_store:
            if (i.use_imm && i.imm == 0) {
                ta.idiom[pc] = true; // a release; held-ness checked later
            } else {
                issues.push_back(LocksetIssue{
                    LocksetIssue::Kind::naked_sync, proc, pc, i.addr,
                    "sync store that is not a release of 0"});
            }
            break;
          default:
            break;
        }
    }
}

/** Forward dataflow: definitely-held locks at each instruction. */
void
dataflow(const ThreadCode &code, ThreadAnalysis &ta,
         std::vector<LocksetIssue> &issues, ProcId proc)
{
    ta.held.assign(code.size(), Held{});
    if (code.size() == 0)
        return;
    ta.held[0].top = false; // entry: nothing held
    bool changed = true;
    while (changed) {
        changed = false;
        for (Pc pc = 0; pc < code.size(); ++pc) {
            if (ta.held[pc].top)
                continue; // unreachable so far
            const Instruction &i = code.at(pc);
            Held out = ta.held[pc];
            // Release drops the lock on the way out.
            if (i.op == Opcode::sync_store && i.use_imm && i.imm == 0)
                out.locks.erase(i.addr);

            i.forEachSuccessor(pc, [&](Pc succ, bool fall_through) {
                if (succ >= code.size())
                    return;
                Held edge = out;
                // The fall-through of an acquire-bne holds the lock.
                if (fall_through)
                    if (auto it = ta.acquires.find(pc);
                        it != ta.acquires.end())
                        edge.locks.insert(it->second);
                changed |= ta.held[succ].meet(edge);
            });
        }
    }
    // Releases of locks not definitely held.
    for (Pc pc = 0; pc < code.size(); ++pc) {
        const Instruction &i = code.at(pc);
        if (i.op == Opcode::sync_store && i.use_imm && i.imm == 0 &&
            !ta.held[pc].top && !ta.held[pc].locks.count(i.addr)) {
            issues.push_back(
                LocksetIssue{LocksetIssue::Kind::release_not_held, proc,
                             pc, i.addr, ""});
        }
    }
}

} // namespace

LocksetResult
checkLockDiscipline(const Program &prog)
{
    LocksetResult result;
    std::vector<ThreadAnalysis> tas(prog.numThreads());
    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        matchIdioms(prog.thread(p), tas[p], result.issues, p);
        dataflow(prog.thread(p), tas[p], result.issues, p);
    }

    // Which locations need protection: touched by >= 2 threads with at
    // least one (data or sync-rmw... data) write.  Sync locations used in
    // idioms are the protection mechanism, not protected data.
    const Addr n = prog.numLocations();
    std::vector<std::set<ProcId>> toucher(n);
    std::vector<bool> written(n, false);
    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        const ThreadCode &code = prog.thread(p);
        for (Pc pc = 0; pc < code.size(); ++pc) {
            const Instruction &i = code.at(pc);
            if (i.op == Opcode::load_data || i.op == Opcode::store_data) {
                toucher[i.addr].insert(p);
                written[i.addr] = written[i.addr] ||
                                  i.op == Opcode::store_data;
            }
        }
    }

    // Intersect held-lock sets over every data access per location.
    result.protection.assign(n, {});
    std::vector<bool> has_access(n, false);
    std::vector<std::pair<ProcId, Pc>> witness(n, {0, 0});
    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        const ThreadCode &code = prog.thread(p);
        for (Pc pc = 0; pc < code.size(); ++pc) {
            const Instruction &i = code.at(pc);
            if (i.op != Opcode::load_data && i.op != Opcode::store_data)
                continue;
            const Held &h = tas[p].held[pc];
            if (h.top)
                continue; // unreachable instruction
            if (!has_access[i.addr]) {
                has_access[i.addr] = true;
                result.protection[i.addr] = h.locks;
            } else {
                std::set<Addr> inter;
                for (Addr l : result.protection[i.addr])
                    if (h.locks.count(l))
                        inter.insert(l);
                result.protection[i.addr] = std::move(inter);
            }
            if (result.protection[i.addr].empty())
                witness[i.addr] = {p, pc};
        }
    }
    for (Addr a = 0; a < n; ++a) {
        if (toucher[a].size() >= 2 && written[a] &&
            result.protection[a].empty()) {
            result.issues.push_back(LocksetIssue{
                LocksetIssue::Kind::unprotected_access, witness[a].first,
                witness[a].second, a, "shared and written"});
        }
    }

    result.certified = result.issues.empty();
    return result;
}

} // namespace wo
