#include "assembler.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "program/builder.hh"

namespace wo {

namespace {

/** The largest explicit numeric location a source may name. */
constexpr unsigned max_numeric_location = 65535;

/** Tokenize one line (whitespace separated; '#' ends the line). */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::string cur;
    for (char c : line) {
        if (c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty()) {
                toks.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        toks.push_back(cur);
    return toks;
}

class Assembler
{
  public:
    explicit Assembler(const std::string &source) : source_(source) {}

    AsmResult
    run()
    {
        std::istringstream in(source_);
        std::string line;
        while (std::getline(in, line)) {
            ++lineno_;
            parseLine(tokenize(line));
        }
        // Resolve labels here, where a bad one is a line-numbered
        // error, instead of letting the builder treat it as fatal.
        for (const LabelUse &u : label_uses_)
            if (labels_[u.thread].count(u.label) == 0)
                errors_.push_back(
                    AsmError{u.line, "undefined label '" + u.label + "'"});
        AsmResult result;
        result.errors = std::move(errors_);
        if (!result.errors.empty())
            return result;
        if (threads_.empty()) {
            result.errors.push_back(AsmError{lineno_, "no threads defined"});
            return result;
        }
        // Build the program.
        ProgramBuilder b(name_.empty() ? "asm-program" : name_,
                         static_cast<ProcId>(threads_.size()));
        for (ProcId p = 0; p < threads_.size(); ++p) {
            auto &t = b.thread(p);
            for (const auto &emit : threads_[p])
                emit(t);
        }
        for (const auto &[loc_name, addr] : locs_)
            b.nameLocation(addr, loc_name);
        for (const auto &[addr, v] : inits_)
            b.initLocation(addr, v);
        result.program = b.build();
        result.probe = probe_;
        result.warm = warm_;
        for (const auto &w : result.warm) {
            for (ProcId p : w.procs) {
                if (p >= result.program->numThreads()) {
                    result.errors.push_back(AsmError{
                        0, strprintf("warm thread %u out of range", p)});
                }
            }
            if (w.addr >= result.program->numLocations()) {
                result.errors.push_back(AsmError{
                    0, strprintf("warm location %u out of range", w.addr)});
            }
        }
        // A probe addressing a thread or location outside the program is
        // a user error worth flagging here rather than at match time.
        for (const auto &t : result.probe) {
            if (!t.is_memory && t.proc >= result.program->numThreads()) {
                result.errors.push_back(AsmError{
                    0, strprintf("probe thread %u out of range", t.proc)});
            }
            if (t.is_memory &&
                t.addr >= result.program->numLocations()) {
                result.errors.push_back(AsmError{
                    0,
                    strprintf("probe location %u out of range", t.addr)});
            }
        }
        return result;
    }

  private:
    using Emit = std::function<void(ThreadBuilder &)>;

    void
    error(const std::string &msg)
    {
        errors_.push_back(AsmError{lineno_, msg});
    }

    bool
    parseReg(const std::string &tok, RegId &out)
    {
        if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) {
            error("expected register (r0..r" +
                  std::to_string(num_regs - 1) + "), got '" + tok + "'");
            return false;
        }
        char *end = nullptr;
        long v = std::strtol(tok.c_str() + 1, &end, 10);
        if (*end != '\0' || v < 0 || v >= num_regs) {
            error("bad register '" + tok + "'");
            return false;
        }
        out = static_cast<RegId>(v);
        return true;
    }

    bool
    parseImm(const std::string &tok, Value &out)
    {
        char *end = nullptr;
        long long v = std::strtoll(tok.c_str(), &end, 0);
        if (*end != '\0' || tok.empty()) {
            error("expected number, got '" + tok + "'");
            return false;
        }
        out = v;
        return true;
    }

    bool
    isNumber(const std::string &tok)
    {
        if (tok.empty())
            return false;
        std::size_t i = (tok[0] == '-' || tok[0] == '+') ? 1 : 0;
        if (i >= tok.size())
            return false;
        for (; i < tok.size(); ++i)
            if (!std::isdigit(static_cast<unsigned char>(tok[i])))
                return false;
        return true;
    }

    Addr
    location(const std::string &tok)
    {
        if (isNumber(tok)) {
            // Every location up to the highest one is materialized, so
            // an address from outside input must stay small.
            const unsigned long v = std::strtoul(tok.c_str(), nullptr, 0);
            if (tok[0] == '-' || v > max_numeric_location) {
                error(strprintf("location '%s' out of range (0..%u)",
                                tok.c_str(), max_numeric_location));
                return 0;
            }
            const Addr a = static_cast<Addr>(v);
            // Keep symbolic allocation clear of explicit addresses.
            next_loc_ = std::max(next_loc_, a + 1);
            return a;
        }
        auto it = locs_.find(tok);
        if (it != locs_.end())
            return it->second;
        Addr a = next_loc_++;
        locs_.emplace(tok, a);
        return a;
    }

    bool
    looksLikeReg(const std::string &tok)
    {
        return tok.size() >= 2 && (tok[0] == 'r' || tok[0] == 'R') &&
               std::isdigit(static_cast<unsigned char>(tok[1]));
    }

    std::vector<Emit> *
    code()
    {
        if (threads_.empty()) {
            error("instruction before any 'thread' directive");
            return nullptr;
        }
        return &threads_[current_];
    }

    void
    parseLine(const std::vector<std::string> &toks)
    {
        if (toks.empty())
            return;
        const std::string &op = toks[0];

        // Label?
        if (toks.size() == 1 && op.size() > 1 && op.back() == ':') {
            std::string label = op.substr(0, op.size() - 1);
            auto *c = code();
            if (!c)
                return;
            if (!labels_[current_].insert(label).second)
                return error("duplicate label '" + label + "'");
            c->push_back([label](ThreadBuilder &t) { t.label(label); });
            return;
        }

        if (op == "program") {
            if (toks.size() != 2)
                return error("usage: program <name>");
            name_ = toks[1];
            return;
        }
        if (op == "probe") {
            if (toks.size() != 4)
                return error("usage: probe <proc|mem> <reg|loc> <value>");
            ProbeTerm term;
            Value v;
            if (!parseImm(toks[3], v))
                return;
            term.value = v;
            if (toks[1] == "mem") {
                term.is_memory = true;
                term.addr = location(toks[2]);
            } else {
                Value proc;
                if (!parseImm(toks[1], proc) || proc < 0 || proc > 255) {
                    error("bad probe thread '" + toks[1] + "'");
                    return;
                }
                term.proc = static_cast<ProcId>(proc);
                RegId r;
                if (!parseReg(toks[2], r))
                    return;
                term.reg = r;
            }
            probe_.push_back(term);
            return;
        }
        if (op == "init") {
            if (toks.size() != 3)
                return error("usage: init <loc> <value>");
            Value v;
            if (!parseImm(toks[2], v))
                return;
            inits_.emplace_back(location(toks[1]), v);
            return;
        }
        if (op == "warm") {
            if (toks.size() < 3)
                return error("usage: warm <loc> <thread>...");
            WarmTerm w;
            w.addr = location(toks[1]);
            for (std::size_t i = 2; i < toks.size(); ++i) {
                Value n;
                if (!parseImm(toks[i], n))
                    return;
                if (n < 0 || n > 255)
                    return error("warm thread index out of range");
                w.procs.push_back(static_cast<ProcId>(n));
            }
            warm_.push_back(std::move(w));
            return;
        }
        if (op == "thread") {
            if (toks.size() != 2)
                return error("usage: thread <n>");
            Value n;
            if (!parseImm(toks[1], n))
                return;
            if (n < 0 || n > 255)
                return error("thread index out of range");
            while (threads_.size() <= static_cast<std::size_t>(n)) {
                threads_.emplace_back();
                labels_.emplace_back();
            }
            current_ = static_cast<std::size_t>(n);
            return;
        }

        auto *c = code();
        if (!c)
            return;

        auto need = [&](std::size_t n, const char *usage) {
            if (toks.size() != n) {
                error(std::string("usage: ") + usage);
                return false;
            }
            return true;
        };

        if (op == "ld" || op == "syncld" || op == "tas") {
            if (!need(3, "ld|syncld|tas <reg> <loc>"))
                return;
            RegId r;
            if (!parseReg(toks[1], r))
                return;
            Addr a = location(toks[2]);
            if (op == "ld")
                c->push_back([r, a](ThreadBuilder &t) { t.load(r, a); });
            else if (op == "syncld")
                c->push_back(
                    [r, a](ThreadBuilder &t) { t.syncLoad(r, a); });
            else
                c->push_back(
                    [r, a](ThreadBuilder &t) { t.testAndSet(r, a); });
            return;
        }
        if (op == "st" || op == "syncst") {
            if (!need(3, "st|syncst <loc> <imm|reg>"))
                return;
            Addr a = location(toks[1]);
            if (looksLikeReg(toks[2])) {
                if (op == "syncst")
                    return error("syncst takes an immediate value");
                RegId r;
                if (!parseReg(toks[2], r))
                    return;
                c->push_back(
                    [a, r](ThreadBuilder &t) { t.storeReg(a, r); });
            } else {
                Value v;
                if (!parseImm(toks[2], v))
                    return;
                if (op == "st")
                    c->push_back(
                        [a, v](ThreadBuilder &t) { t.store(a, v); });
                else
                    c->push_back(
                        [a, v](ThreadBuilder &t) { t.syncStore(a, v); });
            }
            return;
        }
        if (op == "movi") {
            if (!need(3, "movi <reg> <imm>"))
                return;
            RegId r;
            Value v;
            if (!parseReg(toks[1], r) || !parseImm(toks[2], v))
                return;
            c->push_back([r, v](ThreadBuilder &t) { t.movi(r, v); });
            return;
        }
        if (op == "add") {
            if (!need(4, "add <reg> <reg> <reg>"))
                return;
            RegId d, s1, s2;
            if (!parseReg(toks[1], d) || !parseReg(toks[2], s1) ||
                !parseReg(toks[3], s2))
                return;
            c->push_back(
                [d, s1, s2](ThreadBuilder &t) { t.add(d, s1, s2); });
            return;
        }
        if (op == "addi") {
            if (!need(4, "addi <reg> <reg> <imm>"))
                return;
            RegId d, s;
            Value v;
            if (!parseReg(toks[1], d) || !parseReg(toks[2], s) ||
                !parseImm(toks[3], v))
                return;
            c->push_back([d, s, v](ThreadBuilder &t) { t.addi(d, s, v); });
            return;
        }
        if (op == "beq" || op == "bne") {
            if (!need(4, "beq|bne <reg> <imm> <label>"))
                return;
            RegId r;
            Value v;
            if (!parseReg(toks[1], r) || !parseImm(toks[2], v))
                return;
            std::string label = toks[3];
            label_uses_.push_back({current_, label, lineno_});
            if (op == "beq")
                c->push_back([r, v, label](ThreadBuilder &t) {
                    t.beq(r, v, label);
                });
            else
                c->push_back([r, v, label](ThreadBuilder &t) {
                    t.bne(r, v, label);
                });
            return;
        }
        if (op == "jmp") {
            if (!need(2, "jmp <label>"))
                return;
            std::string label = toks[1];
            label_uses_.push_back({current_, label, lineno_});
            c->push_back([label](ThreadBuilder &t) { t.jmp(label); });
            return;
        }
        if (op == "work") {
            if (!need(2, "work <cycles>"))
                return;
            Value v;
            if (!parseImm(toks[1], v))
                return;
            if (v < 0)
                return error("work takes a non-negative cycle count");
            c->push_back([v](ThreadBuilder &t) { t.work(v); });
            return;
        }
        if (op == "halt") {
            c->push_back([](ThreadBuilder &t) { t.halt(); });
            return;
        }
        error("unknown instruction '" + op + "'");
    }

    const std::string &source_;
    int lineno_ = 0;
    std::string name_;
    std::vector<std::vector<Emit>> threads_;
    std::size_t current_ = 0;
    /** A branch's target label, checked once every label is known. */
    struct LabelUse
    {
        std::size_t thread;
        std::string label;
        int line;
    };
    std::vector<std::set<std::string>> labels_; //!< defined, per thread
    std::vector<LabelUse> label_uses_;
    std::map<std::string, Addr> locs_;
    Addr next_loc_ = 0;
    std::vector<std::pair<Addr, Value>> inits_;
    std::vector<ProbeTerm> probe_;
    std::vector<WarmTerm> warm_;
    std::vector<AsmError> errors_;
};

} // namespace

std::string
ProbeTerm::toString() const
{
    if (is_memory)
        return strprintf("mem[%u]=%lld", addr,
                         static_cast<long long>(value));
    return strprintf("P%u:r%u=%lld", proc, reg,
                     static_cast<long long>(value));
}

bool
probeMatches(const std::vector<ProbeTerm> &probe, const Outcome &outcome)
{
    for (const ProbeTerm &t : probe) {
        if (t.is_memory) {
            if (t.addr >= outcome.memory.size() ||
                outcome.memory[t.addr] != t.value)
                return false;
        } else {
            if (t.proc >= outcome.regs.size() ||
                t.reg >= outcome.regs[t.proc].size() ||
                outcome.regs[t.proc][t.reg] != t.value)
                return false;
        }
    }
    return true;
}

AsmResult
assembleString(const std::string &source)
{
    return Assembler(source).run();
}

AsmResult
assembleFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        AsmResult r;
        r.errors.push_back(AsmError{0, "cannot open '" + path + "'"});
        return r;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return assembleString(ss.str());
}

std::string
disassemble(const Program &prog)
{
    std::string out = strprintf("program %s\n", prog.name().c_str());
    for (Addr a = 0; a < prog.numLocations(); ++a)
        if (prog.initialValue(a) != 0)
            out += strprintf("init %s %lld\n",
                             prog.locationName(a).c_str(),
                             static_cast<long long>(prog.initialValue(a)));
    for (ProcId p = 0; p < prog.numThreads(); ++p) {
        out += strprintf("thread %u\n", p);
        const ThreadCode &t = prog.thread(p);
        // Collect branch targets so they get labels.
        std::map<Pc, std::string> labels;
        for (Pc pc = 0; pc < t.size(); ++pc) {
            const Instruction &i = t.at(pc);
            if (i.op == Opcode::branch_eq || i.op == Opcode::branch_ne ||
                i.op == Opcode::jump)
                if (!labels.count(i.target))
                    labels[i.target] =
                        strprintf("L%u_%zu", p, labels.size());
        }
        for (Pc pc = 0; pc < t.size(); ++pc) {
            if (labels.count(pc))
                out += labels[pc] + ":\n";
            const Instruction &i = t.at(pc);
            std::string loc =
                i.accessesMemory() ? prog.locationName(i.addr) : "";
            // locationName falls back to "[n]"; strip to a number form.
            if (!loc.empty() && loc.front() == '[')
                loc = loc.substr(1, loc.size() - 2);
            switch (i.op) {
              case Opcode::load_data:
                out += strprintf("  ld r%u %s\n", i.dst, loc.c_str());
                break;
              case Opcode::sync_load:
                out += strprintf("  syncld r%u %s\n", i.dst, loc.c_str());
                break;
              case Opcode::test_and_set:
                out += strprintf("  tas r%u %s\n", i.dst, loc.c_str());
                break;
              case Opcode::store_data:
                if (i.use_imm)
                    out += strprintf("  st %s %lld\n", loc.c_str(),
                                     static_cast<long long>(i.imm));
                else
                    out += strprintf("  st %s r%u\n", loc.c_str(), i.src);
                break;
              case Opcode::sync_store:
                out += strprintf("  syncst %s %lld\n", loc.c_str(),
                                 static_cast<long long>(i.imm));
                break;
              case Opcode::mov_imm:
                out += strprintf("  movi r%u %lld\n", i.dst,
                                 static_cast<long long>(i.imm));
                break;
              case Opcode::add:
                out += strprintf("  add r%u r%u r%u\n", i.dst, i.src,
                                 i.src2);
                break;
              case Opcode::add_imm:
                out += strprintf("  addi r%u r%u %lld\n", i.dst, i.src,
                                 static_cast<long long>(i.imm));
                break;
              case Opcode::branch_eq:
                out += strprintf("  beq r%u %lld %s\n", i.src,
                                 static_cast<long long>(i.imm),
                                 labels[i.target].c_str());
                break;
              case Opcode::branch_ne:
                out += strprintf("  bne r%u %lld %s\n", i.src,
                                 static_cast<long long>(i.imm),
                                 labels[i.target].c_str());
                break;
              case Opcode::jump:
                out += strprintf("  jmp %s\n", labels[i.target].c_str());
                break;
              case Opcode::delay:
                out += strprintf("  work %lld\n",
                                 static_cast<long long>(i.imm));
                break;
              case Opcode::halt:
                out += "  halt\n";
                break;
            }
        }
    }
    return out;
}

} // namespace wo
