#include "shrink.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/timeline.hh"

namespace wo {

bool
reproducesViolation(const Program &prog,
                    const std::vector<WarmTerm> &warm, SystemCfg cfg,
                    ViolationKind kind)
{
    cfg.monitor = true;
    cfg.quiet = true;
    cfg.dump_on_fail.clear(); // candidates must not spray evidence files
    System sys(prog, cfg);
    for (const auto &w : warm)
        sys.warmShared(w.addr, w.procs);
    sys.run();
    return sys.monitor()->countOf(kind) > 0;
}

namespace {

/** A mutable program candidate the reductions edit in place. */
struct Candidate
{
    std::string name;
    std::vector<std::vector<Instruction>> threads;
    Addr nlocs = 0;
    std::vector<Value> initials;
    std::vector<std::string> names; //!< per location ("" = unnamed)
    std::vector<WarmTerm> warm;
};

Candidate
fromProgram(const Program &prog, const std::vector<WarmTerm> &warm)
{
    Candidate c;
    c.name = prog.name() + "-shrunk";
    for (ProcId p = 0; p < prog.numThreads(); ++p)
        c.threads.push_back(prog.thread(p).code);
    c.nlocs = prog.numLocations();
    for (Addr a = 0; a < c.nlocs; ++a) {
        c.initials.push_back(prog.initialValue(a));
        std::string n = prog.locationName(a);
        c.names.push_back(n.front() == '[' ? std::string() : n);
    }
    c.warm = warm;
    return c;
}

/** Cheap structural validity so Program's panicking validate never fires. */
bool
valid(const Candidate &c)
{
    if (c.threads.empty() || c.nlocs == 0)
        return false;
    for (const auto &code : c.threads) {
        if (code.empty() || code.back().op != Opcode::halt)
            return false;
        for (const Instruction &i : code) {
            if (i.accessesMemory() && i.addr >= c.nlocs)
                return false;
            if (i.isBranch() && i.target >= code.size())
                return false;
        }
    }
    for (const WarmTerm &w : c.warm) {
        if (w.addr >= c.nlocs || w.procs.empty())
            return false;
        for (ProcId p : w.procs)
            if (p >= c.threads.size())
                return false;
    }
    return true;
}

Program
toProgram(const Candidate &c)
{
    std::vector<ThreadCode> threads;
    for (const auto &code : c.threads)
        threads.push_back(ThreadCode{code});
    Program prog(c.name, std::move(threads), c.nlocs);
    for (Addr a = 0; a < c.nlocs; ++a) {
        if (c.initials[a] != 0)
            prog.setInitial(a, c.initials[a]);
        if (!c.names[a].empty())
            prog.nameLocation(a, c.names[a]);
    }
    return prog;
}

std::size_t
staticSize(const Candidate &c)
{
    std::size_t n = 0;
    for (const auto &code : c.threads)
        n += code.size();
    return n;
}

/** Remove instructions [a, b) of thread @p t, fixing branch targets. */
Candidate
withoutRange(const Candidate &c, std::size_t t, Pc a, Pc b)
{
    Candidate out = c;
    auto &code = out.threads[t];
    code.erase(code.begin() + a, code.begin() + b);
    for (Instruction &i : code) {
        if (!i.isBranch())
            continue;
        if (i.target >= b)
            i.target -= b - a;
        else if (i.target >= a)
            i.target = a; // fall to the first surviving instruction
    }
    return out;
}

/** Remove thread @p t (renumbering warm procs). */
Candidate
withoutThread(const Candidate &c, std::size_t t)
{
    Candidate out = c;
    out.threads.erase(out.threads.begin() + t);
    std::vector<WarmTerm> warm;
    for (WarmTerm w : out.warm) {
        std::vector<ProcId> procs;
        for (ProcId p : w.procs) {
            if (p == t)
                continue;
            procs.push_back(p > t ? static_cast<ProcId>(p - 1) : p);
        }
        if (procs.empty())
            continue;
        w.procs = std::move(procs);
        warm.push_back(std::move(w));
    }
    out.warm = std::move(warm);
    return out;
}

/** Renumber shared locations to just the accessed ones. */
Candidate
compacted(const Candidate &c)
{
    std::map<Addr, Addr> remap;
    for (const auto &code : c.threads)
        for (const Instruction &i : code)
            if (i.accessesMemory())
                remap.emplace(i.addr, 0);
    if (remap.empty() || remap.size() == c.nlocs)
        return c;
    Addr next = 0;
    for (auto &[old_addr, new_addr] : remap)
        new_addr = next++;

    Candidate out = c;
    out.nlocs = next;
    out.initials.assign(next, 0);
    out.names.assign(next, "");
    for (const auto &[old_addr, new_addr] : remap) {
        out.initials[new_addr] = c.initials[old_addr];
        out.names[new_addr] = c.names[old_addr];
    }
    for (auto &code : out.threads)
        for (Instruction &i : code)
            if (i.accessesMemory())
                i.addr = remap.at(i.addr);
    std::vector<WarmTerm> warm;
    for (WarmTerm w : out.warm) {
        auto it = remap.find(w.addr);
        if (it == remap.end())
            continue; // the location vanished with its accesses
        w.addr = it->second;
        warm.push_back(std::move(w));
    }
    out.warm = std::move(warm);
    return out;
}

/** Location name as the assembler spells it (strip the "[n]" form). */
std::string
warmLocSpelling(const Program &prog, Addr a)
{
    std::string loc = prog.locationName(a);
    if (!loc.empty() && loc.front() == '[')
        loc = loc.substr(1, loc.size() - 2);
    return loc;
}

/** disassemble() plus the warm directives it does not know about. */
std::string
renderWo(const Program &prog, const std::vector<WarmTerm> &warm)
{
    std::string text = disassemble(prog);
    if (warm.empty())
        return text;
    std::string lines;
    for (const WarmTerm &w : warm) {
        lines += "warm " + warmLocSpelling(prog, w.addr);
        for (ProcId p : w.procs)
            lines += strprintf(" %u", p);
        lines += "\n";
    }
    const std::size_t at = text.find("thread ");
    text.insert(at == std::string::npos ? text.size() : at, lines);
    return text;
}

} // namespace

ShrinkOutcome
shrinkCounterexample(const Program &prog,
                     const std::vector<WarmTerm> &warm,
                     const ShrinkPredicate &still_fails,
                     const ShrinkCfg &cfg)
{
    ShrinkOutcome out;
    out.orig_instructions = prog.staticSize();

    Candidate best = fromProgram(prog, warm);
    auto test = [&](const Candidate &c) {
        if (out.runs >= cfg.max_runs || !valid(c))
            return false;
        ++out.runs;
        return still_fails(toProgram(c), c.warm);
    };

    out.reproduced = test(best);
    if (out.reproduced) {
        bool progress = true;
        while (progress && out.runs < cfg.max_runs) {
            progress = false;
            // Pass 1: drop whole processors, highest first so lower
            // ProcIds (and warm renumbering) stay stable.
            for (std::size_t t = best.threads.size(); t-- > 0;) {
                if (best.threads.size() <= 1)
                    break;
                Candidate cand = withoutThread(best, t);
                if (test(cand)) {
                    best = std::move(cand);
                    progress = true;
                }
            }
            // Pass 2: ddmin over each thread's body (the trailing halt
            // is structural and never removed).
            for (std::size_t t = 0; t < best.threads.size(); ++t) {
                Pc body = static_cast<Pc>(best.threads[t].size() - 1);
                for (Pc chunk = body ? (body + 1) / 2 : 0; chunk >= 1;
                     chunk /= 2) {
                    bool removed_one = true;
                    while (removed_one) {
                        removed_one = false;
                        body =
                            static_cast<Pc>(best.threads[t].size() - 1);
                        for (Pc start = 0; start + chunk <= body;
                             start += chunk) {
                            Candidate cand = withoutRange(
                                best, t, start, start + chunk);
                            if (test(cand)) {
                                best = std::move(cand);
                                removed_one = true;
                                progress = true;
                                break; // indices shifted: rescan
                            }
                        }
                    }
                    if (chunk == 1)
                        break;
                }
            }
            // Pass 3: drop now-unreferenced shared locations.
            Candidate cand = compacted(best);
            if (cand.nlocs < best.nlocs && test(cand)) {
                best = std::move(cand);
                progress = true;
            }
        }
    }

    out.instructions = staticSize(best);
    out.procs = static_cast<ProcId>(best.threads.size());
    out.locations = best.nlocs;
    out.program = toProgram(best);
    out.warm = best.warm;
    out.wo_text = renderWo(*out.program, out.warm);
    return out;
}

ShrinkOutcome
shrinkCounterexample(const Program &prog,
                     const std::vector<WarmTerm> &warm,
                     const SystemCfg &sys_cfg, ViolationKind kind,
                     const ShrinkCfg &cfg)
{
    return shrinkCounterexample(
        prog, warm,
        [&](const Program &p, const std::vector<WarmTerm> &w) {
            return reproducesViolation(p, w, sys_cfg, kind);
        },
        cfg);
}

namespace {

std::optional<ShrinkOutcome>
shrinkCellFailure(const Cell &cell, const CellRun &run,
                  const CampaignSpec &spec)
{
    ViolationKind kind;
    if (!run.program ||
        !violationKindFromName(run.result.primary_kind, kind))
        return std::nullopt;
    ShrinkCfg scfg;
    scfg.max_runs = spec.shrink ? spec.shrink_max_runs : 1;
    if (cell.kind == CellKind::verify) {
        const VerifyCfg vcfg = cell.verifyCfg();
        return shrinkCounterexample(
            *run.program, run.warm,
            [&](const Program &p, const std::vector<WarmTerm> &) {
                return verifyReproduces(p, cell.model, kind, vcfg);
            },
            scfg);
    }
    return shrinkCounterexample(*run.program, run.warm,
                                cell.systemCfg(spec.max_events), kind,
                                scfg);
}

} // namespace

ShrunkCellRun
runAndShrinkCell(const Cell &cell, const CampaignSpec &spec,
                 CellContext *ctx, std::string key)
{
    ShrunkCellRun out{runCell(cell, spec.max_events, ctx, std::move(key)),
                      {}};
    if (!out.run.result.hardwareFailure())
        return out;
    Timeline::Scope span(Timeline::current(), SpanKind::shrink);
    const auto t0 = std::chrono::steady_clock::now();
    out.failure = shrinkCellFailure(cell, out.run, spec);
    // Rounded up, so every shrunk cell journals a nonzero shrink_us.
    out.run.result.shrink_us = static_cast<std::uint64_t>(std::ceil(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return out;
}

void
writeFailureEvidence(const Cell &cell, const Program &prog,
                     const std::vector<WarmTerm> &warm,
                     std::uint64_t max_events, const std::string &stem)
{
    if (cell.kind == CellKind::verify) {
        writeFile(stem + ".verify.txt",
                  verifyProgramOnModel(prog, cell.model, cell.verifyCfg())
                      .detail());
        return;
    }
    SystemCfg ev = cell.systemCfg(max_events);
    ev.dump_on_fail = stem;
    System sys(prog, ev);
    for (const auto &wt : warm)
        sys.warmShared(wt.addr, wt.procs);
    sys.run();
}

} // namespace wo
