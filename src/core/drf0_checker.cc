#include "drf0_checker.hh"

#include <map>

#include "common/logging.hh"
#include "models/sc_model.hh"
#include "models/thread_ctx.hh"
#include "program/footprint.hh"

namespace wo {

std::string
SyncModelVerdict::toString() const
{
    if (obeys)
        return strprintf("obeys (%llu idealized executions, %llu steps%s)",
                         static_cast<unsigned long long>(paths),
                         static_cast<unsigned long long>(steps),
                         exhausted ? ", budget exhausted" : "");
    std::string s = strprintf("violates: %zu race(s) found after %llu steps",
                              races.size(),
                              static_cast<unsigned long long>(steps));
    if (witness && !races.empty())
        s += "; first " + races.front().toString(*witness);
    return s;
}

namespace {

/** A recorded access in the current path. */
struct TraceOp
{
    ProcId proc;
    Addr addr;
    AccessKind kind;
    Value vread;
    Value vwritten;
};

/** Tick and trace position of the last access of one class. */
struct LastAccess
{
    std::uint32_t tick = 0; // 0 = none (ticks start at 1)
    std::uint32_t idx = 0;  // trace index of that access
};

/** Everything that varies along one scheduling path. */
struct PathState
{
    ScModel::State m;
    std::vector<VectorClock> pclock;     // per processor
    std::map<Addr, VectorClock> chan;    // per sync location
    // last data read/write and sync read/write: [addr][proc]
    std::vector<std::vector<LastAccess>> lrd, lwd, lrs, lws;
};

enum class StepVerdict { ok, race, budget };

class Checker
{
  public:
    Checker(const Program &prog, const Drf0CheckerCfg &cfg)
        : prog_(prog), cfg_(cfg), model_(prog), foot_(prog)
    {
    }

    SyncModelVerdict
    run()
    {
        PathState init;
        init.m = model_.initial();
        init.pclock.assign(prog_.numThreads(),
                           VectorClock(prog_.numThreads()));
        auto table = std::vector<std::vector<LastAccess>>(
            prog_.numLocations(),
            std::vector<LastAccess>(prog_.numThreads()));
        init.lrd = table;
        init.lwd = table;
        init.lrs = table;
        init.lws = std::move(table);
        dfs(std::move(init));
        verdict_.obeys = !race_found_;
        verdict_.exhausted = budget_hit_;
        if (budget_hit_ && !race_found_)
            warn("DRF0 check of '%s' exhausted its step budget; 'obeys' "
                 "covers only the explored prefix", prog_.name().c_str());
        return std::move(verdict_);
    }

  private:
    /** Execute the access thread @p p sits at; full bookkeeping. */
    StepVerdict
    step(PathState &s, ProcId p, bool check_races)
    {
        if (++verdict_.steps > cfg_.max_steps && cfg_.max_steps) {
            budget_hit_ = true;
            return StepVerdict::budget;
        }
        const Instruction *i = currentAccess(prog_.thread(p),
                                             s.m.threads[p]);
        const Addr a = i->addr;
        const AccessKind kind = accessKindOf(i->op);
        const bool is_sync = i->isSync();
        const bool weak =
            cfg_.flavor == HbRelation::SyncFlavor::weak_sync_read;

        VectorClock vc = s.pclock[p];
        vc[p] += 1;
        if (is_sync) {
            auto it = s.chan.find(a);
            if (it == s.chan.end())
                it = s.chan.emplace(a, VectorClock(prog_.numThreads()))
                         .first;
            vc.join(it->second);
            const bool publishes =
                !(weak && kind == AccessKind::sync_read);
            if (publishes)
                it->second.join(vc);
        }

        const std::uint32_t my_idx =
            static_cast<std::uint32_t>(trace_.size());
        if (check_races) {
            auto unseen = [&](const LastAccess &la, ProcId q) {
                return la.tick != 0 && la.tick > vc[q];
            };
            auto report = [&](const LastAccess &la) {
                recordWitness(la.idx, my_idx, p, a, kind, i, s);
            };
            for (ProcId q = 0; q < prog_.numThreads(); ++q) {
                if (q == p)
                    continue;
                // My read component vs their writes.  Sync-sync pairs are
                // exempt under the weak-sync-read refinement only.
                if (i->readsMemory()) {
                    if (unseen(s.lwd[a][q], q)) {
                        report(s.lwd[a][q]);
                        return StepVerdict::race;
                    }
                    if (!(weak && is_sync) && unseen(s.lws[a][q], q)) {
                        report(s.lws[a][q]);
                        return StepVerdict::race;
                    }
                }
                // My write component vs their reads and writes.
                if (i->writesMemory()) {
                    if (unseen(s.lrd[a][q], q)) {
                        report(s.lrd[a][q]);
                        return StepVerdict::race;
                    }
                    if (unseen(s.lwd[a][q], q)) {
                        report(s.lwd[a][q]);
                        return StepVerdict::race;
                    }
                    if (!(weak && is_sync)) {
                        if (unseen(s.lrs[a][q], q)) {
                            report(s.lrs[a][q]);
                            return StepVerdict::race;
                        }
                        if (unseen(s.lws[a][q], q)) {
                            report(s.lws[a][q]);
                            return StepVerdict::race;
                        }
                    }
                }
            }
        }

        // Update last-access tables.
        const LastAccess me{vc[p], my_idx};
        if (i->readsMemory())
            (is_sync ? s.lrs : s.lrd)[a][p] = me;
        if (i->writesMemory())
            (is_sync ? s.lws : s.lwd)[a][p] = me;

        // Machine step + trace.
        const Value old = s.m.mem[a];
        Value written = 0;
        if (i->writesMemory()) {
            written = storeValue(*i, s.m.threads[p]);
            s.m.mem[a] = written;
        }
        trace_.push_back(
            TraceOp{p, a, kind, i->readsMemory() ? old : 0, written});
        completeAccess(prog_.thread(p), s.m.threads[p], old);
        s.pclock[p] = vc;
        return StepVerdict::ok;
    }

    /** Would stepping thread @p p change neither its context nor memory? */
    bool
    isStutter(const PathState &s, ProcId p) const
    {
        const ThreadCtx &t = s.m.threads[p];
        const Instruction *i = currentAccess(prog_.thread(p), t);
        const Value old = s.m.mem[i->addr];
        if (i->writesMemory() &&
            storeValue(*i, t) != old)
            return false; // memory would change
        // Simulate the local continuation.
        ThreadCtx copy = t;
        completeAccess(prog_.thread(p), copy, old);
        return copy == t;
    }

    /**
     * Can the access thread @p p sits at ever conflict with what any
     * other thread may still do?  Residual sets only shrink as control
     * advances, so "no" is a permanent verdict and the access commutes
     * with every current and future transition of other threads.
     */
    bool
    conflictPossible(const PathState &s, ProcId p,
                     const Instruction &i) const
    {
        for (ProcId q = 0; q < prog_.numThreads(); ++q) {
            if (q == p || s.m.threads[q].halted)
                continue;
            const Pc qpc = s.m.threads[q].pc;
            if (foot_.may(q, qpc, Footprint::writes, i.addr))
                return true;
            if (i.writesMemory() &&
                foot_.may(q, qpc, Footprint::reads, i.addr))
                return true;
        }
        return false;
    }

    /** Run all conflict-free accesses eagerly (no scheduling branch). */
    StepVerdict
    normalize(PathState &s)
    {
        bool progress = true;
        while (progress) {
            progress = false;
            for (ProcId p = 0; p < prog_.numThreads(); ++p) {
                const ThreadCtx &t = s.m.threads[p];
                if (t.halted)
                    continue;
                const Instruction *i = currentAccess(prog_.thread(p), t);
                if (conflictPossible(s, p, *i))
                    continue;
                // Still race-check: the access may conflict with PAST
                // accesses of threads whose residuals have since shrunk.
                StepVerdict v = step(s, p, /*check_races=*/true);
                if (v != StepVerdict::ok)
                    return v;
                progress = true;
            }
        }
        return StepVerdict::ok;
    }

    /** @return true to abort the whole search (race or budget). */
    bool
    dfs(PathState s)
    {
        if (normalize(s) != StepVerdict::ok)
            return true;
        bool any_enabled = false;
        const std::size_t trace_mark = trace_.size();
        for (ProcId p = 0; p < prog_.numThreads(); ++p) {
            if (s.m.threads[p].halted)
                continue;
            if (isStutter(s, p))
                continue; // pruned: re-enabled once the state changes
            any_enabled = true;
            PathState next = s;
            StepVerdict v = step(next, p, /*check_races=*/true);
            if (v != StepVerdict::ok)
                return true;
            if (dfs(std::move(next)))
                return true;
            trace_.resize(trace_mark);
        }
        if (!any_enabled)
            ++verdict_.paths; // completed (or livelocked-spinning) path
        return false;
    }

    void
    recordWitness(std::uint32_t first_idx, std::uint32_t second_idx,
                  ProcId p, Addr a, AccessKind kind, const Instruction *i,
                  PathState &s)
    {
        race_found_ = true;
        // Materialize the current trace plus the offending access into an
        // Execution for reporting.
        Execution e(prog_.numThreads(), prog_.numLocations(),
                    prog_.initialMemory());
        for (const TraceOp &t : trace_)
            e.append(t.proc, t.addr, t.kind, t.vread, t.vwritten);
        const Value old = s.m.mem[a];
        e.append(p, a, kind, i->readsMemory() ? old : 0,
                 i->writesMemory() ? storeValue(*i, s.m.threads[p]) : 0);
        verdict_.races.push_back(Race{first_idx, second_idx});
        verdict_.witness = std::move(e);
    }

    const Program &prog_;
    Drf0CheckerCfg cfg_;
    ScModel model_;
    Footprint foot_;
    std::vector<TraceOp> trace_;
    SyncModelVerdict verdict_;
    bool race_found_ = false;
    bool budget_hit_ = false;
};

} // namespace

SyncModelVerdict
checkDrf0(const Program &prog, const Drf0CheckerCfg &cfg)
{
    Checker checker(prog, cfg);
    return checker.run();
}

} // namespace wo
