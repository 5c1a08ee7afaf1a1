#include "axiom/axiom_eval.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "program/instruction.hh"

namespace wo {
namespace {

/** One dynamic memory event of a candidate execution. */
struct Event
{
    bool is_read = false;
    bool is_write = false;
    bool is_sync = false;
    Addr addr = invalid_addr;
    Value value_read = 0;
    Value value_written = 0;
};

/** One symbolic unfolding of a thread: its events and final registers. */
struct Unfolding
{
    std::vector<Event> events;
    std::array<Value, num_regs> regs{};
};

/**
 * Enumerate every unfolding of one thread where each memory read is free
 * to return any value of @p universe.  The interpreter here is written
 * from the IR spec (program/instruction.hh) on purpose -- it must not
 * share code with the operational models' thread_ctx machinery, so the
 * two engines can act as independent witnesses.
 *
 * The walk is depth-first over one shared path: events are pushed on the
 * way down and truncated on return.  Each completed path is counted
 * against max_unfoldings, its writes are added to @p written (a sorted
 * set), and, only when @p out is given, it is copied out as an
 * Unfolding.
 */
class Unfolder
{
  public:
    Unfolder(const ThreadCode &code, ProcId tid,
             const std::vector<Value> &universe, const AxiomCfg &cfg,
             AxiomResult &res)
        : code_(code), tid_(tid), universe_(universe), cfg_(cfg), res_(res)
    {
    }

    /** @return false iff a budget tripped or the thread loops. */
    bool
    run(std::vector<Value> &written, std::vector<Unfolding> *out)
    {
        written_ = &written;
        out_ = out;
        return walk(0, {}, 0);
    }

  private:
    using Regs = std::array<Value, num_regs>;

    bool
    fail(std::string why)
    {
        res_.conclusive = false;
        if (res_.why_inconclusive.empty())
            res_.why_inconclusive = std::move(why);
        return false;
    }

    /**
     * A backward jump to @p target with @p regs: false iff this path
     * already reached @p target with the same registers.  Control flow
     * depends only on (pc, registers), so replaying the read values
     * between the two visits repeats the state forever: the walk has an
     * infinite path and no step or unfolding budget can contain it.
     */
    bool
    enterLoopHead(Pc target, const Regs &regs)
    {
        for (const auto &[pc, r] : heads_)
            if (pc == target && r == regs)
                return false;
        heads_.emplace_back(target, regs);
        return true;
    }

    void
    noteWrite(Value v)
    {
        auto it = std::lower_bound(written_->begin(), written_->end(), v);
        if (it == written_->end() || *it != v)
            written_->insert(it, v);
    }

    bool
    walk(Pc pc, Regs regs, std::uint64_t steps)
    {
        for (;;) {
            if (++steps > cfg_.max_steps)
                return fail("unfolding exceeded max_steps (program loops?)");
            if (pc >= code_.size())
                return record(regs);
            const Instruction &in = code_.at(pc);
            switch (in.op) {
            case Opcode::mov_imm:
                regs[in.dst] = in.imm;
                ++pc;
                break;
            case Opcode::add:
                regs[in.dst] = regs[in.src] + regs[in.src2];
                ++pc;
                break;
            case Opcode::add_imm:
                regs[in.dst] = regs[in.src] + in.imm;
                ++pc;
                break;
            case Opcode::branch_eq:
            case Opcode::branch_ne:
            case Opcode::jump: {
                const bool taken =
                    in.op == Opcode::jump ||
                    (regs[in.src] == in.imm) == (in.op == Opcode::branch_eq);
                if (!taken) {
                    ++pc;
                    break;
                }
                if (in.target <= pc && !enterLoopHead(in.target, regs))
                    return fail(strprintf("thread %u loops: pc %u repeats "
                                          "with the same registers",
                                          unsigned{tid_}, in.target));
                pc = in.target;
                break;
            }
            case Opcode::delay:
                ++pc;
                break;
            case Opcode::halt:
                return record(regs);
            case Opcode::store_data:
            case Opcode::sync_store: {
                Event e;
                e.is_write = true;
                e.is_sync = in.op == Opcode::sync_store;
                e.addr = in.addr;
                e.value_written = in.use_imm ? in.imm : regs[in.src];
                noteWrite(e.value_written);
                path_.push_back(e);
                ++pc;
                break;
            }
            case Opcode::load_data:
            case Opcode::sync_load:
            case Opcode::test_and_set: {
                // Branch point: the read may return any universe value
                // (a test_and_set also writes 1).
                Event e;
                e.is_read = true;
                e.is_write = in.op == Opcode::test_and_set;
                e.is_sync = in.op != Opcode::load_data;
                e.addr = in.addr;
                if (e.is_write) {
                    e.value_written = 1;
                    noteWrite(1);
                }
                const std::size_t path_mark = path_.size();
                const std::size_t heads_mark = heads_.size();
                for (Value v : universe_) {
                    e.value_read = v;
                    path_.push_back(e);
                    regs[in.dst] = v;
                    if (!walk(pc + 1, regs, steps))
                        return false;
                    path_.resize(path_mark);
                    heads_.resize(heads_mark);
                }
                return true;
            }
            }
        }
    }

    bool
    record(const Regs &regs)
    {
        if (++unfoldings_ > cfg_.max_unfoldings)
            return fail("thread exceeded max_unfoldings");
        if (out_)
            out_->push_back(Unfolding{path_, regs});
        return true;
    }

    const ThreadCode &code_;
    const ProcId tid_;
    const std::vector<Value> &universe_;
    const AxiomCfg &cfg_;
    AxiomResult &res_;
    std::vector<Value> *written_ = nullptr;
    std::vector<Unfolding> *out_ = nullptr;
    std::uint64_t unfoldings_ = 0;
    std::vector<Event> path_;                //!< the current path's events
    std::vector<std::pair<Pc, Regs>> heads_; //!< its backward-jump states
};

/** Judge one candidate execution (one unfolding per thread). */
class Judge
{
  public:
    Judge(const std::vector<const Unfolding *> &cand,
          const std::vector<Value> &init, const AxiomCfg &cfg,
          AxiomResult &res)
        : cand_(cand), init_(init), cfg_(cfg), res_(res)
    {
    }

    /** @return false iff the judgement budget tripped. */
    bool
    run()
    {
        // Flatten events into nodes; record program-order chains.
        for (std::size_t t = 0; t < cand_.size(); ++t)
            for (std::size_t i = 0; i < cand_[t]->events.size(); ++i) {
                nodes_.push_back(&cand_[t]->events[i]);
                node_thread_.push_back(t);
                node_index_.push_back(i);
            }
        const int n = static_cast<int>(nodes_.size());
        for (int v = 0; v < n; ++v) {
            const Event &e = *nodes_[v];
            if (e.is_write)
                writes_of_[e.addr].push_back(v);
            if (e.is_read)
                reads_.push_back(v);
        }
        // reads-from candidates: same location, matching value (or the
        // initial image, encoded as node -1).
        rf_choice_.resize(reads_.size());
        for (std::size_t i = 0; i < reads_.size(); ++i) {
            const Event &r = *nodes_[reads_[i]];
            if (r.value_read == initValue(r.addr))
                rf_choice_[i].push_back(-1);
            for (int w : writes_of_[r.addr])
                if (w != reads_[i] &&
                    nodes_[w]->value_written == r.value_read)
                    rf_choice_[i].push_back(w);
            if (rf_choice_[i].empty())
                return true; // value infeasible; candidate contributes nothing
        }
        // Per-location write orders: all permutations, budget-gated.
        for (auto &[addr, ws] : writes_of_) {
            std::vector<std::vector<int>> perms;
            std::vector<int> p = ws;
            std::sort(p.begin(), p.end());
            do {
                perms.push_back(p);
                if (perms.size() > 5'040) { // 7! -- far beyond litmus scale
                    res_.conclusive = false;
                    if (res_.why_inconclusive.empty())
                        res_.why_inconclusive =
                            "too many writes to one location";
                    return false;
                }
            } while (std::next_permutation(p.begin(), p.end()));
            ws_addrs_.push_back(addr);
            ws_perms_.push_back(std::move(perms));
        }
        return enumRf(0);
    }

  private:
    Value
    initValue(Addr a) const
    {
        return a < init_.size() ? init_[a] : 0;
    }

    bool
    enumRf(std::size_t i)
    {
        if (i == reads_.size())
            return enumWs(0);
        for (int w : rf_choice_[i]) {
            rf_.resize(reads_.size());
            rf_[i] = w;
            if (!enumRf(i + 1))
                return false;
        }
        return true;
    }

    bool
    enumWs(std::size_t a)
    {
        if (a == ws_addrs_.size())
            return judge();
        for (const auto &perm : ws_perms_[a]) {
            ws_order_.resize(ws_addrs_.size());
            ws_order_[a] = &perm;
            if (!enumWs(a + 1))
                return false;
        }
        return true;
    }

    bool
    judge()
    {
        if (++res_.judgements > cfg_.max_judgements) {
            res_.conclusive = false;
            if (res_.why_inconclusive.empty())
                res_.why_inconclusive = "judgement budget exceeded";
            return false;
        }
        const int n = static_cast<int>(nodes_.size());
        // Position of each write in its location's chosen order.
        std::vector<int> ws_pos(n, -1);
        for (std::size_t a = 0; a < ws_addrs_.size(); ++a)
            for (std::size_t k = 0; k < ws_order_[a]->size(); ++k)
                ws_pos[(*ws_order_[a])[k]] = static_cast<int>(k);
        // RMW atomicity: the rmw's own write must immediately follow the
        // write it read from in the coherence order.
        for (std::size_t i = 0; i < reads_.size(); ++i) {
            int r = reads_[i];
            if (!nodes_[r]->is_write)
                continue;
            int expect = rf_[i] < 0 ? 0 : ws_pos[rf_[i]] + 1;
            if (ws_pos[r] != expect)
                return true; // inconsistent assignment; try the next
        }
        // Build po U rf U ws U fr and check acyclicity.
        std::vector<std::vector<int>> adj(n);
        std::vector<int> indeg(n, 0);
        auto edge = [&](int u, int v) {
            if (u == v)
                return;
            adj[u].push_back(v);
            ++indeg[v];
        };
        int prev = -1;
        for (int v = 0; v < n; ++v) { // po: nodes are in (thread, index) order
            if (prev >= 0 && node_thread_[prev] == node_thread_[v])
                edge(prev, v);
            prev = v;
        }
        for (std::size_t a = 0; a < ws_addrs_.size(); ++a)
            for (std::size_t k = 1; k < ws_order_[a]->size(); ++k)
                edge((*ws_order_[a])[k - 1], (*ws_order_[a])[k]);
        for (std::size_t i = 0; i < reads_.size(); ++i) {
            int r = reads_[i];
            if (rf_[i] >= 0)
                edge(rf_[i], r);
            if (cfg_.inject_bug)
                continue; // test hook: drop fr, admitting non-SC outcomes
            // fr: the read precedes the write that overwrites its source.
            const auto &order = orderOf(nodes_[r]->addr);
            std::size_t next = rf_[i] < 0 ? 0 : ws_pos[rf_[i]] + 1;
            if (next < order.size())
                edge(r, order[next]);
        }
        // Kahn's algorithm: all nodes drain iff the graph is acyclic.
        std::vector<int> queue;
        for (int v = 0; v < n; ++v)
            if (indeg[v] == 0)
                queue.push_back(v);
        int drained = 0;
        while (!queue.empty()) {
            int v = queue.back();
            queue.pop_back();
            ++drained;
            for (int w : adj[v])
                if (--indeg[w] == 0)
                    queue.push_back(w);
        }
        if (drained != n)
            return true; // cyclic: not an SC execution
        ++res_.consistent;
        // Outcome: final registers per thread, final memory from the last
        // write in each location's coherence order.
        Outcome o;
        o.regs.reserve(cand_.size());
        for (const Unfolding *u : cand_)
            o.regs.emplace_back(u->regs.begin(), u->regs.end());
        o.memory.assign(init_.begin(), init_.end());
        for (std::size_t a = 0; a < ws_addrs_.size(); ++a)
            if (!ws_order_[a]->empty())
                o.memory[ws_addrs_[a]] =
                    nodes_[ws_order_[a]->back()]->value_written;
        res_.outcomes.insert(std::move(o));
        return true;
    }

    const std::vector<int> &
    orderOf(Addr a) const
    {
        for (std::size_t i = 0; i < ws_addrs_.size(); ++i)
            if (ws_addrs_[i] == a)
                return *ws_order_[i];
        static const std::vector<int> empty;
        return empty;
    }

    const std::vector<const Unfolding *> &cand_;
    const std::vector<Value> &init_;
    const AxiomCfg &cfg_;
    AxiomResult &res_;

    std::vector<const Event *> nodes_;
    std::vector<std::size_t> node_thread_;
    std::vector<std::size_t> node_index_;
    std::map<Addr, std::vector<int>> writes_of_;
    std::vector<int> reads_;
    std::vector<std::vector<int>> rf_choice_;
    std::vector<int> rf_;
    std::vector<Addr> ws_addrs_;
    std::vector<std::vector<std::vector<int>>> ws_perms_;
    std::vector<const std::vector<int> *> ws_order_;
};

} // namespace

AxiomResult
axiomScOutcomes(const Program &prog, const AxiomCfg &cfg)
{
    AxiomResult res;
    std::vector<Value> init = prog.initialMemory();
    init.resize(prog.numLocations(), 0);

    // Fixed-point value universe: seed with the initial image, then add
    // every value any unfolding can write until nothing new appears.
    std::vector<Value> universe(init.begin(), init.end());
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());

    // While it still grows, a pass only collects the written values and
    // counts unfoldings; the Unfoldings are built once, from the
    // converged universe.
    for (;;) {
        std::vector<Value> next = universe;
        for (ProcId t = 0; t < prog.numThreads(); ++t)
            if (!Unfolder(prog.thread(t), t, universe, cfg, res)
                     .run(next, nullptr))
                return res;
        if (next == universe)
            break;
        if (next.size() > cfg.max_universe) {
            res.conclusive = false;
            res.why_inconclusive = "value universe did not converge";
            return res;
        }
        universe = std::move(next);
    }
    std::vector<std::vector<Unfolding>> unfoldings(prog.numThreads());
    for (ProcId t = 0; t < prog.numThreads(); ++t) {
        std::vector<Value> written = universe;
        if (!Unfolder(prog.thread(t), t, universe, cfg, res)
                 .run(written, &unfoldings[t]))
            return res;
    }

    // Odometer over one unfolding per thread.
    std::vector<std::size_t> pick(prog.numThreads(), 0);
    for (;;) {
        std::vector<const Unfolding *> cand;
        cand.reserve(prog.numThreads());
        for (ProcId t = 0; t < prog.numThreads(); ++t)
            cand.push_back(&unfoldings[t][pick[t]]);
        ++res.candidates;
        Judge judge(cand, init, cfg, res);
        if (!judge.run())
            return res;
        ProcId t = 0;
        for (; t < prog.numThreads(); ++t) {
            if (++pick[t] < unfoldings[t].size())
                break;
            pick[t] = 0;
        }
        if (t == prog.numThreads())
            break;
    }
    return res;
}

} // namespace wo
