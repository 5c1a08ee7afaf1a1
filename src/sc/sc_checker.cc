#include "sc_checker.hh"

#include <string>
#include <unordered_set>

#include "common/logging.hh"

namespace wo {

namespace {

/** Backtracking search context. */
class Search
{
  public:
    Search(const Execution &exec, const ScCheckerCfg &cfg)
        : exec_(exec), cfg_(cfg), idx_(exec.numProcs(), 0),
          mem_(exec.initialMemory())
    {
    }

    bool
    run(ScCheckResult &out)
    {
        bool ok = search(out.witness);
        out.states = states_;
        return ok;
    }

    bool exhausted() const { return exhausted_; }

  private:
    /** Can the next op of processor @p p be appended to the order now? */
    bool
    enabled(ProcId p, const MemoryOp *&op) const
    {
        const auto &po = exec_.procOps(p);
        if (idx_[p] >= po.size())
            return false;
        op = &exec_.op(po[idx_[p]]);
        // A read (or the read half of an rmw) must see the current value.
        if (op->isRead() && mem_[op->addr] != op->value_read)
            return false;
        return true;
    }

    /** Serialize the search state for memoization. */
    std::string
    key() const
    {
        std::string k;
        k.reserve(idx_.size() * 4 + mem_.size() * 8);
        for (auto i : idx_)
            k.append(reinterpret_cast<const char *>(&i), sizeof(i));
        for (auto v : mem_)
            k.append(reinterpret_cast<const char *>(&v), sizeof(v));
        return k;
    }

    bool
    allDone() const
    {
        for (ProcId p = 0; p < exec_.numProcs(); ++p)
            if (idx_[p] < exec_.procOps(p).size())
                return false;
        return true;
    }

    /**
     * Count the current state; false when it needs no expansion: the
     * budget ran out, it is memoized as failing, or it is complete
     * (then @p done says whether it is accepted).
     */
    bool
    enter(bool &done)
    {
        done = false;
        if (cfg_.max_states && states_ >= cfg_.max_states) {
            exhausted_ = true;
            return false;
        }
        ++states_;
        if (allDone()) {
            done = !cfg_.expected_final || mem_ == *cfg_.expected_final;
            return false;
        }
        // Memoize only failing states; the first success ends the search.
        return failed_.count(key()) == 0;
    }

    /** One expanded state on the search stack. */
    struct Frame
    {
        ProcId next = 0;              //!< next processor to try
        ProcId taken = invalid_proc;  //!< processor whose op is applied
        Value saved = 0;              //!< its location's value before
    };

    /**
     * Depth-first search for a total order, with an explicit stack (an
     * execution can retire millions of ops, one level each): processors
     * are tried in index order and @p witness holds the order so far.
     * A state all of whose children failed is memoized as failing; its
     * key is recomputed then, since undoing the last child restores it.
     */
    bool
    search(std::vector<OpId> &witness)
    {
        bool done = false;
        if (!enter(done))
            return done;
        std::vector<Frame> stack(1);
        while (!stack.empty()) {
            Frame &f = stack.back();
            if (f.taken != invalid_proc) {
                // Undo the child just abandoned.
                const MemoryOp &op = exec_.op(witness.back());
                witness.pop_back();
                --idx_[f.taken];
                mem_[op.addr] = f.saved;
                f.taken = invalid_proc;
            }
            const MemoryOp *op = nullptr;
            while (f.next < exec_.numProcs() && !enabled(f.next, op))
                ++f.next;
            if (f.next == exec_.numProcs()) {
                failed_.insert(key());
                stack.pop_back();
                continue;
            }
            f.taken = f.next++;
            f.saved = mem_[op->addr];
            if (op->isWrite())
                mem_[op->addr] = op->value_written;
            ++idx_[f.taken];
            witness.push_back(op->id);
            if (enter(done))
                stack.emplace_back();
            else if (done || exhausted_)
                return done;
        }
        return false;
    }

    const Execution &exec_;
    const ScCheckerCfg &cfg_;
    std::vector<std::size_t> idx_;
    std::vector<Value> mem_;
    std::unordered_set<std::string> failed_;
    std::uint64_t states_ = 0;
    bool exhausted_ = false;
};

} // namespace

ScCheckResult
checkSequentialConsistency(const Execution &exec, const ScCheckerCfg &cfg)
{
    ScCheckResult result;
    // Cheap screen: reads of values nobody wrote can never be SC.
    std::string why;
    if (!exec.valuesPlausible(&why)) {
        result.sc = false;
        return result;
    }
    Search search(exec, cfg);
    result.sc = search.run(result);
    result.exhausted = search.exhausted();
    if (!result.sc)
        result.witness.clear();
    return result;
}

bool
isSequentiallyConsistent(const Execution &exec)
{
    return checkSequentialConsistency(exec).sc;
}

} // namespace wo
