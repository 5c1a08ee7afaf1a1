/**
 * @file
 * The skeleton every abstract operational model is built on.
 *
 * A model is a machine: a State, an initial state, a final-state test,
 * and a successor relation.  The relation is all that distinguishes one
 * machine from another, and a model states it as two per-processor
 * generators:
 *
 *     void instrSucc(const State &s, ProcId p,
 *                    std::vector<LabeledSucc<State>> &out) const;
 *         append the edge labelled instrLabel(p), if processor p's
 *         current access is enabled in s;
 *
 *     void drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
 *                     std::vector<LabeledSucc<State>> &out) const;
 *         append every enabled drainLabel(p, a) edge (only the one at
 *         `*only` when given).  Optional: a machine without queues (SC)
 *         omits it and has no drain edges.
 *
 * plus an injective state layout, `encodeInto(const State &, Enc &)`,
 * written once against the common StateEnc / HashEnc interface.
 *
 * OpModel<Derived, State> derives the rest of the explorer's model
 * concept from those (see explorer.hh):
 *
 *  - labeledSuccessors(): every processor's instr edge, then every
 *    processor's drain edges.  The DPOR engine's sleep sets depend on
 *    sibling order, so this order is part of the contract;
 *  - stepLabel(): the single edge a label names, by running only that
 *    processor's generator;
 *  - outcome(), encode() and hashState();
 *  - program().
 *
 * State lives at namespace scope (the base names it in declarations
 * before the derived class is complete) and every State carries
 * `threads` and `mem`, from which outcome() reads the observable result.
 * A derived model declares `friend Base;` so its generators stay private.
 */

#ifndef WO_MODELS_OP_MODEL_HH
#define WO_MODELS_OP_MODEL_HH

#include <optional>
#include <string>
#include <vector>

#include "execution/execution.hh"
#include "models/state_enc.hh"
#include "models/thread_ctx.hh"
#include "models/transition.hh"
#include "program/program.hh"

namespace wo {

/** CRTP base: @p Derived supplies the semantics, this the plumbing. */
template <typename Derived, typename StateT>
class OpModel
{
  public:
    using State = StateT;
    using Succs = std::vector<LabeledSucc<State>>;

    /** Bind the model to @p prog (which must outlive the model). */
    explicit OpModel(const Program &prog) : prog_(prog) {}

    /** The bound program. */
    const Program &program() const { return prog_; }

    /** Every outgoing edge: instr edges by processor, then drains. */
    Succs
    labeledSuccessors(const State &s) const
    {
        Succs out;
        for (ProcId p = 0; p < prog_.numThreads(); ++p)
            self().instrSucc(s, p, out);
        if constexpr (hasDrains())
            for (ProcId p = 0; p < prog_.numThreads(); ++p)
                self().drainSuccs(s, p, std::nullopt, out);
        return out;
    }

    /**
     * The successor reached from @p s by the single transition @p l, or
     * nullopt if @p l is not enabled.  Materializes exactly one state:
     * the explorer's commutation probes chase individual labels and
     * must not pay for a full successor list.
     */
    std::optional<State>
    stepLabel(const State &s, const TransLabel &l) const
    {
        Succs out;
        if (l.kind == TransKind::instr)
            self().instrSucc(s, l.proc, out);
        else if constexpr (hasDrains())
            self().drainSuccs(s, l.proc, l.addr, out);
        for (auto &ls : out)
            if (ls.label == l)
                return std::move(ls.state);
        return std::nullopt;
    }

    /** The observable result of a final state. */
    Outcome
    outcome(const State &s) const
    {
        Outcome o;
        o.regs.reserve(s.threads.size());
        for (const auto &t : s.threads)
            o.regs.emplace_back(t.regs.begin(), t.regs.end());
        o.memory = s.mem;
        return o;
    }

    /** Injective byte encoding for the visited set (cold paths). */
    std::string
    encode(const State &s) const
    {
        StateEnc enc;
        self().encodeInto(s, enc);
        return enc.take();
    }

    /** Allocation-free 128-bit key over the encoded bytes (hot path). */
    StateHash
    hashState(const State &s) const
    {
        HashEnc enc;
        self().encodeInto(s, enc);
        return enc.take();
    }

  protected:
    /**
     * A state whose threads have run to their first access and whose
     * memory holds the program's initial image; the model sizes its own
     * queues on top.
     */
    State
    startState() const
    {
        State s;
        s.threads.resize(prog_.numThreads());
        for (ProcId p = 0; p < prog_.numThreads(); ++p)
            runLocal(prog_.thread(p), s.threads[p]);
        s.mem = prog_.initialMemory();
        return s;
    }

    /** Has every thread of @p s halted? */
    static bool
    allHalted(const State &s)
    {
        for (const auto &t : s.threads)
            if (!t.halted)
                return false;
        return true;
    }

    const Program &prog_;

  private:
    const Derived &self() const { return static_cast<const Derived &>(*this); }

    /** Does Derived declare drainSuccs (i.e. does it have queues)? */
    static constexpr bool
    hasDrains()
    {
        return requires(const Derived &d, const State &s, Succs &out) {
            d.drainSuccs(s, ProcId{}, std::optional<Addr>{}, out);
        };
    }
};

} // namespace wo

#endif // WO_MODELS_OP_MODEL_HH
