/**
 * @file
 * The idealized architecture of the paper's Section 4: every memory access
 * executes atomically and in program order.  This model plays two roles:
 * it produces the reference outcome set that defines "appears sequentially
 * consistent", and its executions are the idealized executions over which
 * DRF0's happens-before condition is evaluated.
 */

#ifndef WO_MODELS_SC_MODEL_HH
#define WO_MODELS_SC_MODEL_HH

#include <string>
#include <vector>

#include "models/op_model.hh"

namespace wo {

/** A machine state: thread contexts plus the single atomic memory. */
struct ScState
{
    ThreadVec threads;
    MemImage mem;

    bool operator==(const ScState &other) const = default;
};

/** The sequentially consistent reference machine. */
class ScModel : public OpModel<ScModel, ScState>
{
    using Base = OpModel<ScModel, ScState>;
    friend Base;

  public:
    using Base::Base;

    /** Model name for reports. */
    static const char *name() { return "SC"; }

    /** The initial state (threads advanced to their first access). */
    State initial() const { return startState(); }

    /** All threads halted (memory is always quiescent here). */
    bool isFinal(const State &s) const { return allHalted(s); }

    /**
     * Injective state layout, written into either encoder: threads,
     * separator, memory image.
     */
    template <typename Enc>
    void
    encodeInto(const State &s, Enc &enc) const
    {
        for (const auto &t : s.threads)
            enc.putThread(t);
        enc.sep();
        for (Value v : s.mem)
            enc.put(v);
    }

    /** Human-readable state rendering (for witness chains/debugging). */
    std::string dump(const State &s) const;

    /** Locations @p p's queued effects will still write (none: no queues). */
    void pendingAddrs(const State &, ProcId, std::vector<Addr> &) const {}

    /**
     * Execute the access thread @p p currently sits at, atomically, in
     * place, and append the resulting dynamic operation to @p trace when
     * non-null.  Exposed so the DRF0 program checker can drive the
     * idealized machine path-by-path.
     * @return false if thread p is halted (no step taken)
     */
    bool step(State &s, ProcId p, Execution *trace = nullptr) const;

  private:
    /** Append @p p's instruction-step successor (if enabled) to @p out. */
    template <typename Out>
    void
    instrSucc(const State &s, ProcId p, Out &out) const
    {
        if (s.threads[p].halted)
            return;
        step(out.emplace_back(instrLabel(p), s).state, p);
    }
};

} // namespace wo

#endif // WO_MODELS_SC_MODEL_HH
