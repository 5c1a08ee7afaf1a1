/**
 * @file
 * The abstract machine of Dubois/Scheurich/Briggs weak ordering
 * (Definition 1):
 *
 *   (1) accesses to synchronizing variables are strongly ordered -- here,
 *       synchronization operations execute atomically on memory, so all
 *       processors observe them identically;
 *   (2) no access to a synchronizing variable is issued before all previous
 *       global data accesses are globally performed -- a synchronization
 *       operation is enabled only when the processor's pending-write pool
 *       is empty (data reads perform at issue);
 *   (3) no global data access is issued before a previous access to a
 *       synchronizing variable is globally performed -- synchronization
 *       operations perform at issue, so this holds by construction.
 *
 * Between synchronization operations, data writes sit in the pool and
 * drain to memory in any order (per-location program order preserved);
 * data reads forward from the pool or read memory instantly.  That is the
 * weakness Figure 1 exploits and the stall Figure 3 charges to P0.
 */

#ifndef WO_MODELS_WO_DEF1_MODEL_HH
#define WO_MODELS_WO_DEF1_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "models/op_model.hh"
#include "models/pending_pool.hh"

namespace wo {

/** Machine state of the Definition-1 machine. */
struct WoDef1State
{
    std::vector<ThreadCtx> threads;
    std::vector<Value> mem;
    std::vector<PendingPool> pools; // per processor

    bool operator==(const WoDef1State &other) const = default;
};

/** Weakly ordered machine per the old (Definition 1) rules. */
class WoDef1Model : public OpModel<WoDef1Model, WoDef1State>
{
    using Base = OpModel<WoDef1Model, WoDef1State>;
    friend Base;

  public:
    /**
     * @param prog      the program (must outlive the model)
     * @param max_pool  pending writes allowed per processor
     */
    explicit WoDef1Model(const Program &prog, std::size_t max_pool = 4);

    static const char *name() { return "weak-ordering-def1"; }

    State initial() const;
    bool isFinal(const State &s) const;

    /**
     * Injective state layout, written into either encoder: threads,
     * memory, then each processor's pending-write pool.
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
        enc.sep();
        for (const auto &pool : s.pools)
            encodePool(enc, pool);
    }

    /** Human-readable state rendering (for witness chains/debugging). */
    std::string dump(const State &s) const;

    /** Locations @p p's pending writes will still write to memory. */
    void
    pendingAddrs(const State &s, ProcId p, std::vector<Addr> &out) const
    {
        for (const auto &w : s.pools[p])
            out.push_back(w.addr);
    }

  private:
    /** Append @p p's instruction-step successor (if enabled) to @p out. */
    void instrSucc(const State &s, ProcId p, Succs &out) const;

    /**
     * Append @p p's drain successors to @p out; @p only restricts the
     * enumeration to drains of one location.
     */
    void drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
                    Succs &out) const;

    std::size_t max_pool_;
};

} // namespace wo

#endif // WO_MODELS_WO_DEF1_MODEL_HH
