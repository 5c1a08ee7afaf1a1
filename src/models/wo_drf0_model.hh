/**
 * @file
 * The abstract machine of the paper's Section 5: an implementation that is
 * weakly ordered with respect to DRF0 under the *new* definition but
 * deliberately violates conditions 2 and 3 of the old Definition 1.
 *
 * The key move (Section 5.1): the processor that issues a synchronization
 * operation does NOT stall for its previous accesses to be globally
 * performed.  Instead the operation commits immediately and the location
 * becomes *reserved*: a subsequent synchronization operation on the same
 * location by another processor cannot commit until the reserving
 * processor's pre-synchronization writes have drained (condition 5).  The
 * reserving processor runs ahead, overlapping its pending writes with the
 * work after the synchronization -- Figure 3's advantage.
 *
 * Mechanically, a reservation is (location -> owner, prefix_count): the
 * writes awaited are exactly the first prefix_count entries of the owner's
 * issue-ordered pending pool (erasure keeps relative order, so the awaited
 * set is always a prefix; see pending_pool.hh).  This realizes the paper's
 * "more dynamic solution ... a mechanism to distinguish accesses generated
 * before a particular synchronization operation from those generated
 * after" [AdH89]; the timed simulator implements the simpler
 * counter-plus-reserve-bit hardware of Section 5.3 instead, and both are
 * shown to satisfy the sufficient conditions.
 *
 * Checks against the conditions of Section 5.1:
 *   1. intra-processor dependencies: the interpreter is in-order;
 *   2. per-location write serialization: drains keep per-location program
 *      order and memory is a single serialization point;
 *   3. synchronization operations execute atomically on memory, so they
 *      are totally ordered by commit time and globally performed in that
 *      order, components together;
 *   4. accesses issue only after previous synchronization operations have
 *      committed: synchronization commits at issue, in program order;
 *   5. the reservation rule above.
 */

#ifndef WO_MODELS_WO_DRF0_MODEL_HH
#define WO_MODELS_WO_DRF0_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "models/op_model.hh"
#include "models/pending_pool.hh"

namespace wo {

/** An active reservation: who holds it and how many writes it awaits. */
struct Drf0Reservation
{
    ProcId owner;
    std::uint32_t prefix_count; // > 0 while active

    bool operator==(const Drf0Reservation &other) const = default;
};

/** Machine state of the DRF0 machine. */
struct WoDrf0State
{
    std::vector<ThreadCtx> threads;
    std::vector<Value> mem;
    std::vector<PendingPool> pools;           // per processor
    std::map<Addr, Drf0Reservation> reserved; // active reservations only

    bool operator==(const WoDrf0State &other) const = default;
};

/** The new-definition weakly ordered machine (w.r.t. DRF0). */
class WoDrf0Model : public OpModel<WoDrf0Model, WoDrf0State>
{
    using Base = OpModel<WoDrf0Model, WoDrf0State>;
    friend Base;

  public:
    /**
     * @param prog           the program (must outlive the model)
     * @param max_pool       pending writes allowed per processor
     * @param weak_sync_read Section-6 refinement: a read-only
     *                       synchronization operation (Test) no longer
     *                       *sets* a reservation -- it cannot be used to
     *                       order the issuing processor's previous accesses
     *                       for subsequent synchronizers -- but it still
     *                       *honors* reservations held by others (as an
     *                       acquire it must not observe a released location
     *                       before the releaser's prior writes drain).
     *                       Software must then be race-free under the
     *                       matching HbRelation::SyncFlavor::weak_sync_read
     *                       happens-before.
     */
    explicit WoDrf0Model(const Program &prog, std::size_t max_pool = 4,
                         bool weak_sync_read = false);

    static const char *name() { return "weak-ordering-drf0"; }

    State initial() const;
    bool isFinal(const State &s) const;

    /**
     * Injective state layout, written into either encoder: threads,
     * memory, the pending pools, then the active reservations (the map
     * iterates in Addr order, so the section is canonical).
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
        enc.sep();
        for (const auto &[addr, r] : s.reserved) {
            enc.put(addr);
            enc.put(r.owner);
            enc.put(r.prefix_count);
        }
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
    bool weak_sync_read_;
};

} // namespace wo

#endif // WO_MODELS_WO_DRF0_MODEL_HH
