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
 * Mechanically, a reservation is (location, owner, prefix_count): the
 * writes awaited are exactly the first prefix_count entries of the owner's
 * issue-ordered pending pool (erasure keeps relative order, so the awaited
 * set is always a prefix; see queued_model.hh).  This realizes the paper's
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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "models/queued_model.hh"

namespace wo {

/**
 * An active reservation: the location, who holds it and how many writes
 * it awaits.
 */
struct Drf0Reservation
{
    Addr addr;
    ProcId owner;
    std::uint32_t prefix_count; // > 0 while active

    bool operator==(const Drf0Reservation &other) const = default;
};

/** Machine state of the DRF0 machine: a queued state plus reservations. */
struct WoDrf0State : QueuedState
{
    // Active reservations only, sorted by addr (at most one per
    // location); beyond inline_pool of them the list spills.
    InlineVec<Drf0Reservation, inline_pool> reserved;

    bool operator==(const WoDrf0State &other) const = default;
};

/** The new-definition weakly ordered machine (w.r.t. DRF0). */
class WoDrf0Model : public QueuedModel<WoDrf0Model, WoDrf0State>
{
    using Base = QueuedModel<WoDrf0Model, WoDrf0State>;
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
                         bool weak_sync_read = false)
        : Base(prog, max_pool), weak_sync_read_(weak_sync_read)
    {
    }

    static const char *name() { return "weak-ordering-drf0"; }

  private:
    /**
     * Condition 5: another processor's active reservation on @p a stalls
     * the synchronization operation -- but NOT the issuing processor's
     * own pending accesses; it does not wait for its own pool (the
     * departure from Definition 1).
     */
    bool
    syncEnabled(const State &s, ProcId p, Addr a) const
    {
        for (const Drf0Reservation &r : s.reserved)
            if (r.addr == a)
                return r.owner == p;
        return true;
    }

    /**
     * Reserve the location for the issuing processor if it still has
     * pending pre-synchronization writes.  Under the Section-6
     * refinement, a pure Test does not publish ordering and thus sets no
     * reservation.  (If the pool is empty no reservation by p can be
     * active: prefix counts never exceed the pool size, and zero-prefix
     * reservations are erased at drain time.)
     */
    void
    onSync(State &next, ProcId p, const Instruction &i) const
    {
        const bool publishes =
            !(weak_sync_read_ && i.op == Opcode::sync_load);
        if (!publishes || next.pools[p].empty())
            return;
        const Drf0Reservation r{
            i.addr, p, static_cast<std::uint32_t>(next.pools[p].size())};
        auto &res = next.reserved;
        std::size_t at = 0;
        while (at < res.size() && res[at].addr < r.addr)
            ++at;
        if (at < res.size() && res[at].addr == r.addr) {
            res[at] = r;
            return;
        }
        res.push_back(r); // then rotate it into addr order
        std::rotate(res.begin() + at, res.end() - 1, res.end());
    }

    /**
     * Draining entry @p k of processor @p p shrinks every reservation
     * prefix of p that still covers k; prefixes hitting zero clear the
     * reservation ("all reserve bits are reset when the counter reads
     * zero" -- here, when the awaited prefix has drained).
     */
    void
    onDrain(State &next, ProcId p, std::size_t k) const
    {
        for (auto it = next.reserved.begin(); it != next.reserved.end();) {
            if (it->owner == p && it->prefix_count > k &&
                --it->prefix_count == 0)
                it = next.reserved.erase(it);
            else
                ++it;
        }
    }

    /** The active reservations, in Addr order (so canonical). */
    template <typename Enc>
    void
    encodeExtra(const State &s, Enc &enc) const
    {
        enc.sep();
        for (const Drf0Reservation &r : s.reserved) {
            enc.put(r.addr);
            enc.put(r.owner);
            enc.put(r.prefix_count);
        }
    }

    void
    dumpExtra(const State &s, std::string &out) const
    {
        for (const Drf0Reservation &r : s.reserved)
            out += strprintf("  reserved [%u] by P%u awaiting %u write(s)\n",
                             r.addr, r.owner, r.prefix_count);
    }

    bool weak_sync_read_;
};

} // namespace wo

#endif // WO_MODELS_WO_DRF0_MODEL_HH
