/**
 * @file
 * The per-processor pool of issued-but-not-globally-performed data writes
 * shared by the two abstract weak-ordering machines.  Pool entries drain to
 * memory in any order except that two writes by the same processor to the
 * same location keep their program order (per-location write serialization,
 * condition 2 of Section 5.1); loads forward from the youngest own pending
 * write to the same location.
 *
 * The other queued machines hold their (address, value) queues in the same
 * type and drain them by their own rules: the write buffer and the
 * stale-cache inbox strictly from the front, the network like a pool.
 *
 * Pools are kept in issue order.  Because erasures preserve relative order,
 * the writes that were pending at any past instant always form a *prefix*
 * of the current pool -- which lets the DRF0 machine represent "the
 * accesses issued before synchronization operation S" as a plain count
 * (see WoDrf0Model), keeping states canonical and the explored graph
 * finite.
 */

#ifndef WO_MODELS_PENDING_POOL_HH
#define WO_MODELS_PENDING_POOL_HH

#include <optional>
#include <vector>

#include "common/types.hh"
#include "models/state_enc.hh"

namespace wo {

/** One issued-but-unperformed data write. */
struct PendingWrite
{
    Addr addr;
    Value value;

    bool operator==(const PendingWrite &other) const = default;
};

/** A processor's pending-write pool, in issue order. */
using PendingPool = std::vector<PendingWrite>;

/** Youngest pending value for @p addr, if any (store-to-load forwarding). */
inline std::optional<Value>
poolForward(const PendingPool &pool, Addr addr)
{
    for (auto it = pool.rbegin(); it != pool.rend(); ++it)
        if (it->addr == addr)
            return it->value;
    return std::nullopt;
}

/** May entry @p k drain now? Only the oldest pending write per location. */
inline bool
poolMayDrain(const PendingPool &pool, std::size_t k)
{
    for (std::size_t j = 0; j < k; ++j)
        if (pool[j].addr == pool[k].addr)
            return false;
    return true;
}

/** Serialize a pool into a state encoding (StateEnc or HashEnc). */
template <typename Enc>
void
encodePool(Enc &enc, const PendingPool &pool)
{
    for (const auto &w : pool) {
        enc.put(w.addr);
        enc.put(w.value);
    }
    enc.sep();
}

} // namespace wo

#endif // WO_MODELS_PENDING_POOL_HH
