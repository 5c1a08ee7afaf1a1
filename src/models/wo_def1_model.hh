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

#include "models/queued_model.hh"

namespace wo {

/**
 * Weakly ordered machine per the old (Definition 1) rules: exactly the
 * queued machine's defaults -- oldest-per-location drains, forwarding
 * loads, and synchronization gated on an empty pool (condition 2).
 */
class WoDef1Model : public QueuedModel<WoDef1Model>
{
    using Base = QueuedModel<WoDef1Model>;

  public:
    /**
     * @param prog      the program (must outlive the model)
     * @param max_pool  pending writes allowed per processor
     */
    explicit WoDef1Model(const Program &prog, std::size_t max_pool = 4)
        : Base(prog, max_pool)
    {
    }

    static const char *name() { return "weak-ordering-def1"; }
};

} // namespace wo

#endif // WO_MODELS_WO_DEF1_MODEL_HH
