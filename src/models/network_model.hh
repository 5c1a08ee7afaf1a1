/**
 * @file
 * Figure 1, configuration 2: a machine whose processors issue accesses in
 * program order into a general (multi-path) interconnection network, so
 * accesses may reach the memory modules in a different order [Lam79].
 *
 * Writes travel through the network: a write is "in flight" from issue
 * until its (nondeterministically scheduled) arrival at memory.  In-flight
 * writes of one processor to the *same* location arrive in issue order
 * (one path per module), but writes to different locations may be passed.
 * A read is modelled as arriving at its module instantly -- which lets it
 * arrive before an older in-flight write to a different module, the exact
 * reordering of Lamport's example -- except that a read may not pass an
 * in-flight write of its own processor to the same location.
 *
 * Synchronization operations wait for all of the processor's in-flight
 * writes to arrive, then act atomically (strongly ordered).
 */

#ifndef WO_MODELS_NETWORK_MODEL_HH
#define WO_MODELS_NETWORK_MODEL_HH

#include <cstddef>

#include "models/queued_model.hh"

namespace wo {

/** General-interconnect machine without caches. */
class NetworkReorderModel : public QueuedModel<NetworkReorderModel>
{
    using Base = QueuedModel<NetworkReorderModel>;
    friend Base;

  public:
    /**
     * @param prog       the program (must outlive the model)
     * @param max_flights in-flight writes allowed per processor
     */
    explicit NetworkReorderModel(const Program &prog,
                                 std::size_t max_flights = 4)
        : Base(prog, max_flights)
    {
    }

    static const char *name() { return "general-network"; }

  private:
    // In-flight writes arrive oldest-per-location first (the default);
    // a read arrives instantly but may not pass its own processor's
    // in-flight write to the same location.
    static constexpr bool forwards_loads = false;
    static constexpr const char *pool_name = "in-flight";
};

} // namespace wo

#endif // WO_MODELS_NETWORK_MODEL_HH
