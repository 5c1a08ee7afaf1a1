/**
 * @file
 * Figure 1, configuration 1: a shared-bus machine without caches whose
 * processors have FIFO write buffers that reads are allowed to pass.
 *
 * A store enters the issuing processor's buffer and drains to memory later;
 * a load returns the youngest buffered store to the same address (store
 * forwarding) or, failing that, the memory value -- without waiting for
 * older buffered stores to drain.  That is exactly the mechanism by which
 * the figure's example kills both processors.
 *
 * Synchronization operations are modelled conservatively (strongly
 * ordered): they drain the issuing processor's buffer first and then act on
 * memory atomically.  Figure 1 itself uses none.
 */

#ifndef WO_MODELS_WRITE_BUFFER_MODEL_HH
#define WO_MODELS_WRITE_BUFFER_MODEL_HH

#include <cstddef>

#include "models/queued_model.hh"

namespace wo {

/** Bus-based machine with per-processor FIFO write buffers. */
class WriteBufferModel : public QueuedModel<WriteBufferModel>
{
    using Base = QueuedModel<WriteBufferModel>;
    friend Base;

  public:
    /**
     * @param prog      the program (must outlive the model)
     * @param capacity  write-buffer depth; a full buffer blocks new stores
     *                  until an entry drains (keeps the state space finite)
     */
    explicit WriteBufferModel(const Program &prog, std::size_t capacity = 4)
        : Base(prog, capacity)
    {
    }

    static const char *name() { return "bus+write-buffer"; }

  private:
    // Only the oldest buffered store drains; loads forward from the
    // buffer (the default) and pass older stores to other locations.
    static constexpr bool fifo_drain = true;
    static constexpr const char *pool_name = "buffer";
};

} // namespace wo

#endif // WO_MODELS_WRITE_BUFFER_MODEL_HH
