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
#include <string>
#include <vector>

#include "models/op_model.hh"
#include "models/pending_pool.hh"

namespace wo {

/** Machine state of the write-buffer machine. */
struct WriteBufferState
{
    std::vector<ThreadCtx> threads;
    std::vector<Value> mem;
    std::vector<PendingPool> buffers; // per processor, FIFO

    bool operator==(const WriteBufferState &other) const = default;
};

/** Bus-based machine with per-processor FIFO write buffers. */
class WriteBufferModel : public OpModel<WriteBufferModel, WriteBufferState>
{
    using Base = OpModel<WriteBufferModel, WriteBufferState>;
    friend Base;

  public:
    /**
     * @param prog      the program (must outlive the model)
     * @param capacity  write-buffer depth; a full buffer blocks new stores
     *                  until an entry drains (keeps the state space finite)
     */
    explicit WriteBufferModel(const Program &prog, std::size_t capacity = 4);

    static const char *name() { return "bus+write-buffer"; }

    State initial() const;
    bool isFinal(const State &s) const;

    /**
     * Injective state layout, written into either encoder: threads,
     * memory, then each processor's buffer (separator-delimited).
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
        for (const auto &buf : s.buffers)
            encodePool(enc, buf);
    }

    /** Human-readable state rendering (for witness chains/debugging). */
    std::string dump(const State &s) const;

    /** Locations @p p's buffered stores will still write to memory. */
    void
    pendingAddrs(const State &s, ProcId p, std::vector<Addr> &out) const
    {
        for (const auto &e : s.buffers[p])
            out.push_back(e.addr);
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

    std::size_t capacity_;
};

} // namespace wo

#endif // WO_MODELS_WRITE_BUFFER_MODEL_HH
