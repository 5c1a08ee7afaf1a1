/**
 * @file
 * Figure 1, configurations 3 and 4: cache-based machines whose invalidation
 * (here: update) traffic is not atomic.  Every processor holds a copy of
 * every location.  A write commits to the writer's copy and to memory
 * immediately, and an update message is enqueued, in commit order, towards
 * every other processor; until that message is delivered the other
 * processor keeps reading its stale copy.  This realizes exactly the
 * figure's scenario: "both processors initially have X and Y in their
 * caches, and a processor issues its read before its write is propagated
 * to the cache of the other processor".
 *
 * Each receiving processor consumes its incoming updates in commit order
 * (one queue per receiver), so per-location write serialization is
 * preserved -- the machine is "coherent but not sequentially consistent".
 *
 * Synchronization operations are modelled as heavyweight barriers: they
 * require every update queue in the system to be empty and then act on all
 * copies atomically.  Figure 1 uses none.
 */

#ifndef WO_MODELS_STALE_CACHE_MODEL_HH
#define WO_MODELS_STALE_CACHE_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "models/op_model.hh"
#include "models/queued_model.hh"

namespace wo {

/** Machine state of the stale-cache machine. */
struct StaleCacheState
{
    ThreadVec threads;
    MemImage mem;                               // commit-order image
    InlineVec<MemImage, inline_threads> copy;   // copy[proc][addr]
    InlineVec<PendingPool, inline_threads> inbox; // per receiver

    bool operator==(const StaleCacheState &other) const = default;
};

/** Cache-based machine with delayed update propagation. */
class StaleCacheModel : public OpModel<StaleCacheModel, StaleCacheState>
{
    using Base = OpModel<StaleCacheModel, StaleCacheState>;
    friend Base;

  public:
    /**
     * @param prog       the program (must outlive the model)
     * @param max_inbox  pending updates per receiver before writers stall
     */
    explicit StaleCacheModel(const Program &prog, std::size_t max_inbox = 4);

    static const char *name() { return "caches+delayed-inval"; }

    State initial() const;
    bool isFinal(const State &s) const;

    /**
     * Injective state layout, written into either encoder: threads,
     * memory, every processor's private copies, then each inbox
     * (separator-delimited).
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
        for (const auto &c : s.copy)
            for (Value v : c)
                enc.put(v);
        enc.sep();
        for (const auto &q : s.inbox)
            encodePool(enc, q);
    }

    /** Human-readable state rendering (for witness chains/debugging). */
    std::string dump(const State &s) const;

    /**
     * Stores broadcast updates into every other processor's inbox and
     * synchronization barriers wait on every inbox, so any processor that
     * may still write or synchronize conflicts with everyone (the
     * explorer's footprint reduction must not treat its accesses as
     * per-location).
     */
    static constexpr bool stores_broadcast = true;

    /**
     * Pending deliveries update only the receiving processor's private
     * copy, so they expose no cross-processor location footprint.
     */
    void pendingAddrs(const State &, ProcId, std::vector<Addr> &) const {}

  private:
    /**
     * Append @p p's instruction-step successor (if enabled) to @p out.
     * Instantiated for Succs and StepSuccs in the source file.
     */
    template <typename Out>
    void instrSucc(const State &s, ProcId p, Out &out) const;

    /**
     * Append @p p's delivery successor to @p out; @p only restricts the
     * enumeration to deliveries of one location.
     */
    template <typename Out>
    void drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
                    Out &out) const;

    std::size_t max_inbox_;
};

} // namespace wo

#endif // WO_MODELS_STALE_CACHE_MODEL_HH
