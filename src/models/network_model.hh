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
#include <string>
#include <vector>

#include "models/op_model.hh"
#include "models/pending_pool.hh"

namespace wo {

/** Machine state of the general-network machine. */
struct NetworkState
{
    std::vector<ThreadCtx> threads;
    std::vector<Value> mem;
    std::vector<PendingPool> flights; // per processor, in issue order

    bool operator==(const NetworkState &other) const = default;
};

/** General-interconnect machine without caches. */
class NetworkReorderModel
    : public OpModel<NetworkReorderModel, NetworkState>
{
    using Base = OpModel<NetworkReorderModel, NetworkState>;
    friend Base;

  public:
    /**
     * @param prog       the program (must outlive the model)
     * @param max_flights in-flight writes allowed per processor
     */
    explicit NetworkReorderModel(const Program &prog,
                                 std::size_t max_flights = 4);

    static const char *name() { return "general-network"; }

    State initial() const;
    bool isFinal(const State &s) const;

    /**
     * Injective state layout, written into either encoder: threads,
     * memory, then each processor's in-flight writes (separator-delimited).
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
        for (const auto &fl : s.flights)
            encodePool(enc, fl);
    }

    /** Human-readable state rendering (for witness chains/debugging). */
    std::string dump(const State &s) const;

    /** Locations @p p's in-flight writes will still write to memory. */
    void
    pendingAddrs(const State &s, ProcId p, std::vector<Addr> &out) const
    {
        for (const auto &f : s.flights[p])
            out.push_back(f.addr);
    }

  private:
    /** Append @p p's instruction-step successor (if enabled) to @p out. */
    void instrSucc(const State &s, ProcId p, Succs &out) const;

    /**
     * Append @p p's arrival successors to @p out; @p only restricts the
     * enumeration to arrivals at one location.
     */
    void drainSuccs(const State &s, ProcId p, std::optional<Addr> only,
                    Succs &out) const;

    std::size_t max_flights_;
};

} // namespace wo

#endif // WO_MODELS_NETWORK_MODEL_HH
