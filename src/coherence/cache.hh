/**
 * @file
 * A private write-back cache with the Section-5.3 machinery: the
 * outstanding-access counter, per-line reserve bits, and the stall/NACK
 * treatment of synchronization requests that arrive for reserved lines.
 *
 * Modelling choices (documented in DESIGN.md):
 *  - one memory word per line, and no capacity evictions: the paper's rule
 *    that a reserved line is never flushed is then vacuous, and eviction
 *    traffic is orthogonal to every reproduced claim;
 *  - the counter counts cache misses and is decremented per the paper:
 *    on data for a read, on data for a write sourced from an exclusive
 *    owner (or needing no invalidations), and on the directory's MemAck
 *    for writes to previously shared lines;
 *  - a synchronization operation is treated as a write by the protocol
 *    (exclusive ownership) unless the Section-6 read-only-sync refinement
 *    is enabled, in which case sync reads use the shared-read path;
 *  - at a synchronization commit with a positive counter the line's
 *    reserve bit is set; all reserve bits clear when the counter reads 0;
 *  - a forwarded request for a reserved line is either queued at the owner
 *    until the counter reads zero (the paper's footnote-2 first option) or
 *    NACKed back through the directory for retry (the second option).
 *    The queue option can deadlock on crossed release/acquire pairs unless
 *    new misses are throttled while a line is reserved (the paper's
 *    bounded-miss refinement); the configuration exposes all of it.
 */

#ifndef WO_COHERENCE_CACHE_HH
#define WO_COHERENCE_CACHE_HH

#include <vector>

#include "coherence/message.hh"
#include "coherence/network.hh"
#include "common/stats.hh"
#include "event/event_queue.hh"

namespace wo {

/** A CPU-side memory request handed to the cache. */
struct CacheReq
{
    std::uint64_t id = 0; //!< CPU-chosen identifier, echoed in callbacks
    Addr addr = invalid_addr;
    bool read = false;    //!< has a read component
    bool write = false;   //!< has a write component
    bool is_sync = false; //!< synchronization operation
    Value wvalue = 0;     //!< value stored when write
};

/** Callbacks from the cache to its processor. */
class CacheClient
{
  public:
    virtual ~CacheClient() = default;

    /**
     * Request @p id committed: a read's value is bound (@p read_value), a
     * write has modified the local copy.
     */
    virtual void onCommit(std::uint64_t id, Value read_value) = 0;

    /** Request @p id is globally performed. */
    virtual void onGloballyPerformed(std::uint64_t id) = 0;
};

/** How incoming synchronization requests meet a reserved line. */
enum class ReserveStallMode
{
    nack, //!< abort through the directory; requester retries later
    queue //!< hold at the owner until the counter reads zero
};

/** Cache configuration. */
struct CacheCfg
{
    Tick hit_latency = 1;      //!< cycles for a local hit to commit
    Tick retry_delay = 25;     //!< backoff before re-sending a NACKed miss
    ReserveStallMode stall_mode = ReserveStallMode::nack;
    bool sync_reads_as_reads = false; //!< Section-6 refinement
    /**
     * The paper's bounded-miss refinement: at most this many new misses
     * may be sent while any line is reserved; further ones are deferred
     * until the counter reads zero.  -1 = unthrottled.  Only 0 (defer all
     * new misses) guarantees deadlock freedom in queue stall mode, since
     * any post-reservation synchronization miss may itself stall at a
     * remote reserved line.
     */
    int reserved_miss_limit = -1;

    /**
     * Seeded hardware fault, test-only: when the counter reads zero the
     * reserve bits are NOT cleared, breaking the Section-5.3 invariant
     * ("all reserve bits are reset when the counter reads zero").  Used
     * to prove the online monitor reports the breach at the violating
     * cycle; never enable outside fault-injection tests.
     */
    bool bug_drop_reserve_clear = false;
};

/** One processor's private cache. */
class Cache : public MsgHandler
{
  public:
    /**
     * @param id       network node id (== processor id)
     * @param dir      directory node id
     * @param procs    processor count (for statistics labels only)
     * @param eq       event queue
     * @param net      interconnect
     * @param client   the processor to notify
     * @param n_locs   number of memory words
     * @param cfg      behaviour knobs
     */
    Cache(NodeId id, NodeId dir, ProcId procs, EventQueue &eq, Network &net,
          CacheClient *client, Addr n_locs, const CacheCfg &cfg);

    /**
     * Back to a new, cold cache of @p n_locs lines under @p cfg: no
     * miss, reserve bit or queued work, counter zero, statistics
     * cleared.  Storage capacity survives.  The event queue must have
     * been reset too (pending callbacks capture this cache).
     */
    void reset(NodeId dir, CacheClient *client, Addr n_locs,
               const CacheCfg &cfg);

    /** CPU entry point: start a memory request. */
    void access(const CacheReq &req);

    /**
     * Pre-install a shared copy of @p addr with value @p v (cache warm-up
     * before the run starts; the directory must be warmed to match).
     */
    void warmShared(Addr addr, Value v);

    /** Protocol entry point. */
    void receive(const Message &msg) override;

    /** The Section-5.3 counter: outstanding misses of this processor. */
    int counter() const { return counter_; }

    /** Is @p addr currently reserved here? */
    bool isReserved(Addr addr) const
    {
        return addr < n_locs_ && lines_[addr].reserved;
    }

    /** Local line value (for final-state assembly); line must be valid. */
    Value lineValue(Addr addr) const;

    /** Does this cache hold @p addr in modified state? */
    bool holdsModified(Addr addr) const;

    /** Statistics. */
    const StatGroup &stats() const { return stats_; }

  private:
    enum class LineState : std::uint8_t
    {
        invalid,
        shared,
        exclusive_clean, // MESI E: sole copy, clean; writes upgrade silently
        modified
    };

    struct Line
    {
        LineState st = LineState::invalid;
        Value value = 0;
        bool reserved = false;      //!< reserve bit (see reserved_)
        bool awaits_mem_ack = false; //!< mem_ack_req awaits its MemAck
        std::uint64_t mem_ack_req = 0;
    };

    /**
     * Miss bookkeeping for one address.  The MSHR lives from the first
     * GetS/GetX until the data arrives (surviving NACK/retry cycles);
     * the wait for a MemAck after the data is tracked separately in
     * the line because the line is already usable then.
     */
    struct Mshr
    {
        bool live = false;
        CacheReq req;
        bool want_exclusive = false;
        Tick issued = 0;                   //!< first GetS/GetX send time
        std::vector<CacheReq> queued_reqs; //!< same-address CPU requests
        std::vector<Message> queued_fwds;  //!< forwards pending our data
    };

    /** The live MSHR of @p addr, or nullptr. */
    Mshr *
    mshr(Addr addr)
    {
        Mshr &m = mshrs_[addr];
        return m.live ? &m : nullptr;
    }

    /** Dispatch a request against the current line state. */
    void start(const CacheReq &req);

    /**
     * Commit @p req locally (hit or data arrival): state changes happen
     * now, client callbacks fire after @p delay; @p performed_now also
     * reports the request globally performed.
     */
    void commit(const CacheReq &req, Tick delay, bool performed_now);

    /** The miss path: allocate an MSHR and send GetS/GetX. */
    void sendMiss(const CacheReq &req, bool exclusive);

    /** Counter decrement + reserve clearing + deferred work. */
    void decrementCounter();

    /** Handle a forwarded request we are the owner for. */
    void serveForward(const Message &msg);

    /** True if the forward must stall on a reserve bit. */
    bool mustStall(const Message &msg) const;

    /** Issue deferred misses once the throttle window opens. */
    void drainDeferred();

    void handleData(const Message &msg);
    void handleMemAck(const Message &msg);
    void handleInv(const Message &msg);
    void handleNack(const Message &msg);

    NodeId id_;
    NodeId dir_;
    EventQueue &eq_;
    Network &net_;
    CacheClient *client_;
    CacheCfg cfg_;
    Addr n_locs_ = 0;
    std::vector<Line> lines_;
    /** One per address, at least n_locs_ (a reset to fewer keeps the
     *  rest for their queue capacity). */
    std::vector<Mshr> mshrs_;
    int live_mshrs_ = 0;
    std::vector<Addr> reserved_; //!< addresses with the reserve bit set
    int counter_ = 0;
    int misses_in_flight_ = 0;
    int reserved_window_misses_ = 0; //!< misses sent while reserved
    /** Throttled misses awaiting issue, FIFO from deferred_pos_. */
    std::vector<CacheReq> deferred_;
    std::size_t deferred_pos_ = 0;
    std::vector<Message> stalled_;   //!< queue-mode stalled forwards
    // Lists being replayed, swapped out of their owner so the replay
    // may queue afresh; they keep the capacity for the next replay.
    std::vector<CacheReq> replay_reqs_;
    std::vector<Message> replay_fwds_;
    std::vector<Message> replay_stalled_;
    enum : std::size_t
    {
        st_read_hits,
        st_silent_upgrades,
        st_write_hits,
        st_reservations,
        st_throttled_misses,
        st_write_misses,
        st_read_misses,
        st_dropped_reserve_clears,
        st_reserve_clears,
        st_reserve_stalls,
        st_invalidations,
        st_nacks,
    };
    static constexpr const char *stat_names[] = {
        "read_hits",       "silent_upgrades",        "write_hits",
        "reservations",    "throttled_misses",       "write_misses",
        "read_misses",     "dropped_reserve_clears", "reserve_clears",
        "reserve_stalls",  "invalidations",          "nacks"};
    enum : std::size_t { hist_read_miss_latency, hist_write_miss_latency };
    static constexpr const char *hist_names[] = {"read_miss_latency",
                                                 "write_miss_latency"};
    StatGroup stats_;
};

} // namespace wo

#endif // WO_COHERENCE_CACHE_HH
