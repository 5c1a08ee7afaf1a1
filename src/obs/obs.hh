/**
 * @file
 * The unified observability hub of the timed simulator.
 *
 * One Obs instance per System collects three kinds of signal from the
 * timed components (event kernel, network, caches, CPUs):
 *
 *  1. A structured trace: every event-queue firing, every coherence
 *     message, and every memory-operation lifecycle transition
 *     (issue -> commit -> globally-performed -> retire), kept as POD
 *     FlightEvent records and rendered at export time as Chrome
 *     trace-event JSON (load `chrome://tracing` or
 *     https://ui.perfetto.dev) and as a compact JSONL stream (see
 *     trace_writer.hh).  Tracing is off by default; when off, the hooks
 *     cost one branch.
 *
 *  2. Stall attribution: every cycle a CPU pipeline spends not
 *     executing is classified into exactly one paper-meaningful bucket
 *     (see StallBucket).  The buckets always sum to the total, so the
 *     Figure-3 "run-ahead" benefit of the new implementation is a
 *     reported number, not an inference.  Attribution is always on;
 *     it only touches counters at stall-interval boundaries.
 *
 *  3. Side-channel facts needed for (2): which requests missed, which
 *     were NACKed or held at a remote reserved line.
 *
 * The hub also fans the same hooks out to two optional attachments:
 * the online invariant Monitor (fed every retired operation and every
 * counter/reserve-bit transition) and the always-on FlightRecorder
 * ring (fed the same records as the trace, plus counter, reserve and
 * violation records, cheaply, even with tracing off).  See monitor.hh
 * and recorder.hh.
 *
 * Components reach the hub through EventQueue::obs(), which every timed
 * component already holds; a null hub disables everything.  The hub
 * depends only on common/ and the execution record so any layer may
 * call into it.
 */

#ifndef WO_OBS_OBS_HH
#define WO_OBS_OBS_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "execution/memory_op.hh"
#include "obs/recorder.hh"

namespace wo {

class Monitor;
class Sampler;

/**
 * Where a stalled CPU cycle went.  Every blocked or issue-gated cycle
 * lands in exactly one bucket; `stall.total` is maintained as the sum.
 */
enum class StallBucket : std::uint8_t
{
    reserve_wait,  //!< sync access held off by a remote reserve bit
    counter_drain, //!< waiting for own outstanding accesses to perform
                   //!< (SC issue rule, Definition-1 conditions 2 and 3)
    mlp_limit,     //!< CpuCfg::max_outstanding miss-resource limit
    cache_miss,    //!< waiting for line data of an ordinary miss
    network,       //!< committed but not globally performed: invalidation
                   //!< and acknowledgement traffic in flight
    hit_latency,   //!< local cache hit access time
};

/** Number of StallBucket values (for iteration). */
inline constexpr int num_stall_buckets = 6;

/** Stable printable bucket name (used as the stats key). */
const char *stallBucketName(StallBucket b);

/** Which wait of the in-order pipeline a stall interval belongs to. */
enum class StallPhase : std::uint8_t
{
    issue_counter, //!< gated before issue by an ordering condition
    issue_mlp,     //!< gated before issue by max_outstanding
    commit_wait,   //!< issued, waiting for the local commit
    perform_wait,  //!< committed, waiting for globally-performed
};

/**
 * Which side of a synchronization protocol the stalled operation is on.
 * Figure 3's claim is specifically about the *release* side: the new
 * implementation never stalls the releasing processor.
 */
enum class OpSide : std::uint8_t
{
    data,    //!< ordinary load/store
    release, //!< write-only synchronization (Unset/Set)
    acquire, //!< read or read-modify-write synchronization (Test/TAS)
};

/** Stable printable side name. */
const char *opSideName(OpSide s);

/**
 * The per-CPU stall table ("cpu<p>.stall"): one counter slot per
 * StallBucket, then the total, then one per OpSide.
 */
inline constexpr std::size_t stall_total_slot = num_stall_buckets;
inline constexpr std::size_t stall_side_slot = stall_total_slot + 1;
inline constexpr const char *stall_stat_names[] = {
    "reserve_wait", "counter_drain", "mlp_limit", "cache_miss", "network",
    "hit_latency",  "total",         "data",      "release",    "acquire"};
static_assert(std::size(stall_stat_names) == stall_side_slot + 3);

/** The hub.  Created by System; components receive it via EventQueue. */
class Obs
{
  public:
    /** @param nprocs processor count (sizes the per-CPU stall groups) */
    explicit Obs(ProcId nprocs);

    /**
     * Back to a new hub over @p nprocs processors: trace off, nothing
     * attached, every record, fact and stall counter cleared.  Storage
     * capacity survives, so a reused hub records without allocating.
     */
    void reset(ProcId nprocs);

    /** Turn the structured trace on, event-queue firings included. */
    void enableTrace() { trace_enabled_ = true; }

    /**
     * Is the structured trace recording?  The kernel asks before
     * materializing an event label, so a run that never looks at labels
     * never pays for building them.
     */
    bool tracing() const { return trace_enabled_; }

    /**
     * Attach the online invariant monitor.  Retired operations and
     * counter/reserve transitions are forwarded to it; violations it
     * raises are mirrored into the flight recorder (when attached).
     * Must outlive the run.
     */
    void attachMonitor(Monitor *m) { monitor_ = m; }

    /** The attached monitor, or nullptr. */
    Monitor *monitor() const { return monitor_; }

    /** Attach the flight recorder.  Must outlive the run. */
    void attachRecorder(FlightRecorder *r) { recorder_ = r; }

    /** The attached flight recorder, or nullptr. */
    FlightRecorder *recorder() const { return recorder_; }

    /**
     * Attach the periodic sampler; its counter-track samples are merged
     * into chromeTraceJson().  Must outlive the export.
     */
    void attachSampler(const Sampler *s) { sampler_ = s; }

    /** The attached sampler, or nullptr. */
    const Sampler *sampler() const { return sampler_; }

    // ---- hooks called by the timed components ------------------------

    /** Event kernel: one event popped and about to execute. */
    void queueFire(Tick now, const std::string &label);

    /** Network: message handed to the wire. */
    void message(Tick sent, Tick deliver, unsigned src, unsigned dst,
                 const char *type, Addr addr, bool is_sync);

    /** CPU: request handed to the cache. */
    void opIssue(ProcId p, std::uint64_t req, const char *kind, Addr addr,
                 Pc pc, Tick reached, Tick issued);

    /** CPU: request committed (value bound / local copy modified). */
    void opCommit(ProcId p, std::uint64_t req, Tick now);

    /** CPU: request globally performed. */
    void opPerform(ProcId p, std::uint64_t req, Tick now);

    /**
     * CPU: request retired into the execution, with the full operation
     * payload so the monitor can replay it into its own execution copy.
     * Retire order is program order per processor and the completion
     * order contract of Execution::append.
     */
    void opRetire(ProcId p, std::uint64_t req, Tick now, Addr addr,
                  AccessKind kind, Value value_read, Value value_written,
                  Tick commit_tick);

    /** Cache: outstanding-access counter of @p p changed to @p value. */
    void counterChanged(ProcId p, int value, Tick now);

    /** Cache: reserve bit set on @p addr by processor @p p. */
    void reserveSet(ProcId p, Addr addr, Tick now);

    /** Cache: all reserve bits of processor @p p cleared. */
    void reserveCleared(ProcId p, Tick now);

    /** Cache: the request left the cache as a miss (GetS/GetX sent). */
    void reqMiss(ProcId p, std::uint64_t req);

    /** Cache: the requester's miss was NACKed at a reserved line. */
    void reqNack(ProcId p, std::uint64_t req);

    /**
     * Cache (queue stall mode): the owner is holding @p requester's
     * forwarded request for @p addr at a reserved line.
     */
    void reserveHold(ProcId requester, Addr addr);

    /**
     * CPU: one stall interval [from, to) ended.  Classified into a
     * bucket using the phase plus the miss/NACK facts recorded for
     * @p req, and charged to @p side.
     */
    void stall(ProcId p, std::uint64_t req, Addr addr, StallPhase phase,
               OpSide side, Tick from, Tick to);

    // ---- results -----------------------------------------------------

    /**
     * Per-CPU stall-attribution statistics (group "cpu<p>.stall", slots
     * as stall_stat_names, every slot listed).
     */
    const StatGroup &stallStats(ProcId p) const;

    /**
     * The full trace as Chrome trace-event JSON: a top-level object
     * with a "traceEvents" array of complete ("X"), instant ("i") and
     * metadata ("M") events.  Timestamps are simulator ticks reported
     * as microseconds, so one Perfetto microsecond == one tick.
     */
    std::string chromeTraceJson() const;

    /** The raw event stream, one compact JSON object per line. */
    std::string traceJsonl() const;

    /** Operations issued but never globally performed (so far). */
    std::uint64_t unfinishedOps() const { return unfinished_ops_; }

  private:
    /** What happened to one request on its way (see classify). */
    struct ReqFacts
    {
        std::uint64_t req = 0;
        bool missed = false;
        bool nacked = false;
    };

    /** Everything the hub keeps per processor. */
    struct ProcState
    {
        explicit ProcState(ProcId p);

        StatGroup stall; //!< "cpu<p>.stall"
        /** Facts of requests not yet performed, unordered. */
        std::vector<ReqFacts> facts;
        /** By address: this processor's miss is held at a remote
         *  reserved line (queue stall mode). */
        std::vector<std::uint8_t> reserve_held;

        /** The facts of @p req, created empty on first use. */
        ReqFacts &factsOf(std::uint64_t req);
    };

    /** Does any sink (trace or ring) take records? */
    bool recording() const { return trace_enabled_ || recorder_; }

    /** Append @p e to the ring and, when tracing, to the full trace. */
    void record(const FlightEvent &e);

    StallBucket classify(ProcId p, std::uint64_t req, Addr addr,
                         StallPhase phase);

    /** Mirror monitor violations raised since last call into the ring. */
    void mirrorViolations(Tick now);

    ProcId nprocs_ = 0;
    bool trace_enabled_ = false;
    Monitor *monitor_ = nullptr;
    FlightRecorder *recorder_ = nullptr;
    const Sampler *sampler_ = nullptr;
    std::uint64_t mirrored_violations_ = 0;

    /** At least nprocs_ entries: a reset to fewer keeps the rest. */
    std::vector<ProcState> procs_;
    std::uint64_t unfinished_ops_ = 0;

    std::vector<FlightEvent> records_; //!< the full trace (tracing only)
    std::vector<std::string> fire_labels_; //!< interned queue-fire labels
    std::unordered_map<std::string, std::uint32_t> fire_label_ids_;
};

} // namespace wo

#endif // WO_OBS_OBS_HH
