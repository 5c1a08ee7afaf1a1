/**
 * @file
 * An in-order processor executing one thread of the program IR against its
 * private cache, under a pluggable ordering policy.
 *
 * Timing model: local instructions take one cycle; `delay k` takes k
 * cycles; loads block until their value commits (in-order use of the
 * destination register); stores are fire-and-forget under the weak
 * policies and fully blocking under SC; synchronization operations block
 * per policy (see policy.hh).  The processor retires operations in program
 * order into the shared Execution and records per-operation timing for the
 * Figure-3 analyses.
 */

#ifndef WO_SYS_CPU_HH
#define WO_SYS_CPU_HH

#include <vector>

#include "coherence/cache.hh"
#include "common/stats.hh"
#include "event/event_queue.hh"
#include "execution/execution.hh"
#include "program/program.hh"
#include "sys/policy.hh"

namespace wo {

/** Timing record of one dynamic memory operation. */
struct OpTiming
{
    ProcId proc;
    Pc pc;                 //!< static instruction
    AccessKind kind;
    Addr addr;
    Tick reached;          //!< processor arrived at the instruction
    Tick issued;           //!< request handed to the cache
    Tick committed;        //!< commit point (paper's definition)
    Tick performed;        //!< globally performed
};

/** Processor configuration. */
struct CpuCfg
{
    /**
     * Memory-level parallelism: maximum accesses outstanding (issued but
     * not globally performed) at once; 0 = unlimited.  Models the finite
     * miss-handling resources (lockup-free cache MSHRs, write buffer
     * depth) whose cost/benefit the paper's introduction discusses.
     */
    int max_outstanding = 0;
};

/** One processor. */
class Cpu : public CacheClient
{
  public:
    /**
     * @param id      processor id
     * @param prog    the program (must outlive the cpu)
     * @param eq      event queue
     * @param policy  ordering policy
     * @param exec    the run's execution (retired ops appended here;
     *                must outlive the cpu)
     * @param cfg     processor knobs
     */
    Cpu(ProcId id, const Program &prog, EventQueue &eq,
        OrderingPolicy policy, Execution &exec, const CpuCfg &cfg = {});

    /**
     * Back to a processor about to boot thread id() of @p prog (which
     * must outlive the run): pc and registers zero, nothing issued,
     * timings and statistics cleared.  Storage capacity survives.
     * The event queue must have been reset too, and the cache is
     * attached afresh.
     */
    void reset(const Program &prog, OrderingPolicy policy,
               const CpuCfg &cfg);

    /** Late-bind the cache (construction order). */
    void attachCache(Cache *cache) { cache_ = cache; }

    /** Schedule the first step. */
    void boot();

    /** Thread finished. */
    bool halted() const { return halted_; }

    /** Tick at which the thread halted. */
    Tick finishTick() const { return finish_tick_; }

    /** Current program counter (the instruction being waited on). */
    Pc pc() const { return pc_; }

    /** Register file (final values once halted). */
    const std::array<Value, num_regs> &regs() const { return regs_; }

    /** Per-operation timing records, in program order. */
    const std::vector<OpTiming> &timings() const { return timings_; }

    /** Statistics (stall cycles by cause, operation counts). */
    const StatGroup &stats() const { return stats_; }

    // CacheClient interface.
    void onCommit(std::uint64_t id, Value read_value) override;
    void onGloballyPerformed(std::uint64_t id) override;

  private:
    /** An issued request the processor still tracks. */
    struct Pending
    {
        bool live = false; //!< issued and not yet dropped
        Pc pc = 0;
        std::size_t timing_idx = 0;
        bool committed = false;
        bool performed = false;
        bool retired = false;
        bool blocks_pipeline = false; //!< cpu waits on this request
        bool wait_performed = false;  //!< wait extends to globally performed
        bool is_sync = false;
        RegId dst = 0;        //!< register receiving a read value
        bool has_read = false;
        AccessKind kind = AccessKind::data_read;
        Addr addr = invalid_addr;
        Value wvalue = 0;
        Value rvalue = 0;
    };

    /** Main sequencing step: try to execute the instruction at pc. */
    void step();

    /** Schedule step() if not already scheduled. */
    void wake(Tick delay);

    /** Policy: may the access at the current pc issue now? */
    bool canIssue(const Instruction &inst) const;

    /** Policy: must the cpu block until this access commits/performs? */
    bool blocksUntilCommit(const Instruction &inst) const;
    bool blocksUntilPerformed(const Instruction &inst) const;

    /** Any issued access not yet globally performed? */
    bool anyOutstanding() const;

    /** Number of accesses issued but not yet globally performed. */
    int countOutstanding() const;

    /** Retire committed requests in program order into the execution. */
    void retire();

    /** Drop a request once committed, performed and retired. */
    void cleanup(std::uint64_t id);

    /** The tracked request @p id, or nullptr once dropped. */
    Pending *
    findPending(std::uint64_t id)
    {
        if (id < oldest_ || id >= next_req_)
            return nullptr;
        Pending &p = pending_[id & (pending_.size() - 1)];
        return p.live ? &p : nullptr;
    }

    /** Track a newly issued request @p id (== next_req_ - 1). */
    Pending &addPending(std::uint64_t id);

    /** Stop tracking request @p id. */
    void dropPending(std::uint64_t id);

    ProcId id_;
    const ThreadCode *code_;
    EventQueue &eq_;
    OrderingPolicy policy_;
    Execution &exec_;
    CpuCfg cfg_;
    Cache *cache_ = nullptr;

    Pc pc_ = 0;
    std::array<Value, num_regs> regs_{};
    bool halted_ = false;
    Tick finish_tick_ = 0;
    bool step_scheduled_ = false;
    bool waiting_issue_ = false;   //!< blocked on a policy issue condition
    bool issue_wait_mlp_ = false;  //!< last failed gate was max_outstanding
    Tick wait_started_ = 0;
    std::uint64_t blocked_on_ = 0; //!< request id the pipeline waits on
    bool blocked_ = false;
    Tick block_started_ = 0;

    // Request ids count up from 1 in issue (= program) order.  The
    // tracked window [oldest_, next_req_) lives in a power-of-two ring
    // indexed by id; next_retire_ is the first id not yet retired.
    std::uint64_t next_req_ = 1;
    std::uint64_t oldest_ = 1;
    std::uint64_t next_retire_ = 1;
    std::vector<Pending> pending_;
    std::vector<OpTiming> timings_;
    enum : std::size_t
    {
        st_work_cycles,
        st_issue_stall_polls,
        st_sync_issue_stall_cycles,
        st_data_issue_stall_cycles,
        st_sync_ops,
        st_data_ops,
        st_sync_commit_stall_cycles,
        st_read_stall_cycles,
        st_sync_perform_stall_cycles,
        st_perform_stall_cycles,
    };
    static constexpr const char *stat_names[] = {
        "work_cycles",          "issue_stall_polls",
        "sync_issue_stall_cycles", "data_issue_stall_cycles",
        "sync_ops",             "data_ops",
        "sync_commit_stall_cycles", "read_stall_cycles",
        "sync_perform_stall_cycles", "perform_stall_cycles"};
    StatGroup stats_;
};

} // namespace wo

#endif // WO_SYS_CPU_HH
