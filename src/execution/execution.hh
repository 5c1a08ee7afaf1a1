/**
 * @file
 * An Execution is the observable record of one run of a parallel program:
 * the dynamic memory operations of every processor in program order, plus
 * (optionally) a global completion order.  Executions come from three
 * sources -- the abstract model explorer, the timed full-system simulator,
 * and hand-encoded traces (the paper's Figure 2) -- and feed the
 * happens-before machinery and the SC-explainability checker.
 */

#ifndef WO_EXECUTION_EXECUTION_HH
#define WO_EXECUTION_EXECUTION_HH

#include <string>
#include <vector>

#include "execution/memory_op.hh"

namespace wo {

/** The observable record of one run. */
class Execution
{
  public:
    /**
     * @param num_procs      processor count
     * @param num_locations  shared-location count
     * @param initial        initial memory image (size num_locations); an
     *                       empty vector means all-zero
     */
    Execution(ProcId num_procs, Addr num_locations,
              std::vector<Value> initial = {});

    /**
     * Append an operation.  Ops must be appended in the global completion
     * order if one is meaningful for the producing machine; per-processor
     * subsequences must always be in program order.  The op's id and
     * po_index are assigned here.
     * @return the assigned OpId
     */
    OpId append(ProcId proc, Addr addr, AccessKind kind, Value value_read,
                Value value_written, Tick commit_tick = 0);

    /**
     * Empty the record for a new run of @p num_procs processors over
     * @p initial (one value per location), as if newly constructed.
     * Storage capacity survives, so a reused record appends without
     * allocating once it has seen a run as large.
     */
    void reset(ProcId num_procs, const std::vector<Value> &initial);

    /** Number of processors. */
    ProcId numProcs() const { return nprocs_; }

    /** Number of shared locations. */
    Addr numLocations() const
    {
        return static_cast<Addr>(initial_.size());
    }

    /** All operations, in append (completion) order. */
    const std::vector<MemoryOp> &ops() const { return ops_; }

    /** Op ids of processor @p p in program order. */
    const std::vector<OpId> &procOps(ProcId p) const;

    /** The operation with id @p id. */
    const MemoryOp &op(OpId id) const;

    /** Initial value of location @p a. */
    Value initialValue(Addr a) const;

    /** The initial memory image. */
    const std::vector<Value> &initialMemory() const { return initial_; }

    /**
     * Check that each read returns either the initial value or a value that
     * some write to the same location wrote; reports the first offender.
     * (A cheap sanity gate before running the expensive checkers.)
     */
    bool valuesPlausible(std::string *why = nullptr) const;

    /** Multi-line rendering in completion order. */
    std::string toString() const;

  private:
    std::vector<MemoryOp> ops_;
    ProcId nprocs_ = 0;
    /** At least nprocs_ entries: a reset to fewer processors keeps the
     *  rest (empty) for their capacity. */
    std::vector<std::vector<OpId>> per_proc_;
    std::vector<Value> initial_;
};

/**
 * The result of an execution in Lamport's sense: the values returned by all
 * reads plus the final state of memory.  Two executions of a program are
 * indistinguishable to software iff their Results are equal.  Register files
 * are carried as well because litmus outcomes are conventionally stated
 * over registers.
 */
struct Outcome
{
    std::vector<std::vector<Value>> regs; //!< per-processor register files
    std::vector<Value> memory;            //!< final memory image

    bool operator==(const Outcome &other) const = default;

    /** Lexicographic order so outcome sets can live in std::set. */
    bool operator<(const Outcome &other) const;

    /** e.g. "P0:r0=1 P1:r0=0 | mem: x=1 y=1" (zero registers elided). */
    std::string toString() const;

    /** Append toString()'s text to @p out (reusing its capacity). */
    void appendTo(std::string &out) const;
};

} // namespace wo

#endif // WO_EXECUTION_EXECUTION_HH
