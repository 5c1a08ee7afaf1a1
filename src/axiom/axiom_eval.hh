/**
 * @file
 * Axiomatic sequential-consistency evaluator.
 *
 * This is a second, *independent* implementation of "which outcomes can a
 * sequentially consistent machine produce for this program?".  It shares
 * no code with the operational simulators in src/models/: instead of
 * stepping an abstract machine it enumerates *candidate executions* --
 * one symbolic unfolding per thread, every memory read free to return any
 * value in a fixed-point value universe -- and then judges each candidate
 * against the SC axioms over its event graph:
 *
 *   - reads-from (rf): every read takes its value from one same-location
 *     write with a matching value, or from the initial memory image;
 *   - write serialization (ws): a total order of the writes to each
 *     location, the per-location coherence order;
 *   - from-read (fr): a read ordered before every write that overwrites
 *     the one it read from;
 *   - acyclic(po U rf U ws U fr): there is a single interleaving -- a
 *     total order witnessing Lamport's definition -- consistent with
 *     program order in which every read returns the latest write;
 *   - RMW atomicity: a test_and_set's write immediately follows the
 *     write it read from in the coherence order.
 *
 * Being enumeration-based, the evaluator cannot handle unbounded
 * unfoldings, and reports them *inconclusive* rather than wrong.  A
 * spin loop is caught at once: when a backward jump reaches a loop head
 * the current path already reached with the same registers, the thread
 * can repeat that iteration forever ("thread T loops: pc P repeats with
 * the same registers"), which no budget can fix.  Loops whose registers
 * change on every iteration (counters) unfold normally, within the
 * step, unfolding and value-universe budgets.  The verify judge
 * (campaign/verify.hh) compares a conclusive axiomatic outcome set
 * against the operational SC explorer's and treats any difference as a
 * bug in one of the two engines.
 */

#ifndef WO_AXIOM_AXIOM_EVAL_HH
#define WO_AXIOM_AXIOM_EVAL_HH

#include <cstdint>
#include <set>
#include <string>

#include "execution/execution.hh"
#include "program/program.hh"

namespace wo {

/** Budgets and test hooks for the axiomatic evaluator. */
struct AxiomCfg
{
    /** Interpreter steps per unfolding path before giving up. */
    std::uint64_t max_steps = 4'096;

    /** Symbolic unfoldings per thread before giving up. */
    std::uint64_t max_unfoldings = 4'096;

    /** rf x ws assignments judged before giving up. */
    std::uint64_t max_judgements = 4'000'000;

    /** Distinct values the free-read universe may grow to. */
    std::size_t max_universe = 64;

    /**
     * Test hook: deliberately omit the from-read edges from the
     * acyclicity check, admitting outcomes no SC machine can produce.
     * Used to exercise the cross-check disagreement path end to end
     * (campaign verify cells must catch and shrink the divergence).
     */
    bool inject_bug = false;
};

/** Result of an axiomatic evaluation. */
struct AxiomResult
{
    /** Outcomes judged SC-consistent. */
    std::set<Outcome> outcomes;

    /**
     * True when every budget held and no thread loops, i.e. the
     * outcome set is exact.  A false value means some unfolding or
     * judgement was abandoned; the outcome set is a subset of the
     * truth and MUST NOT be compared against another engine's.
     */
    bool conclusive = true;

    /** Why the evaluation is inconclusive (empty when conclusive). */
    std::string why_inconclusive;

    std::uint64_t candidates = 0; //!< candidate executions enumerated
    std::uint64_t judgements = 0; //!< rf x ws assignments examined
    std::uint64_t consistent = 0; //!< judged SC-consistent
};

/**
 * Enumerate the outcome set a sequentially consistent machine can
 * produce for @p prog, judged axiomatically.
 */
AxiomResult axiomScOutcomes(const Program &prog, const AxiomCfg &cfg = {});

} // namespace wo

#endif // WO_AXIOM_AXIOM_EVAL_HH
