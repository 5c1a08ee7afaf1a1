/**
 * @file
 * The whole-program DRF0 check (Definition 3): a program obeys DRF0 iff
 * (1) its synchronization operations are hardware-recognizable and access
 * exactly one location -- true by construction of the instruction set --
 * and (2) in EVERY execution on the idealized architecture all conflicting
 * accesses are ordered by that execution's happens-before relation.
 *
 * The checker drives the ScModel path by path (depth-first over scheduler
 * choices) and detects races on the fly with vector clocks, exiting on the
 * first race found.  Two sound reductions keep this tractable:
 *
 *  - residual-conflict reduction: for every thread and program point the
 *    program's residual footprint (program/footprint.hh) holds the
 *    locations the thread may still read or write from there on.  An
 *    access that no OTHER thread's residual can conflict with commutes
 *    with every current and future transition -- residual sets only
 *    shrink as control advances -- so it is executed eagerly
 *    (race-checked against the past, but without a scheduling branch).
 *    This subsumes the static "location touched by one thread" case
 *    and, e.g., lets each barrier phase of a phased program be explored
 *    independently;
 *
 *  - stutter pruning: a step that changes neither the thread's context nor
 *    memory (a failed spin iteration re-reading an unchanged location) is
 *    not explored; the iteration's race possibilities are identical to
 *    those of the spin read already executed, and the loop is re-enabled
 *    as soon as any other processor changes the machine state.
 *
 * Stutter pruning makes the search terminate for spin-based programs; for
 * loop-free programs no stutters exist and the search is fully exhaustive.
 * Path enumeration is exponential in the number of *visible* (shared,
 * schedulable) accesses, so keep checked programs small; the `max_steps`
 * budget turns blow-ups into an explicit `exhausted` verdict.
 */

#ifndef WO_CORE_DRF0_CHECKER_HH
#define WO_CORE_DRF0_CHECKER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "execution/execution.hh"
#include "hb/happens_before.hh"
#include "hb/race.hh"
#include "program/program.hh"

namespace wo {

/** Verdict of a whole-program synchronization-model check. */
struct SyncModelVerdict
{
    bool obeys = false;          //!< no race in any explored execution
    bool exhausted = false;      //!< budget hit: obeys is only "so far"
    std::uint64_t paths = 0;     //!< completed idealized executions
    std::uint64_t steps = 0;     //!< visible steps executed
    std::optional<Execution> witness; //!< a racy idealized execution prefix
    std::vector<Race> races;     //!< the offending pair(s) within witness

    explicit operator bool() const { return obeys; }

    /** One-line human summary. */
    std::string toString() const;
};

/** Options for the DRF0 checker. */
struct Drf0CheckerCfg
{
    /** Total visible-step budget across all paths (0 = unlimited). */
    std::uint64_t max_steps = 20'000'000;

    /**
     * Happens-before flavor: plain DRF0, or the Section-6 refinement in
     * which read-only synchronization does not publish ordering (then
     * sync-sync conflicts are exempted, as the synchronization mechanism).
     */
    HbRelation::SyncFlavor flavor = HbRelation::SyncFlavor::drf0;
};

/** Check whether @p prog obeys DRF0 (or its read-only-sync refinement). */
SyncModelVerdict checkDrf0(const Program &prog,
                           const Drf0CheckerCfg &cfg = {});

} // namespace wo

#endif // WO_CORE_DRF0_CHECKER_HH
