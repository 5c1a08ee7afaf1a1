/**
 * @file
 * The whole-program DRF0 check (Definition 3): a program obeys DRF0 iff
 * (1) its synchronization operations are hardware-recognizable and access
 * exactly one location -- true by construction of the instruction set --
 * and (2) in EVERY execution on the idealized architecture all conflicting
 * accesses are ordered by that execution's happens-before relation.
 *
 * Clause (2) is decided on the SC machine's state graph (ScModel): the
 * program is racy iff some reachable state has two processors whose next
 * accesses conflict -- same location, at least one a write -- and are
 * not both synchronization.  A breadth-first search (witnessChain in
 * models/explorer.hh) stops at the first such state.  The check is exact:
 *
 *  - <=: run the two accesses back to back from that state.  Neither has
 *    a program-order successor before the other, and a synchronization
 *    order edge needs both to be synchronization, so no po or so edge
 *    joins a data access to its neighbour: the execution has a race.
 *
 *  - =>: in a racy execution, take the race (a, b) whose later access b
 *    comes earliest, and drop a and everything a happens-before.  What
 *    remains is a valid SC prefix: a kept access that read a dropped
 *    write would be hb-after it (a race with an earlier b otherwise, and
 *    a sync write publishes to every later sync access of its location),
 *    so every kept read sees the value it saw before.  After that prefix
 *    a and b are both their processors' next accesses.
 *
 * The => argument holds under both happens-before flavors -- plain DRF0
 * and Section 6's refinement in which a synchronization read publishes
 * nothing -- because sync writes publish under both and a sync read
 * writes nothing.  So the verdict does not depend on the flavor.
 *
 * The search visits each SC state once, so spin loops cost one state per
 * distinct machine state rather than one path per iteration; the
 * `max_states` budget turns a blow-up into an explicit `exhausted`
 * verdict, which is neither obeys nor violates.
 */

#ifndef WO_CORE_DRF0_CHECKER_HH
#define WO_CORE_DRF0_CHECKER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "execution/execution.hh"
#include "hb/race.hh"
#include "program/program.hh"

namespace wo {

/** Verdict of a whole-program synchronization-model check. */
struct SyncModelVerdict
{
    bool obeys = false;          //!< the whole state graph has no race
    bool exhausted = false;      //!< budget hit first: no verdict
    std::uint64_t states = 0;    //!< SC states the search expanded
    std::optional<Execution> witness; //!< a racy idealized execution prefix
    std::vector<Race> races;     //!< the offending pair within witness

    explicit operator bool() const { return obeys; }

    /** One-line human summary. */
    std::string toString() const;
};

/** Options for the DRF0 checker. */
struct Drf0CheckerCfg
{
    /** SC states the search may expand (0 = unlimited). */
    std::uint64_t max_states = 1'000'000;
};

/** Check whether @p prog obeys DRF0. */
SyncModelVerdict checkDrf0(const Program &prog,
                           const Drf0CheckerCfg &cfg = {});

} // namespace wo

#endif // WO_CORE_DRF0_CHECKER_HH
