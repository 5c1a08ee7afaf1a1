/**
 * @file
 * The Definition-2 judge behind `wotool verify`, `wotool explore
 * --algo both/--axiom` and `wotool campaign --verify`.
 *
 * A *run* cell asks "did this timed execution break an invariant?"; a
 * *verify* cell asks the stronger model-checking question "do the
 * independent checking engines agree about this program's outcome
 * sets?".  Three checks, cheapest first, each with its own record:
 *
 *  1. **dpor_divergence** -- the reduced explorer (sleep-set DPOR with
 *     hashed-state dedup) and the naive visited-set BFS must compute
 *     bit-identical outcome sets on the hardware model.  Any gap is a
 *     soundness bug in the reduction.  BFS runs only when DPOR
 *     concluded, since the check needs both.
 *
 *  2. **axiom_divergence** -- the axiomatic SC evaluator (src/axiom/,
 *     no shared code with the operational simulators) must agree with
 *     the operational SC machine's explored outcome set.  Any gap is a
 *     bug in one of the two engines.
 *
 *  3. **def2_subset** -- the hardware outcome set must be a subset of
 *     the SC outcome set unless the model claims no synchronization
 *     model (claimedSyncModel()) or the program violates the one it
 *     claims.  Only then is the DRF0 classification run.
 *
 * A truncated, stuck or budget-tripped engine leaves its check
 * *unknown* and the cell *inconclusive*: nothing is counted for or
 * against the contract.  Counterexample machines (wb/net/stale)
 * escaping SC is the expected result, reported as "nonsc".
 *
 * Findings feed the same shrink / dedup / reproducer pipeline as the
 * monitor's runtime findings (scheduler.cc), with verifyReproduces()
 * as the shrink predicate.
 */

#ifndef WO_CAMPAIGN_VERIFY_HH
#define WO_CAMPAIGN_VERIFY_HH

#include <optional>
#include <set>
#include <string>

#include "axiom/axiom_eval.hh"
#include "models/explorer.hh"
#include "obs/monitor.hh"
#include "program/program.hh"

namespace wo {

/** Verify-cell knobs. */
struct VerifyCfg
{
    /** Per-engine state budget (each engine explores independently). */
    std::uint64_t max_states = 200'000;

    /** Worker threads inside each DPOR exploration (1 = sequential). */
    int jobs = 1;

    /** Axiomatic-evaluator budgets and the seeded-bug test hook. */
    AxiomCfg axiom;
};

/** How one of the judge's checks came out. */
enum class CheckState
{
    agree,      //!< the outcome sets agree (check 3: within SC)
    escapes_sc, //!< check 3: outcomes beyond SC that no claim forbids
    violated,   //!< a definite finding: engine gap or broken claim
    unknown,    //!< no answer; the reason says why
};

/** One check's record: its state, why, and its outcome-set evidence. */
struct CheckRecord
{
    CheckState state = CheckState::unknown;
    std::string reason = "not run";
    std::set<Outcome> witness; //!< the difference, or the escapes

    /** "<name>: <state>[: N outcome(s)] (<reason>)", then the witness. */
    std::string report(const char *name) const;
};

/** Check 1: DPOR against BFS on the hardware model. */
CheckRecord checkEngines(const ExploreResult &dpor, const ExploreResult &bfs);

/** Check 2: the axiomatic evaluator against operational SC. */
CheckRecord checkAxiom(const AxiomResult &axiom, const ExploreResult &sc);

/** What the checks decided for one program x model pair. */
struct VerifyResult
{
    std::string model; //!< model flag name ("sc", "wb", ...)

    // Engine evidence, kept for stats and the disagreement report.
    ExploreResult dpor; //!< hardware model, reduced engine
    ExploreResult bfs;  //!< hardware model, golden reference engine
    ExploreResult sc;   //!< operational SC reference exploration
    AxiomResult axiom;  //!< axiomatic SC evaluation
    std::string drf0 = "not needed"; //!< or obeys / violates / exhausted

    CheckRecord engines;  //!< check 1, dpor_divergence
    CheckRecord axiom_sc; //!< check 2, axiom_divergence
    CheckRecord def2;     //!< check 3, def2_subset

    /** The kind of the first violated check, if any. */
    std::optional<ViolationKind> violation() const;

    /** The reason of the first unknown check before any violation. */
    std::string whyInconclusive() const;
    bool inconclusive() const { return !whyInconclusive().empty(); }
    bool nonsc() const { return def2.state == CheckState::escapes_sc; }

    /** "ok" | "nonsc" | "inconclusive" | "hw:<kind>". */
    std::string verdict() const;

    /** Multi-line evidence report (the `.verify.txt` artifact). */
    std::string detail() const;
};

/**
 * Run the three checks for @p prog on the model named @p model_name
 * (see modelNames()), stopping at the first violation.  An unknown
 * model name reports inconclusive.
 */
VerifyResult verifyProgramOnModel(const Program &prog,
                                  const std::string &model_name,
                                  const VerifyCfg &cfg = {});

/** Check 3 alone: no BFS and no axiomatic unfolding is paid for. */
VerifyResult checkScSubset(const Program &prog, const std::string &model_name,
                           const VerifyCfg &cfg = {});

/**
 * Shrink predicate: does @p kind still reproduce when the candidate
 * @p prog is verified on @p model_name under @p cfg?  One judge
 * evaluation per candidate.
 */
bool verifyReproduces(const Program &prog, const std::string &model_name,
                      ViolationKind kind, const VerifyCfg &cfg);

} // namespace wo

#endif // WO_CAMPAIGN_VERIFY_HH
