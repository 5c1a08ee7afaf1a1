/**
 * @file
 * Automatic counterexample minimization (delta debugging).
 *
 * When a campaign cell catches the hardware red-handed, the raw
 * witness is whatever program happened to trigger it -- often dozens
 * of instructions across several processors.  The shrinker reduces it
 * while the verdict keeps reproducing, in the ddmin tradition: drop
 * whole processors, drop instruction chunks of halving size (with
 * branch-target fixup), and compact unused shared locations, iterating
 * to a fixed point or a run budget.  The result is a minimal `.wo`
 * reproducer whose hash doubles as the failure's deduplication
 * identity, so a campaign reports each distinct bug once no matter how
 * many cells tripped over it.
 *
 * Every candidate evaluation is one full timed-system run with the
 * online monitor attached, under the exact configuration of the
 * failing cell (policy, network seed, seeded faults), so reduction
 * never chases a different bug than the one it started from.
 */

#ifndef WO_CAMPAIGN_SHRINK_HH
#define WO_CAMPAIGN_SHRINK_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "campaign/spec.hh"
#include "obs/monitor.hh"
#include "program/program.hh"
#include "sys/system.hh"

namespace wo {

/** Shrinking knobs. */
struct ShrinkCfg
{
    /** Candidate-evaluation budget (each is one simulated run). */
    std::uint64_t max_runs = 500;
};

/** What the shrinker produced. */
struct ShrinkOutcome
{
    /** The violation still reproduces on the minimized program. */
    bool reproduced = false;
    std::uint64_t runs = 0;         //!< candidate evaluations spent
    std::size_t orig_instructions = 0;
    std::size_t instructions = 0;   //!< static size of the result
    ProcId procs = 0;
    Addr locations = 0;
    std::optional<Program> program; //!< the minimized program
    std::vector<WarmTerm> warm;     //!< surviving warm directives
    std::string wo_text;            //!< assembly reproducer (with warm)
};

/**
 * Does @p kind still reproduce when @p prog runs under @p cfg?  One
 * timed run with the monitor attached; @p warm is applied first.
 * (@p cfg.monitor is forced on and @p cfg.quiet forced true.)
 */
bool reproducesViolation(const Program &prog,
                         const std::vector<WarmTerm> &warm, SystemCfg cfg,
                         ViolationKind kind);

/**
 * "Does the failure still reproduce on this candidate?"  Each call
 * costs whatever the caller's oracle costs -- a timed monitored run
 * for run-cell failures, a full dual-engine verification for verify
 * findings -- so the run budget in ShrinkCfg bounds the total.
 */
using ShrinkPredicate =
    std::function<bool(const Program &, const std::vector<WarmTerm> &)>;

/**
 * Minimize @p prog while @p still_fails keeps holding.  The ddmin core
 * behind both public overloads; when even the input does not satisfy
 * the predicate, the outcome carries the input program with
 * reproduced == false.
 */
ShrinkOutcome shrinkCounterexample(const Program &prog,
                                   const std::vector<WarmTerm> &warm,
                                   const ShrinkPredicate &still_fails,
                                   const ShrinkCfg &cfg = {});

/**
 * Minimize @p prog while @p kind keeps reproducing under @p sys_cfg
 * (the monitored timed-run predicate).
 */
ShrinkOutcome shrinkCounterexample(const Program &prog,
                                   const std::vector<WarmTerm> &warm,
                                   const SystemCfg &sys_cfg,
                                   ViolationKind kind,
                                   const ShrinkCfg &cfg = {});

// --- the campaign failure pipeline ------------------------------------

/**
 * The campaign-wide identity of a shrunk failure: equal minima of the
 * same violation kind are one failure, however many cells (or fleet
 * workers) hit them.
 */
struct FailureId
{
    std::string dedup; //!< "<kind>:<12 hex digits of the .wo hash>"
    std::string stem;  //!< "<dir>/repro-<kind>-<hash>"; + ".wo" = repro
};

/** The identity of a failure of @p kind whose reproducer is @p wo_text,
 *  with its files under @p dir. */
FailureId failureId(const std::string &kind, const std::string &wo_text,
                    const std::string &dir);

/** A hardware-blaming cell run, minimized and identified. */
struct CellFailure
{
    ShrinkOutcome shrunk;
    FailureId id;
};

/**
 * Shrink @p run's program to a reproducer of its primary violation:
 * verify cells under the dual-engine predicate, run cells under the
 * monitored timed run.  With @p spec.shrink off the single permitted
 * run only confirms the reproduction and renders the unreduced .wo
 * text.  Empty when the run has no program or its violation kind
 * cannot be named (the cell verdict stays the evidence).
 */
std::optional<CellFailure> shrinkCellFailure(const Cell &cell,
                                             const CellRun &run,
                                             const CampaignSpec &spec,
                                             const std::string &dir);

} // namespace wo

#endif // WO_CAMPAIGN_SHRINK_HH
