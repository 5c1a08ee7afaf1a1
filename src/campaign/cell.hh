/**
 * @file
 * The unit of campaign work: one *cell* = program source x ordering
 * policy x timing seed.  The paper's Definition 2 quantifies over every
 * DRF0 program, so confidence comes from running many cells, not one;
 * a campaign (see scheduler.hh) fans thousands of cells over a worker
 * fleet, each executing the full timed system with the online monitor
 * attached and reducing the run to a compact CellResult verdict.
 *
 * A cell's program comes from one of four sources: an assembly file on
 * disk, a named litmus:: factory, or a fresh randomDrf0Program /
 * randomRacyProgram draw from its embedded shape configuration.  Every
 * cell renders to a stable, filesystem- and JSON-safe key string; the
 * journal (journal.hh) uses the key to skip finished cells on resume,
 * so the key must identify the run exactly (same key, same verdict
 * modulo host scheduling).
 */

#ifndef WO_CAMPAIGN_CELL_HH
#define WO_CAMPAIGN_CELL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asm/assembler.hh"
#include "campaign/verify.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"
#include "program/program.hh"
#include "program/workload.hh"
#include "sys/policy.hh"
#include "sys/system.hh"

namespace wo {

/** Where a cell's program comes from. */
enum class CellSource : std::uint8_t
{
    file,      //!< a .wo assembly file (spec = path)
    litmus,    //!< a litmus:: factory (spec = corpus name)
    drf0_rand, //!< randomDrf0Program(drf0)
    racy_rand, //!< randomRacyProgram(racy)
};

/**
 * What a cell does with its program.  A *run* cell executes one timed
 * simulation under the online monitor; a *verify* cell model-checks the
 * program on an abstract model with the dual-engine judge (campaign/
 * verify.hh): DPOR vs BFS, axiomatic vs operational SC, and the
 * Definition-2 subset claim.
 */
enum class CellKind : std::uint8_t
{
    run,
    verify,
};

/** One unit of campaign work. */
struct Cell
{
    CellKind kind = CellKind::run;
    CellSource source = CellSource::litmus;
    std::string spec;           //!< file path or litmus corpus name
    Drf0WorkloadCfg drf0;       //!< shape when source == drf0_rand
    RacyWorkloadCfg racy;       //!< shape when source == racy_rand
    OrderingPolicy policy = OrderingPolicy::wo_drf0;
    std::uint64_t net_seed = 1; //!< interconnect jitter seed
    Tick hop = 10;              //!< network hop latency
    Tick jitter = 0;            //!< network jitter bound
    bool inject_reserve_bug = false; //!< seeded fault campaigns

    // Verify-cell coordinates (ignored by run cells).  Timing fields
    // above do not enter a verify key: exploration is untimed, so a
    // verify cell is identified by program x model alone.
    std::string model = "drf0";         //!< model flag name under check
    std::uint64_t max_states = 200'000; //!< per-engine state budget
    bool inject_axiom_bug = false;      //!< seeded divergence campaigns
    /**
     * Worker threads inside each cell's DPOR exploration.  An execution
     * knob, not a coordinate: parallel results are bit-identical to
     * sequential ones, so it stays out of key() and the journal --
     * resuming with a different jobs count must dedup against the same
     * history.
     */
    int explore_jobs = 1;

    /**
     * The stable journal/dedup key, e.g.
     * "litmus:iriw|WO-DRF0|n7|h10|j2".  Random sources encode their
     * full shape: "drf0:p2r1l2v1s2o2t1w0g42|...".
     */
    std::string key() const;

    /**
     * The key with the timing coordinates (net seed / hop / jitter)
     * stripped: identifies the *program x policy*, so outcome-set
     * novelty can be tracked across timing seeds.
     */
    std::string programId() const;

    /**
     * The coarse program family ("litmus:iriw", "drf0-rand", ...):
     * verdict novelty is tracked per family, so one family producing a
     * verdict kind for the first time earns fuzz energy.
     */
    std::string familyId() const;

    /** The timed-system configuration a run cell runs under. */
    SystemCfg systemCfg(std::uint64_t max_events) const;

    /** The dual-engine verifier configuration of a verify cell. */
    VerifyCfg verifyCfg() const;
};

/** A materialized cell program, or why it could not be built. */
struct MaterializedCell
{
    std::optional<Program> program;
    std::vector<WarmTerm> warm; //!< 'warm' directives (file cells only)
    std::string error;          //!< non-empty on failure

    bool ok() const { return program.has_value() && error.empty(); }
};

/**
 * A per-worker cache of materialized programs.  `file:` and `litmus:`
 * cells rebuild the *same* program for every timing seed and policy
 * the campaign crosses them with; re-assembling the `.wo` source or
 * re-running the litmus factory thousands of times per campaign is
 * pure waste.  The cache keys on the cell's familyId() and hands out
 * copies of the parsed Program.  Random-source cells bypass it (every
 * draw embeds its own generator seed, so no two repeat).
 *
 * Not thread-safe by design: each worker owns one, so lookups never
 * synchronize.
 */
class MaterializeCache
{
  public:
    /** Cached entry for @p family_id, or nullptr. */
    const MaterializedCell *find(const std::string &family_id) const;

    /** Store @p m under @p family_id and return the cached copy. */
    const MaterializedCell &put(std::string family_id,
                                MaterializedCell m);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t size() const { return map_.size(); }

  private:
    friend MaterializedCell materializeCell(const Cell &,
                                            MaterializeCache *);
    std::unordered_map<std::string, MaterializedCell> map_;
    mutable std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Build the cell's program (parses, calls the factory, or generates).
 * With @p cache, repeated file/litmus specs are served from the cache
 * (a program copy, not a rebuild); errors are cached too, so a broken
 * corpus file costs one parse attempt per worker, not one per cell.
 */
MaterializedCell materializeCell(const Cell &cell,
                                 MaterializeCache *cache = nullptr);

/** A named entry of the built-in litmus corpus. */
struct LitmusCorpusEntry
{
    const char *name;
    Program (*make)();
};

/** The built-in litmus corpus (stable names; used in cell keys). */
const std::vector<LitmusCorpusEntry> &litmusCorpus();

/** What one cell's run reduced to. */
struct CellResult
{
    std::string key;
    bool completed = false;
    bool deadlocked = false;
    bool livelocked = false;
    std::uint64_t hw = 0;     //!< hardware-blaming monitor violations
    std::uint64_t races = 0;  //!< software races (contract void)
    std::uint64_t total = 0;  //!< all monitor findings
    std::uint64_t by_kind[num_violation_kinds] = {};
    std::string primary_kind; //!< first hardware kind raised (or empty)
    std::string outcome_sig;  //!< 64-bit FNV hash of the final outcome
    Tick finish_tick = 0;
    double wall_ms = 0;       //!< host wall-clock cost of the cell

    // Verify-cell results (always false/zero for run cells).
    /** Non-empty iff a check had no answer (no verdict): its reason,
     *  VerifyResult::whyInconclusive(). */
    std::string why_inconclusive;
    bool nonsc = false;        //!< hw escaped SC (expected, not a failure)
    std::uint64_t dpor_states = 0; //!< reduced-engine states visited
    std::uint64_t bfs_states = 0;  //!< reference-engine states visited
    std::uint64_t dpor_probes = 0; //!< independence queries made

    // Host-time span decomposition, journaled per cell so post-hoc
    // tooling (wotool report) can break a campaign's wall clock down
    // without the profiler on.  shrink_us is stamped by the campaign's
    // run-then-shrink step (runAndShrinkCell, shrink.hh), which both
    // the in-process worker and the fleet worker run.
    std::uint64_t mat_us = 0;    //!< materialize (parse/factory/generate)
    std::uint64_t run_us = 0;    //!< timed simulation
    std::uint64_t shrink_us = 0; //!< shrinking (>= 1 on a shrunk cell)

    /** Did the hardware break the Definition-2 contract? */
    bool hardwareFailure() const { return hw > 0; }

    /**
     * "clean" | "race" | "hw:<kind>" | "deadlock" | "livelock" |
     * "error"; verify cells add "inconclusive" and "nonsc".
     */
    std::string verdict() const;
};

/**
 * A campaign's verdict counts: every cell lands in exactly one class,
 * hardware verdicts also count by their violation kind and
 * inconclusive ones by their reason.  One tally serves the in-process
 * engine's workers and summary and the fleet coordinator, which sees
 * only the journaled verdict string and "why" -- so the tally reads
 * nothing else.
 */
struct VerdictTally
{
    std::uint64_t clean = 0;
    std::uint64_t racy = 0;  //!< software races (contract void)
    std::uint64_t hw = 0;    //!< cells with hardware violations
    std::uint64_t deadlocked = 0;
    std::uint64_t livelocked = 0;
    std::uint64_t errors = 0;       //!< cells whose program failed to build
    std::uint64_t inconclusive = 0; //!< verify cells without a verdict
    std::uint64_t nonsc = 0;  //!< verify cells: hw escaped SC (expected)
    std::uint64_t by_kind[num_violation_kinds] = {}; //!< hw cells per kind
    std::map<std::string, std::uint64_t> inconclusive_why; //!< per reason

    /**
     * Count one cell by its CellResult::verdict() and, when
     * inconclusive, its why_inconclusive.
     */
    void add(const std::string &verdict, const std::string &why);

    void merge(const VerdictTally &o);

    /**
     * Set the tally's members (clean, racy, ..., by_kind,
     * inconclusive_why) on @p j.
     */
    void toJson(Json &j) const;
};

/**
 * The journal cell-line object for @p r (without the "type" member).
 * One schema, two producers: Journal::appendCell for in-process
 * campaigns and the cells of the fleet worker's `lease_done` batches,
 * so a merged fleet journal is line-compatible with a single-process
 * one.
 */
Json cellResultToJson(const CellResult &r);

/**
 * What one campaign worker keeps from cell to cell: its
 * materialization cache and one timed machine.  The machine is built
 * on the worker's first run cell (a worker that never runs one, like
 * an empty campaign's, pays nothing) and re-armed with
 * System::reset() for every later one, so a warmed run cell builds,
 * simulates and tears down nothing.  Owned by one thread: the
 * in-process engine's worker and the fleet worker's slot each hold
 * one.
 */
class CellContext
{
  public:
    MaterializeCache cache;

    /** The machine re-armed for @p prog under @p cfg. */
    System &machine(const Program &prog, const SystemCfg &cfg);

    /** Reused text buffer (the outcome signature's source). */
    std::string &scratch() { return scratch_; }

  private:
    std::unique_ptr<System> sys_;
    std::string scratch_;
};

/**
 * Run one cell to a verdict: materialize, then either simulate under
 * the online monitor (run cells) or judge with the dual-engine
 * verifier (verify cells), and reduce.  Materialization errors surface
 * as a failed cell with verdict "deadlock" never -- they produce hw ==
 * 0, completed == false and primary_kind == "materialize_error".
 * With @p ctx the cell reuses the worker's cache and machine; without
 * one it builds both afresh.  The verdict is the same either way.
 */
struct CellRun
{
    CellResult result;
    std::optional<Program> program; //!< kept for the shrinker
    std::vector<WarmTerm> warm;
};

CellRun runCell(const Cell &cell, std::uint64_t max_events,
                CellContext *ctx = nullptr);

/**
 * Stable 64-bit FNV-1a over @p text: journal key hashing, fuzzer mutant
 * derivation and novelty sharding, outcome signatures.  Identical on
 * every platform.
 */
std::uint64_t fnv1a64(std::string_view text);

/** fnv1a64 of @p text, rendered as 16 hex digits. */
std::string fnv1aHex(const std::string &text);

/** Parse "sc" / "def1" / "drf0" / "drf0ro"; false on unknown text. */
bool parsePolicyName(const std::string &name, OrderingPolicy &out);

/** The flag-style name of a policy ("sc", "def1", "drf0", "drf0ro"). */
const char *policyFlagName(OrderingPolicy p);

} // namespace wo

#endif // WO_CAMPAIGN_CELL_HH
