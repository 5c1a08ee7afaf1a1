/**
 * @file
 * The campaign engine: a work-stealing worker fleet that turns the
 * generators, the timed simulator and the online monitor into bulk
 * verification of the paper's Definition-2 contract.
 *
 * Each of N workers owns a deque of cells.  Fresh mutants from the
 * fuzz frontier are pushed locally (LIFO, so a bug's neighborhood is
 * explored while it is hot); a worker drains its own deque first, then
 * steals from a random victim's opposite end (FIFO).  Half the global
 * budget is reserved for the deterministic base stream -- even tickets
 * always draw the next base cell -- so a self-sustaining mutant
 * frontier can never starve corpus coverage.  A global ticket counter
 * bounds the campaign at `cells` cells (or the time budget), counting
 * resumed skips, so kill + `--resume` converges instead of re-running
 * history.
 *
 * Every hardware-blaming verdict is shrunk to a minimal reproducer
 * (see shrink.hh) and deduplicated by verdict kind + shrunk-program
 * hash; the first equivalent failure writes a `.wo` reproducer plus an
 * evidence bundle under the output directory, later ones only count.
 *
 * The per-cell hot path carries no serialization point, so throughput
 * scales near-linearly with --jobs: the journal group-commits from a
 * dedicated writer thread (see journal.hh), resume lookups read an
 * immutable snapshot, each worker owns a materialization cache and a
 * cache-line-aligned statistics block merged at join, and failure
 * provenance is staged per worker instead of behind a global mutex.
 */

#ifndef WO_CAMPAIGN_SCHEDULER_HH
#define WO_CAMPAIGN_SCHEDULER_HH

#include <string>
#include <vector>

#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "campaign/journal.hh"
#include "campaign/spec.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace wo {

class HttpServer;

/**
 * Campaign configuration (the `wotool campaign` surface): the portable
 * spec plus the knobs of a local run.
 */
struct CampaignCfg : CampaignSpec
{
    int jobs = 1;                 //!< worker threads
    double time_budget_s = 0;     //!< wall-clock cap; 0 = none
    std::string out_dir = "campaign-out";
    std::string journal_path;     //!< default: <out_dir>/campaign.journal.jsonl
    bool resume = false;          //!< replay the journal, skip done cells
    /**
     * Feed novelty-earned mutants back into the fleet (`--no-frontier`
     * turns it off).  With the frontier off every ticket draws the
     * deterministic base stream, so the executed cell *set* is a pure
     * function of (seed, cells) -- the property the distributed fleet
     * (src/fleet/) shards on, and what makes two runs comparable
     * cell-for-cell in the verdict-parity tests.
     */
    bool frontier = true;
    bool progress = false;        //!< live progress line on stderr
    /**
     * Journal group-commit granularity: fwrite+fflush after at most
     * this many buffered records (`--sync-every`; 1 = one flush per
     * cell, the pre-group-commit behavior).  A partial batch is
     * committed within `flush_interval_ms` regardless.
     */
    std::uint64_t sync_every = 64;
    int flush_interval_ms = 5;
    /**
     * Self-profile the fleet (`--profile`): sample every engine thread
     * at profile_hz, write the collapsed stacks and the per-lane
     * Chrome trace under out_dir, and mount the top-N tables in the
     * summary JSON.  Span *aggregates* (the per-lane decomposition in
     * the summary and the live idle%) are always on; --profile adds
     * the sampled stacks and the raw span events.
     */
    bool profile = false;
    /** Self-profiler sampling rate, in samples per second. */
    double profile_hz = 97;
    /** Folded-stack output path; default <out_dir>/campaign.folded.txt. */
    std::string profile_out;
    /**
     * Live control plane (`--serve-port`): an already-started server
     * the caller owns.  runCampaign() mounts /healthz, /metrics,
     * /progress and /events on it for the duration of the run and
     * stops it before returning -- the handlers capture engine state
     * whose lifetime ends with the call.  Binding (and surfacing a
     * port-in-use as a config error) is the caller's job.
     */
    HttpServer *serve = nullptr;
};

/** What a campaign did: the verdict tally of the cells it ran, plus
 *  throughput, failures and the per-lane decomposition. */
struct CampaignSummary : VerdictTally
{
    std::uint64_t ran = 0;     //!< cells actually simulated
    std::uint64_t skipped = 0; //!< cells not run: resumed + duplicates
    std::uint64_t duplicates = 0; //!< keys this run had claimed already
    std::uint64_t novelty = 0; //!< fuzz-frontier discoveries
    std::vector<FailureRecord> failures; //!< deduplicated
    double wall_s = 0;
    double cells_per_sec = 0;
    double lat_p50_ms = 0; //!< median per-cell wall time (ran cells)
    double lat_p99_ms = 0; //!< tail per-cell wall time

    /** Skipped cells a replayed journal already held. */
    std::uint64_t resumed() const { return skipped - duplicates; }

    /**
     * One engine thread's span decomposition: where its wall clock
     * went, by span kind (see obs/timeline.hh).  Lanes are the jobs
     * workers in order plus the journal writer; always populated, so
     * every campaign explains its own scaling.
     */
    struct LaneSummary
    {
        std::string lane;      //!< "worker<i>" or "journal-writer"
        double wall_ms = 0;    //!< markStart..markEnd of the thread loop
        double span_ms[num_span_kinds] = {};
        std::uint64_t span_count[num_span_kinds] = {};
        double span_max_ms[num_span_kinds] = {};
    };
    std::vector<LaneSummary> lanes;

    // Self-profiler results (zero / empty unless cfg.profile).
    std::uint64_t profile_samples = 0;
    std::uint64_t profile_dropped = 0;
    std::string folded_path;  //!< collapsed stacks written here
    std::string trace_path;   //!< per-lane Chrome trace written here
    Json profiler_json;       //!< Profiler::toJson(); null when off

    /** Exit-0 condition: no hardware violation survived shrinking. */
    bool hardwareClean() const { return failures.empty(); }

    /** The final human-readable summary table. */
    std::string table() const;

    /** Machine-readable form (journal footer / tooling). */
    Json toJson() const;
};

/** Run a campaign to completion (or its budget). */
CampaignSummary runCampaign(const CampaignCfg &cfg);

} // namespace wo

#endif // WO_CAMPAIGN_SCHEDULER_HH
