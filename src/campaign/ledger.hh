/**
 * @file
 * The campaign ledger: everything that happens to a campaign's results
 * after a cell has run -- the journal, the verdict tally and latency,
 * failure filing (dedup, `.wo` reproducer, evidence bundle, /events
 * feed), the CampaignSummary, and the per-campaign /metrics and
 * /progress documents.  The in-process engine (scheduler.hh) and the
 * fleet coordinator (fleet/coordinator.hh) both record into one.
 *
 * Results are recorded through *slots*: cache-line-aligned counter
 * blocks written only by their owner (relaxed atomics the control
 * plane reads mid-run).  The engine gives each worker thread a slot
 * and records lock-free; the coordinator records every merged result
 * from its pump thread into a single slot.
 */

#ifndef WO_CAMPAIGN_LEDGER_HH
#define WO_CAMPAIGN_LEDGER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/cell.hh"
#include "campaign/journal.hh"
#include "campaign/shrink.hh"
#include "campaign/spec.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace wo {

class MetricsRegistry;

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
     * went, by span kind (see obs/timeline.hh).  In-process lanes are
     * the jobs workers in order plus the journal writer; always
     * populated there, so every campaign explains its own scaling.
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

    /** Machine-readable form (`campaign.summary.json`). */
    Json toJson() const;
};

/** The per-campaign ledger (see the file comment). */
class Ledger
{
  public:
    /**
     * @p slots recording slots; reproducers and the summary go under
     * @p dir, the journal to @p journal_path (empty: the default
     * `<dir>/campaign.journal.jsonl`).  @p lanes, when non-null, are
     * slots + 1 timelines (the slots' threads, then the journal
     * writer, which @p jcfg.timeline should name) whose per-slot and
     * per-lane series the control plane then reports; they must
     * outlive the ledger.
     */
    Ledger(int slots, std::string dir, std::string journal_path,
           JournalCfg jcfg, Timeline *lanes = nullptr);
    ~Ledger();

    Ledger(const Ledger &) = delete;
    Ledger &operator=(const Ledger &) = delete;

    // --- journal setup -------------------------------------------------

    /** Replay the existing journal (a resume); returns its header.
     *  Call before open(). */
    const Json &replay();

    /**
     * Start recording @p spec's campaign: create the directory, size
     * the seen set for its cells, open the journal -- appending after a
     * replay(), else truncating -- write @p meta as the header unless
     * the replay found one, and start the wall clock.
     */
    void open(const CampaignSpec &spec, Json meta);

    /** The journal (claim() and the replayed resume state). */
    Journal &journal() { return journal_; }

    // --- recording (slot-owner only; lock-free) ------------------------

    /** Count one finished in-process cell on @p slot and journal it. */
    void recordCell(int slot, const CellResult &r);

    /** Count a finished cell from its journal line @p line (the
     *  fleet's merge path) and journal the line verbatim. */
    void recordLine(int slot, Json line);

    /** Count a cell not run because @p how was resumed or duplicate. */
    void recordSkip(int slot, KeyClaim how);

    /**
     * File one shrunk failure of @p kind found by @p cell; thread-safe.
     * Every one is journaled; the first of its dedup class also writes
     * the `.wo` reproducer and evidence bundle and feeds /events (and
     * returns true).  Without @p s.program (a failure reported over the
     * wire) the evidence re-run assembles @p s.wo_text; text that does
     * not assemble keeps its `.wo` and record but gets no evidence.  An
     * unknown @p kind cannot name a file and is dropped with a warning.
     */
    bool fileFailure(const Cell &cell, const std::string &kind,
                     const ShrinkOutcome &s);

    // --- end of campaign -----------------------------------------------

    /** Mark the campaign done, commit the journal and summarize it
     *  (failures span resumed history).  Call once recording stops. */
    CampaignSummary close();

    /** Write @p summary to `<dir>/campaign.summary.json`. */
    void writeSummary(const Json &summary) const;

    // --- live view (any thread) ----------------------------------------

    /** Cells handled so far: run, resumed and duplicate. */
    std::uint64_t completed() const;
    double elapsedS() const;
    bool done() const { return done_.load(std::memory_order_acquire); }

    /** Mount the live per-campaign metrics on @p reg. */
    void metrics(MetricsRegistry &reg) const;

    /** The per-campaign /progress document. */
    Json progressJson() const;

    /** The one-line live progress report (`wotool campaign` stderr). */
    std::string progressLine() const;

    /** Append an SSE `failure` frame per unique failure past
     *  @p cursor to @p chunk.  True once done (read first, so a done
     *  stream has seen every failure). */
    bool failureEvents(std::size_t &cursor, std::string &chunk) const;

  private:
    static constexpr int num_lat_buckets = 28; //!< 2^27 us ~ 134 s

    /** One slot's counters: the atomics are owner-written (relaxed;
     *  they order nothing), the plain fields read only by close(). */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> completed{0};
        std::atomic<std::uint64_t> ran{0};
        std::atomic<std::uint64_t> resumed{0};    //!< journaled by a past run
        std::atomic<std::uint64_t> duplicates{0}; //!< repeated in this run
        std::atomic<std::uint64_t> hw{0};         //!< live copy of tally.hw
        // Verify-cell explorer totals (zero for run campaigns).
        std::atomic<std::uint64_t> dpor_probes{0};
        // Live per-cell latency: bucket b counts wall times in
        // (2^(b-1), 2^b] us (the last bucket absorbs overflow).
        std::atomic<std::uint64_t> lat_count{0};
        std::atomic<std::uint64_t> lat_sum_us{0};
        std::atomic<std::uint64_t> lat_bucket[num_lat_buckets] = {};

        VerdictTally tally;
        std::vector<double> lat_ms; //!< per-cell wall time
    };

    /** Merged live latency: count, sum and cumulative buckets. */
    struct LatSnapshot
    {
        std::uint64_t count = 0;
        std::uint64_t sum_us = 0;
        std::uint64_t cum[num_lat_buckets] = {};
    };

    void count(Slot &s, const std::string &verdict, const std::string &why,
               double ms, std::uint64_t probes);
    std::uint64_t sumLive(std::atomic<std::uint64_t> Slot::*f) const;
    /** Run/skip counts of @p slot, or campaign totals (plus the cell
     *  budget and hw-failed cells) when @p slot < 0. */
    Json countsJson(int slot) const;
    LatSnapshot latSnapshot() const;
    double idlePct(int slot) const;

    const int nslots_;
    const std::string dir_;
    Timeline *lanes_;
    Journal journal_;
    std::unique_ptr<Slot[]> slots_;
    bool replayed_ = false;
    std::uint64_t cells_ = 0;      //!< the campaign's cell budget
    std::uint64_t max_events_ = 0; //!< evidence re-run event cap
    std::chrono::steady_clock::time_point t0_;
    std::atomic<std::uint64_t> unique_{0};
    std::atomic<bool> done_{false};

    // The feed only grows (a first-of-dedup discovery already paid for
    // a shrink and an evidence re-run, so its lock is noise), which
    // keeps every stream's cursor valid.
    mutable std::mutex feed_mu_;
    std::vector<std::string> feed_; //!< `failure` SSE frames, in order
};

} // namespace wo

#endif // WO_CAMPAIGN_LEDGER_HH
