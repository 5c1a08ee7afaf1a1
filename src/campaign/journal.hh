/**
 * @file
 * The crash-safe campaign journal: one JSON object per line.  Writes
 * are *group-committed*: workers enqueue formatted lines onto a
 * lock-free MPSC stack and a dedicated writer thread drains it,
 * batching `fwrite`s and issuing one `fflush` per batch.  The commit
 * point is the flushed batch — a `kill -9` loses at most the lines of
 * the last uncommitted batch (bounded by `JournalCfg::sync_every`
 * records and `flush_interval_ms` milliseconds), never a committed
 * one.  On `--resume` the journal is replayed: finished cell keys are
 * skipped without re-running, and previously recorded failures keep
 * their deduplication identity (verdict kind + shrunk-program hash),
 * so an interrupted hunt neither repeats work nor double-reports the
 * same bug.
 *
 * Line types (see docs/CAMPAIGN.md for the full schema):
 *
 *   {"type":"campaign", ...config echo...}
 *   {"type":"cell","key":K,"verdict":V,"hw":N,"races":N,"sig":S,...}
 *   {"type":"failure","dedup":D,"kind":K,"file":F,"insns":N,...}
 *
 * A truncated or malformed line (the crash can tear at most the tail
 * of the last batch) is ignored by the reader.
 *
 * claim() is the one rule that decides whether a cell is still owed,
 * for the in-process engine (per cell, as workers draw them) and the
 * fleet coordinator (for every base index, when a campaign is added).
 * The resume set is snapshotted into an immutable hash set by load()
 * before the fleet starts, and the fnv1a64 hashes of the keys claimed
 * by the current run live in a ShardedSet (common/sharded_set.hh),
 * whose single insert hands each key to exactly one worker.  Distinct
 * keys colliding in the full 64-bit hash would alias; with
 * million-cell campaigns the birthday bound is ~2^-25, which the
 * journal accepts.
 */

#ifndef WO_CAMPAIGN_JOURNAL_HH
#define WO_CAMPAIGN_JOURNAL_HH

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "campaign/cell.hh"
#include "common/sharded_set.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace wo {

/**
 * The journal line schema version, stamped into every header line
 * (with the writing build's hardware concurrency) and checked by
 * load().  A fleet coordinator merges journal records produced by
 * remote workers, so a version mismatch means records from mixed
 * builds are being combined -- the reader warns instead of silently
 * mixing schemas.  Bump on any line-schema change.
 */
constexpr std::uint64_t journal_schema_version = 3;

/**
 * One deduplicated hardware failure: the first equivalent failure's
 * provenance plus how many cells hit it.  Journaled, replayed on
 * resume, and reported as-is by both the in-process campaign and the
 * fleet coordinator.
 */
struct FailureRecord
{
    std::string dedup;        //!< "<kind>:<shrunk-program hash>"
    std::string kind;         //!< violation kind name
    std::string first_cell;   //!< key of the first cell that hit it
    std::string repro_path;   //!< minimized .wo reproducer
    std::size_t instructions = 0;      //!< after shrinking
    std::size_t orig_instructions = 0; //!< before shrinking
    std::uint64_t count = 0;  //!< equivalent failures (dedup hits)
    bool reproduced = false;  //!< shrink predicate held on the minimum
};

/** The summary-JSON object of @p f. */
Json failureRecordToJson(const FailureRecord &f);

/** Group-commit tuning (the `--sync-every` surface). */
struct JournalCfg
{
    /**
     * Commit (fwrite the batch + one fflush) after at most this many
     * buffered records.  1 restores the one-flush-per-record journal.
     */
    std::uint64_t sync_every = 64;
    /**
     * A partial batch never waits longer than this before it is
     * committed, so journal lines stay fresh even when the fleet
     * produces them slowly.
     */
    int flush_interval_ms = 5;
    /**
     * Span timeline for the writer thread (the campaign's
     * "journal-writer" lane): the writer installs it as the thread's
     * current timeline and accounts every batch commit as a
     * writer_flush span.  Null = no accounting (standalone journals,
     * unit tests).  Must outlive the journal.
     */
    Timeline *timeline = nullptr;
};

/** How Journal::claim() found a cell key. */
enum class KeyClaim {
    fresh,     ///< nobody has run it: the caller now owns the key
    resumed,   ///< a replayed journal already holds it
    duplicate, ///< this run claimed it already (a repeat in the stream)
};

/** The campaign journal (group-commit writer + resume reader). */
class Journal
{
  public:
    explicit Journal(std::string path, JournalCfg cfg = {})
        : path_(std::move(path)), cfg_(cfg)
    {
    }
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Replay an existing journal into the resume/failure sets.
     * Missing file is fine (fresh campaign); malformed lines are
     * skipped.  Call before open(); the resume set is immutable (and
     * therefore read lock-free) from then on.
     */
    void load();

    /**
     * Open for appending and start the writer thread.  @p fresh
     * truncates (non-resume campaigns start clean).  False when the
     * file cannot be opened.
     */
    bool open(bool fresh);

    /**
     * Drain the queue, flush, and join the writer.  Idempotent; the
     * destructor calls it.  After close() every appended line is
     * durable on disk.
     */
    void close();

    /** Size the this-run seen set for @p cells expected appends, at
     *  most max_cell_count (input_limits.hh); call before the fleet
     *  starts. */
    void reserveKeys(std::size_t cells);

    /**
     * Append the campaign-config header line.  `schema_version` and
     * `hw_threads` are stamped automatically (members already present
     * in @p meta win, which keeps replayed/merged headers verbatim).
     */
    void writeHeader(Json meta);

    /** The header object load() replayed (null for a fresh journal). */
    const Json &header() const { return header_; }

    /** The replayed header's schema_version (0 when absent). */
    std::uint64_t loadedSchemaVersion() const
    {
        return loaded_schema_version_;
    }

    /** Did load() see a header from a different schema version? */
    bool schemaMismatch() const { return schema_mismatch_; }

    /**
     * Append an arbitrary journal line (the fleet merge path: the
     * coordinator forwards cell records it received from workers,
     * annotated with idx/shard/worker, which replay ignores).  The
     * coordinator claim()ed each cell's key before leasing it.
     */
    void appendJson(Json line);

    /**
     * Claim @p key for this run.  Exactly one caller per key sees
     * fresh (the seen set's single insert decides), so concurrent
     * workers drawing the same key never both run it.
     */
    KeyClaim claim(const std::string &key);

    /**
     * Was @p key claimed or journaled (this run or a resumed one)?
     */
    bool done(const std::string &key) const;

    /** Number of journaled cells (including replayed ones). */
    std::size_t doneCells() const;

    /** Append one finished cell (marks its key done immediately;
     *  the line itself is durable at the next batch commit). */
    void appendCell(const CellResult &r);

    /**
     * Record a failure under its deduplication key @p f.dedup
     * ("<kind>:<hash of the shrunk program>"; @p f.count is ignored).
     * Returns true when this is the first equivalent failure (caller
     * should emit the reproducer bundle); repeats only bump the count.
     * Always journaled either way.
     */
    bool recordFailure(const FailureRecord &f);

    /** Deduplicated failures, in dedup-key order. */
    std::vector<FailureRecord> failures() const;

    const std::string &path() const { return path_; }

    /** Batches committed (fflush calls) so far.  Diagnostic. */
    std::uint64_t commitBatches() const
    {
        return commits_.load(std::memory_order_relaxed);
    }

  private:
    struct Line
    {
        Line *next = nullptr;
        std::string text;
    };

    /** Enqueue one line that @p write fills (the '\n' is added). */
    template <class Write> void appendWith(Write &&write);
    void appendLine(const Json &j);
    void push(Line *n);
    Line *takeAllFifo();
    void writerLoop();
    void commitBatch(Line *fifo);

    std::string path_;
    JournalCfg cfg_;
    std::FILE *f_ = nullptr;

    // Resume state: written by load() single-threaded, immutable and
    // lock-free to read once the fleet is running.
    std::unordered_set<std::string> resume_done_;
    Json header_;
    std::uint64_t loaded_schema_version_ = 0;
    bool schema_mismatch_ = false;
    // Hashes of the keys claimed or appended by this run.
    ShardedSet<std::uint64_t> seen_;

    // The MPSC line queue (Treiber stack; the writer reverses a drained
    // batch back to push order) and the writer thread it feeds.
    std::atomic<Line *> head_{nullptr};
    std::atomic<std::uint64_t> queued_{0};   //!< pushed - drained
    std::atomic<std::uint64_t> commits_{0};
    std::atomic<bool> writer_idle_{false};
    std::atomic<bool> closing_{false};
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    std::thread writer_;

    mutable std::mutex fail_mu_; //!< failures_ only (off the hot path)
    std::map<std::string, FailureRecord> failures_;
};

} // namespace wo

#endif // WO_CAMPAIGN_JOURNAL_HH
