#include "journal.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unistd.h>

#include "common/input_limits.hh"
#include "common/logging.hh"
#include "obs/profiler.hh"

namespace wo {

namespace {

/** The length of @p f up to and including its last '\n' (0 when it
 *  has none, -1 on a read error). */
long
committedLength(std::FILE *f)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return -1;
    long end = std::ftell(f);
    char buf[4096];
    while (end > 0) {
        const long n = std::min<long>(end, sizeof buf);
        if (std::fseek(f, end - n, SEEK_SET) != 0 ||
            std::fread(buf, 1, static_cast<std::size_t>(n), f) !=
                static_cast<std::size_t>(n))
            return -1;
        for (long i = n; i-- > 0;)
            if (buf[i] == '\n')
                return end - n + i + 1;
        end -= n;
    }
    return end;
}

} // namespace

Journal::~Journal()
{
    close();
}

void
Journal::load()
{
    forEachJsonlObject(path_, [this](const Json &line) {
        const std::string type = line.stringAt("type");
        if (type == "campaign") {
            header_ = line;
            loaded_schema_version_ =
                line.uintAt("schema_version", loaded_schema_version_);
            if (loaded_schema_version_ != journal_schema_version) {
                schema_mismatch_ = true;
                warn("journal '%s': schema version %llu, this build "
                     "writes %llu -- records from mixed builds; "
                     "resume/merge results may be inconsistent",
                     path_.c_str(),
                     static_cast<unsigned long long>(
                         loaded_schema_version_),
                     static_cast<unsigned long long>(
                         journal_schema_version));
            }
        } else if (type == "cell") {
            if (const Json *k = line.find("key"))
                if (k->isString())
                    resume_done_.insert(k->stringValue());
        } else if (type == "failure") {
            const std::string dedup = line.stringAt("dedup");
            if (dedup.empty())
                return;
            FailureRecord &rec = failures_[dedup];
            rec.dedup = dedup;
            if (rec.count++ > 0)
                return; // the first equivalent failure's provenance
            rec.kind = line.stringAt("kind");
            rec.first_cell = line.stringAt("cell");
            rec.repro_path = line.stringAt("file");
            rec.instructions = line.uintAt("insns");
            rec.orig_instructions = line.uintAt("orig_insns");
            rec.reproduced = line.boolAt("reproduced");
        }
    });
}

bool
Journal::open(bool fresh)
{
    f_ = std::fopen(path_.c_str(), fresh ? "wb" : "a+b");
    if (!f_) {
        warn("cannot open campaign journal '%s'", path_.c_str());
        return false;
    }
    if (!fresh) {
        // A crash can tear the last line of the last batch.  Cut it
        // off: load() and forEachJsonlObject() skip a line without its
        // '\n', so the torn tail was never resumed.  Terminating it
        // instead would turn a tail that lacked only its newline into
        // a record of a key this run re-runs and journals again.
        const long keep = committedLength(f_);
        if (keep < 0 || ::ftruncate(::fileno(f_), keep) != 0)
            warn("campaign journal '%s': cannot cut its torn tail",
                 path_.c_str());
        std::clearerr(f_);
        std::fseek(f_, 0, SEEK_END);
    }
    closing_.store(false, std::memory_order_relaxed);
    writer_ = std::thread([this] { writerLoop(); });
    return true;
}

void
Journal::close()
{
    if (writer_.joinable()) {
        closing_.store(true, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(wake_mu_);
            wake_cv_.notify_one();
        }
        writer_.join();
    }
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
}

void
Journal::reserveKeys(std::size_t cells)
{
    seen_.reserve(std::min<std::size_t>(cells, max_cell_count));
}

void
Journal::push(Line *n)
{
    Line *h = head_.load(std::memory_order_relaxed);
    do {
        n->next = h;
    } while (!head_.compare_exchange_weak(h, n,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
    const std::uint64_t pending =
        queued_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Wake a sleeping writer only at the batch threshold (or always
    // when sync_every == 1): everything else rides the bounded flush
    // interval, so the hot path stays notification-free.  Only the
    // pusher that clears writer_idle_ notifies, so one batch crossing
    // sends one wake.  No wake is lost: the writer sets writer_idle_
    // under wake_mu_ before it re-checks head_, and this push, load
    // and exchange and that store and load are all seq_cst, so either
    // the writer sees this line in head_ and does not sleep, or this
    // pusher sees it idle and the notify (under wake_mu_) finds it
    // waiting.  The plain load keeps the exchange off the hot path.
    if (pending >= cfg_.sync_every && writer_idle_.load() &&
        writer_idle_.exchange(false)) {
        std::lock_guard<std::mutex> lock(wake_mu_);
        wake_cv_.notify_one();
    }
}

Journal::Line *
Journal::takeAllFifo()
{
    Line *lifo = head_.exchange(nullptr, std::memory_order_acquire);
    // The stack is newest-first; reverse to recover push order.
    Line *fifo = nullptr;
    while (lifo) {
        Line *next = lifo->next;
        lifo->next = fifo;
        fifo = lifo;
        lifo = next;
    }
    return fifo;
}

void
Journal::commitBatch(Line *fifo)
{
    // One writer_flush span per drained batch (runs on the writer
    // thread; Timeline::current() is the journal-writer lane or null).
    Timeline::Scope flush_span(Timeline::current(),
                               SpanKind::writer_flush);
    std::uint64_t since_flush = 0;
    std::uint64_t drained = 0;
    while (fifo) {
        Line *next = fifo->next;
        std::fwrite(fifo->text.data(), 1, fifo->text.size(), f_);
        delete fifo;
        fifo = next;
        ++drained;
        if (++since_flush >= cfg_.sync_every) {
            std::fflush(f_); // commit point: the batch is durable
            commits_.fetch_add(1, std::memory_order_relaxed);
            since_flush = 0;
        }
    }
    if (since_flush > 0) {
        std::fflush(f_);
        commits_.fetch_add(1, std::memory_order_relaxed);
    }
    queued_.fetch_sub(drained, std::memory_order_acq_rel);
}

void
Journal::writerLoop()
{
    // The writer is an engine thread: it registers for self-profiling
    // and owns the campaign's "journal-writer" timeline lane.
    Profiler::ThreadGuard prof_guard("journal-writer");
    Timeline *tl = cfg_.timeline;
    Timeline::setCurrent(tl);
    if (tl)
        tl->markStart();
    const auto interval =
        std::chrono::milliseconds(cfg_.flush_interval_ms > 0
                                      ? cfg_.flush_interval_ms
                                      : 1);
    for (;;) {
        Line *batch = takeAllFifo();
        if (batch) {
            commitBatch(batch);
            continue;
        }
        if (closing_.load(std::memory_order_acquire)) {
            // close() happens after the fleet joined: one final drain
            // catches anything pushed before the closing flag.
            commitBatch(takeAllFifo());
            if (tl)
                tl->markEnd();
            Timeline::setCurrent(nullptr);
            return;
        }
        std::unique_lock<std::mutex> lock(wake_mu_);
        writer_idle_.store(true);
        if (head_.load() == nullptr &&
            !closing_.load(std::memory_order_acquire))
            wake_cv_.wait_for(lock, interval);
        writer_idle_.store(false, std::memory_order_release);
    }
}

void
Journal::appendLine(const Json &j)
{
    if (!writer_.joinable())
        return; // not open: drop, same as the pre-group-commit journal
    // journal_push accounts the producer side (format + enqueue) on
    // whichever lane the calling thread owns.
    Timeline::Scope push_span(Timeline::current(),
                              SpanKind::journal_push);
    Line *n = new Line;
    n->text = j.dump();
    n->text += '\n';
    push(n);
}

void
Journal::writeHeader(Json meta)
{
    Json j = Json::object();
    j.set("type", Json("campaign"));
    j.set("schema_version", Json(journal_schema_version));
    j.set("hw_threads",
          Json(static_cast<std::uint64_t>(
              std::thread::hardware_concurrency())));
    for (const auto &[k, v] : meta.members())
        j.set(k, v);
    appendLine(j);
}

void
Journal::appendJson(Json line)
{
    appendLine(line);
}

KeyClaim
Journal::claim(const std::string &key)
{
    if (resume_done_.count(key) > 0)
        return KeyClaim::resumed;
    return seen_.insert(fnv1a64(key)) ? KeyClaim::fresh
                                      : KeyClaim::duplicate;
}

bool
Journal::done(const std::string &key) const
{
    if (resume_done_.count(key) > 0)
        return true;
    return seen_.contains(fnv1a64(key));
}

std::size_t
Journal::doneCells() const
{
    return resume_done_.size() + seen_.size();
}

void
Journal::appendCell(const CellResult &r)
{
    // Mark the key done before the line is durable: done() answers
    // "has this run handled the key", the journal line answers "will a
    // resumed run re-handle it" -- the crash window between the two is
    // the (bounded) uncommitted tail of the current batch.  A key the
    // campaign engine claim()ed is marked already; the insert is then
    // a no-op.
    if (resume_done_.count(r.key) == 0)
        seen_.insert(fnv1a64(r.key));

    Json j = cellResultToJson(r);
    j.set("type", Json("cell"));
    appendLine(j);
}

bool
Journal::recordFailure(const FailureRecord &f)
{
    bool first;
    std::string first_file;
    {
        std::lock_guard<std::mutex> lock(fail_mu_);
        FailureRecord &rec = failures_[f.dedup];
        first = rec.count == 0;
        if (first) {
            rec = f;
            rec.count = 0;
        }
        ++rec.count;
        first_file = rec.repro_path;
    }

    Json j = Json::object();
    j.set("type", Json("failure"));
    j.set("dedup", Json(f.dedup));
    j.set("kind", Json(f.kind));
    j.set("cell", Json(f.first_cell));
    j.set("file", Json(first_file));
    j.set("insns", Json(static_cast<std::uint64_t>(f.instructions)));
    j.set("orig_insns",
          Json(static_cast<std::uint64_t>(f.orig_instructions)));
    j.set("reproduced", Json(f.reproduced));
    j.set("dup", Json(!first));
    appendLine(j);
    return first;
}

std::vector<FailureRecord>
Journal::failures() const
{
    std::lock_guard<std::mutex> lock(fail_mu_);
    std::vector<FailureRecord> out;
    for (const auto &[dedup, rec] : failures_)
        out.push_back(rec);
    return out;
}

Json
failureRecordToJson(const FailureRecord &f)
{
    Json j = Json::object();
    j.set("dedup", Json(f.dedup));
    j.set("kind", Json(f.kind));
    j.set("file", Json(f.repro_path));
    j.set("insns", Json(static_cast<std::uint64_t>(f.instructions)));
    j.set("orig_insns",
          Json(static_cast<std::uint64_t>(f.orig_instructions)));
    j.set("count", Json(f.count));
    j.set("reproduced", Json(f.reproduced));
    return j;
}

} // namespace wo
