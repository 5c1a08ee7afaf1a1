#include "ledger.hh"

#include <algorithm>
#include <filesystem>

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/metrics.hh"

namespace wo {

namespace {

using Clock = std::chrono::steady_clock;

/** The quantile of a sorted sample (nearest-rank). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Bucket-resolution quantile: the smallest power-of-two us bound
 *  covering quantile @p q, in ms. */
double
latQuantileMs(const std::uint64_t *cum, int nbuckets, std::uint64_t count,
              double q)
{
    if (count == 0)
        return 0;
    const std::uint64_t want =
        static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) +
        1;
    int b = 0;
    while (b + 1 < nbuckets && cum[b] < want)
        ++b;
    return static_cast<double>(std::uint64_t{1} << b) / 1000.0;
}

} // namespace

Ledger::Ledger(int slots, std::string dir, std::string journal_path,
               JournalCfg jcfg, Timeline *lanes)
    : nslots_(slots), dir_(std::move(dir)), lanes_(lanes),
      journal_(journal_path.empty() ? dir_ + "/campaign.journal.jsonl"
                                    : std::move(journal_path),
               jcfg),
      slots_(new Slot[static_cast<std::size_t>(slots)]), t0_(Clock::now())
{
}

Ledger::~Ledger() = default;

// --- journal setup ---------------------------------------------------

const Json &
Ledger::replay()
{
    journal_.load();
    replayed_ = true;
    return journal_.header();
}

void
Ledger::open(const CampaignSpec &spec, Json meta)
{
    cells_ = spec.cells;
    max_events_ = spec.max_events;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        warn("cannot create campaign out dir '%s': %s", dir_.c_str(),
             ec.message().c_str());
    // Size the lock-free seen set for this run before any slot records.
    journal_.reserveKeys(static_cast<std::size_t>(spec.cells));
    journal_.open(/*fresh=*/!replayed_);
    if (!replayed_)
        journal_.writeHeader(std::move(meta));
    t0_ = Clock::now();
}

// --- recording -------------------------------------------------------

void
Ledger::count(Slot &s, const std::string &verdict, const std::string &why,
              double ms, std::uint64_t probes)
{
    s.dpor_probes.fetch_add(probes, std::memory_order_relaxed);
    s.tally.add(verdict, why);
    s.hw.store(s.tally.hw, std::memory_order_relaxed);
    s.lat_ms.push_back(ms);

    const std::uint64_t us =
        ms <= 0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
    int b = 0;
    while (b + 1 < num_lat_buckets && (std::uint64_t{1} << b) < us)
        ++b;
    s.lat_bucket[b].fetch_add(1, std::memory_order_relaxed);
    s.lat_sum_us.fetch_add(us, std::memory_order_relaxed);
    s.lat_count.fetch_add(1, std::memory_order_relaxed);
    s.ran.fetch_add(1, std::memory_order_relaxed);
    s.completed.fetch_add(1, std::memory_order_relaxed);
}

void
Ledger::recordCell(int slot, const CellResult &r)
{
    journal_.appendCell(r);
    count(slots_[slot], r.verdict(), r.why_inconclusive, r.wall_ms,
          r.dpor_probes);
}

void
Ledger::recordLine(int slot, Json line)
{
    count(slots_[slot], line.stringAt("verdict"), line.stringAt("why"),
          line.numberAt("ms"), line.uintAt("dpor_probes"));
    journal_.appendJson(std::move(line));
}

void
Ledger::recordSkip(int slot, KeyClaim how)
{
    Slot &s = slots_[slot];
    (how == KeyClaim::resumed ? s.resumed : s.duplicates)
        .fetch_add(1, std::memory_order_relaxed);
    s.completed.fetch_add(1, std::memory_order_relaxed);
}

bool
Ledger::fileFailure(const Cell &cell, const std::string &kind,
                    const ShrinkOutcome &s)
{
    ViolationKind vk;
    if (!violationKindFromName(kind, vk)) {
        warn("campaign: dropping a failure of unknown kind '%s'",
             kind.c_str());
        return false;
    }
    Timeline::Scope span(Timeline::current(), SpanKind::shrink);
    // Equal minima of one violation kind are one failure, however many
    // cells (or fleet workers) hit them.
    const std::string hash = fnv1aHex(s.wo_text).substr(0, 12);
    const std::string stem = dir_ + "/repro-" + kind + "-" + hash;
    FailureRecord rec;
    rec.dedup = kind + ":" + hash;
    rec.kind = kind;
    rec.first_cell = cell.key();
    rec.repro_path = stem + ".wo";
    rec.instructions = s.instructions;
    rec.orig_instructions = s.orig_instructions;
    rec.reproduced = s.reproduced;
    if (!journal_.recordFailure(rec))
        return false; // the journal's failure map counts the repeat

    unique_.fetch_add(1, std::memory_order_relaxed);
    writeFile(rec.repro_path, s.wo_text);
    if (s.program) {
        writeFailureEvidence(cell, *s.program, s.warm, max_events_, stem);
    } else {
        // Reported over the wire: the text is outside input.
        const AsmResult a = assembleString(s.wo_text);
        if (a.ok())
            writeFailureEvidence(cell, *a.program, a.warm, max_events_,
                                 stem);
        else
            warn("campaign: reproducer %s does not assemble (%s); "
                 "no evidence bundle",
                 rec.repro_path.c_str(),
                 a.errors.empty() ? "no program"
                                  : a.errors.front().message.c_str());
    }

    Json ev = Json::object();
    ev.set("dedup", Json(rec.dedup));
    ev.set("kind", Json(kind));
    ev.set("cell", Json(rec.first_cell));
    ev.set("file", Json(rec.repro_path));
    std::lock_guard<std::mutex> lock(feed_mu_);
    feed_.push_back("event: failure\ndata: " + ev.dump(0) + "\n\n");
    return true;
}

// --- end of campaign -------------------------------------------------

CampaignSummary
Ledger::close()
{
    done_.store(true, std::memory_order_release);
    // Once close() returns every appended line is durable.
    journal_.close();

    CampaignSummary sum;
    std::vector<double> lat;
    for (int i = 0; i < nslots_; ++i) {
        Slot &s = slots_[i];
        const std::uint64_t dup =
            s.duplicates.load(std::memory_order_relaxed);
        sum.ran += s.ran.load(std::memory_order_relaxed);
        sum.duplicates += dup;
        sum.skipped += s.resumed.load(std::memory_order_relaxed) + dup;
        sum.merge(s.tally);
        lat.insert(lat.end(), s.lat_ms.begin(), s.lat_ms.end());
        // A closed ledger (a finished fleet campaign stays listed)
        // serves only its live counters: drop the samples.
        std::vector<double>().swap(s.lat_ms);
    }
    std::sort(lat.begin(), lat.end());
    sum.lat_p50_ms = quantile(lat, 0.50);
    sum.lat_p99_ms = quantile(lat, 0.99);
    sum.wall_s = elapsedS();
    sum.cells_per_sec =
        sum.wall_s > 0 ? static_cast<double>(sum.ran) / sum.wall_s : 0;
    sum.failures = journal_.failures();
    return sum;
}

void
Ledger::writeSummary(const Json &summary) const
{
    writeFile(dir_ + "/campaign.summary.json", summary.dump(1) + "\n");
}

// --- live view -------------------------------------------------------

std::uint64_t
Ledger::sumLive(std::atomic<std::uint64_t> Slot::*f) const
{
    std::uint64_t total = 0;
    for (int i = 0; i < nslots_; ++i)
        total += (slots_[i].*f).load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
Ledger::completed() const
{
    return sumLive(&Slot::completed);
}

double
Ledger::elapsedS() const
{
    return std::chrono::duration<double>(Clock::now() - t0_).count();
}

Ledger::LatSnapshot
Ledger::latSnapshot() const
{
    LatSnapshot s;
    for (int i = 0; i < nslots_; ++i) {
        const Slot &sl = slots_[i];
        s.count += sl.lat_count.load(std::memory_order_relaxed);
        s.sum_us += sl.lat_sum_us.load(std::memory_order_relaxed);
        for (int b = 0; b < num_lat_buckets; ++b)
            s.cum[b] += sl.lat_bucket[b].load(std::memory_order_relaxed);
    }
    for (int b = 1; b < num_lat_buckets; ++b)
        s.cum[b] += s.cum[b - 1];
    return s;
}

double
Ledger::idlePct(int slot) const
{
    const Timeline &tl = lanes_[slot];
    const std::uint64_t el = tl.liveElapsedNs();
    return el > 0 ? 100.0 * static_cast<double>(tl.liveNs(SpanKind::idle)) /
                        static_cast<double>(el)
                  : 0.0;
}

Json
Ledger::countsJson(int slot) const
{
    const auto get = [&](std::atomic<std::uint64_t> Slot::*f) {
        return Json(slot < 0 ? sumLive(f)
                             : (slots_[slot].*f).load(
                                   std::memory_order_relaxed));
    };
    Json j = Json::object();
    j.set("completed", get(&Slot::completed));
    j.set("ran", get(&Slot::ran));
    j.set("resumed", get(&Slot::resumed));
    j.set("duplicate", get(&Slot::duplicates));
    if (slot < 0) {
        j.set("total", Json(cells_));
        j.set("hw_failed", Json(sumLive(&Slot::hw)));
    }
    return j;
}

void
Ledger::metrics(MetricsRegistry &reg) const
{
    reg.set("cells", countsJson(-1));
    reg.set("failures.unique",
            Json(unique_.load(std::memory_order_relaxed)));
    reg.set("explore.commutation_probes",
            Json(sumLive(&Slot::dpor_probes)));
    reg.set("done", Json(done()));
    reg.set("wall_seconds", Json(elapsedS()));

    if (lanes_) {
        reg.set("jobs", Json(static_cast<std::uint64_t>(nslots_)));
        for (int i = 0; i < nslots_; ++i)
            reg.set(strprintf("worker{worker=\"%d\"}", i), countsJson(i));
        // Per-lane span decomposition (slots + the journal writer):
        // where each thread's wall clock is going, right now.
        for (int i = 0; i <= nslots_; ++i) {
            const Timeline &tl = lanes_[i];
            const std::string base =
                strprintf("lane{lane=\"%s\"}", tl.lane().c_str());
            reg.set(base + ".elapsed_ns", Json(tl.liveElapsedNs()));
            for (int k = 0; k < num_span_kinds; ++k)
                reg.set(base + strprintf(".span_ns{span=\"%s\"}",
                                         spanKindName(
                                             static_cast<SpanKind>(k))),
                        Json(tl.liveNs(static_cast<SpanKind>(k))));
        }
    }

    // The live per-cell latency histogram (bucket bounds in us).
    const LatSnapshot s = latSnapshot();
    Json h = Json::object();
    h.set("count", Json(s.count));
    h.set("sum", Json(s.sum_us));
    Json buckets = Json::array();
    for (int b = 0; b < num_lat_buckets; ++b) {
        Json e = Json::object();
        e.set("le", Json(std::uint64_t{1} << b));
        e.set("n", Json(s.cum[b]));
        buckets.push(std::move(e));
        if (s.cum[b] >= s.count)
            break; // the rest only repeats the total
    }
    h.set("buckets", std::move(buckets));
    reg.set("cell_latency_us", std::move(h));
}

Json
Ledger::progressJson() const
{
    Json p = Json::object();
    p.set("cells", countsJson(-1));
    p.set("unique_failures", Json(unique_.load(std::memory_order_relaxed)));
    p.set("wall_s", Json(elapsedS()));
    p.set("done", Json(done()));

    const LatSnapshot s = latSnapshot();
    Json lat = Json::object();
    lat.set("count", Json(s.count));
    lat.set("mean_ms",
            Json(s.count > 0 ? static_cast<double>(s.sum_us) /
                                   static_cast<double>(s.count) / 1000.0
                             : 0.0));
    lat.set("p50_ms",
            Json(latQuantileMs(s.cum, num_lat_buckets, s.count, 0.50)));
    lat.set("p99_ms",
            Json(latQuantileMs(s.cum, num_lat_buckets, s.count, 0.99)));
    p.set("latency", std::move(lat));

    if (lanes_) {
        Json workers = Json::array();
        for (int i = 0; i < nslots_; ++i) {
            Json w = countsJson(i);
            w.set("worker", Json(static_cast<std::uint64_t>(i)));
            w.set("idle_pct", Json(idlePct(i)));
            workers.push(std::move(w));
        }
        p.set("workers", std::move(workers));
    }
    return p;
}

std::string
Ledger::progressLine() const
{
    const double secs = elapsedS();
    const std::uint64_t c = completed();
    std::string out = strprintf(
        "%llu/%llu cells  %llu run  %llu resumed  %llu duplicate  "
        "%llu hw-fail (%llu unique)  %.1f cells/s",
        static_cast<unsigned long long>(c),
        static_cast<unsigned long long>(cells_),
        static_cast<unsigned long long>(sumLive(&Slot::ran)),
        static_cast<unsigned long long>(sumLive(&Slot::resumed)),
        static_cast<unsigned long long>(sumLive(&Slot::duplicates)),
        static_cast<unsigned long long>(sumLive(&Slot::hw)),
        static_cast<unsigned long long>(
            unique_.load(std::memory_order_relaxed)),
        secs > 0 ? static_cast<double>(c) / secs : 0.0);
    if (lanes_) {
        // Live idle% per slot thread: a starving fleet shows up here
        // mid-run, not in the post-mortem.
        out += " idle%[";
        for (int i = 0; i < nslots_; ++i)
            out += strprintf("%s%.0f", i ? " " : "", idlePct(i));
        out += "]";
    }
    return out;
}

bool
Ledger::failureEvents(std::size_t &cursor, std::string &chunk) const
{
    const bool finished = done();
    std::lock_guard<std::mutex> lock(feed_mu_);
    for (; cursor < feed_.size(); ++cursor)
        chunk += feed_[cursor];
    return finished;
}

// --- CampaignSummary -------------------------------------------------

std::string
CampaignSummary::table() const
{
    std::string out;
    out += strprintf(
        "campaign: %llu cells (%llu run, %llu resumed, %llu duplicate), "
        "%.2f s, %.1f cells/s (cell p50 %.3f ms, p99 %.3f ms), "
        "%llu frontier discoveries\n",
        static_cast<unsigned long long>(ran + skipped),
        static_cast<unsigned long long>(ran),
        static_cast<unsigned long long>(resumed()),
        static_cast<unsigned long long>(duplicates), wall_s,
        cells_per_sec, lat_p50_ms, lat_p99_ms,
        static_cast<unsigned long long>(novelty));
    out += strprintf(
        "verdicts: %llu clean, %llu race, %llu hw-violation, "
        "%llu deadlock, %llu livelock, %llu error\n",
        static_cast<unsigned long long>(clean),
        static_cast<unsigned long long>(racy),
        static_cast<unsigned long long>(hw),
        static_cast<unsigned long long>(deadlocked),
        static_cast<unsigned long long>(livelocked),
        static_cast<unsigned long long>(errors));
    if (inconclusive > 0 || nonsc > 0)
        out += strprintf(
            "verify: %llu inconclusive, %llu non-SC "
            "(expected on counterexample machines)\n",
            static_cast<unsigned long long>(inconclusive),
            static_cast<unsigned long long>(nonsc));
    for (const auto &[why, n] : inconclusive_why)
        out += strprintf("  %llu inconclusive: %s\n",
                         static_cast<unsigned long long>(n), why.c_str());
    for (const LaneSummary &l : lanes) {
        if (l.wall_ms <= 0)
            continue;
        out += strprintf("lane %-14s %8.1f ms:", l.lane.c_str(),
                         l.wall_ms);
        for (int k = 0; k < num_span_kinds; ++k) {
            if (l.span_count[k] == 0)
                continue;
            out += strprintf(
                " %s %.0f%%",
                spanKindName(static_cast<SpanKind>(k)),
                100.0 * l.span_ms[k] / l.wall_ms);
        }
        out += "\n";
    }
    if (!folded_path.empty())
        out += strprintf(
            "profile: %llu samples (%llu dropped) -> %s, trace %s\n",
            static_cast<unsigned long long>(profile_samples),
            static_cast<unsigned long long>(profile_dropped),
            folded_path.c_str(), trace_path.c_str());
    bool any_kind = false;
    for (int k = 0; k < num_violation_kinds; ++k)
        any_kind = any_kind || by_kind[k] > 0;
    if (any_kind) {
        out += "hw cells by kind:";
        for (int k = 0; k < num_violation_kinds; ++k)
            if (by_kind[k] > 0)
                out += strprintf(
                    " %s=%llu",
                    violationKindName(static_cast<ViolationKind>(k)),
                    static_cast<unsigned long long>(by_kind[k]));
        out += "\n";
    }
    if (failures.empty()) {
        out += "hardware: CLEAN (no violation survived shrinking)\n";
        return out;
    }
    out += strprintf("failures (%zu unique after dedup):\n",
                     failures.size());
    for (const FailureRecord &f : failures)
        out += strprintf(
            "  %-16s x%-4llu -> %s (%zu insns%s%s)\n", f.kind.c_str(),
            static_cast<unsigned long long>(f.count),
            f.repro_path.c_str(), f.instructions,
            f.orig_instructions > 0
                ? strprintf(", from %zu", f.orig_instructions).c_str()
                : "",
            f.reproduced ? ", reproduced" : "");
    return out;
}

Json
CampaignSummary::toJson() const
{
    Json j = Json::object();
    j.set("ran", Json(ran));
    j.set("skipped", Json(skipped));
    j.set("resumed", Json(resumed()));
    j.set("duplicate", Json(duplicates));
    VerdictTally::toJson(j);
    j.set("novelty", Json(novelty));
    j.set("wall_s", Json(wall_s));
    j.set("cells_per_sec", Json(cells_per_sec));
    j.set("lat_p50_ms", Json(lat_p50_ms));
    j.set("lat_p99_ms", Json(lat_p99_ms));
    Json lanes_j = Json::array();
    for (const LaneSummary &l : lanes) {
        Json lj = Json::object();
        lj.set("lane", Json(l.lane));
        lj.set("wall_ms", Json(l.wall_ms));
        Json spans = Json::object();
        for (int k = 0; k < num_span_kinds; ++k) {
            if (l.span_count[k] == 0)
                continue;
            Json s = Json::object();
            s.set("ms", Json(l.span_ms[k]));
            s.set("count", Json(l.span_count[k]));
            s.set("max_ms", Json(l.span_max_ms[k]));
            spans.set(spanKindName(static_cast<SpanKind>(k)),
                      std::move(s));
        }
        lj.set("spans", std::move(spans));
        lanes_j.push(std::move(lj));
    }
    j.set("lanes", std::move(lanes_j));
    if (!profiler_json.isNull()) {
        j.set("profiler", profiler_json);
        j.set("folded", Json(folded_path));
        j.set("trace", Json(trace_path));
    }
    j.set("hardware_clean", Json(hardwareClean()));
    j.set("unique_failures",
          Json(static_cast<std::uint64_t>(failures.size())));
    Json fails = Json::array();
    for (const FailureRecord &f : failures)
        fails.push(failureRecordToJson(f));
    j.set("failures", std::move(fails));
    return j;
}

} // namespace wo
