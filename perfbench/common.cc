#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <new>

namespace pb {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Usage
Usage::minus(const Usage &earlier) const
{
    Usage d;
    d.user_s = user_s - earlier.user_s;
    d.sys_s = sys_s - earlier.sys_s;
    d.nvcsw = nvcsw - earlier.nvcsw;
    d.nivcsw = nivcsw - earlier.nivcsw;
    d.minflt = minflt - earlier.minflt;
    return d;
}

wo::Json
Usage::toJson() const
{
    wo::Json j = wo::Json::object();
    j.set("user_s", wo::Json(user_s));
    j.set("sys_s", wo::Json(sys_s));
    j.set("vol_ctx_switches", wo::Json(static_cast<std::int64_t>(nvcsw)));
    j.set("invol_ctx_switches",
          wo::Json(static_cast<std::int64_t>(nivcsw)));
    j.set("minor_faults", wo::Json(static_cast<std::int64_t>(minflt)));
    return j;
}

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    u.minflt = ru.ru_minflt;
    return u;
}

namespace {

double
clockS(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

} // namespace

double processCpuS() { return clockS(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuS() { return clockS(CLOCK_THREAD_CPUTIME_ID); }

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string
digestOf(std::vector<std::string> records)
{
    std::sort(records.begin(), records.end());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &r : records) {
        for (unsigned char c : r) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= '\n';
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---- allocation counting -------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

} // namespace

void
setAllocCounting(bool on)
{
    g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t threadAllocs() { return t_allocs; }
std::uint64_t threadAllocBytes() { return t_alloc_bytes; }

// ---- span clocks ----------------------------------------------------

namespace {

std::mutex g_clock_mu;
std::deque<SpanClock> g_clocks; // stable addresses; one per thread
thread_local SpanClock *t_clock = nullptr;

} // namespace

SpanClock &
threadSpanClock()
{
    if (!t_clock) {
        std::lock_guard<std::mutex> g(g_clock_mu);
        t_clock = &g_clocks.emplace_back();
    }
    return *t_clock;
}

SpanClock
sumSpanClocks()
{
    std::lock_guard<std::mutex> g(g_clock_mu);
    SpanClock s;
    for (const SpanClock &c : g_clocks) {
        s.step_ns += c.step_ns;
        s.probe_ns += c.probe_ns;
        s.hash_ns += c.hash_ns;
    }
    return s;
}

void
resetSpanClocks()
{
    std::lock_guard<std::mutex> g(g_clock_mu);
    for (SpanClock &c : g_clocks)
        c = SpanClock{};
}

// ---- report ---------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!has(name))
        metrics_.push_back({name, value, unit});
}

bool
Report::has(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return true;
    return false;
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct_ = false;
    ++failed_;
    ++attempted_;
    failures_.push(wo::Json(what));
    info.set("failed_checks", failures_);
}

void
Report::attempt(std::uint64_t n, std::uint64_t failed,
                std::uint64_t unresolved)
{
    attempted_ += n;
    failed_ += failed;
    unresolved_ += unresolved;
}

double
Report::passRatio() const
{
    if (attempted_ == 0)
        return 0;
    return 1.0 - static_cast<double>(failed_ + unresolved_) /
                     static_cast<double>(attempted_);
}

wo::Json
Report::result() const
{
    wo::Json m = wo::Json::object();
    for (const Metric &x : metrics_) {
        wo::Json v = wo::Json::object();
        v.set("value", wo::Json(x.value));
        v.set("unit", wo::Json(x.unit));
        m.set(x.name, std::move(v));
    }
    wo::Json j = wo::Json::object();
    j.set("correct", wo::Json(correct_));
    j.set("attempted", wo::Json(std::max<std::uint64_t>(attempted_, 1)));
    j.set("failed", wo::Json(failed_));
    j.set("metrics", std::move(m));
    return j;
}

// ---- journals -------------------------------------------------------

std::vector<JournalCell>
readJournal(const std::string &path)
{
    std::vector<JournalCell> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"type\":\"cell\"") == std::string::npos)
            continue;
        wo::JsonParseResult p = wo::jsonParse(line);
        if (!p.ok)
            continue;
        const wo::Json &j = p.value;
        auto str = [&](const char *k) {
            const wo::Json *v = j.find(k);
            return v && v->isString() ? v->stringValue() : std::string();
        };
        auto num = [&](const char *k) {
            const wo::Json *v = j.find(k);
            return v && v->isNumber() ? v->numberValue() : 0.0;
        };
        JournalCell c;
        c.key = str("key");
        c.verdict = str("verdict");
        c.sig = str("sig");
        c.tick = static_cast<std::uint64_t>(num("tick"));
        c.ms = num("ms");
        c.dpor_states = static_cast<std::uint64_t>(num("dpor_states"));
        c.bfs_states = static_cast<std::uint64_t>(num("bfs_states"));
        if (j.find("shard"))
            c.shard = static_cast<std::int64_t>(num("shard"));
        out.push_back(std::move(c));
    }
    return out;
}

namespace {

std::string
distinctDigest(const std::vector<JournalCell> &cells,
               std::string (*row)(const JournalCell &))
{
    std::vector<std::string> rows;
    rows.reserve(cells.size());
    for (const JournalCell &c : cells)
        rows.push_back(row(c));
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return digestOf(std::move(rows));
}

} // namespace

std::string
runDigest(const std::vector<JournalCell> &cells)
{
    return distinctDigest(cells, [](const JournalCell &c) {
        return c.key + "|" + c.verdict + "|" + c.sig + "|" +
               std::to_string(c.tick);
    });
}

std::string
verifyDigest(const std::vector<JournalCell> &cells)
{
    return distinctDigest(cells, [](const JournalCell &c) {
        return c.key + "|" + c.verdict + "|" +
               std::to_string(c.dpor_states) + "|" +
               std::to_string(c.bfs_states);
    });
}

void
freshDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
}

} // namespace pb

// Global allocation hooks: plain malloc/free, plus a thread-local count
// while the traced cell driver has counting switched on.
void *
operator new(std::size_t n)
{
    if (pb::g_count_allocs.load(std::memory_order_relaxed)) {
        ++pb::t_allocs;
        pb::t_alloc_bytes += n;
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
