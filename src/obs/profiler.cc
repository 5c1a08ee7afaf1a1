#include "profiler.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <map>
#include <unordered_map>

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>

#include "common/logging.hh"
#include "common/text.hh"

// The SIGPROF handler must be a named extern "C" symbol: aggregation
// trims the handler frames off every captured stack by matching the
// frame's dladdr symbol address against this function.
extern "C" void wo_profiler_signal_handler(int);

namespace wo {

namespace {

/**
 * The process-wide thread registry.  Slots (and their names) are
 * append-only so a raw sample taken milliseconds before a thread
 * unregistered still resolves its lane name at aggregation time; only
 * the alive list shrinks.
 */
struct ThreadRegistry
{
    std::mutex mu;
    struct Entry
    {
        pthread_t tid;
        int slot;
    };
    std::vector<Entry> alive;
    std::vector<std::string> names; //!< slot -> lane name, append-only
};

ThreadRegistry &
registry()
{
    static ThreadRegistry r;
    return r;
}

thread_local int t_slot = -1;

/** The single active profiler, as the signal handler sees it. */
std::atomic<Profiler *> g_active{nullptr};

/** Install the SIGPROF handler once; it no-ops with no active profiler,
 *  so it can stay installed for the life of the process. */
void
installHandlerOnce()
{
    static bool installed = [] {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = wo_profiler_signal_handler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGPROF, &sa, nullptr);
        return true;
    }();
    (void)installed;
}

/** Demangle @p mangled, or return it unchanged. */
std::string
demangle(const char *mangled)
{
    int status = 0;
    char *out = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
    if (status != 0 || !out) {
        std::free(out);
        return mangled;
    }
    std::string s(out);
    std::free(out);
    return s;
}

/**
 * Resolve one return address to a printable frame name.  The address
 * is backed off by one byte so the call site's own function wins at
 * exact symbol boundaries.  Frames in a known object without an
 * exported symbol are named by object and offset; frames outside any
 * object keep their hex address (still foldable, still honest).
 */
std::string
symbolize(void *pc)
{
    Dl_info info;
    void *probe = static_cast<char *>(pc) - 1;
    if (!dladdr(probe, &info))
        return strprintf("0x%llx", static_cast<unsigned long long>(
                                       reinterpret_cast<std::uintptr_t>(pc)));
    if (!info.dli_sname)
        return Profiler::objectFrameName(
            info.dli_fname ? info.dli_fname : "?",
            reinterpret_cast<std::uintptr_t>(pc),
            reinterpret_cast<std::uintptr_t>(info.dli_fbase));
    std::string name = demangle(info.dli_sname);
    // ';' is the folded-format separator, so it must never appear
    // inside a frame.
    std::replace(name.begin(), name.end(), ';', ',');
    return name;
}

/** Is @p pc a return address inside the signal handler itself? */
bool
isHandlerFrame(void *pc)
{
    Dl_info info;
    void *probe = static_cast<char *>(pc) - 1;
    return dladdr(probe, &info) &&
           info.dli_saddr ==
               reinterpret_cast<void *>(&wo_profiler_signal_handler);
}

} // namespace

std::string
Profiler::objectFrameName(std::string_view object_path, std::uintptr_t pc,
                          std::uintptr_t base)
{
    const std::size_t slash = object_path.rfind('/');
    std::string name(slash == std::string_view::npos
                         ? object_path
                         : object_path.substr(slash + 1));
    std::replace(name.begin(), name.end(), ';', ',');
    name += "+0x";
    appendNumber(name, pc - base, 16);
    return name;
}

// ---------------------------------------------------------- ThreadGuard

Profiler::ThreadGuard::ThreadGuard(const std::string &name)
{
    ThreadRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    slot_ = static_cast<int>(r.names.size());
    r.names.push_back(name);
    r.alive.push_back({pthread_self(), slot_});
    prev_slot_ = t_slot;
    t_slot = slot_;
}

Profiler::ThreadGuard::~ThreadGuard()
{
    ThreadRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (std::size_t i = 0; i < r.alive.size(); ++i)
        if (r.alive[i].slot == slot_) {
            r.alive.erase(r.alive.begin() +
                          static_cast<std::ptrdiff_t>(i));
            break;
        }
    t_slot = prev_slot_;
}

std::size_t
Profiler::registeredThreads()
{
    ThreadRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.alive.size();
}

// ------------------------------------------------------------- Profiler

Profiler::Profiler(ProfilerCfg cfg) : cfg_(cfg)
{
    cap_ = std::max<std::size_t>(cfg_.max_samples, 16);
    ring_ = std::make_unique<RawSample[]>(cap_);
}

Profiler::~Profiler()
{
    stop();
}

Profiler *
Profiler::activeForSignal()
{
    return g_active.load(std::memory_order_acquire);
}

void
Profiler::recordSample(int slot)
{
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= cap_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    RawSample &s = ring_[i];
    s.slot = slot;
    s.depth = backtrace(s.pcs, max_frames);
    s.ready.store(true, std::memory_order_release);
}

bool
Profiler::start()
{
    if (running_)
        return false;
    Profiler *expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, this,
                                          std::memory_order_acq_rel))
        return false; // another profiler holds the handler

    // glibc's first backtrace() lazily loads the unwinder; do it now,
    // outside any signal handler.
    void *prime[4];
    backtrace(prime, 4);
    installHandlerOnce();

    stopping_.store(false, std::memory_order_relaxed);
    pacer_ = std::thread([this] { pacerLoop(); });
    running_ = true;
    aggregated_ = false;
    return true;
}

void
Profiler::pacerLoop()
{
    const double hz = cfg_.hz > 0.01 ? cfg_.hz : 0.01;
    const auto period =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(1.0 / hz));
    auto next = std::chrono::steady_clock::now() + period;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(stop_mu_);
            if (stop_cv_.wait_until(lock, next, [this] {
                    return stopping_.load(std::memory_order_acquire);
                }))
                return;
        }
        next += period;
        ThreadRegistry &r = registry();
        // Signal while holding the registry lock: unregistration takes
        // the same lock before the thread may exit, so a listed tid is
        // always a live thread.
        std::lock_guard<std::mutex> lock(r.mu);
        const pthread_t self = pthread_self();
        for (const auto &e : r.alive) {
            if (pthread_equal(e.tid, self))
                continue;
            if (pthread_kill(e.tid, SIGPROF) == 0)
                signals_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
Profiler::stop()
{
    if (running_) {
        {
            std::lock_guard<std::mutex> lock(stop_mu_);
            stopping_.store(true, std::memory_order_release);
        }
        stop_cv_.notify_one();
        pacer_.join();
        g_active.store(nullptr, std::memory_order_release);
        running_ = false;
    }
    if (!aggregated_)
        aggregate();
}

void
Profiler::aggregate()
{
    aggregated_ = true;
    stacks_.clear();
    aggregated_samples_ = 0;

    const std::uint64_t n =
        std::min<std::uint64_t>(next_.load(std::memory_order_acquire),
                                cap_);

    // Coalesce identical raw stacks first so each unique stack is
    // symbolized exactly once.  Key = slot followed by the trimmed,
    // root-first pc list.
    std::map<std::vector<void *>, std::uint64_t> raw;
    for (std::uint64_t i = 0; i < n; ++i) {
        RawSample &s = ring_[i];
        if (!s.ready.load(std::memory_order_acquire))
            continue; // a handler was mid-write when we stopped
        // Trim the capture machinery: everything up to the handler
        // frame plus the kernel's signal trampoline above it.
        int start = 0;
        for (int f = 0; f < s.depth; ++f)
            if (isHandlerFrame(s.pcs[f])) {
                start = std::min(f + 2, s.depth);
                break;
            }
        std::vector<void *> key;
        key.reserve(static_cast<std::size_t>(s.depth - start) + 1);
        key.push_back(reinterpret_cast<void *>(
            static_cast<std::intptr_t>(s.slot)));
        for (int f = s.depth - 1; f >= start; --f)
            key.push_back(s.pcs[f]); // reverse: folded wants root first
        ++raw[std::move(key)];
        ++aggregated_samples_;
    }

    std::vector<std::string> names;
    {
        ThreadRegistry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        names = r.names;
    }

    std::unordered_map<void *, std::string> symcache;
    auto symOf = [&symcache](void *pc) -> const std::string & {
        auto it = symcache.find(pc);
        if (it == symcache.end())
            it = symcache.emplace(pc, symbolize(pc)).first;
        return it->second;
    };

    std::vector<bool> lane_seen(names.size() + 1, false);
    for (const auto &[key, count] : raw) {
        SymStack sym;
        const int slot = static_cast<int>(
            reinterpret_cast<std::intptr_t>(key[0]));
        const bool known =
            slot >= 0 && slot < static_cast<int>(names.size());
        sym.thread = known ? names[static_cast<std::size_t>(slot)]
                           : "unregistered";
        const std::size_t seen_idx =
            known ? static_cast<std::size_t>(slot) : names.size();
        if (!lane_seen[seen_idx]) {
            lane_seen[seen_idx] = true;
            thread_names_.push_back(sym.thread);
        }
        sym.frames.reserve(key.size() - 1);
        for (std::size_t f = 1; f < key.size(); ++f)
            sym.frames.push_back(symOf(key[f]));
        stacks_.emplace_back(std::move(sym), count);
    }
    std::sort(thread_names_.begin(), thread_names_.end());
}

std::uint64_t
Profiler::samples() const
{
    if (aggregated_)
        return aggregated_samples_;
    return std::min<std::uint64_t>(
        next_.load(std::memory_order_relaxed), cap_);
}

std::string
Profiler::folded() const
{
    return foldStacks(stacks_);
}

Json
Profiler::toJson() const
{
    Json j = Json::object();
    j.set("samples", Json(aggregated_samples_));
    j.set("dropped", Json(dropped()));
    j.set("signals", Json(signalsSent()));
    j.set("hz", Json(cfg_.hz));
    Json threads = Json::array();
    for (const std::string &t : thread_names_)
        threads.push(Json(t));
    j.set("threads", std::move(threads));
    j.set("top", topTables(stacks_, cfg_.top_n));
    return j;
}

// ------------------------------------------- pure aggregation helpers

std::string
Profiler::foldStacks(
    const std::vector<std::pair<SymStack, std::uint64_t>> &stacks)
{
    std::map<std::string, std::uint64_t> lines;
    for (const auto &[s, count] : stacks) {
        std::string key = s.thread;
        for (const std::string &f : s.frames) {
            key += ';';
            key += f;
        }
        lines[key] += count;
    }
    std::string out;
    for (const auto &[key, count] : lines)
        out += strprintf("%s %llu\n", key.c_str(),
                         static_cast<unsigned long long>(count));
    return out;
}

Json
Profiler::topTables(
    const std::vector<std::pair<SymStack, std::uint64_t>> &stacks,
    int top_n)
{
    struct Cell
    {
        std::uint64_t self = 0;
        std::uint64_t total = 0;
    };
    std::map<std::string, Cell> frames;
    for (const auto &[s, count] : stacks) {
        if (s.frames.empty())
            continue;
        frames[s.frames.back()].self += count;
        // Total counts a frame once per sample it appears in, however
        // many times recursion repeats it within the stack.
        std::vector<const std::string *> uniq;
        uniq.reserve(s.frames.size());
        for (const std::string &f : s.frames) {
            bool dup = false;
            for (const std::string *u : uniq)
                dup = dup || *u == f;
            if (!dup) {
                uniq.push_back(&f);
                frames[f].total += count;
            }
        }
    }

    std::vector<std::pair<std::string, Cell>> rows(frames.begin(),
                                                   frames.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        if (a.second.self != b.second.self)
            return a.second.self > b.second.self;
        if (a.second.total != b.second.total)
            return a.second.total > b.second.total;
        return a.first < b.first;
    });
    if (top_n > 0 && rows.size() > static_cast<std::size_t>(top_n))
        rows.resize(static_cast<std::size_t>(top_n));

    Json top = Json::array();
    for (const auto &[name, cell] : rows) {
        Json row = Json::object();
        row.set("frame", Json(name));
        row.set("self", Json(cell.self));
        row.set("total", Json(cell.total));
        top.push(std::move(row));
    }
    return top;
}

} // namespace wo

extern "C" void
wo_profiler_signal_handler(int)
{
    const int saved_errno = errno;
    if (wo::Profiler *p = wo::Profiler::activeForSignal())
        p->recordSample(wo::t_slot);
    errno = saved_errno;
}
