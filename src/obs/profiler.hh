/**
 * @file
 * The self-profiler: a sampling wall-clock profiler built into the
 * binary, so every performance claim the repo makes ships with its own
 * evidence (ROADMAP item 5: explain the campaign scaling curve, don't
 * infer it).
 *
 * Design: engine threads register themselves in a process-wide thread
 * registry (Profiler::ThreadGuard).  When a Profiler is started, a
 * pacer thread wakes `hz` times per second and delivers SIGPROF to
 * every registered thread with pthread_kill; the async-signal-safe
 * handler captures a raw backtrace (glibc backtrace()) into a
 * preallocated lock-free sample ring.  stop() symbolizes the unique
 * program counters once (dladdr + __cxa_demangle; executables are
 * built with CMAKE_ENABLE_EXPORTS so their own symbols resolve) and
 * aggregates:
 *
 *  - **collapsed stacks** (`folded()`): one `lane;frame;...;leaf N`
 *    line per unique stack -- the input format of flamegraph.pl and
 *    speedscope (see scripts/flame.sh and docs/OBSERVABILITY.md);
 *  - **top-N self/total tables** (`toJson()`): per-frame sample counts
 *    mounted into the metrics tree / `--stats-json` / the campaign
 *    summary.
 *
 * Sampling is cooperative with nothing: no ptrace, no perf_event fds,
 * no external tools -- it works in any container the simulator runs
 * in.  Overhead at the default 97 Hz is gated below 1.10x by
 * bench/bench_profiler.cc in CI.
 *
 * Threading contract: register/unregister and the pacer's signal round
 * share one mutex, so a thread still present in the registry is
 * guaranteed alive when signalled (ThreadGuard's destructor runs
 * before the thread exits).  At most one Profiler is active at a time;
 * start() fails (returns false) when another instance holds the
 * handler.
 */

#ifndef WO_OBS_PROFILER_HH
#define WO_OBS_PROFILER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hh"

namespace wo {

/** Sampling configuration (the `--profile-hz` surface). */
struct ProfilerCfg
{
    /**
     * Samples per second delivered to *each* registered thread.  A
     * prime default so the sampler cannot phase-lock with millisecond-
     * periodic work (the classic 97/997 trick).
     */
    double hz = 97;
    /**
     * Sample ring capacity (per profiler run, all threads together).
     * When full, further samples bump dropped() instead of recording;
     * the folded output stays honest about the truncation.
     */
    std::size_t max_samples = 1 << 16;
    /** Entries in the self/total top tables. */
    int top_n = 20;
};

/** The sampling self-profiler.  One active instance per process. */
class Profiler
{
  public:
    /** Frames recorded per sample (backtrace depth cap). */
    static constexpr int max_frames = 32;

    explicit Profiler(ProfilerCfg cfg = {});
    ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * Install the SIGPROF handler and start the pacer.  False when
     * another Profiler is already active (this one stays inert).
     */
    bool start();

    /**
     * Stop the pacer, restore the handler, symbolize and aggregate.
     * Idempotent; the destructor calls it.  Results are valid after.
     */
    void stop();

    bool running() const { return running_; }

    // ---- results (valid after stop()) --------------------------------

    /**
     * Collapsed-stack output: `lane;root;...;leaf count\n` per unique
     * stack, lines sorted, flamegraph.pl/speedscope-compatible.
     */
    std::string folded() const;

    /**
     * Aggregate tables: {"samples","dropped","signals","hz","threads",
     * "top":[{"frame","self","total"}...]} -- mounted under "profiler"
     * in the metrics tree and the campaign summary JSON.
     */
    Json toJson() const;

    /** Samples recorded (post-stop: ready samples aggregated). */
    std::uint64_t samples() const;

    /** Samples lost to a full ring. */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** SIGPROFs delivered by the pacer (overhead accounting). */
    std::uint64_t signalsSent() const
    {
        return signals_.load(std::memory_order_relaxed);
    }

    // ---- thread registry ---------------------------------------------

    /**
     * RAII registration of the calling thread under @p name.  The
     * registry is process-wide and always available: registering is
     * cheap and does nothing unless a profiler is running, so engine
     * threads (campaign workers, the journal writer, wotool's main
     * thread) register unconditionally.
     */
    class ThreadGuard
    {
      public:
        explicit ThreadGuard(const std::string &name);
        ~ThreadGuard();

        ThreadGuard(const ThreadGuard &) = delete;
        ThreadGuard &operator=(const ThreadGuard &) = delete;

      private:
        int slot_ = -1;      //!< registry slot claimed by this guard
        int prev_slot_ = -1; //!< restored on destruction (nesting)
    };

    /** Currently registered (alive) threads. */
    static std::size_t registeredThreads();

    // ---- pure aggregation (the testable core) ------------------------

    /** One symbolized stack: lane name + frames, root first. */
    struct SymStack
    {
        std::string thread;
        std::vector<std::string> frames; //!< root -> leaf
    };

    /**
     * The frame name of a return address @p pc that lies in a loaded
     * object (@p object_path, loaded at @p base) but resolves to no
     * symbol: "<basename>+0x<pc - base>", e.g. "libc.so.6+0x8ec3a".
     * The offset is stable across runs (ASLR moves only the base), so
     * such frames fold together and can be looked up with addr2line.
     */
    static std::string objectFrameName(std::string_view object_path,
                                       std::uintptr_t pc,
                                       std::uintptr_t base);

    /** Render counted stacks as collapsed-stack text (lines sorted). */
    static std::string
    foldStacks(const std::vector<std::pair<SymStack, std::uint64_t>> &stacks);

    /**
     * The self/total top tables over counted stacks: self counts the
     * leaf frame of each sample, total counts a frame once per sample
     * it appears in.  Rows sorted by self desc, then total desc, then
     * name; ties stable.
     */
    static Json
    topTables(const std::vector<std::pair<SymStack, std::uint64_t>> &stacks,
              int top_n);

    // ---- internal (signal handler plumbing; do not call) -------------

    /** The active instance as seen from the signal handler. */
    static Profiler *activeForSignal();

    /** Record one sample for thread-registry slot @p slot. */
    void recordSample(int slot);

  private:
    struct RawSample
    {
        void *pcs[max_frames];
        int depth = 0;
        int slot = -1;
        std::atomic<bool> ready{false};
    };

    void pacerLoop();
    void aggregate();

    ProfilerCfg cfg_;
    bool running_ = false;
    bool aggregated_ = false;

    std::unique_ptr<RawSample[]> ring_;
    std::size_t cap_ = 0;
    std::atomic<std::uint64_t> next_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> signals_{0};
    std::atomic<bool> stopping_{false};
    std::mutex stop_mu_;
    std::condition_variable stop_cv_;
    std::thread pacer_;

    std::vector<std::pair<SymStack, std::uint64_t>> stacks_; //!< post-stop
    std::uint64_t aggregated_samples_ = 0;
    std::vector<std::string> thread_names_; //!< lanes seen in samples
};

} // namespace wo

#endif // WO_OBS_PROFILER_HH
