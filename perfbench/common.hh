/**
 * @file
 * Shared machinery of the repository benchmark (`wobench`): arguments,
 * the result report, clocks and resource counters, output digests, the
 * per-thread allocation counter and the per-thread span clocks the
 * traced runs accumulate into.
 *
 * Everything here sits *outside* the simulator: spans are timed around
 * calls into each layer's public functions, never inside src/.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace pb {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;    //!< measurement window
    bool trace = false;     //!< per-layer run instead of end-to-end
    bool tiny = false;      //!< smallest inputs (machinery tests)
    int jobs = 4;           //!< busy threads of the closed loop
    std::string expect_digest; //!< override the expected output digest
    std::string out_dir = ".bench_out"; //!< scratch journals
    std::string program_dir = "perfbench/programs";
};

/** Process-wide resource usage (getrusage RUSAGE_SELF). */
struct Usage
{
    double user_s = 0;
    double sys_s = 0;
    long nvcsw = 0;  //!< voluntary context switches
    long nivcsw = 0; //!< involuntary context switches
    long minflt = 0; //!< minor page faults

    double cpuS() const { return user_s + sys_s; }
    Usage minus(const Usage &earlier) const;
    wo::Json toJson() const;
};

Usage usageNow();
double processCpuS();
double threadCpuS();
double peakRssMb();

/** Linear-interpolated quantile (@p q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** 64-bit FNV-1a over the sorted, newline-joined @p records, as hex. */
std::string digestOf(std::vector<std::string> records);

/**
 * Allocation counting: the benchmark replaces global operator new, and
 * while counting is on every allocation bumps a thread-local counter.
 * Switch it only while no other thread allocates (before the traced
 * driver's threads start, after they join).
 */
void setAllocCounting(bool on);
std::uint64_t threadAllocs();
std::uint64_t threadAllocBytes();

/**
 * Per-thread span clocks of the explorer adapter (explore_wl.cc).  The
 * DPOR engine owns its worker threads, so each thread's block registers
 * itself on first use and sumSpanClocks() folds every block, including
 * those of threads that have exited.
 */
struct SpanClock
{
    std::uint64_t step_ns = 0;  //!< labeledSuccessors
    std::uint64_t probe_ns = 0; //!< stepLabel
    std::uint64_t hash_ns = 0;  //!< hashState
};
SpanClock &threadSpanClock();
SpanClock sumSpanClocks();
void resetSpanClocks();

/** One run's result: metrics, failure counts and diagnostics. */
class Report
{
  public:
    /** Record a metric; the first value recorded under a name wins. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    bool has(const std::string &name) const;

    /** An output check; a failed one fails the run. */
    void check(bool ok, const std::string &what);

    /**
     * Count units of work: @p failed went wrong, @p unresolved gave no
     * verdict without going wrong (inconclusive verify cells).
     */
    void attempt(std::uint64_t n, std::uint64_t failed,
                 std::uint64_t unresolved = 0);

    /** Units with a verdict, failed checks counted as failed units. */
    double passRatio() const;

    /** Diagnostics printed on the line before the result. */
    wo::Json info = wo::Json::object();

    bool correct() const { return correct_; }

    /** The result object: correct, attempted, failed, metrics. */
    wo::Json result() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t unresolved_ = 0;
    wo::Json failures_ = wo::Json::array();
};

/** One `"type":"cell"` line of a campaign journal. */
struct JournalCell
{
    std::string key;
    std::string verdict;
    std::string sig;
    std::uint64_t tick = 0;
    double ms = 0;
    std::uint64_t dpor_states = 0;
    std::uint64_t bfs_states = 0;
    std::int64_t shard = -1; //!< fleet journals only
};

/** Every cell line of the journal at @p path (empty when missing). */
std::vector<JournalCell> readJournal(const std::string &path);

/**
 * Run-cell digest: sorted distinct (key, verdict, sig, tick).  A key
 * that ran twice (an in-run duplicate) counts once, so the digest is a
 * function of the cell set, not of which worker won a race.
 */
std::string runDigest(const std::vector<JournalCell> &cells);

/** Verify-cell digest: sorted distinct (key, verdict, dpor, bfs). */
std::string verifyDigest(const std::vector<JournalCell> &cells);

/** Create (and empty) the scratch directory @p dir. */
void freshDir(const std::string &dir);

// The four workloads (campaign_wl.cc, explore_wl.cc, fleet_wl.cc).
void campaignRun(const Args &args, Report &rep);
void campaignVerify(const Args &args, Report &rep);
void exploreDpor(const Args &args, Report &rep);
void fleetRun(const Args &args, Report &rep);

} // namespace pb

#endif // PERFBENCH_COMMON_HH
