/**
 * @file
 * Lightweight statistics collection for the timed simulator and benches.
 *
 * A StatGroup owns a set of named scalar counters and histograms.  The timed
 * components (CPUs, caches, directory, network) register their statistics in
 * a group and the benchmark harness formats them; nothing here is meant to
 * be clever, only uniform and printable.
 */

#ifndef WO_COMMON_STATS_HH
#define WO_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wo {

/** A named monotonically adjustable scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p delta (default 1) to the counter. */
    void inc(std::uint64_t delta = 1) { value_ += delta; }

    /** Overwrite the counter (for sampled gauges). */
    void set(std::uint64_t v) { value_ = v; }

    /** Current value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** A histogram over non-negative samples with mean/max/percentile queries. */
class Histogram
{
  public:
    /** Record one sample. */
    void sample(std::uint64_t v);

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of all samples. */
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Largest sample (0 when empty). */
    std::uint64_t max() const { return max_; }

    /** Smallest sample (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /**
     * The p-th percentile (nearest-rank) computed from the stored
     * samples.  The full sample vector is retained; simulations here are
     * small enough that exactness beats a sketch.
     *
     * Contract: 0 when empty; @p p is clamped to [0,100];
     * percentile(0) == min() and percentile(100) == max().
     */
    std::uint64_t percentile(double p) const;

    /** One cumulative bucket of the Prometheus-style export. */
    struct Bucket
    {
        std::uint64_t le;  //!< upper bound (inclusive)
        std::uint64_t cum; //!< samples <= le
    };

    /**
     * Cumulative buckets over a power-of-two ladder (1, 2, 4, ... up
     * to the first bound >= max()), the shape Prometheus histogram
     * exposition wants: bucket[i].cum counts every sample <= le, so
     * the counts are monotonically non-decreasing and the final bucket
     * equals count().  Empty histogram -> empty vector (the renderer
     * emits only the implicit +Inf bucket).
     */
    std::vector<Bucket> cumulativeBuckets() const;

    /** Drop all samples. */
    void reset();

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    mutable std::vector<std::uint64_t> samples_;
    mutable bool sorted_ = true;
};

/**
 * A named collection of counters and histograms with a text dump.
 *
 * A statistic exists from its first lookup: dumps list exactly the
 * statistics looked up since construction or the last clear().  The
 * lookups are transparent (a string literal costs no std::string), and
 * clear() parks the entries instead of freeing them, so a component
 * reused across runs re-creates its statistics without allocating.
 * References returned by counter() and histogram() stay valid until
 * the next clear().
 */
class StatGroup
{
  public:
    /** Ordered by name, looked up by any string-like key. */
    template <typename T>
    using Map = std::map<std::string, T, std::less<>>;

    /** Construct a group labelled @p name (appears in dumps). */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Find or create the counter @p name. */
    Counter &counter(std::string_view name)
    {
        return lookup(counters_, parked_counters_, name);
    }

    /** Find or create the histogram @p name. */
    Histogram &histogram(std::string_view name)
    {
        return lookup(hists_, parked_hists_, name);
    }

    /** Group label. */
    const std::string &name() const { return name_; }

    /** Reset every statistic in the group. */
    void resetAll();

    /**
     * Drop every statistic, as if the group were new.  The entries are
     * parked zeroed and revived by the next lookup of their name.
     */
    void clear();

    /**
     * Render all statistics as "group.stat value" lines.
     *
     * Contract: the output is order-stable — statistics appear sorted by
     * name (counters first, then histograms), independent of creation
     * order, so dumps diff cleanly across runs and golden files can rely
     * on line order.
     */
    std::string dump() const;

    /** Read access for formatters. */
    const Map<Counter> &counters() const { return counters_; }

    /** Read access for formatters. */
    const Map<Histogram> &histograms() const { return hists_; }

  private:
    template <typename T>
    static T &
    lookup(Map<T> &live, Map<T> &parked, std::string_view name)
    {
        auto it = live.find(name);
        if (it != live.end())
            return it->second;
        auto p = parked.find(name);
        if (p != parked.end())
            return live.insert(parked.extract(p)).position->second;
        return live.emplace(std::string(name), T{}).first->second;
    }

    std::string name_;
    Map<Counter> counters_;
    Map<Histogram> hists_;
    Map<Counter> parked_counters_; //!< cleared, awaiting a lookup
    Map<Histogram> parked_hists_;
};

/**
 * Counter handles over one group for a component's hot path: slot i
 * stands for the counter names[i].  Its first use looks the name up
 * (creating the counter, exactly as StatGroup::counter would, so a
 * dump still lists only counters in use); later uses are one load.
 * clear() clears the group and forgets the handles.
 */
template <std::size_t N>
class CounterHandles
{
  public:
    using Names = std::array<const char *, N>;

    /** @p names must outlive the handles (a static table). */
    CounterHandles(StatGroup &group, const Names &names)
        : group_(group), names_(names)
    {
    }

    Counter &
    operator[](std::size_t i)
    {
        Counter *&c = slots_[i];
        if (!c) [[unlikely]]
            c = &group_.counter(names_[i]);
        return *c;
    }

    void
    clear()
    {
        group_.clear();
        slots_.fill(nullptr);
    }

  private:
    StatGroup &group_;
    const Names &names_;
    std::array<Counter *, N> slots_{};
};

} // namespace wo

#endif // WO_COMMON_STATS_HH
