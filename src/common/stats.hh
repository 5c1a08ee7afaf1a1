/**
 * @file
 * Lightweight statistics collection for the timed simulator and benches.
 *
 * A StatGroup is one component's fixed table of counters and histograms.
 * The timed components (CPUs, caches, directory, network, the per-CPU
 * stall attribution) each declare their slots and names once, write the
 * slots by index, and the dump and metrics walk them by name; nothing here
 * is meant to be clever, only uniform and printable.
 */

#ifndef WO_COMMON_STATS_HH
#define WO_COMMON_STATS_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wo {

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
 * The fixed statistics table of one component, with a text dump.
 *
 * A component declares its statistics once: an enum of counter slots
 * and one of histogram slots, each with a static name row (counter
 * slot i is named counters[i]).  The hot path indexes a slot directly.
 * A statistic is listed from its first inc(), set() or sample() since
 * construction or the last reset(); dumps and walks show only listed
 * statistics, in name order.
 */
class StatGroup
{
  public:
    using Names = std::span<const char *const>;

    /**
     * A group labelled @p name (appears in dumps) over the name rows
     * @p counters and @p histograms, which must outlive the group (static
     * tables).
     */
    StatGroup(std::string name, Names counters, Names histograms = {});

    /** Add @p delta (default 1) to counter slot @p i. */
    void
    inc(std::size_t i, std::uint64_t delta = 1)
    {
        counters_[i].value += delta;
        counters_[i].listed = true;
    }

    /** Overwrite counter slot @p i (for sampled gauges). */
    void set(std::size_t i, std::uint64_t v) { counters_[i] = {v, true}; }

    /** Counter slot @p i's value (0 until listed). */
    std::uint64_t value(std::size_t i) const { return counters_[i].value; }

    /** The histogram in slot @p i. */
    Histogram &histogram(std::size_t i) { return hists_[i]; }

    /** Zero and un-list every statistic, as if the group were new. */
    void reset();

    /** The listed counter named @p name's value, else none (a cold scan). */
    std::optional<std::uint64_t> find(std::string_view name) const;

    /** The listed histogram named @p name, else null (a cold scan). */
    const Histogram *findHistogram(std::string_view name) const;

    /**
     * Visit the listed statistics in name order: on_counter(name, value)
     * for each counter, then on_histogram(name, histogram) for each
     * histogram.
     */
    template <typename OnCounter, typename OnHistogram>
    void
    forEach(OnCounter &&on_counter, OnHistogram &&on_histogram) const
    {
        for (std::size_t i : counter_order_)
            if (counters_[i].listed)
                on_counter(counter_names_[i], counters_[i].value);
        for (std::size_t i : hist_order_)
            if (hists_[i].count())
                on_histogram(hist_names_[i], hists_[i]);
    }

    /**
     * Render the listed statistics as "group.stat value" lines.
     *
     * Contract: the output is order-stable — statistics appear sorted by
     * name (counters first, then histograms), independent of slot and
     * use order, so dumps diff cleanly across runs and golden files can
     * rely on line order.
     */
    std::string dump() const;

  private:
    struct Counter
    {
        std::uint64_t value = 0;
        bool listed = false;
    };

    std::string name_;
    Names counter_names_;
    Names hist_names_;
    std::vector<Counter> counters_;
    std::vector<Histogram> hists_;
    std::vector<std::size_t> counter_order_; //!< slots sorted by name
    std::vector<std::size_t> hist_order_;
};

} // namespace wo

#endif // WO_COMMON_STATS_HH
