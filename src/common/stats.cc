#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "logging.hh"

namespace wo {

void
Histogram::sample(std::uint64_t v)
{
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
    min_ = std::min(min_, v);
    samples_.push_back(v);
    sorted_ = false;
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (samples_.empty())
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
    return samples_[std::min(idx, samples_.size() - 1)];
}

std::vector<Histogram::Bucket>
Histogram::cumulativeBuckets() const
{
    std::vector<Bucket> out;
    if (samples_.empty())
        return out;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    std::size_t i = 0;
    for (std::uint64_t le = 1;; le <<= 1) {
        while (i < samples_.size() && samples_[i] <= le)
            ++i;
        out.push_back({le, i});
        if (le >= max_ || le > (~std::uint64_t{0} >> 1))
            break;
    }
    return out;
}

void
Histogram::reset()
{
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = ~std::uint64_t{0};
    samples_.clear();
    sorted_ = true;
}

namespace {

/** The slots of @p names in name order. */
std::vector<std::size_t>
nameOrder(StatGroup::Names names)
{
    std::vector<std::size_t> order(names.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return std::string_view(names[a]) < names[b];
    });
    return order;
}

/** The slot named @p name in @p names, or names.size(). */
std::size_t
slotOf(StatGroup::Names names, std::string_view name)
{
    return std::find(names.begin(), names.end(), name) - names.begin();
}

} // namespace

StatGroup::StatGroup(std::string name, Names counters, Names histograms)
    : name_(std::move(name)), counter_names_(counters),
      hist_names_(histograms), counters_(counters.size()),
      hists_(histograms.size()), counter_order_(nameOrder(counters)),
      hist_order_(nameOrder(histograms))
{
}

void
StatGroup::reset()
{
    std::fill(counters_.begin(), counters_.end(), Counter{});
    for (Histogram &h : hists_)
        h.reset();
}

std::optional<std::uint64_t>
StatGroup::find(std::string_view name) const
{
    const std::size_t i = slotOf(counter_names_, name);
    if (i == counters_.size() || !counters_[i].listed)
        return std::nullopt;
    return counters_[i].value;
}

const Histogram *
StatGroup::findHistogram(std::string_view name) const
{
    const std::size_t i = slotOf(hist_names_, name);
    return i < hists_.size() && hists_[i].count() ? &hists_[i] : nullptr;
}

std::string
StatGroup::dump() const
{
    std::string out;
    forEach(
        [&](const char *stat, std::uint64_t v) {
            out += strprintf("%s.%s %llu\n", name_.c_str(), stat,
                             static_cast<unsigned long long>(v));
        },
        [&](const char *stat, const Histogram &h) {
            out += strprintf("%s.%s count=%llu mean=%.2f min=%llu max=%llu "
                             "p50=%llu p99=%llu\n",
                             name_.c_str(), stat,
                             static_cast<unsigned long long>(h.count()),
                             h.mean(),
                             static_cast<unsigned long long>(h.min()),
                             static_cast<unsigned long long>(h.max()),
                             static_cast<unsigned long long>(h.percentile(50)),
                             static_cast<unsigned long long>(h.percentile(99)));
        });
    return out;
}

} // namespace wo
