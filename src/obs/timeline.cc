#include "timeline.hh"

#include <algorithm>

#include "obs/trace_writer.hh"

namespace wo {

namespace {

thread_local Timeline *t_current = nullptr;

std::uint64_t
nsBetween(Timeline::Clock::time_point a, Timeline::Clock::time_point b)
{
    if (b <= a)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

} // namespace

const char *
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::idle: return "idle";
      case SpanKind::materialize: return "materialize";
      case SpanKind::run: return "run";
      case SpanKind::shrink: return "shrink";
      case SpanKind::journal_push: return "journal_push";
      case SpanKind::writer_flush: return "writer_flush";
    }
    return "?";
}

Timeline *
Timeline::current()
{
    return t_current;
}

void
Timeline::setCurrent(Timeline *tl)
{
    t_current = tl;
}

void
Timeline::configure(std::string lane, Clock::time_point epoch,
                    bool record_events)
{
    lane_ = std::move(lane);
    epoch_ = epoch;
    record_events_ = record_events;
}

void
Timeline::markStart()
{
    start_ns_.store(nsBetween(epoch_, Clock::now()),
                    std::memory_order_relaxed);
}

void
Timeline::markEnd()
{
    end_ns_.store(nsBetween(epoch_, Clock::now()),
                  std::memory_order_relaxed);
}

double
Timeline::wallMs() const
{
    const std::uint64_t s = start_ns_.load(std::memory_order_relaxed);
    const std::uint64_t e = end_ns_.load(std::memory_order_relaxed);
    return e > s ? static_cast<double>(e - s) / 1e6 : 0;
}

std::uint64_t
Timeline::liveElapsedNs() const
{
    const std::uint64_t s = start_ns_.load(std::memory_order_relaxed);
    if (s == 0)
        return 0;
    const std::uint64_t now = nsBetween(epoch_, Clock::now());
    return now > s ? now - s : 0;
}

void
Timeline::add(SpanKind k, Clock::time_point t0, Clock::time_point t1)
{
    const std::uint64_t ns = nsBetween(t0, t1);
    const int i = static_cast<int>(k);
    // Owner-written: relaxed add is a plain increment the progress
    // reporter can read live without ordering anything.
    total_ns_[i].fetch_add(ns, std::memory_order_relaxed);
    ++count_[i];
    max_ns_[i] = std::max(max_ns_[i], ns);
    if (record_events_)
        events_.push_back({k, nsBetween(epoch_, t0) / 1000,
                           nsBetween(epoch_, t1) / 1000});
}

SpanAgg
Timeline::agg(SpanKind k) const
{
    const int i = static_cast<int>(k);
    SpanAgg a;
    a.total_ms = static_cast<double>(
                     total_ns_[i].load(std::memory_order_relaxed)) /
                 1e6;
    a.count = count_[i];
    a.max_ms = static_cast<double>(max_ns_[i]) / 1e6;
    return a;
}

double
Timeline::spanSumMs() const
{
    double sum = 0;
    for (int i = 0; i < num_span_kinds; ++i)
        sum += static_cast<double>(
                   total_ns_[i].load(std::memory_order_relaxed)) /
               1e6;
    return sum;
}

std::string
timelinesChromeJson(const std::vector<const Timeline *> &lanes)
{
    Json events = Json::array();
    for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
        events.push(chrome::lane(tid, lanes[tid]->lane()));
        for (const SpanEvent &e : lanes[tid]->events()) {
            Json x = chrome::span(spanKindName(e.kind), tid, e.t0_us,
                                  e.t1_us);
            x.set("cat", "campaign");
            events.push(std::move(x));
        }
    }
    Json top = Json::object();
    top.set("traceEvents", std::move(events));
    Json other = Json::object();
    other.set("timebase", Json("host microseconds since campaign epoch"));
    top.set("otherData", std::move(other));
    return top.dump(1);
}

} // namespace wo
