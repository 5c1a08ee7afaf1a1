#include "obs/recorder.hh"

#include "obs/trace_writer.hh"

namespace wo {

const char *flightKindName(FlightKind k)
{
    switch (k) {
    case FlightKind::msg: return "msg";
    case FlightKind::issue: return "issue";
    case FlightKind::commit: return "commit";
    case FlightKind::perform: return "perform";
    case FlightKind::retire: return "retire";
    case FlightKind::stall: return "stall";
    case FlightKind::counter: return "counter";
    case FlightKind::reserve: return "reserve";
    case FlightKind::violation: return "violation";
    case FlightKind::fire: return "fire";
    }
    return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1)
{
}

std::vector<FlightEvent> FlightRecorder::window() const
{
    std::vector<FlightEvent> out;
    out.reserve(size());
    const std::size_t n = size();
    // Oldest record: where the next overwrite would land, once wrapped.
    const std::size_t start = recorded_ > ring_.size() ? next_ : 0;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

std::string FlightRecorder::chromeTraceJson(ProcId nprocs) const
{
    Json other = Json::object();
    other.set("source", "wotool flight recorder");
    other.set("window", std::uint64_t{size()});
    other.set("recorded", recorded_);
    other.set("dropped", dropped());
    return recordsChromeJson(window(), {}, nprocs, "monitor", nullptr,
                             std::move(other));
}

} // namespace wo
