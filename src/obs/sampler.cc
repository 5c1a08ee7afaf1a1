#include "obs/sampler.hh"

#include "common/logging.hh"
#include "event/event_queue.hh"
#include "obs/trace_writer.hh"

namespace wo {

Sampler::Sampler(Tick interval) : interval_(interval > 0 ? interval : 1) {}

void Sampler::addProbe(std::string name, std::function<std::uint64_t()> read)
{
    wo_assert(ticks_.empty(), "probes must be added before sampling starts");
    names_.push_back(std::move(name));
    probes_.push_back(std::move(read));
}

void Sampler::sampleNow(Tick now)
{
    ticks_.push_back(now);
    for (const auto &read : probes_)
        values_.push_back(read());
}

void Sampler::scheduleNext(EventQueue &eq)
{
    eq.schedule(interval_, "sampler", [this, &eq] {
        sampleNow(eq.now());
        // Reschedule only while other work is pending, so the sampler
        // never keeps an otherwise-drained queue spinning forever.
        if (eq.pending() > 0)
            scheduleNext(eq);
    });
}

void Sampler::start(EventQueue &eq)
{
    sampleNow(eq.now());
    scheduleNext(eq);
}

std::string Sampler::csv() const
{
    std::string out = "tick";
    for (const std::string &n : names_) {
        out += ',';
        out += n;
    }
    out += '\n';
    const std::size_t w = probes_.size();
    for (std::size_t row = 0; row < ticks_.size(); ++row) {
        out += strprintf("%llu",
                         static_cast<unsigned long long>(ticks_[row]));
        for (std::size_t c = 0; c < w; ++c)
            out += strprintf(",%llu", static_cast<unsigned long long>(
                                          values_[row * w + c]));
        out += '\n';
    }
    return out;
}

void Sampler::appendCounterEvents(Json &events) const
{
    const std::size_t w = probes_.size();
    for (std::size_t row = 0; row < ticks_.size(); ++row)
        for (std::size_t c = 0; c < w; ++c)
            events.push(chrome::counter(names_[c], 0, ticks_[row],
                                        Json(values_[row * w + c])));
}

} // namespace wo
