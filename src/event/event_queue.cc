#include "event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace wo {

EventQueue::EventQueue()
{
    wheel_.resize(wheel_size);
    occupied_.assign(wheel_size / 64, 0);
}

void
EventQueue::markOccupied(std::size_t idx)
{
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
EventQueue::clearOccupied(std::size_t idx)
{
    occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

std::size_t
EventQueue::findOccupied(std::size_t from) const
{
    std::size_t w = from >> 6;
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
        if (word)
            return (w << 6) + std::countr_zero(word);
        if (++w == occupied_.size())
            return npos;
        word = occupied_[w];
    }
}

void
EventQueue::schedule(Tick delay, EventLabel label, EventCallback fn)
{
    scheduleAt(now_ + delay, label, std::move(fn));
}

void
EventQueue::scheduleAt(Tick when, EventLabel label, EventCallback fn)
{
    if (when < now_) [[unlikely]]
        wo_panic("scheduling event '%s' in the past (%llu < %llu)",
                 label.materialize().c_str(),
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
    ++pending_;
    if (when < wheel_base_ + wheel_size) {
        const std::size_t idx = when & wheel_mask;
        wheel_[idx].events.push_back(
            Event{when, next_seq_++, std::move(fn), label});
        markOccupied(idx);
        ++wheel_pending_;
    } else {
        overflow_.push_back(Event{when, next_seq_++, std::move(fn), label});
        std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
}

void
EventQueue::refillWheel()
{
    wo_assert(!overflow_.empty() && wheel_pending_ == 0,
              "wheel refill without a drained wheel and pending overflow");
    wheel_base_ = overflow_.front().when & ~wheel_mask;
    const Tick limit = wheel_base_ + wheel_size;
    // The heap pops in (when, seq) order, so per-tick buckets fill in
    // schedule order and same-tick FIFO survives the migration.
    while (!overflow_.empty() && overflow_.front().when < limit) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        Event ev = std::move(overflow_.back());
        overflow_.pop_back();
        const std::size_t idx = ev.when & wheel_mask;
        wheel_[idx].events.push_back(std::move(ev));
        markOccupied(idx);
        ++wheel_pending_;
    }
}

bool
EventQueue::popNext(Event &out)
{
    if (pending_ == 0)
        return false;
    if (wheel_pending_ == 0)
        refillWheel();
    const std::size_t start =
        now_ > wheel_base_ ? static_cast<std::size_t>(now_ - wheel_base_) : 0;
    const std::size_t idx = findOccupied(start);
    wo_assert(idx != npos, "calendar wheel lost track of %zu events",
              wheel_pending_);
    Bucket &b = wheel_[idx];
    out = std::move(b.events[b.pos++]);
    --wheel_pending_;
    --pending_;
    if (b.pos == b.events.size()) {
        // clear() keeps capacity: the bucket is the event arena and is
        // recycled allocation-free next time this tick index comes by.
        b.events.clear();
        b.pos = 0;
        clearOccupied(idx);
    }
    return true;
}

void
EventQueue::observeFire(const Event &ev)
{
    const std::string label = ev.label.materialize();
    if (logLevel() == LogLevel::verbose)
        verbose("t=%llu event %s", static_cast<unsigned long long>(now_),
                label.c_str());
    if (obs_ && obs_->tracing())
        obs_->queueFire(now_, label);
}

bool
EventQueue::step()
{
    Event ev;
    if (!popNext(ev))
        return false;
    now_ = ev.when;
    // Label materialization is the cold path: only verbose logging or
    // queue-event tracing ever looks at the text.
    if (logLevel() == LogLevel::verbose ||
        (obs_ && obs_->tracing())) [[unlikely]]
        observeFire(ev);
    ++executed_;
    ev.fn();
    return true;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (step()) {
        if (++n > max_events)
            wo_panic("event queue exceeded %llu events: livelock?",
                     static_cast<unsigned long long>(max_events));
    }
    return n;
}

std::uint64_t
EventQueue::runUntil(const std::function<bool()> &done,
                     std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (!done() && step()) {
        if (++n > max_events)
            wo_panic("event queue exceeded %llu events: livelock?",
                     static_cast<unsigned long long>(max_events));
    }
    return n;
}

} // namespace wo
