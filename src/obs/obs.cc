#include "obs.hh"

#include "common/logging.hh"
#include "obs/monitor.hh"
#include "obs/trace_writer.hh"

namespace wo {

const char *
stallBucketName(StallBucket b)
{
    switch (b) {
      case StallBucket::reserve_wait:
        return "reserve_wait";
      case StallBucket::counter_drain:
        return "counter_drain";
      case StallBucket::mlp_limit:
        return "mlp_limit";
      case StallBucket::cache_miss:
        return "cache_miss";
      case StallBucket::network:
        return "network";
      case StallBucket::hit_latency:
        return "hit_latency";
    }
    return "?";
}

const char *
opSideName(OpSide s)
{
    switch (s) {
      case OpSide::data:
        return "data";
      case OpSide::release:
        return "release";
      case OpSide::acquire:
        return "acquire";
    }
    return "?";
}

Obs::Obs(ProcId nprocs) : nprocs_(nprocs)
{
    stall_groups_.reserve(nprocs);
    for (ProcId p = 0; p < nprocs; ++p) {
        stall_groups_.emplace_back(strprintf("cpu%u.stall", p));
        // Pre-create every bucket plus the summaries so each dump has
        // the full schema and buckets provably sum to the total even
        // when a bucket never fires.
        StatGroup &g = stall_groups_.back();
        for (int b = 0; b < num_stall_buckets; ++b)
            g.counter(stallBucketName(static_cast<StallBucket>(b)));
        g.counter("total");
        g.counter("data");
        g.counter("release");
        g.counter("acquire");
    }
}

void
Obs::record(const FlightEvent &e)
{
    if (recorder_)
        recorder_->record(e);
    if (trace_enabled_)
        records_.push_back(e);
}

void
Obs::queueFire(Tick now, const std::string &label)
{
    if (!trace_enabled_)
        return;
    const auto [it, fresh] = fire_label_ids_.try_emplace(
        label, static_cast<std::uint32_t>(fire_labels_.size()));
    if (fresh)
        fire_labels_.push_back(label);
    // Queue firings feed the full trace only: the ring has no label table.
    records_.push_back({.kind = FlightKind::fire, .t = now, .a = it->second});
}

void
Obs::mirrorViolations(Tick now)
{
    if (!monitor_)
        return;
    const std::uint64_t total = monitor_->totalViolations();
    if (!recorder_) {
        mirrored_violations_ = total;
        return;
    }
    const auto &rec = monitor_->violations();
    while (mirrored_violations_ < total) {
        FlightEvent e{.kind = FlightKind::violation, .t = now};
        if (mirrored_violations_ < rec.size()) {
            const MonitorViolation &v = rec[mirrored_violations_];
            e.t = v.tick;
            e.proc = v.proc == invalid_proc ? 0 : v.proc;
            e.addr = v.addr;
            e.label = violationKindName(v.kind);
        } else {
            e.label = "unrecorded";
        }
        recorder_->record(e);
        ++mirrored_violations_;
    }
}

void
Obs::message(Tick sent, Tick deliver, unsigned src, unsigned dst,
             const char *type, Addr addr, bool is_sync)
{
    if (recording())
        record({.kind = FlightKind::msg, .sync = is_sync,
                .proc = static_cast<ProcId>(src), .addr = addr, .t = sent,
                .t2 = deliver, .label = type, .a = dst});
}

void
Obs::opIssue(ProcId p, std::uint64_t req, const char *kind, Addr addr,
             Pc pc, Tick reached, Tick issued)
{
    ++unfinished_ops_;
    if (recording())
        record({.kind = FlightKind::issue, .proc = p, .addr = addr,
                .pc = pc, .t = issued, .reached = reached, .req = req,
                .label = kind}); // accessKindName: static storage
}

void
Obs::opCommit(ProcId p, std::uint64_t req, Tick now)
{
    if (recording())
        record({.kind = FlightKind::commit, .proc = p, .t = now, .req = req});
}

void
Obs::opPerform(ProcId p, std::uint64_t req, Tick now)
{
    --unfinished_ops_;
    facts_.erase({p, req});
    if (recording())
        record({.kind = FlightKind::perform, .proc = p, .t = now, .req = req});
}

void
Obs::opRetire(ProcId p, std::uint64_t req, Tick now, Addr addr,
              AccessKind kind, Value value_read, Value value_written,
              Tick commit_tick)
{
    if (recording())
        record({.kind = FlightKind::retire, .proc = p, .addr = addr,
                .t = now, .req = req, .label = accessKindName(kind)});
    if (monitor_) {
        monitor_->opRetired(p, addr, kind, value_read, value_written,
                            commit_tick, now);
        mirrorViolations(now);
    }
}

// Counter and reserve transitions feed the ring and the monitor; the
// full trace does not record them.

void
Obs::counterChanged(ProcId p, int value, Tick now)
{
    if (recorder_)
        recorder_->record(
            {.kind = FlightKind::counter, .proc = p, .t = now, .a = value});
    if (monitor_) {
        monitor_->counterChanged(p, value, now);
        mirrorViolations(now);
    }
}

void
Obs::reserveSet(ProcId p, Addr addr, Tick now)
{
    if (recorder_)
        recorder_->record({.kind = FlightKind::reserve, .proc = p,
                           .addr = addr, .t = now, .label = "set", .a = 1});
    if (monitor_) {
        monitor_->reserveSet(p, addr, now);
        mirrorViolations(now);
    }
}

void
Obs::reserveCleared(ProcId p, Tick now)
{
    if (recorder_)
        recorder_->record({.kind = FlightKind::reserve, .proc = p, .t = now,
                           .label = "clear", .a = 0});
    if (monitor_) {
        monitor_->reserveCleared(p, now);
        mirrorViolations(now);
    }
}

void
Obs::reqMiss(ProcId p, std::uint64_t req)
{
    facts_[{p, req}].missed = true;
}

void
Obs::reqNack(ProcId p, std::uint64_t req)
{
    facts_[{p, req}].nacked = true;
}

void
Obs::reserveHold(ProcId requester, Addr addr)
{
    reserve_held_[{requester, addr}] = true;
}

StallBucket
Obs::classify(ProcId p, std::uint64_t req, Addr addr, StallPhase phase)
{
    switch (phase) {
      case StallPhase::issue_counter:
        return StallBucket::counter_drain;
      case StallPhase::issue_mlp:
        return StallBucket::mlp_limit;
      case StallPhase::perform_wait:
        return StallBucket::network;
      case StallPhase::commit_wait:
        break;
    }
    auto f = facts_.find({p, req});
    auto h = reserve_held_.find({p, addr});
    const bool held = h != reserve_held_.end();
    if (held)
        reserve_held_.erase(h);
    if ((f != facts_.end() && f->second.nacked) || held)
        return StallBucket::reserve_wait;
    if (f != facts_.end() && f->second.missed)
        return StallBucket::cache_miss;
    return StallBucket::hit_latency;
}

void
Obs::stall(ProcId p, std::uint64_t req, Addr addr, StallPhase phase,
           OpSide side, Tick from, Tick to)
{
    if (to <= from)
        return;
    wo_assert(p < stall_groups_.size(), "stall for unknown cpu %u", p);
    const StallBucket bucket = classify(p, req, addr, phase);
    const Tick cycles = to - from;
    StatGroup &g = stall_groups_[p];
    g.counter(stallBucketName(bucket)).inc(cycles);
    g.counter("total").inc(cycles);
    g.counter(opSideName(side)).inc(cycles);

    if (recording())
        record({.kind = FlightKind::stall,
                .side = static_cast<std::uint8_t>(side), .proc = p,
                .addr = addr, .t = from, .t2 = to, .req = req,
                .label = stallBucketName(bucket)});
}

const StatGroup &
Obs::stallStats(ProcId p) const
{
    wo_assert(p < stall_groups_.size(), "no stall stats for cpu %u", p);
    return stall_groups_[p];
}

std::vector<const StatGroup *>
Obs::stallGroups() const
{
    std::vector<const StatGroup *> out;
    out.reserve(stall_groups_.size());
    for (const auto &g : stall_groups_)
        out.push_back(&g);
    return out;
}

std::string
Obs::chromeTraceJson() const
{
    Json other = Json::object();
    other.set("source", "wotool");
    other.set("unfinished_ops", unfinished_ops_);
    return recordsChromeJson(records_, fire_labels_, nprocs_, "event kernel",
                             sampler_, std::move(other));
}

std::string
Obs::traceJsonl() const
{
    return recordsJsonl(records_, fire_labels_);
}

} // namespace wo
