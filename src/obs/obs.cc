#include "obs.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/monitor.hh"
#include "obs/trace_writer.hh"

namespace wo {

const char *
stallBucketName(StallBucket b)
{
    return stall_stat_names[static_cast<std::size_t>(b)];
}

const char *
opSideName(OpSide s)
{
    return stall_stat_names[stall_side_slot + static_cast<std::size_t>(s)];
}

Obs::ProcState::ProcState(ProcId p)
    : stall(strprintf("cpu%u.stall", p), stall_stat_names)
{
}

Obs::ReqFacts &
Obs::ProcState::factsOf(std::uint64_t req)
{
    for (ReqFacts &f : facts)
        if (f.req == req)
            return f;
    facts.push_back({.req = req});
    return facts.back();
}

Obs::Obs(ProcId nprocs)
{
    reset(nprocs);
}

void
Obs::reset(ProcId nprocs)
{
    nprocs_ = nprocs;
    trace_enabled_ = false;
    monitor_ = nullptr;
    recorder_ = nullptr;
    sampler_ = nullptr;
    mirrored_violations_ = 0;
    procs_.reserve(nprocs);
    while (procs_.size() < nprocs)
        procs_.emplace_back(static_cast<ProcId>(procs_.size()));
    for (ProcState &ps : procs_) {
        // Every slot listed at 0, so each dump has the full table and
        // the buckets provably sum to the total even when one never fires.
        ps.stall.reset();
        for (std::size_t s = 0; s < std::size(stall_stat_names); ++s)
            ps.stall.inc(s, 0);
        ps.facts.clear();
        std::fill(ps.reserve_held.begin(), ps.reserve_held.end(), 0);
    }
    unfinished_ops_ = 0;
    records_.clear();
    fire_labels_.clear();
    fire_label_ids_.clear();
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
    if (p < nprocs_) {
        std::vector<ReqFacts> &facts = procs_[p].facts;
        for (ReqFacts &f : facts)
            if (f.req == req) {
                f = facts.back();
                facts.pop_back();
                break;
            }
    }
    if (recording())
        record({.kind = FlightKind::perform, .proc = p, .t = now, .req = req});
}

void
Obs::opRetire(ProcId p, std::uint64_t req, Tick now, const MemoryOp &op)
{
    if (recording())
        record({.kind = FlightKind::retire, .proc = p, .addr = op.addr,
                .t = now, .req = req, .label = accessKindName(op.kind)});
    if (monitor_) {
        monitor_->opRetired(op, now);
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
    wo_assert(p < nprocs_, "miss for unknown cpu %u", p);
    procs_[p].factsOf(req).missed = true;
}

void
Obs::reqNack(ProcId p, std::uint64_t req)
{
    wo_assert(p < nprocs_, "nack for unknown cpu %u", p);
    procs_[p].factsOf(req).nacked = true;
}

void
Obs::reserveHold(ProcId requester, Addr addr)
{
    wo_assert(requester < nprocs_, "reserve hold for unknown cpu %u",
              requester);
    std::vector<std::uint8_t> &held = procs_[requester].reserve_held;
    if (held.size() <= addr)
        held.resize(addr + 1, 0);
    held[addr] = 1;
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
    ProcState &ps = procs_[p];
    const ReqFacts *f = nullptr;
    for (const ReqFacts &x : ps.facts)
        if (x.req == req)
            f = &x;
    const bool held =
        addr < ps.reserve_held.size() && ps.reserve_held[addr];
    if (held)
        ps.reserve_held[addr] = 0;
    if ((f && f->nacked) || held)
        return StallBucket::reserve_wait;
    if (f && f->missed)
        return StallBucket::cache_miss;
    return StallBucket::hit_latency;
}

void
Obs::stall(ProcId p, std::uint64_t req, Addr addr, StallPhase phase,
           OpSide side, Tick from, Tick to)
{
    if (to <= from)
        return;
    wo_assert(p < nprocs_, "stall for unknown cpu %u", p);
    const StallBucket bucket = classify(p, req, addr, phase);
    const Tick cycles = to - from;
    ProcState &ps = procs_[p];
    ps.stall.inc(static_cast<std::size_t>(bucket), cycles);
    ps.stall.inc(stall_total_slot, cycles);
    ps.stall.inc(stall_side_slot + static_cast<std::size_t>(side),
                 cycles);

    if (recording())
        record({.kind = FlightKind::stall,
                .side = static_cast<std::uint8_t>(side), .proc = p,
                .addr = addr, .t = from, .t2 = to, .req = req,
                .label = stallBucketName(bucket)});
}

const StatGroup &
Obs::stallStats(ProcId p) const
{
    wo_assert(p < nprocs_, "no stall stats for cpu %u", p);
    return procs_[p].stall;
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
