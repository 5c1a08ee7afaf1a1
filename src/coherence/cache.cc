#include "cache.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace wo {

Cache::Cache(NodeId id, NodeId dir, ProcId procs, EventQueue &eq,
             Network &net, CacheClient *client, Addr n_locs,
             const CacheCfg &cfg)
    : id_(id), dir_(dir), eq_(eq), net_(net), client_(client), cfg_(cfg),
      stats_(strprintf("cache%u", id), stat_names, hist_names)
{
    (void)procs;
    reset(dir, client, n_locs, cfg);
}

void
Cache::reset(NodeId dir, CacheClient *client, Addr n_locs,
             const CacheCfg &cfg)
{
    dir_ = dir;
    client_ = client;
    cfg_ = cfg;
    n_locs_ = n_locs;
    lines_.assign(n_locs, Line{});
    if (mshrs_.size() < n_locs)
        mshrs_.resize(n_locs);
    for (Mshr &m : mshrs_) {
        m.live = false;
        m.queued_reqs.clear();
        m.queued_fwds.clear();
    }
    live_mshrs_ = 0;
    reserved_.clear();
    counter_ = 0;
    misses_in_flight_ = 0;
    reserved_window_misses_ = 0;
    deferred_.clear();
    deferred_pos_ = 0;
    stalled_.clear();
    stats_.reset();
}

Value
Cache::lineValue(Addr addr) const
{
    wo_assert(addr < n_locs_, "addr %u out of range", addr);
    wo_assert(lines_[addr].st != LineState::invalid,
              "reading invalid line %u", addr);
    return lines_[addr].value;
}

bool
Cache::holdsModified(Addr addr) const
{
    wo_assert(addr < n_locs_, "addr %u out of range", addr);
    return lines_[addr].st == LineState::modified;
}

void
Cache::warmShared(Addr addr, Value v)
{
    wo_assert(addr < n_locs_, "addr %u out of range", addr);
    wo_assert(lines_[addr].st == LineState::invalid && live_mshrs_ == 0,
              "warming a live cache");
    lines_[addr].st = LineState::shared;
    lines_[addr].value = v;
}

void
Cache::access(const CacheReq &req)
{
    if (Mshr *m = mshr(req.addr)) {
        // A transaction for this address is in flight: keep same-address
        // program order by queueing behind it.
        m->queued_reqs.push_back(req);
        return;
    }
    // Once the bounded-miss throttle has deferred anything, every later
    // request defers behind it -- including hits and synchronization
    // operations.  Otherwise a synchronization HIT could commit while
    // po-earlier writes sit invisible in the deferral queue (counter
    // zero, no reserve bit), breaking condition 5.  Found by the
    // randomized soak; see tests/soak_test.cc.
    if (deferred_pos_ < deferred_.size()) {
        deferred_.push_back(req);
        return;
    }
    start(req);
}

void
Cache::start(const CacheReq &req)
{
    Line &line = lines_[req.addr];
    const bool as_write =
        req.write || (req.is_sync && !cfg_.sync_reads_as_reads);

    if (!as_write) {
        if (line.st != LineState::invalid) {
            stats_.inc(st_read_hits);
            commit(req, cfg_.hit_latency, /*performed_now=*/true);
        } else {
            sendMiss(req, /*exclusive=*/false);
        }
        return;
    }
    if (line.st == LineState::modified ||
        line.st == LineState::exclusive_clean) {
        // MESI silent upgrade: an exclusive-clean line becomes modified
        // with no protocol traffic.
        if (line.st == LineState::exclusive_clean)
            stats_.inc(st_silent_upgrades);
        line.st = LineState::modified;
        stats_.inc(st_write_hits);
        commit(req, cfg_.hit_latency, /*performed_now=*/true);
        return;
    }
    sendMiss(req, /*exclusive=*/true);
}

void
Cache::commit(const CacheReq &req, Tick delay, bool performed_now)
{
    Line &line = lines_[req.addr];
    const Value read_value = line.value;
    if (req.write) {
        wo_assert(line.st == LineState::modified,
                  "write commit on non-modified line %u", req.addr);
        line.value = req.wvalue;
    }
    // Section 5.3: at a synchronization commit with outstanding accesses,
    // reserve the line.  (Sync reads on the read path -- the Section-6
    // refinement -- never reserve.)
    const bool write_path =
        req.write || (req.is_sync && !cfg_.sync_reads_as_reads);
    if (req.is_sync && write_path && counter_ > 0) {
        if (!line.reserved) {
            line.reserved = true;
            reserved_.push_back(req.addr);
        }
        stats_.inc(st_reservations);
        if (Obs *obs = eq_.obs())
            obs->reserveSet(id_, req.addr, eq_.now());
    }
    CacheClient *client = client_;
    const std::uint64_t rid = req.id;
    eq_.schedule(delay,
                 [this, rid] {
                     return strprintf("c%u.commit#%llu", id_,
                                      static_cast<unsigned long long>(rid));
                 },
                 [client, rid, read_value] {
                     client->onCommit(rid, read_value);
                 });
    if (performed_now) {
        eq_.schedule(delay,
                     [this, rid] {
                         return strprintf(
                             "c%u.perf#%llu", id_,
                             static_cast<unsigned long long>(rid));
                     },
                     [client, rid] { client->onGloballyPerformed(rid); });
    }
}

void
Cache::sendMiss(const CacheReq &req, bool exclusive)
{
    // Bounded-miss throttle while reserved (the paper's refinement).
    if (cfg_.reserved_miss_limit >= 0 && !reserved_.empty() &&
        reserved_window_misses_ >= cfg_.reserved_miss_limit) {
        deferred_.push_back(req);
        stats_.inc(st_throttled_misses);
        return;
    }
    if (!reserved_.empty())
        ++reserved_window_misses_;
    Mshr &m = mshrs_[req.addr];
    wo_assert(!m.live, "second MSHR for line %u at cache %u", req.addr, id_);
    m.live = true;
    m.req = req;
    m.want_exclusive = exclusive;
    m.issued = eq_.now();
    ++live_mshrs_;
    ++counter_;
    ++misses_in_flight_;
    stats_.inc(exclusive ? st_write_misses : st_read_misses);
    if (Obs *obs = eq_.obs()) {
        obs->reqMiss(id_, req.id);
        obs->counterChanged(id_, counter_, eq_.now());
    }

    Message msg;
    msg.type = exclusive ? MsgType::get_x : MsgType::get_s;
    msg.src = id_;
    msg.dst = dir_;
    msg.addr = req.addr;
    msg.requester = id_;
    msg.is_sync = req.is_sync;
    net_.send(msg);
}

void
Cache::decrementCounter()
{
    wo_assert(counter_ > 0, "counter underflow at cache %u", id_);
    if (--counter_ == 0) {
        // "All reserve bits are reset when the counter reads zero."  The
        // clear (and its hook) precedes the counter hook so the monitor
        // sees the invariant already restored when zero becomes
        // observable -- unless the seeded fault drops the clear.
        if (!reserved_.empty()) {
            if (cfg_.bug_drop_reserve_clear) {
                stats_.inc(st_dropped_reserve_clears);
            } else {
                for (Addr a : reserved_)
                    lines_[a].reserved = false;
                reserved_.clear();
                stats_.inc(st_reserve_clears);
                if (Obs *obs = eq_.obs())
                    obs->reserveCleared(id_, eq_.now());
            }
        }
        if (Obs *obs = eq_.obs())
            obs->counterChanged(id_, counter_, eq_.now());
        reserved_window_misses_ = 0;
        // Queue-mode stalled requests are serviced now.
        if (!stalled_.empty()) {
            replay_stalled_.swap(stalled_);
            for (const Message &m : replay_stalled_)
                serveForward(m);
            replay_stalled_.clear();
        }
    } else if (Obs *obs = eq_.obs()) {
        obs->counterChanged(id_, counter_, eq_.now());
    }
    drainDeferred();
}

void
Cache::drainDeferred()
{
    while (deferred_pos_ < deferred_.size()) {
        const bool throttled =
            cfg_.reserved_miss_limit >= 0 && !reserved_.empty() &&
            reserved_window_misses_ >= cfg_.reserved_miss_limit;
        if (throttled)
            return;
        const CacheReq req = deferred_[deferred_pos_++];
        // Re-enter through access() so MSHR queueing stays correct.
        if (Mshr *m = mshr(req.addr))
            m->queued_reqs.push_back(req);
        else
            start(req);
    }
    deferred_.clear();
    deferred_pos_ = 0;
}

bool
Cache::mustStall(const Message &msg) const
{
    // A reserved line is never given away; see the file comment.  Only
    // synchronization requests are expected here in DRF0 programs, but the
    // conservative rule also protects against racy data traffic.
    return lines_[msg.addr].reserved;
}

void
Cache::serveForward(const Message &msg)
{
    if (Mshr *m = mshr(msg.addr)) {
        // Our own data has not arrived yet (cross-channel race); serve the
        // forward once it does.
        m->queued_fwds.push_back(msg);
        return;
    }
    if (mustStall(msg)) {
        stats_.inc(st_reserve_stalls);
        // The requester's pending miss is now reserve-blocked; let the
        // profiler attribute that processor's wait to the reserve bit.
        if (Obs *obs = eq_.obs())
            obs->reserveHold(msg.requester, msg.addr);
        if (cfg_.stall_mode == ReserveStallMode::queue) {
            stalled_.push_back(msg);
        } else {
            Message n;
            n.type = MsgType::nack;
            n.src = id_;
            n.dst = dir_;
            n.addr = msg.addr;
            n.requester = msg.requester;
            net_.send(n);
        }
        return;
    }
    Line &line = lines_[msg.addr];
    wo_assert(line.st == LineState::modified ||
                  line.st == LineState::exclusive_clean,
              "forward for line %u not exclusive at cache %u (state %d)",
              msg.addr, id_, static_cast<int>(line.st));
    if (msg.type == MsgType::fwd_get_s) {
        line.st = LineState::shared;
        Message wb;
        wb.type = MsgType::wb_data;
        wb.src = id_;
        wb.dst = dir_;
        wb.addr = msg.addr;
        wb.value = line.value;
        wb.requester = msg.requester;
        net_.send(wb);
    } else {
        wo_assert(msg.type == MsgType::fwd_get_x, "unexpected forward %s",
                  msg.toString().c_str());
        const Value v = line.value;
        line.st = LineState::invalid;
        Message data;
        data.type = MsgType::data_x;
        data.src = id_;
        data.dst = msg.requester;
        data.addr = msg.addr;
        data.value = v;
        data.ack_count = 0;
        data.from_exclusive = true;
        net_.send(data);
        Message ta;
        ta.type = MsgType::transfer_ack;
        ta.src = id_;
        ta.dst = dir_;
        ta.addr = msg.addr;
        ta.requester = msg.requester;
        net_.send(ta);
    }
}

void
Cache::handleData(const Message &msg)
{
    Mshr *mp = mshr(msg.addr);
    wo_assert(mp, "data for %u with no MSHR at cache %u", msg.addr, id_);
    // Retire the MSHR; its queues are replayed below, after the commit
    // (a queued request may allocate the address's MSHR afresh).
    Mshr &m = *mp;
    m.live = false;
    --live_mshrs_;
    const CacheReq req = m.req;
    replay_reqs_.swap(m.queued_reqs);
    replay_fwds_.swap(m.queued_fwds);
    --misses_in_flight_;
    stats_.histogram(m.want_exclusive ? hist_write_miss_latency
                                      : hist_read_miss_latency)
        .sample(eq_.now() - m.issued);

    Line &line = lines_[msg.addr];
    line.value = msg.value;
    bool performed_now;
    if (msg.type == MsgType::data_s || msg.type == MsgType::data_e) {
        line.st = msg.type == MsgType::data_e
                      ? LineState::exclusive_clean
                      : LineState::shared;
        performed_now = true; // a read is performed when its value binds
        decrementCounter();
    } else {
        line.st = LineState::modified;
        if (msg.from_exclusive || msg.ack_count == 0) {
            performed_now = true;
            decrementCounter();
        } else {
            performed_now = false;
            wo_assert(!line.awaits_mem_ack,
                      "two pending MemAcks for line %u", msg.addr);
            line.awaits_mem_ack = true;
            line.mem_ack_req = req.id;
        }
    }
    commit(req, 0, performed_now);

    // Same-address requests queued behind the miss run now, as hits (or a
    // fresh upgrade miss if we only obtained a shared copy).
    for (const CacheReq &r : replay_reqs_)
        access(r);
    replay_reqs_.clear();

    // Forwards that raced ahead of our data are served last.
    for (const Message &f : replay_fwds_)
        serveForward(f);
    replay_fwds_.clear();
}

void
Cache::handleMemAck(const Message &msg)
{
    Line &line = lines_[msg.addr];
    wo_assert(line.awaits_mem_ack,
              "unexpected MemAck for line %u at cache %u", msg.addr, id_);
    const std::uint64_t rid = line.mem_ack_req;
    line.awaits_mem_ack = false;
    decrementCounter();
    CacheClient *client = client_;
    eq_.schedule(0,
                 [this, rid] {
                     return strprintf("c%u.memack#%llu", id_,
                                      static_cast<unsigned long long>(rid));
                 },
                 [client, rid] { client->onGloballyPerformed(rid); });
}

void
Cache::handleInv(const Message &msg)
{
    Line &line = lines_[msg.addr];
    wo_assert(line.st != LineState::modified &&
                  line.st != LineState::exclusive_clean,
              "invalidation for exclusive line %u at cache %u", msg.addr,
              id_);
    line.st = LineState::invalid;
    stats_.inc(st_invalidations);
    Message ack;
    ack.type = MsgType::inv_ack;
    ack.src = id_;
    ack.dst = dir_;
    ack.addr = msg.addr;
    ack.requester = msg.requester;
    net_.send(ack);
}

void
Cache::handleNack(const Message &msg)
{
    Mshr *mp = mshr(msg.addr);
    wo_assert(mp, "nack for %u with no MSHR at cache %u", msg.addr, id_);
    Mshr &m = *mp;
    stats_.inc(st_nacks);
    if (Obs *obs = eq_.obs())
        obs->reqNack(id_, m.req.id);
    // The miss failed for now: it no longer counts as outstanding, which
    // lets this processor's own reserve bits clear (avoiding the crossed
    // release/acquire deadlock); retry after a backoff.
    decrementCounter();
    --misses_in_flight_;
    const Addr addr = msg.addr;
    const bool exclusive = m.want_exclusive;
    const bool is_sync = m.req.is_sync;
    eq_.schedule(cfg_.retry_delay,
                 [this, addr] {
                     return strprintf("c%u.retry[%u]", id_, addr);
                 },
                 [this, addr, exclusive, is_sync] {
                     // The MSHR is still allocated; re-send the request.
                     wo_assert(mshr(addr), "retry without MSHR for %u",
                               addr);
                     ++counter_;
                     ++misses_in_flight_;
                     if (Obs *obs = eq_.obs())
                         obs->counterChanged(id_, counter_, eq_.now());
                     Message r;
                     r.type = exclusive ? MsgType::get_x : MsgType::get_s;
                     r.src = id_;
                     r.dst = dir_;
                     r.addr = addr;
                     r.requester = id_;
                     r.is_sync = is_sync;
                     net_.send(r);
                 });
}

void
Cache::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::data_s:
      case MsgType::data_e:
      case MsgType::data_x:
        handleData(msg);
        break;
      case MsgType::mem_ack:
        handleMemAck(msg);
        break;
      case MsgType::inv:
        handleInv(msg);
        break;
      case MsgType::fwd_get_s:
      case MsgType::fwd_get_x:
        serveForward(msg);
        break;
      case MsgType::nack:
        handleNack(msg);
        break;
      default:
        wo_panic("cache %u cannot handle %s", id_, msg.toString().c_str());
    }
}

} // namespace wo
