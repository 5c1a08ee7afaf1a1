#include "directory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wo {

Directory::Directory(NodeId id, Network &net, std::vector<Value> initial,
                     const DirectoryCfg &cfg)
    : id_(id), net_(net), cfg_(cfg), stats_("dir", stat_names)
{
    reset(id, initial, cfg);
}

void
Directory::reset(NodeId id, const std::vector<Value> &initial,
                 const DirectoryCfg &cfg)
{
    id_ = id;
    cfg_ = cfg;
    nlocs_ = static_cast<Addr>(initial.size());
    if (lines_.size() < initial.size())
        lines_.resize(initial.size());
    for (std::size_t a = 0; a < initial.size(); ++a) {
        DirLine &l = lines_[a];
        l.st = LineState::uncached;
        l.sharers.clear();
        l.owner = invalid_proc;
        l.mem = initial[a];
        l.busy = false;
        l.collecting = false;
        l.acks_needed = 0;
        l.acks_got = 0;
        l.writer = invalid_proc;
        l.data_deferred = false;
        l.waiting.clear();
        l.waiting_pos = 0;
    }
    stats_.reset();
}

Directory::DirLine &
Directory::line(Addr addr)
{
    wo_assert(addr < nlocs_, "dir line %u out of range", addr);
    return lines_[addr];
}

void
Directory::addSharer(DirLine &l, NodeId node)
{
    auto it = std::lower_bound(l.sharers.begin(), l.sharers.end(), node);
    if (it == l.sharers.end() || *it != node)
        l.sharers.insert(it, node);
}

Value
Directory::memoryValue(Addr addr) const
{
    wo_assert(addr < nlocs_, "dir line %u out of range", addr);
    return lines_[addr].mem;
}

NodeId
Directory::ownerOf(Addr addr) const
{
    wo_assert(addr < nlocs_, "dir line %u out of range", addr);
    return lines_[addr].st == LineState::exclusive ? lines_[addr].owner
                                                   : invalid_proc;
}

bool
Directory::quiescent() const
{
    return busyLines() == 0;
}

std::uint64_t
Directory::busyLines() const
{
    std::uint64_t n = 0;
    for (Addr a = 0; a < nlocs_; ++a) {
        const DirLine &l = lines_[a];
        if (l.busy || l.collecting || l.queued())
            ++n;
    }
    return n;
}

void
Directory::warmSharer(Addr addr, NodeId node)
{
    DirLine &l = line(addr);
    wo_assert(l.st != LineState::exclusive, "warming an exclusive line");
    l.st = LineState::shared;
    addSharer(l, node);
}

void
Directory::handleGetS(const Message &msg)
{
    DirLine &l = line(msg.addr);
    if (l.busy || l.collecting) {
        // Serialize behind the in-flight transaction (including the
        // invalidation-collection window of a previous writer).
        l.waiting.push_back(msg);
        return;
    }
    stats_.inc(st_get_s);
    switch (l.st) {
      case LineState::uncached:
        if (cfg_.grant_exclusive_clean) {
            // MESI: nobody else holds the line; grant it exclusive-clean
            // so a subsequent write by this processor upgrades silently.
            l.st = LineState::exclusive;
            l.owner = msg.src;
            Message d;
            d.type = MsgType::data_e;
            d.src = id_;
            d.dst = msg.src;
            d.addr = msg.addr;
            d.value = l.mem;
            net_.send(d);
            break;
        }
        [[fallthrough]];
      case LineState::shared: {
        l.st = LineState::shared;
        addSharer(l, msg.src);
        Message d;
        d.type = MsgType::data_s;
        d.src = id_;
        d.dst = msg.src;
        d.addr = msg.addr;
        d.value = l.mem;
        net_.send(d);
        break;
      }
      case LineState::exclusive: {
        l.busy = true;
        Message f;
        f.type = MsgType::fwd_get_s;
        f.src = id_;
        f.dst = l.owner;
        f.addr = msg.addr;
        f.requester = msg.src;
        f.is_sync = msg.is_sync;
        net_.send(f);
        break;
      }
    }
}

void
Directory::handleGetX(const Message &msg)
{
    DirLine &l = line(msg.addr);
    if (l.busy || l.collecting) {
        // While invalidations are being collected the line's value is
        // already with the new writer; serialize behind the transaction.
        l.waiting.push_back(msg);
        return;
    }
    stats_.inc(st_get_x);
    switch (l.st) {
      case LineState::uncached: {
        l.st = LineState::exclusive;
        l.owner = msg.src;
        Message d;
        d.type = MsgType::data_x;
        d.src = id_;
        d.dst = msg.src;
        d.addr = msg.addr;
        d.value = l.mem;
        d.ack_count = 0;
        net_.send(d);
        break;
      }
      case LineState::shared: {
        std::vector<NodeId> &others = others_;
        others = l.sharers;
        std::erase(others, msg.src);
        l.st = LineState::exclusive;
        l.owner = msg.src;
        l.sharers.clear();
        Message d;
        d.type = MsgType::data_x;
        d.src = id_;
        d.dst = msg.src;
        d.addr = msg.addr;
        d.value = l.mem;
        if (others.empty()) {
            d.ack_count = 0;
            net_.send(d);
            break;
        }
        l.collecting = true;
        l.acks_needed = static_cast<int>(others.size());
        l.acks_got = 0;
        l.writer = msg.src;
        if (cfg_.forward_line_with_invs) {
            // Section 5.2's design point: the line is forwarded in
            // parallel with the invalidations; a MemAck follows once all
            // acks are in.
            d.ack_count = static_cast<int>(others.size());
            net_.send(d);
        } else {
            // Conservative ablation: withhold the grant until every
            // invalidation is acknowledged.
            l.data_deferred = true;
        }
        for (NodeId s : others) {
            Message inv;
            inv.type = MsgType::inv;
            inv.src = id_;
            inv.dst = s;
            inv.addr = msg.addr;
            inv.requester = msg.src;
            net_.send(inv);
        }
        break;
      }
      case LineState::exclusive: {
        l.busy = true;
        Message f;
        f.type = MsgType::fwd_get_x;
        f.src = id_;
        f.dst = l.owner;
        f.addr = msg.addr;
        f.requester = msg.src;
        f.is_sync = msg.is_sync;
        net_.send(f);
        break;
      }
    }
}

void
Directory::handleWbData(const Message &msg)
{
    DirLine &l = line(msg.addr);
    wo_assert(l.busy, "WbData for idle line %u", msg.addr);
    wo_assert(l.st == LineState::exclusive, "WbData for non-exclusive %u",
              msg.addr);
    // The old owner downgraded to shared; the requester joins it.
    l.mem = msg.value;
    l.st = LineState::shared;
    l.sharers.clear();
    addSharer(l, msg.src);
    addSharer(l, msg.requester);
    l.owner = invalid_proc;
    Message d;
    d.type = MsgType::data_s;
    d.src = id_;
    d.dst = msg.requester;
    d.addr = msg.addr;
    d.value = msg.value;
    net_.send(d);
    unblock(msg.addr);
}

void
Directory::handleTransferAck(const Message &msg)
{
    DirLine &l = line(msg.addr);
    wo_assert(l.busy, "TransferAck for idle line %u", msg.addr);
    l.st = LineState::exclusive;
    l.owner = msg.requester;
    unblock(msg.addr);
}

void
Directory::handleInvAck(const Message &msg)
{
    DirLine &l = line(msg.addr);
    wo_assert(l.collecting, "InvAck for line %u not collecting", msg.addr);
    if (++l.acks_got < l.acks_needed)
        return;
    // All invalidations acknowledged: the write is globally performed.
    if (l.data_deferred) {
        Message d;
        d.type = MsgType::data_x;
        d.src = id_;
        d.dst = l.writer;
        d.addr = msg.addr;
        d.value = l.mem;
        d.ack_count = 0; // performed on arrival
        net_.send(d);
        l.data_deferred = false;
    } else {
        Message ack;
        ack.type = MsgType::mem_ack;
        ack.src = id_;
        ack.dst = l.writer;
        ack.addr = msg.addr;
        net_.send(ack);
    }
    l.collecting = false;
    l.acks_needed = 0;
    l.acks_got = 0;
    l.writer = invalid_proc;
    unblock(msg.addr);
}

void
Directory::handleNack(const Message &msg)
{
    // The owner refused a forwarded request (reserved line): abort the
    // transaction and bounce the requester.
    DirLine &l = line(msg.addr);
    wo_assert(l.busy, "owner Nack for idle line %u", msg.addr);
    stats_.inc(st_nacks_relayed);
    Message n;
    n.type = MsgType::nack;
    n.src = id_;
    n.dst = msg.requester;
    n.addr = msg.addr;
    net_.send(n);
    unblock(msg.addr);
}

void
Directory::unblock(Addr addr)
{
    DirLine &l = line(addr);
    l.busy = false;
    while (!l.busy && !l.collecting && l.queued()) {
        const Message m = l.waiting[l.waiting_pos++];
        receive(m);
    }
    if (!l.queued()) {
        l.waiting.clear();
        l.waiting_pos = 0;
    }
}

void
Directory::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::get_s:
        handleGetS(msg);
        break;
      case MsgType::get_x:
        handleGetX(msg);
        break;
      case MsgType::wb_data:
        handleWbData(msg);
        break;
      case MsgType::transfer_ack:
        handleTransferAck(msg);
        break;
      case MsgType::inv_ack:
        handleInvAck(msg);
        break;
      case MsgType::nack:
        handleNack(msg);
        break;
      default:
        wo_panic("directory cannot handle %s", msg.toString().c_str());
    }
}

} // namespace wo
