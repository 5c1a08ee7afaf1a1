#include "network.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace wo {

Network::Network(EventQueue &eq, const NetworkCfg &cfg)
    : eq_(eq), cfg_(cfg), rng_(cfg.seed), stats_("net")
{
}

const CounterHandles<Network::num_msg_types + 1>::Names &
Network::statNames()
{
    static const auto names = [] {
        static std::string text[num_msg_types];
        CounterHandles<num_msg_types + 1>::Names n{"messages"};
        for (std::size_t t = 0; t < num_msg_types; ++t) {
            text[t] = std::string("msg.") +
                      msgTypeName(static_cast<MsgType>(t));
            n[t + 1] = text[t].c_str();
        }
        return n;
    }();
    return names;
}

void
Network::reset(const NetworkCfg &cfg)
{
    cfg_ = cfg;
    rng_ = Rng(cfg.seed);
    handlers_.clear();
    std::fill(last_delivery_.begin(), last_delivery_.end(), 0);
    in_flight_ = 0;
    ctr_.clear();
}

void
Network::attach(NodeId id, MsgHandler *handler)
{
    if (handlers_.size() <= id)
        handlers_.resize(id + 1, nullptr);
    wo_assert(handlers_[id] == nullptr, "node %u attached twice", id);
    handlers_[id] = handler;
}

Tick
Network::nextDepartureSlot(NodeId src, NodeId dst, Tick earliest)
{
    const std::size_t need = std::max<std::size_t>(src, dst) + 1;
    if (need > nodes_) {
        std::vector<Tick> grown(need * need, 0);
        for (std::size_t s = 0; s < nodes_; ++s)
            std::copy_n(last_delivery_.begin() + s * nodes_, nodes_,
                        grown.begin() + s * need);
        last_delivery_ = std::move(grown);
        nodes_ = need;
    }
    Tick &last = last_delivery_[src * nodes_ + dst];
    Tick slot = std::max(earliest, last + 1);
    last = slot;
    return slot;
}

void
Network::send(Message msg)
{
    wo_assert(msg.dst < handlers_.size() && handlers_[msg.dst],
              "message to unattached node %u: %s", msg.dst,
              msg.toString().c_str());
    ctr_[0].inc();
    ctr_[1 + static_cast<std::size_t>(msg.type)].inc();
    Tick delay = cfg_.hop_latency;
    if (cfg_.jitter > 0)
        delay += rng_.below(cfg_.jitter + 1);
    const Tick when =
        nextDepartureSlot(msg.src, msg.dst, eq_.now() + delay);
    if (Obs *obs = eq_.obs())
        obs->message(eq_.now(), when, msg.src, msg.dst,
                     msgTypeName(msg.type), msg.addr, msg.is_sync);
    MsgHandler *handler = handlers_[msg.dst];
    ++in_flight_;
    eq_.scheduleAt(when, [msg] { return msg.toString(); },
                   [this, handler, msg] {
        --in_flight_;
        handler->receive(msg);
    });
}

} // namespace wo
