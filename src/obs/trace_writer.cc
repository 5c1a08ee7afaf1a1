#include "obs/trace_writer.hh"

#include <initializer_list>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"

namespace wo {

namespace {

/** A JSON object holding @p members in order. */
Json
object(std::initializer_list<std::pair<const char *, Json>> members)
{
    Json o = Json::object();
    for (const auto &[key, value] : members)
        o.set(key, value);
    return o;
}

constexpr std::size_t none = static_cast<std::size_t>(-1);

const char *
labelOf(const FlightEvent &e)
{
    return e.label ? e.label : flightKindName(e.kind);
}

const char *
fireLabel(const FlightEvent &e, const std::vector<std::string> &labels)
{
    const auto i = static_cast<std::size_t>(e.a);
    return i < labels.size() ? labels[i].c_str() : labelOf(e);
}

} // namespace

Json
chrome::lane(std::uint64_t tid, const std::string &name)
{
    return object({{"name", "thread_name"}, {"ph", "M"},
                   {"pid", std::uint64_t{0}}, {"tid", tid},
                   {"args", object({{"name", name}})}});
}

Json
chrome::span(const std::string &name, std::uint64_t tid, std::uint64_t from,
             std::uint64_t to, Json args)
{
    Json ev = object({{"name", name}, {"ph", "X"}, {"ts", from},
                      {"dur", to >= from ? to - from : 0},
                      {"pid", std::uint64_t{0}}, {"tid", tid}});
    if (!args.isNull())
        ev.set("args", std::move(args));
    return ev;
}

Json
chrome::instant(const std::string &name, std::uint64_t tid, std::uint64_t at,
                Json args)
{
    Json ev = object({{"name", name}, {"ph", "i"}, {"ts", at},
                      {"pid", std::uint64_t{0}}, {"tid", tid}, {"s", "t"}});
    if (!args.isNull())
        ev.set("args", std::move(args));
    return ev;
}

Json
chrome::counter(const std::string &name, std::uint64_t tid, std::uint64_t at,
                Json value)
{
    return object({{"name", name}, {"ph", "C"}, {"ts", at},
                   {"pid", std::uint64_t{0}}, {"tid", tid},
                   {"args", object({{"value", std::move(value)}})}});
}

namespace {

/**
 * The op whose records sit at @p issue_at, @p commit_at and
 * @p perform_at (each may be none) as its issue->perform span, or as an
 * instant when one end is not among the records.
 */
Json
opEvent(const std::vector<FlightEvent> &records, std::size_t issue_at,
        std::size_t commit_at, std::size_t perform_at)
{
    const FlightEvent *issue = issue_at != none ? &records[issue_at] : nullptr;
    const FlightEvent *perform =
        perform_at != none ? &records[perform_at] : nullptr;
    const FlightEvent &first = issue ? *issue : *perform;
    Json args = object({{"req", first.req}});
    if (issue) {
        args.set("pc", std::uint64_t{issue->pc});
        args.set("addr", std::uint64_t{issue->addr});
        args.set("reached", issue->reached);
        args.set("issued", issue->t);
    }
    if (commit_at != none)
        args.set("committed", records[commit_at].t);
    if (perform)
        args.set("performed", perform->t);
    const std::string name =
        issue ? strprintf("%s a%u", labelOf(*issue), issue->addr)
              : labelOf(*perform);
    if (issue && perform)
        return chrome::span(name, 2u * first.proc, issue->t, perform->t,
                            std::move(args));
    return chrome::instant(name, 2u * first.proc, first.t, std::move(args));
}

} // namespace

std::string
recordsChromeJson(const std::vector<FlightEvent> &records,
                  const std::vector<std::string> &fire_labels,
                  ProcId nprocs, const char *aux_lane,
                  const Sampler *sampler, Json other_data)
{
    // Pair each op's issue and perform records by (cpu, req), noting the
    // commit in between: the op renders once, at its perform record (or
    // at its issue when it has none).
    std::vector<std::size_t> partner(records.size(), none);
    std::vector<std::size_t> commit_of(records.size(), none);
    std::map<std::pair<ProcId, std::uint64_t>, std::size_t> open;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const FlightEvent &e = records[i];
        if (e.kind == FlightKind::issue) {
            open[{e.proc, e.req}] = i;
            continue;
        }
        if (e.kind != FlightKind::commit && e.kind != FlightKind::perform)
            continue;
        const auto it = open.find({e.proc, e.req});
        if (it == open.end())
            continue;
        if (e.kind == FlightKind::commit) {
            commit_of[it->second] = i;
        } else {
            partner[it->second] = i;
            partner[i] = it->second;
            open.erase(it);
        }
    }

    Json events = Json::array();
    for (ProcId p = 0; p < nprocs; ++p) {
        events.push(chrome::lane(2u * p, strprintf("cpu%u ops", p)));
        events.push(chrome::lane(2u * p + 1, strprintf("cpu%u stalls", p)));
    }
    const std::uint64_t network = 2u * nprocs;
    const std::uint64_t aux = network + 1;
    events.push(chrome::lane(network, "network"));
    events.push(chrome::lane(aux, aux_lane));

    for (std::size_t i = 0; i < records.size(); ++i) {
        const FlightEvent &e = records[i];
        const char *label = labelOf(e);
        switch (e.kind) {
          case FlightKind::fire:
            events.push(chrome::instant(fireLabel(e, fire_labels), aux, e.t));
            break;
          case FlightKind::msg:
            events.push(chrome::span(
                strprintf("%s %u>%lld", label, e.proc,
                          static_cast<long long>(e.a)),
                network, e.t, e.t2,
                object({{"addr", std::uint64_t{e.addr}}, {"sync", e.sync}})));
            break;
          case FlightKind::issue:
            if (partner[i] == none)
                events.push(opEvent(records, i, commit_of[i], none));
            break;
          case FlightKind::perform: {
            const std::size_t issue = partner[i];
            events.push(opEvent(records, issue,
                                issue != none ? commit_of[issue] : none, i));
            break;
          }
          case FlightKind::commit:
          case FlightKind::retire:
            break; // folded into the op's span
          case FlightKind::stall:
            events.push(chrome::span(
                strprintf("stall:%s", label), 2u * e.proc + 1, e.t, e.t2,
                object({{"side", opSideName(static_cast<OpSide>(e.side))},
                        {"req", e.req}})));
            break;
          case FlightKind::counter:
            events.push(chrome::counter(
                strprintf("cpu%u outstanding", e.proc), 2u * e.proc, e.t,
                std::int64_t{e.a}));
            break;
          case FlightKind::reserve: {
            Json args = object({{"req", e.req}});
            if (e.addr != invalid_addr)
                args.set("addr", std::uint64_t{e.addr});
            events.push(chrome::instant(strprintf("reserve:%s", label),
                                        2u * e.proc, e.t, std::move(args)));
            break;
          }
          case FlightKind::violation:
            events.push(chrome::instant(strprintf("violation:%s", label),
                                        aux, e.t));
            break;
        }
    }
    if (sampler)
        sampler->appendCounterEvents(events);

    Json root = Json::object();
    // Not object(): its initializer list would deep-copy the events.
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ns");
    root.set("otherData", std::move(other_data));
    return root.dump(1);
}

std::string
recordsJsonl(const std::vector<FlightEvent> &records,
             const std::vector<std::string> &fire_labels)
{
    std::string out;
    for (const FlightEvent &e : records) {
        Json r = object({{"t", e.t}, {"ev", flightKindName(e.kind)}});
        switch (e.kind) {
          case FlightKind::fire:
            r.set("label", fireLabel(e, fire_labels));
            break;
          case FlightKind::msg:
            r.set("type", labelOf(e));
            r.set("src", std::uint64_t{e.proc});
            r.set("dst", static_cast<std::uint64_t>(e.a));
            if (e.addr != invalid_addr)
                r.set("addr", std::uint64_t{e.addr});
            r.set("deliver", e.t2);
            if (e.sync)
                r.set("sync", true);
            break;
          default: // the op lifecycle: issue, commit, perform, retire, stall
            r.set("cpu", std::uint64_t{e.proc});
            r.set("req", e.req);
            if (e.kind == FlightKind::issue) {
                r.set("kind", labelOf(e));
                r.set("addr", std::uint64_t{e.addr});
                r.set("pc", std::uint64_t{e.pc});
                r.set("reached", e.reached);
            } else if (e.kind == FlightKind::retire) {
                r.set("addr", std::uint64_t{e.addr});
            } else if (e.kind == FlightKind::stall) {
                r.set("bucket", labelOf(e));
                r.set("side", opSideName(static_cast<OpSide>(e.side)));
                r.set("cycles", e.t2 - e.t);
            }
        }
        out += r.dump(0);
        out += '\n';
    }
    return out;
}

} // namespace wo
