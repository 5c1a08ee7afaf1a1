/**
 * @file
 * The simulator's event record and the flight recorder.
 *
 * FlightEvent is the one record every Obs hook builds.  The full
 * structured trace keeps all of them in an unbounded vector; the flight
 * recorder overwrites a fixed ring of the same POD records (labels are
 * static-lifetime C strings, nothing is formatted at record time), cheap
 * enough to leave on when the full trace (`--trace-json`) is off.  On a
 * monitor violation or a deadlocked/livelocked termination, System dumps
 * the surviving window -- the last N events before the failure -- through
 * the same renderer as the full trace (trace_writer.hh), so a record
 * looks the same in both documents.
 */

#ifndef WO_OBS_RECORDER_HH
#define WO_OBS_RECORDER_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace wo {

/** What a simulator event record describes. */
enum class FlightKind : std::uint8_t
{
    msg,       //!< network message: t=sent, t2=deliver, proc=src, a=dst
    issue,     //!< CPU issued a request (label = access kind)
    commit,    //!< request committed
    perform,   //!< request globally performed
    retire,    //!< request retired into the execution
    stall,     //!< stall interval [t, t2) (label = bucket)
    counter,   //!< outstanding counter changed (a = new value)
    reserve,   //!< reserve bits changed (a = 1 set on addr, 0 all cleared)
    violation, //!< monitor violation (label = kind)
    fire       //!< event-queue firing (a = index of the interned label)
};

/** Stable printable kind name. */
const char *flightKindName(FlightKind k);

/**
 * One simulator event.  POD on purpose: recording must cost a copy, not
 * an allocation.  @c label must point at static-lifetime storage.
 */
struct FlightEvent
{
    FlightKind kind = FlightKind::issue;
    std::uint8_t side = 0;     //!< stall: the OpSide charged
    bool sync = false;         //!< msg: a synchronization message
    ProcId proc = 0;           //!< processor / source node
    Addr addr = invalid_addr;  //!< location, when meaningful
    Pc pc = 0;                 //!< issue: program counter
    Tick t = 0;                //!< event time (start time for spans)
    Tick t2 = 0;               //!< span end (msg deliver, stall end)
    Tick reached = 0;          //!< issue: tick the op reached issue
    std::uint64_t req = 0;     //!< CPU request id, when meaningful
    const char *label = nullptr; //!< static string (kind/bucket/type)
    std::int64_t a = 0;        //!< kind-specific scalar
};
static_assert(std::is_trivially_copyable_v<FlightEvent>);

/** The bounded ring. */
class FlightRecorder
{
  public:
    /** @param capacity ring size in events (last N kept) */
    explicit FlightRecorder(std::size_t capacity = 4096);

    /** Append one record, evicting the oldest when full. */
    void record(const FlightEvent &e)
    {
        ring_[next_] = e;
        next_ = (next_ + 1) % ring_.size();
        ++recorded_;
    }

    /** Ring capacity. */
    std::size_t capacity() const { return ring_.size(); }

    /** Events currently held (<= capacity). */
    std::size_t size() const
    {
        return recorded_ < ring_.size() ? recorded_ : ring_.size();
    }

    /** Events ever recorded. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events overwritten (recorded - held). */
    std::uint64_t dropped() const { return recorded_ - size(); }

    /** The surviving window, oldest first. */
    std::vector<FlightEvent> window() const;

    /**
     * The window as a complete Chrome trace-event JSON document, rendered
     * like the full trace (tid 2p = "cpu<p> ops", 2p+1 = "cpu<p> stalls",
     * 2P = "network") plus a "monitor" lane (2P+1) for violations;
     * counter records become Perfetto counter tracks ('C' phase).
     * @param nprocs processor count, for lane naming
     */
    std::string chromeTraceJson(ProcId nprocs) const;

  private:
    std::vector<FlightEvent> ring_;
    std::size_t next_ = 0;
    std::uint64_t recorded_ = 0;
};

} // namespace wo

#endif // WO_OBS_RECORDER_HH
