/**
 * @file
 * The fleet wire protocol: versioned JSONL over TCP.
 *
 * A fleet is one long-running coordinator (`wotool serve`), any number
 * of worker processes (`wotool worker --connect host:port`) and any
 * number of submitting clients (`wotool submit`).  Every peer speaks
 * the same framing: one JSON object per '\n'-terminated line, in both
 * directions, reusing the obs/json document model.  The first line on
 * any connection is a `hello` carrying `proto`; a version mismatch is
 * answered with an `error` line and a close, so mixed-build fleets
 * fail loudly instead of mis-parsing each other.
 *
 * Message types (all objects carry `"type"`):
 *
 *   hello      peer -> coord   {proto, role:"worker"|"client", name,
 *                               jobs, hw_threads}
 *   hello_ok   coord -> peer   {proto, name}
 *   error      coord -> peer   {text}; the connection closes after it
 *   submit     client -> coord {spec:{...campaign spec...}}
 *   accepted   coord -> client {campaign}
 *   lease      coord -> worker {campaign, lease, shard, spec,
 *                               indices:[...]}
 *   lease_done worker -> coord {campaign, lease, cells:[{idx,
 *                               cell:{...}, failure?:{kind, wo_text,
 *                               insns, orig_insns, reproduced}}, ...]}
 *   heartbeat  worker -> coord {}
 *   progress   coord -> client {campaign, progress:{cells:{...}, ...}}
 *   done       coord -> client {campaign, hardware_clean, summary}
 *   drain      coord -> worker {}; finish in-flight work and exit
 *
 * The campaign *spec* is campaign/spec.hh's CampaignSpec, in its one
 * JSON codec: the deterministic base stream (fuzzer.hh) is a pure
 * function of (seed, index), so a lease only needs the spec plus a list
 * of base indices -- workers regenerate the exact cells the coordinator
 * sharded.  A lease is also the unit of reply: the worker answers it
 * with one `lease_done` carrying every cell of the lease, and the
 * coordinator merges the batch whole or not at all.
 */

#ifndef WO_FLEET_PROTO_HH
#define WO_FLEET_PROTO_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "obs/json.hh"

namespace wo {

/** Bump on any wire-visible change; hello carries it both ways. */
constexpr std::uint64_t fleet_proto_version = 3;

/** A pending line longer than this makes LineConn::readLine() give up
 *  on the peer (a lease batch is tens of KB). */
constexpr std::size_t fleet_max_line_bytes = std::size_t{64} << 20;

/** A parsed `host:port` endpoint (the `--connect` surface). */
struct HostPort
{
    std::string host;
    std::uint16_t port = 0;
};

/**
 * Parse "host:port".  Strict: a non-empty host, a decimal port in
 * 1..65535, nothing else.  False (with @p out untouched) otherwise.
 */
bool parseHostPort(const std::string &text, HostPort &out);

/** The campaign spec a client submits and a lease carries. */
using FleetCampaignSpec = CampaignSpec;

/** A fresh `{"type": type}` message skeleton. */
Json fleetMsg(const char *type);

/** The message's "type" member ("" when absent/malformed). */
std::string fleetMsgType(const Json &j);

// --- transport -------------------------------------------------------

/**
 * Bind and listen on @p addr:@p port (dotted IPv4; port 0 picks an
 * ephemeral one).  Returns the listening fd, or -1 with @p error set.
 * @p bound_port receives the resolved port.
 */
int fleetListen(const std::string &addr, std::uint16_t port,
                std::uint16_t *bound_port, std::string *error);

/** Connect to @p hp.  Returns the fd, or -1 with @p error set. */
int fleetConnect(const HostPort &hp, std::string *error);

/**
 * One line-framed connection.  Reads are buffered and poll-bounded;
 * writes are whole lines under an internal mutex, so any thread of a
 * peer may send (worker heartbeats race lease results by design).
 * Owns the fd; the destructor closes it.
 */
class LineConn
{
  public:
    explicit LineConn(int fd) : fd_(fd) {}
    ~LineConn() { closeNow(); }

    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    enum class Read : std::uint8_t
    {
        line,    //!< @p out holds one complete line (no '\n')
        timeout, //!< nothing arrived within the window
        closed,  //!< EOF or a socket error; no more lines will come
    };

    /** Next line, waiting at most @p timeout_ms (-1 = forever).
     *  `closed` too once a pending line passes fleet_max_line_bytes. */
    Read readLine(std::string &out, int timeout_ms);

    /** Send @p msg as one line.  False when the peer is gone. */
    bool writeLine(const Json &msg);

    /**
     * Abruptly shut the socket down both ways (a blocked reader or
     * writer unblocks with `closed`).  Thread-safe; used to sever a
     * dead worker and by the tests' SIGKILL stand-in.
     */
    void shutdownNow();

    /** Close the fd (idempotent). */
    void closeNow();

    bool valid() const { return fd_ >= 0; }

  private:
    int fd_;
    std::string buf_;   //!< bytes received past the last full line
    std::size_t scanned_ = 0; //!< prefix of buf_ known to hold no '\n'
    std::mutex write_mu_;
};

} // namespace wo

#endif // WO_FLEET_PROTO_HH
