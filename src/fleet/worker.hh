/**
 * @file
 * The fleet worker: `wotool worker --connect host:port`.
 *
 * A worker is the in-process cell runner (campaign/cell.hh) wrapped in
 * the fleet protocol.  It connects, introduces itself, and then serves
 * leases: each lease names a campaign spec plus a list of base-stream
 * indices, and because the base stream is a pure function of
 * (seed, index) the worker regenerates exactly the cells the
 * coordinator sharded -- no program bytes cross the wire.  Indices of
 * one lease run jobs-wide over an atomic cursor, every slot keeping a
 * persistent materialization cache across leases; the finished lease
 * goes back as one `lease_done` line carrying every cell, and a
 * hardware verdict is shrunk locally (ddmin, campaign/shrink.hh) so
 * its entry carries the minimized `.wo` reproducer as evidence.  A
 * heartbeat thread keeps the lease alive while long cells run.
 *
 * Lease execution is deliberately single-flight: the socket is the
 * lease queue (the coordinator's max_outstanding bound keeps it
 * short), so a worker that dies forfeits at most the leases the
 * coordinator already counts against it.
 */

#ifndef WO_FLEET_WORKER_HH
#define WO_FLEET_WORKER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cell.hh"
#include "fleet/proto.hh"

namespace wo {

/** Worker configuration (the `wotool worker` surface). */
struct WorkerCfg
{
    HostPort connect;          //!< the coordinator's endpoint
    std::string name;          //!< advertised name ("" = coordinator picks)
    int jobs = 1;              //!< cells run concurrently per lease
    int heartbeat_ms = 500;    //!< keep-alive period
    bool verbose = false;      //!< log lease traffic on stderr
};

/** One fleet worker process (or an in-process one, in the tests). */
class FleetWorker
{
  public:
    explicit FleetWorker(WorkerCfg cfg);
    ~FleetWorker();

    FleetWorker(const FleetWorker &) = delete;
    FleetWorker &operator=(const FleetWorker &) = delete;

    /**
     * Connect, handshake, and serve leases until the coordinator
     * drains us or the connection ends.  Returns false when the
     * connection or handshake failed (lastError() says why); a drain
     * or a severed connection after a successful handshake is true.
     */
    bool connectAndRun();

    /** Finish the lease in flight, then leave.  Thread-safe. */
    void requestStop();

    /**
     * The tests' SIGKILL stand-in: sever the socket immediately, mid
     * lease.  From the coordinator's side this is indistinguishable
     * from the process dying.  Thread-safe.
     */
    void kill();

    const std::string &lastError() const { return error_; }

    /** Cells this worker completed (across all leases). */
    std::uint64_t cellsRun() const
    {
        return cells_run_.load(std::memory_order_relaxed);
    }

  private:
    void executeLease(const Json &msg);
    void heartbeatLoop();

    WorkerCfg cfg_;
    std::string error_;
    std::unique_ptr<LineConn> conn_;
    std::mutex conn_mu_; //!< guards conn_ creation vs kill()

    /** Per-slot cell contexts (cache + machine), persistent across
     *  leases. */
    std::vector<CellContext> slots_;

    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> cells_run_{0};
    std::mutex hb_mu_;
    std::condition_variable hb_cv_;
    std::thread heartbeat_;
};

} // namespace wo

#endif // WO_FLEET_WORKER_HH
