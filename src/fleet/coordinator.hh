/**
 * @file
 * The fleet coordinator: the long-running heart of `wotool serve`.
 *
 * One coordinator owns a TCP endpoint speaking the fleet protocol
 * (proto.hh), a queue of submitted campaigns, and the merged campaign
 * journal of whichever campaign is running.  Campaigns execute
 * serially in submission order; each one's program x policy x seed
 * lattice -- the deterministic base stream of fuzzer.hh, a pure
 * function of (seed, index) -- is cut into fixed-size *shards* of
 * consecutive base indices, and shards are handed to workers as
 * *leases*.  Backpressure is the lease count: a worker never holds
 * more than `max_outstanding` leases, so a slow worker bounds its own
 * queue instead of hoarding the lattice.
 *
 * Fault tolerance is lease reassignment + an idempotent merge:
 *
 *  - every RESULT is applied at most once per base index (a stale
 *    result from a lease that was already reassigned and re-run is
 *    dropped), then appended to the campaign journal through the
 *    group-commit writer (journal.hh), annotated with its shard,
 *    index and worker -- the commit point is the flushed batch, same
 *    crash contract as the single-process campaign;
 *  - a worker that dies (socket EOF) or goes silent past
 *    `lease_timeout_ms` (heartbeats count) has its leases' shards
 *    returned to the pending pool and re-leased, minus the indices
 *    already merged, so a SIGKILLed worker loses zero cells;
 *  - a restarted coordinator (`--resume`) replays the journals under
 *    its out-dir: the header line rebuilds each campaign's spec, the
 *    cell lines' `idx` members rebuild the done set, and exactly the
 *    uncommitted indices are re-leased (Journal::resumeIndices()).
 *
 * Shrinking runs on the worker that caught the violation; the RESULT
 * carries the minimized `.wo` text back as failure evidence, and the
 * coordinator deduplicates fleet-wide by verdict kind + shrunk-program
 * hash -- the same identity the single-process campaign uses -- so a
 * bug found by many workers is still reported once.
 *
 * The optional httpd control plane (obs/httpd.hh) mounts /healthz,
 * /metrics and /progress with per-worker, per-campaign and per-shard
 * series, mirroring the in-process campaign's surface.
 */

#ifndef WO_FLEET_COORDINATOR_HH
#define WO_FLEET_COORDINATOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hh"
#include "fleet/proto.hh"

namespace wo {

class HttpServer;

/** Coordinator configuration (the `wotool serve` surface). */
struct CoordinatorCfg
{
    std::string addr = "127.0.0.1"; //!< fleet-protocol bind address
    std::uint16_t port = 0;         //!< 0 = ephemeral (see port())
    std::string out_dir = "fleet-out"; //!< journals + repros, per campaign
    /** Base indices per shard (= per lease); the unit of reassignment. */
    std::uint64_t shard_size = 32;
    /** A worker silent this long forfeits its leases. */
    int lease_timeout_ms = 10'000;
    /** Max leases in flight per worker (the backpressure bound). */
    int max_outstanding = 2;
    /** Journal group-commit granularity (see JournalCfg). */
    std::uint64_t sync_every = 64;
    int flush_interval_ms = 5;
    /** Replay out_dir's journals; re-lease only uncommitted cells. */
    bool resume = false;
    /** Exit waitDone() after this many completed campaigns (0 = run
     *  until stop()); finished fleets DRAIN their workers. */
    int max_campaigns = 0;
    /** Already-started control-plane server to mount /healthz,
     *  /metrics, /progress on (caller binds; stop() stops it). */
    HttpServer *serve = nullptr;
    bool verbose = false; //!< log lease traffic on stderr
};

/** The fleet coordinator (one per `wotool serve`). */
class Coordinator
{
  public:
    explicit Coordinator(CoordinatorCfg cfg);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Bind, replay journals when resuming, and start the acceptor +
     * pump threads.  False when the endpoint cannot be bound
     * (lastError() says why).
     */
    bool start();

    /**
     * Shut down: DRAIN connected workers, sever every connection,
     * join all threads, close the journal (committing its tail) and
     * stop the mounted control plane.  Idempotent; the destructor
     * calls it.  In-flight campaigns stay resumable on disk.
     */
    void stop();

    /**
     * The tests' SIGKILL stand-in: sever every socket and join
     * threads *without* draining workers or closing campaigns
     * gracefully.  The journal writer is still joined (its committed
     * batches are exactly what a real SIGKILL would have made
     * durable; sync_every=1 makes every applied record committed).
     */
    void kill();

    /** The bound fleet-protocol port (resolves ephemeral 0). */
    std::uint16_t port() const { return port_; }

    const std::string &lastError() const { return error_; }

    /**
     * Enqueue a campaign without a client connection (benches, tests,
     * and the resume path).  Returns its campaign id.
     */
    std::uint64_t submitLocal(const CampaignSpec &spec);

    /**
     * Block until campaign @p id completes (@p timeout_ms <= 0 waits
     * forever).  @p summary, when non-null, receives the campaign
     * summary JSON.  False on timeout or unknown id.
     */
    bool waitCampaign(std::uint64_t id, int timeout_ms,
                      Json *summary = nullptr);

    /** Block until @p n workers are connected (test convenience). */
    bool waitForWorkers(int n, int timeout_ms);

    /**
     * Block until `max_campaigns` campaigns have completed (or until
     * stop()); the `wotool serve` main loop.
     */
    void waitDone();

    int campaignsCompleted() const;
    int workersConnected() const;

    /** The /progress JSON document (also useful headless). */
    Json progressJson() const;

    /** The /metrics tree (rendered as Prometheus "wo_fleet_..."). */
    Json metricsJson() const;

  private:
    enum class Role : std::uint8_t { unknown, worker, client };

    struct Conn
    {
        std::uint64_t id = 0;
        std::unique_ptr<LineConn> sock;
        std::thread reader;
        bool dead = false;

        // Worker state (meaningful once role == worker).
        Role role = Role::unknown;
        std::string name;
        int jobs = 1;
        std::uint64_t hw_threads = 0;
        std::chrono::steady_clock::time_point last_seen;
        std::vector<std::uint64_t> leases; //!< outstanding lease ids
        std::uint64_t cells_done = 0;
        bool draining = false;
    };

    struct Shard
    {
        enum class State : std::uint8_t { pending, leased, done };
        std::uint64_t lo = 0, hi = 0; //!< base-index range [lo, hi)
        State state = State::pending;
        std::uint64_t lease = 0;    //!< current lease id when leased
        std::uint64_t remaining = 0; //!< indices not yet merged
    };

    struct Camp
    {
        std::uint64_t id = 0;
        CampaignSpec spec;
        std::string dir;
        std::unique_ptr<Journal> journal;
        std::vector<std::uint8_t> done; //!< per base index
        std::vector<Shard> shards;
        std::uint64_t done_cells = 0;
        std::uint64_t resumed = 0; //!< indices replayed from the journal
        std::uint64_t ran = 0;     //!< results merged by this process
        VerdictTally tally;        //!< of the results merged here
        std::uint64_t unique_failures = 0;
        std::uint64_t duplicate_results = 0; //!< stale-lease drops
        std::uint64_t reassigned_leases = 0;
        std::uint64_t client_conn = 0; //!< 0 = detached/local submit
        bool completed = false;
        Json summary;
        std::chrono::steady_clock::time_point t0;
    };

    struct Lease
    {
        std::uint64_t id = 0;
        std::uint64_t campaign = 0;
        std::size_t shard = 0;
        std::uint64_t conn = 0;
        std::chrono::steady_clock::time_point granted;
    };

    struct Event
    {
        enum class Kind : std::uint8_t { connected, message, closed };
        Kind kind;
        std::uint64_t conn = 0;
        Json msg;
    };

    void acceptLoop();
    void readerLoop(std::uint64_t conn_id, LineConn *sock);
    void pumpLoop();
    void pushEvent(Event ev);

    // All of the below run on the pump thread with mu_ held.
    void handleMessage(std::uint64_t conn_id, const Json &msg);
    void handleHello(Conn &c, const Json &msg);
    void handleSubmit(Conn &c, const Json &msg);
    void handleResult(Conn &c, const Json &msg);
    void handleLeaseDone(Conn &c, const Json &msg);
    void dropConn(std::uint64_t conn_id, const char *why);
    void releaseLease(std::uint64_t lease_id);
    void grantLeases();
    void expireSilentWorkers();
    void sendClientProgress();
    void maybeCompleteCampaign(Camp &camp);
    std::uint64_t enqueueCampaign(CampaignSpec spec,
                                  std::uint64_t client_conn);
    void resumeFromOutDir();
    std::unique_ptr<Journal> newJournal(const std::string &dir) const;
    /** Cut the lattice into shards; done indices are not re-leased. */
    void layoutShards(Camp &camp) const;
    Camp *activeCampaign();
    Camp *findCampaign(std::uint64_t id);
    int aliveWorkers() const;
    Json campaignProgressJson(const Camp &camp) const;
    Json buildSummary(const Camp &camp) const;
    void teardown(bool drain);

    CoordinatorCfg cfg_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::string error_;
    bool started_ = false;

    mutable std::mutex mu_;            //!< fleet state (everything below)
    std::condition_variable state_cv_; //!< completion / worker-count waits
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::map<std::uint64_t, Lease> leases_;
    std::vector<std::unique_ptr<Camp>> camps_; //!< submission order
    std::uint64_t next_conn_ = 1;
    std::uint64_t next_lease_ = 1;
    std::uint64_t next_campaign_ = 1;
    int completed_campaigns_ = 0;
    bool serving_done_ = false;
    std::chrono::steady_clock::time_point last_progress_push_;

    std::mutex ev_mu_;
    std::condition_variable ev_cv_;
    std::deque<Event> events_;
    std::atomic<bool> stopping_{false};

    std::thread acceptor_;
    std::thread pump_;
};

} // namespace wo

#endif // WO_FLEET_COORDINATOR_HH
