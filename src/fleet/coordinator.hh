/**
 * @file
 * The fleet coordinator: the long-running heart of `wotool serve`.
 *
 * One coordinator owns a TCP endpoint speaking the fleet protocol
 * (proto.hh), a queue of submitted campaigns, and the merged campaign
 * journal of whichever campaign is running.  Campaigns execute
 * serially in submission order.  The coordinator walks each
 * campaign's program x policy x seed lattice -- the deterministic base
 * stream of fuzzer.hh, a pure function of (seed, index) -- in index
 * order, claiming each index's cell key through Journal::claim(), the
 * rule the in-process engine applies per cell: a key a replayed
 * journal holds is *resumed*, a key an earlier index already claimed
 * is a *duplicate*, and only the fresh indices are owed.  Owed indices
 * are cut into fixed-size *shards* of consecutive fresh indices, and
 * shards are handed to workers as *leases*.  The walk runs on demand:
 * one shard when the campaign is added (the whole walk, when a resumed
 * journal holds every key), then one more whenever a worker has room
 * and no shard is pending; a campaign completes only once the walk has
 * reached its last index.  Shard boundaries are those of an up-front
 * walk.  Backpressure is the lease count: a worker never holds more
 * than `max_outstanding` leases, so a slow worker bounds its own queue
 * instead of hoarding the lattice.
 *
 * All fleet state changes on one *pump* thread, which wakes on events:
 * a connection's message or close, and a local submit (submitLocal()
 * pushes a wake event, so its first leases leave at once).  Its timed
 * wait serves only heartbeat expiry and client progress pushes.
 *
 * A lease is the unit of claim, run, merge and reassignment:
 *
 *  - the worker answers a lease with one `lease_done` carrying every
 *    cell of it.  The batch is checked whole first (this connection
 *    holds the lease, its entries are the lease's indices in lease
 *    order, and each cell carries the key claimed for its index), then
 *    merged: each cell goes through the group-commit journal writer
 *    (journal.hh), annotated with its index, shard and worker -- the
 *    commit point is the flushed batch, same crash contract as the
 *    single-process campaign;
 *  - a lease that ends without a valid `lease_done` -- its worker dies
 *    (socket EOF), goes silent past `lease_timeout_ms` (heartbeats
 *    count) or sends a malformed batch (which drops the connection) --
 *    returns whole to the pending pool and is re-leased, so a
 *    SIGKILLed worker loses zero cells.  A late `lease_done` for a
 *    lease that is no longer current only counts `duplicate_results`;
 *  - a restarted coordinator (`--resume`) replays the journals under
 *    its out-dir: the header line rebuilds each campaign's spec, the
 *    cell lines' keys are the resumed set of the claim walk, and
 *    exactly the keys not journaled yet are leased.
 *
 * Each campaign records into its own ledger (campaign/ledger.hh), the
 * same one the single-process campaign uses, driven from the pump
 * with a single slot: tally, latency, journaling, failure filing and
 * the summary are that code, not a copy.  Shrinking runs on the
 * worker that caught the violation; its batch entry carries the
 * minimized `.wo` text back, and the ledger deduplicates it fleet-wide by
 * verdict kind + shrunk-program hash, so a bug found by many workers
 * is still reported once.  The first of each class gets its evidence
 * bundle here: the coordinator rebuilds the cell from its base index
 * and re-runs the assembled reproducer.
 *
 * The optional httpd control plane (obs/httpd.hh) mounts /healthz,
 * /metrics, /progress and /events: each campaign's ledger documents
 * next to the per-worker, per-lease and per-shard series.
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

#include "campaign/fuzzer.hh"
#include "campaign/ledger.hh"
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
     *  /metrics, /progress and /events on (caller binds; stop()
     *  stops it). */
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
        std::chrono::steady_clock::time_point last_seen;
        std::vector<std::uint64_t> leases; //!< outstanding lease ids
        std::uint64_t cells_done = 0;
        bool draining = false;
    };

    struct Shard
    {
        enum class State : std::uint8_t { pending, leased, done };
        std::size_t lo = 0, hi = 0; //!< range [lo, hi) of Camp::owed
        State state = State::pending;
    };

    struct Camp
    {
        std::uint64_t id = 0;
        CampaignSpec spec;
        std::unique_ptr<Fuzzer> fuzzer; //!< the spec's base stream
        std::unique_ptr<Ledger> ledger; //!< one slot, driven by the pump
        std::vector<std::uint64_t> owed; //!< fresh-claimed base indices
        std::uint64_t walked = 0; //!< base indices claimed so far
        std::vector<Shard> shards;
        std::deque<std::size_t> pending; //!< pending shard ids, FIFO
        std::uint64_t duplicate_results = 0; //!< stale-lease drops
        std::uint64_t reassigned_leases = 0;
        std::uint64_t client_conn = 0; //!< 0 = detached/local submit
        Json summary; //!< set once the ledger is closed (completed)
    };

    struct Lease
    {
        std::uint64_t id = 0;
        std::uint64_t campaign = 0;
        std::size_t shard = 0;
        std::uint64_t conn = 0;
    };

    struct Event
    {
        enum class Kind : std::uint8_t { message, closed, wake };
        Kind kind;
        std::uint64_t conn = 0;
        Json msg;
    };

    void acceptLoop();
    void readerLoop(std::uint64_t conn_id, LineConn *sock);
    void pumpLoop();
    void pushEvent(Event ev);

    // All of the below run on the pump thread with mu_ held.
    void handleMessage(std::uint64_t conn_id, Json &msg);
    void handleHello(Conn &c, const Json &msg);
    void handleSubmit(Conn &c, const Json &msg);
    void handleLeaseDone(Conn &c, Json &msg);
    void dropConn(std::uint64_t conn_id, const char *why);
    void releaseLease(std::uint64_t lease_id);
    void grantLeases();
    /** The first unfinished campaign once it has a pending shard (null
     *  when its walk is through and its last shards are leased);
     *  completes campaigns whose walk ends with nothing owed. */
    Camp *leasableCampaign();
    /** Claim @p camp's base indices in order until `shard_size` more
     *  are owed or the walk ends, and cut those into a pending shard. */
    void walkShard(Camp &camp);
    void expireSilentWorkers();
    void sendClientProgress();
    void maybeCompleteCampaign(Camp &camp);
    std::uint64_t enqueueCampaign(CampaignSpec spec,
                                  std::uint64_t client_conn);
    void resumeFromOutDir();
    /** The ledger of campaign @p id, under <out_dir>/c<id>. */
    std::unique_ptr<Ledger> newLedger(std::uint64_t id) const;
    /** Open @p ledger (fresh, or replayed on resume) and walk the
     *  campaign's first shard. */
    Camp &addCampaign(std::uint64_t id, CampaignSpec spec,
                      std::unique_ptr<Ledger> ledger);
    /** Why @p cells is not @p shard's batch ("" when it is): one entry
     *  per leased index, in lease order, each carrying its claimed key. */
    std::string checkBatch(const Camp &camp, const Shard &shard,
                           const Json *cells) const;
    Camp *activeCampaign();
    Camp *findCampaign(std::uint64_t id);
    int aliveWorkers() const;
    Json campaignProgressJson(const Camp &camp) const;
    /** The /events source: every campaign's failures; done once the
     *  fleet is idle after completing a campaign. */
    bool failureEvents(std::vector<std::size_t> &cursors,
                       std::string &chunk);
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
