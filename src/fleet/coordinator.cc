#include "coordinator.hh"

#include <algorithm>
#include <filesystem>
#include <sys/socket.h>
#include <unistd.h>

#include "common/input_limits.hh"
#include "common/logging.hh"
#include "obs/control_plane.hh"
#include "obs/httpd.hh"
#include "obs/metrics.hh"

namespace wo {

Coordinator::Coordinator(CoordinatorCfg cfg) : cfg_(std::move(cfg))
{
    if (cfg_.shard_size == 0)
        cfg_.shard_size = 1;
    if (cfg_.max_outstanding < 1)
        cfg_.max_outstanding = 1;
}

Coordinator::~Coordinator()
{
    stop();
}

bool
Coordinator::start()
{
    std::error_code ec;
    std::filesystem::create_directories(cfg_.out_dir, ec);
    if (ec) {
        error_ = cfg_.out_dir + ": " + ec.message();
        return false;
    }
    listen_fd_ = fleetListen(cfg_.addr, cfg_.port, &port_, &error_);
    if (listen_fd_ < 0)
        return false;

    if (cfg_.resume)
        resumeFromOutDir();

    if (cfg_.serve)
        mountControlPlane(
            *cfg_.serve, "wo_fleet",
            {[this] { return metricsJson(); },
             [this] { return progressJson(); },
             [this](std::vector<std::size_t> &cursors, std::string &chunk) {
                 return failureEvents(cursors, chunk);
             }});

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    pump_ = std::thread([this] { pumpLoop(); });

    // A fully-journaled campaign needs no fleet at all to finish.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &camp : camps_)
            maybeCompleteCampaign(*camp);
    }
    return true;
}

void
Coordinator::stop()
{
    teardown(true);
}

void
Coordinator::kill()
{
    teardown(false);
}

void
Coordinator::teardown(bool drain)
{
    if (!started_)
        return;
    if (stopping_.exchange(true))
        return;

    if (drain) {
        std::lock_guard<std::mutex> lock(mu_);
        const Json msg = fleetMsg("drain");
        for (auto &[id, c] : conns_)
            if (c->role == Role::worker && !c->dead)
                c->sock->writeLine(msg);
    }

    // Unblock the acceptor, then every reader.  The listener is only
    // shut down here: closing it while accept() may still be reading
    // listen_fd_ would race, and could hand the fd number to an
    // unrelated open before the acceptor notices.
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, c] : conns_)
            c->sock->shutdownNow();
    }
    ev_cv_.notify_all();
    if (acceptor_.joinable())
        acceptor_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (pump_.joinable())
        pump_.join();
    // Join the readers with mu_ released: a thread is never joined
    // while holding a lock its target might want.
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, c] : conns_)
            if (c->reader.joinable())
                readers.push_back(std::move(c->reader));
    }
    for (auto &t : readers)
        t.join();
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, c] : conns_)
            c->sock->closeNow();
        // Commit every merged record; in-flight campaigns stay
        // resumable from exactly this journal state.
        for (auto &camp : camps_)
            camp->ledger->journal().close();
    }
    if (cfg_.serve)
        cfg_.serve->stop();
    state_cv_.notify_all();
    started_ = false;
}

// --- accept / read threads -------------------------------------------

void
Coordinator::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return; // listener gone
        }
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t id = next_conn_++;
        auto conn = std::make_unique<Conn>();
        conn->id = id;
        conn->sock = std::make_unique<LineConn>(fd);
        conn->last_seen = std::chrono::steady_clock::now();
        Conn *raw = conn.get();
        conns_.emplace(id, std::move(conn));
        // The reader gets its socket up front and never takes mu_, so
        // teardown can join it whether or not it has started running.
        raw->reader = std::thread(
            [this, id, sock = raw->sock.get()] { readerLoop(id, sock); });
    }
}

void
Coordinator::readerLoop(std::uint64_t conn_id, LineConn *sock)
{
    std::string line;
    for (;;) {
        const LineConn::Read r = sock->readLine(line, 500);
        if (r == LineConn::Read::closed)
            break;
        if (r == LineConn::Read::timeout) {
            if (stopping_.load(std::memory_order_relaxed))
                break;
            continue;
        }
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject()) {
            warn("fleet: conn %llu sent a malformed line (%s); dropping it",
                 static_cast<unsigned long long>(conn_id),
                 p.ok ? "not an object" : p.error.c_str());
            continue;
        }
        Event ev;
        ev.kind = Event::Kind::message;
        ev.conn = conn_id;
        ev.msg = std::move(p.value);
        pushEvent(std::move(ev));
    }
    Event ev;
    ev.kind = Event::Kind::closed;
    ev.conn = conn_id;
    pushEvent(std::move(ev));
}

void
Coordinator::pushEvent(Event ev)
{
    {
        std::lock_guard<std::mutex> lock(ev_mu_);
        events_.push_back(std::move(ev));
    }
    ev_cv_.notify_one();
}

// --- the pump: all fleet-state mutation happens here -----------------

void
Coordinator::pumpLoop()
{
    for (;;) {
        Event ev;
        bool have = false;
        {
            std::unique_lock<std::mutex> lock(ev_mu_);
            ev_cv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
                return !events_.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            if (!events_.empty()) {
                ev = std::move(events_.front());
                events_.pop_front();
                have = true;
            } else if (stopping_.load(std::memory_order_relaxed)) {
                return;
            }
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (have) {
            switch (ev.kind) {
              case Event::Kind::message:
                handleMessage(ev.conn, ev.msg);
                break;
              case Event::Kind::closed:
                dropConn(ev.conn, "connection closed");
                break;
              case Event::Kind::wake:
                break; // the grant below is the point
            }
        }
        expireSilentWorkers();
        grantLeases();
        sendClientProgress();
    }
}

void
Coordinator::handleMessage(std::uint64_t conn_id, Json &msg)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->dead)
        return;
    Conn &c = *it->second;
    c.last_seen = std::chrono::steady_clock::now();

    const std::string type = fleetMsgType(msg);
    if (type == "hello") {
        handleHello(c, msg);
    } else if (c.role == Role::unknown) {
        Json err = fleetMsg("error");
        err.set("text", Json("expected hello, got '" + type + "'"));
        c.sock->writeLine(err);
        dropConn(conn_id, "no hello");
    } else if (type == "heartbeat") {
        // last_seen is already refreshed above.
    } else if (type == "submit") {
        handleSubmit(c, msg);
    } else if (type == "lease_done") {
        handleLeaseDone(c, msg);
    } else {
        warn("fleet: conn %llu (%s) sent unknown message type '%s'",
             static_cast<unsigned long long>(conn_id), c.name.c_str(),
             type.c_str());
    }
}

void
Coordinator::handleHello(Conn &c, const Json &msg)
{
    const std::uint64_t proto = msg.uintAt("proto");
    if (proto != fleet_proto_version) {
        Json err = fleetMsg("error");
        err.set("text",
                Json(strprintf("fleet protocol mismatch: peer speaks v%llu, "
                               "this coordinator v%llu",
                               static_cast<unsigned long long>(proto),
                               static_cast<unsigned long long>(
                                   fleet_proto_version))));
        c.sock->writeLine(err);
        dropConn(c.id, "protocol mismatch");
        return;
    }
    const std::string role = msg.stringAt("role");
    if (role == "worker")
        c.role = Role::worker;
    else if (role == "client")
        c.role = Role::client;
    else {
        Json err = fleetMsg("error");
        err.set("text", Json("unknown role '" + role + "'"));
        c.sock->writeLine(err);
        dropConn(c.id, "unknown role");
        return;
    }
    c.name = msg.stringAt("name");
    if (c.name.empty())
        c.name = strprintf("%s%llu", role.c_str(),
                           static_cast<unsigned long long>(c.id));
    c.jobs = std::max(1, static_cast<int>(msg.uintAt("jobs")));

    Json ok = fleetMsg("hello_ok");
    ok.set("proto", Json(fleet_proto_version));
    ok.set("name", Json(c.name));
    c.sock->writeLine(ok);

    if (c.role == Role::worker) {
        if (cfg_.verbose)
            inform("fleet: worker '%s' joined (jobs %d)", c.name.c_str(),
                   c.jobs);
        state_cv_.notify_all();
    }
}

void
Coordinator::handleSubmit(Conn &c, const Json &msg)
{
    const Json *spec_j = msg.find("spec");
    CampaignSpec spec;
    std::string why;
    if (!spec_j || !campaignSpecFromJson(*spec_j, spec, &why)) {
        Json err = fleetMsg("error");
        err.set("text", Json("bad campaign spec: " +
                             (why.empty() ? "missing" : why)));
        c.sock->writeLine(err);
        dropConn(c.id, "bad spec");
        return;
    }
    const std::uint64_t id = enqueueCampaign(std::move(spec), c.id);
    Json acc = fleetMsg("accepted");
    acc.set("campaign", Json(id));
    c.sock->writeLine(acc);
}

std::string
Coordinator::checkBatch(const Camp &camp, const Shard &shard,
                        const Json *cells) const
{
    if (!cells || cells->items().size() != shard.hi - shard.lo)
        return "not one entry per leased index";
    for (std::size_t k = 0; k < shard.hi - shard.lo; ++k) {
        const Json &e = cells->items()[k];
        const std::uint64_t idx = camp.owed[shard.lo + k];
        const Json *cell = e.find("cell");
        if (e.uintAt("idx", ~idx) != idx || !cell || !cell->isObject() ||
            cell->stringAt("key") != camp.fuzzer->baseCell(idx).key())
            return strprintf("entry %zu is not index %llu's cell", k,
                             static_cast<unsigned long long>(idx));
    }
    return "";
}

void
Coordinator::handleLeaseDone(Conn &c, Json &msg)
{
    const std::uint64_t lease_id = msg.uintAt("lease");
    auto it = leases_.find(lease_id);
    if (it == leases_.end() && lease_id > 0 && lease_id < next_lease_) {
        // The lease ended while this batch ran and went back to the
        // pool whole: the late copy only counts.
        if (Camp *cp = findCampaign(msg.uintAt("campaign")))
            ++cp->duplicate_results;
        return;
    }
    Camp *camp = it == leases_.end() ? nullptr
                                     : findCampaign(it->second.campaign);
    Json *cells = msg.find("cells");
    const std::string why =
        !camp || it->second.conn != c.id
            ? "a lease it does not hold"
            : checkBatch(*camp, camp->shards[it->second.shard], cells);
    if (!why.empty()) {
        warn("fleet: worker '%s' sent a malformed lease_done (%s); "
             "dropping it",
             c.name.c_str(), why.c_str());
        dropConn(c.id, "malformed lease_done");
        return;
    }

    // Merge the batch, annotated with its fleet provenance.
    const std::size_t shard_i = it->second.shard;
    Shard &shard = camp->shards[shard_i];
    for (Json &e : cells->items()) {
        const std::uint64_t idx = e.uintAt("idx");
        Json rec = std::move(*e.find("cell"));
        rec.set("type", Json("cell"));
        rec.set("idx", Json(idx));
        rec.set("shard", Json(static_cast<std::uint64_t>(shard_i)));
        rec.set("worker", Json(c.name));
        camp->ledger->recordLine(0, std::move(rec));

        const Json *f = e.find("failure");
        if (!f || !f->isObject())
            continue;
        // The worker shrank it; the evidence re-run needs the cell,
        // which the base index rebuilds exactly.
        ShrinkOutcome s;
        s.wo_text = f->stringAt("wo_text");
        s.instructions = static_cast<std::size_t>(f->uintAt("insns"));
        s.orig_instructions =
            static_cast<std::size_t>(f->uintAt("orig_insns"));
        s.reproduced = f->boolAt("reproduced");
        const std::string kind = f->stringAt("kind");
        if (camp->ledger->fileFailure(camp->fuzzer->baseCell(idx), kind, s) &&
            cfg_.verbose)
            inform("fleet: campaign %llu: new %s failure (from '%s')",
                   static_cast<unsigned long long>(camp->id), kind.c_str(),
                   c.name.c_str());
    }
    c.cells_done += cells->items().size();
    shard.state = Shard::State::done;
    releaseLease(lease_id);
    maybeCompleteCampaign(*camp);
}

void
Coordinator::dropConn(std::uint64_t conn_id, const char *why)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->dead)
        return;
    Conn &c = *it->second;
    c.dead = true;
    c.sock->shutdownNow();
    if (cfg_.verbose && c.role != Role::unknown)
        inform("fleet: %s '%s' gone (%s)",
               c.role == Role::worker ? "worker" : "client",
               c.name.c_str(), why);

    const std::vector<std::uint64_t> held = c.leases;
    for (std::uint64_t lease : held) {
        auto lit = leases_.find(lease);
        if (lit == leases_.end())
            continue;
        if (Camp *cp = findCampaign(lit->second.campaign))
            ++cp->reassigned_leases;
        releaseLease(lease);
    }
    if (c.role == Role::client)
        for (auto &cp : camps_)
            if (cp->client_conn == conn_id)
                cp->client_conn = 0;
    state_cv_.notify_all();
}

void
Coordinator::releaseLease(std::uint64_t lease_id)
{
    auto it = leases_.find(lease_id);
    if (it == leases_.end())
        return;
    const Lease lease = it->second;
    leases_.erase(it);

    auto cit = conns_.find(lease.conn);
    if (cit != conns_.end()) {
        auto &held = cit->second->leases;
        held.erase(std::remove(held.begin(), held.end(), lease_id),
                   held.end());
    }
    Camp *cp = findCampaign(lease.campaign);
    if (!cp)
        return;
    Shard &shard = cp->shards[lease.shard];
    // An unmerged lease goes back to the pending pool whole.
    if (shard.state != Shard::State::done) {
        shard.state = Shard::State::pending;
        cp->pending.push_back(lease.shard);
    }
}

Coordinator::Camp *
Coordinator::findCampaign(std::uint64_t id)
{
    for (auto &cp : camps_)
        if (cp->id == id)
            return cp.get();
    return nullptr;
}

int
Coordinator::aliveWorkers() const
{
    int alive = 0;
    for (const auto &[id, c] : conns_)
        alive += c->role == Role::worker && !c->dead;
    return alive;
}

Coordinator::Camp *
Coordinator::activeCampaign()
{
    for (auto &cp : camps_)
        if (!cp->ledger->done())
            return cp.get();
    return nullptr;
}

Coordinator::Camp *
Coordinator::leasableCampaign()
{
    // Campaigns run serially: lease from the first unfinished one,
    // walking its claims one shard further once nothing is pending.
    for (Camp *camp; (camp = activeCampaign());) {
        if (camp->pending.empty())
            walkShard(*camp);
        if (!camp->pending.empty())
            return camp;
        maybeCompleteCampaign(*camp);
        if (!camp->ledger->done())
            return nullptr; // its last shards are still leased
    }
    return nullptr;
}

void
Coordinator::grantLeases()
{
    for (auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead)
            continue;
        while (!c->draining &&
               static_cast<int>(c->leases.size()) < cfg_.max_outstanding) {
            Camp *camp = leasableCampaign();
            if (!camp)
                return; // every lattice is fully leased or done
            const std::size_t shard_i = camp->pending.front();
            Shard &shard = camp->shards[shard_i];

            const std::uint64_t lease_id = next_lease_++;
            Json msg = fleetMsg("lease");
            msg.set("campaign", Json(camp->id));
            msg.set("lease", Json(lease_id));
            msg.set("shard", Json(static_cast<std::uint64_t>(shard_i)));
            msg.set("spec", campaignSpecToJson(camp->spec));
            Json indices = Json::array();
            for (std::size_t i = shard.lo; i < shard.hi; ++i)
                indices.push(Json(camp->owed[i]));
            msg.set("indices", std::move(indices));
            if (!c->sock->writeLine(msg)) {
                dropConn(id, "lease write failed");
                break;
            }
            camp->pending.pop_front();
            shard.state = Shard::State::leased;
            Lease lease;
            lease.id = lease_id;
            lease.campaign = camp->id;
            lease.shard = shard_i;
            lease.conn = id;
            leases_.emplace(lease_id, lease);
            c->leases.push_back(lease_id);
            if (cfg_.verbose)
                inform("fleet: lease %llu (campaign %llu shard %zu, "
                       "%zu cells) -> '%s'",
                       static_cast<unsigned long long>(lease_id),
                       static_cast<unsigned long long>(camp->id), shard_i,
                       shard.hi - shard.lo, c->name.c_str());
        }
    }
}

void
Coordinator::expireSilentWorkers()
{
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> expired;
    for (auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead || c->leases.empty())
            continue;
        const auto silent =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - c->last_seen)
                .count();
        if (silent > cfg_.lease_timeout_ms)
            expired.push_back(id);
    }
    for (std::uint64_t id : expired)
        dropConn(id, "heartbeat timeout");
}

void
Coordinator::sendClientProgress()
{
    const auto now = std::chrono::steady_clock::now();
    if (now - last_progress_push_ < std::chrono::milliseconds(500))
        return;
    last_progress_push_ = now;
    for (auto &cp : camps_) {
        if (cp->ledger->done() || cp->client_conn == 0)
            continue;
        auto it = conns_.find(cp->client_conn);
        if (it == conns_.end() || it->second->dead)
            continue;
        Json msg = fleetMsg("progress");
        msg.set("campaign", Json(cp->id));
        msg.set("progress", campaignProgressJson(*cp));
        it->second->sock->writeLine(msg);
    }
}

void
Coordinator::maybeCompleteCampaign(Camp &camp)
{
    if (camp.ledger->done() || camp.walked < camp.spec.cells ||
        camp.ledger->completed() < camp.spec.cells)
        return;
    const CampaignSummary sum = camp.ledger->close();
    // The in-process summary plus what only a fleet knows.  Failures
    // come from the journal, so the verdict survives a restart.
    camp.summary = sum.toJson();
    camp.summary.set("campaign", Json(camp.id));
    camp.summary.set("cells", Json(camp.spec.cells));
    camp.summary.set("duplicate_results", Json(camp.duplicate_results));
    camp.summary.set("reassigned_leases", Json(camp.reassigned_leases));
    camp.ledger->writeSummary(camp.summary);
    ++completed_campaigns_;
    if (cfg_.verbose)
        inform("fleet: campaign %llu complete (%llu ran, %llu resumed, "
               "%zu unique failures)",
               static_cast<unsigned long long>(camp.id),
               static_cast<unsigned long long>(sum.ran),
               static_cast<unsigned long long>(sum.resumed()),
               sum.failures.size());

    if (camp.client_conn != 0) {
        auto it = conns_.find(camp.client_conn);
        if (it != conns_.end() && !it->second->dead) {
            Json msg = fleetMsg("done");
            msg.set("campaign", Json(camp.id));
            msg.set("hardware_clean", Json(sum.hardwareClean()));
            msg.set("summary", camp.summary);
            it->second->sock->writeLine(msg);
        }
    }

    if (cfg_.max_campaigns > 0 &&
        completed_campaigns_ >= cfg_.max_campaigns) {
        serving_done_ = true;
        const Json msg = fleetMsg("drain");
        for (auto &[id, c] : conns_)
            if (c->role == Role::worker && !c->dead) {
                c->draining = true;
                c->sock->writeLine(msg);
            }
    }
    state_cv_.notify_all();
}

// --- campaign setup / resume -----------------------------------------

std::unique_ptr<Ledger>
Coordinator::newLedger(std::uint64_t id) const
{
    const std::string dir =
        cfg_.out_dir + strprintf("/c%llu", static_cast<unsigned long long>(id));
    JournalCfg jcfg;
    jcfg.sync_every = cfg_.sync_every;
    jcfg.flush_interval_ms = cfg_.flush_interval_ms;
    return std::make_unique<Ledger>(1, dir, "", jcfg);
}

Coordinator::Camp &
Coordinator::addCampaign(std::uint64_t id, CampaignSpec spec,
                         std::unique_ptr<Ledger> ledger)
{
    auto camp = std::make_unique<Camp>();
    camp->id = id;
    camp->spec = std::move(spec);
    camp->fuzzer = std::make_unique<Fuzzer>(camp->spec);
    Json meta = Json::object(); // the header, if the journal is fresh
    meta.set("fleet", Json(true));
    meta.set("campaign_id", Json(id));
    meta.set("spec", campaignSpecToJson(camp->spec));
    ledger->open(camp->spec, std::move(meta));
    camp->ledger = std::move(ledger);
    // The first shard, or the whole walk when the journal holds every
    // key: a fully-resumed campaign completes without a worker.
    walkShard(*camp);
    next_campaign_ = std::max(next_campaign_, id + 1);
    camps_.push_back(std::move(camp));
    return *camps_.back();
}

void
Coordinator::walkShard(Camp &camp)
{
    // The in-process engine's claim rule, in index order: the lowest
    // index of a key owns it, and only fresh keys are owed.  Shards
    // are cut every shard_size owed indices, wherever the walk pauses.
    const std::size_t lo = camp.owed.size();
    while (camp.walked < camp.spec.cells &&
           camp.owed.size() - lo < cfg_.shard_size) {
        const std::uint64_t idx = camp.walked++;
        const KeyClaim claim = camp.ledger->journal().claim(
            camp.fuzzer->baseCell(idx).key());
        if (claim == KeyClaim::fresh)
            camp.owed.push_back(idx);
        else
            camp.ledger->recordSkip(0, claim);
    }
    if (camp.owed.size() == lo)
        return;
    Shard shard;
    shard.lo = lo;
    shard.hi = camp.owed.size();
    camp.pending.push_back(camp.shards.size());
    camp.shards.push_back(shard);
}

std::uint64_t
Coordinator::enqueueCampaign(CampaignSpec spec,
                             std::uint64_t client_conn)
{
    const std::uint64_t id = next_campaign_;
    addCampaign(id, std::move(spec), newLedger(id)).client_conn =
        client_conn;
    return id;
}

void
Coordinator::resumeFromOutDir()
{
    // Journals live at <out_dir>/c<N>/campaign.journal.jsonl; replay
    // them in campaign order so ids survive the restart.
    std::vector<std::uint64_t> ids;
    std::error_code ec;
    for (const auto &ent :
         std::filesystem::directory_iterator(cfg_.out_dir, ec)) {
        if (!ent.is_directory() ||
            !std::filesystem::exists(ent.path() / "campaign.journal.jsonl"))
            continue;
        // Only the name newLedger(id) rebuilds: "c01", or a number
        // past 2^64, would replay another directory's journal as c<id>.
        const std::string name = ent.path().filename().string();
        std::uint64_t id = 0;
        if (name.size() < 2 || name[0] != 'c' ||
            !parseDecimal(std::string_view(name).substr(1), id) || id == 0 ||
            "c" + std::to_string(id) != name) {
            warn("fleet: %s is not a campaign directory c<N>; skipping",
                 name.c_str());
            continue;
        }
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());

    for (std::uint64_t id : ids) {
        std::unique_ptr<Ledger> ledger = newLedger(id);
        const Json *spec_j = ledger->replay().find("spec");
        CampaignSpec spec;
        std::string why;
        if (!spec_j || !campaignSpecFromJson(*spec_j, spec, &why)) {
            warn("fleet: c%llu: cannot rebuild campaign spec from the "
                 "journal header (%s); skipping",
                 static_cast<unsigned long long>(id),
                 why.empty() ? "missing" : why.c_str());
            continue;
        }
        const Camp &camp = addCampaign(id, std::move(spec), std::move(ledger));
        if (cfg_.verbose)
            inform("fleet: resumed campaign %llu (%llu/%llu cells "
                   "journaled)",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(camp.ledger->completed()),
                   static_cast<unsigned long long>(camp.spec.cells));
    }
}

// --- the public, lock-taking surface ---------------------------------

std::uint64_t
Coordinator::submitLocal(const CampaignSpec &spec)
{
    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = enqueueCampaign(spec, 0);
        maybeCompleteCampaign(*camps_.back());
    }
    // The pump may be asleep in its timed wait: a bare notify would be
    // swallowed by its predicate, so the new work arrives as an event.
    Event ev;
    ev.kind = Event::Kind::wake;
    pushEvent(std::move(ev));
    return id;
}

bool
Coordinator::waitCampaign(std::uint64_t id, int timeout_ms, Json *summary)
{
    std::unique_lock<std::mutex> lock(mu_);
    Camp *camp = findCampaign(id);
    if (!camp)
        return false;
    const auto pred = [&] {
        return camp->ledger->done() ||
               stopping_.load(std::memory_order_relaxed);
    };
    if (timeout_ms <= 0)
        state_cv_.wait(lock, pred);
    else if (!state_cv_.wait_for(
                 lock, std::chrono::milliseconds(timeout_ms), pred))
        return false;
    if (!camp->ledger->done())
        return false;
    if (summary)
        *summary = camp->summary;
    return true;
}

bool
Coordinator::waitForWorkers(int n, int timeout_ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto pred = [&] {
        return aliveWorkers() >= n ||
               stopping_.load(std::memory_order_relaxed);
    };
    return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              pred) &&
           !stopping_.load(std::memory_order_relaxed);
}

void
Coordinator::waitDone()
{
    std::unique_lock<std::mutex> lock(mu_);
    state_cv_.wait(lock, [&] {
        return serving_done_ || stopping_.load(std::memory_order_relaxed);
    });
}

int
Coordinator::campaignsCompleted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_campaigns_;
}

int
Coordinator::workersConnected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return aliveWorkers();
}

Json
Coordinator::campaignProgressJson(const Camp &camp) const
{
    Json j = camp.ledger->progressJson();
    j.set("campaign", Json(camp.id));
    std::uint64_t pending = 0, leased = 0, done = 0;
    for (const Shard &s : camp.shards) {
        if (s.state == Shard::State::pending)
            ++pending;
        else if (s.state == Shard::State::leased)
            ++leased;
        else
            ++done;
    }
    Json shards = Json::object();
    shards.set("pending", Json(pending));
    shards.set("leased", Json(leased));
    shards.set("done", Json(done));
    j.set("shards", std::move(shards));
    return j;
}

bool
Coordinator::failureEvents(std::vector<std::size_t> &cursors,
                           std::string &chunk)
{
    std::lock_guard<std::mutex> lock(mu_);
    cursors.resize(camps_.size());
    for (std::size_t i = 0; i < camps_.size(); ++i)
        camps_[i]->ledger->failureEvents(cursors[i], chunk);
    return serving_done_ ||
           (completed_campaigns_ > 0 && activeCampaign() == nullptr);
}

Json
Coordinator::progressJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json j = Json::object();
    j.set("proto", Json(fleet_proto_version));
    Json workers = Json::array();
    for (const auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead)
            continue;
        Json w = Json::object();
        w.set("name", Json(c->name));
        w.set("jobs", Json(c->jobs));
        w.set("cells_done", Json(c->cells_done));
        w.set("leases",
              Json(static_cast<std::uint64_t>(c->leases.size())));
        workers.push(std::move(w));
    }
    j.set("workers_connected", Json(aliveWorkers()));
    j.set("workers", std::move(workers));
    j.set("campaigns_completed", Json(completed_campaigns_));
    Json camps = Json::array();
    for (const auto &cp : camps_)
        camps.push(campaignProgressJson(*cp));
    j.set("campaigns", std::move(camps));
    return j;
}

Json
Coordinator::metricsJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json j = Json::object();
    j.set("workers_connected", Json(aliveWorkers()));
    j.set("campaigns_completed", Json(completed_campaigns_));
    j.set("leases_outstanding",
          Json(static_cast<std::uint64_t>(leases_.size())));
    for (const auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead)
            continue;
        Json w = Json::object();
        w.set("cells_done", Json(c->cells_done));
        w.set("leases",
              Json(static_cast<std::uint64_t>(c->leases.size())));
        j.set("worker{worker=\"" + c->name + "\"}", std::move(w));
    }
    for (const auto &cp : camps_) {
        MetricsRegistry reg;
        cp->ledger->metrics(reg);
        Json c = reg.json();
        c.set("duplicate_results", Json(cp->duplicate_results));
        c.set("reassigned_leases", Json(cp->reassigned_leases));
        // Per-shard series are bounded by the operator's shard-size
        // choice; cap the cardinality anyway so a million-cell
        // campaign cannot flood a scrape.  The cap reads the lattice,
        // not the shards cut so far, so series never vanish mid-run.
        if (cp->spec.cells / cfg_.shard_size < 256)
            for (std::size_t i = 0; i < cp->shards.size(); ++i) {
                Json s = Json::object();
                s.set("state",
                      Json(static_cast<int>(cp->shards[i].state)));
                c.set(strprintf("shard{shard=\"%zu\"}", i),
                      std::move(s));
            }
        c.set("client_attached", Json(cp->client_conn != 0 ? 1 : 0));
        j.set(strprintf("campaign{campaign=\"%llu\"}",
                        static_cast<unsigned long long>(cp->id)),
              std::move(c));
    }
    return j;
}

} // namespace wo
