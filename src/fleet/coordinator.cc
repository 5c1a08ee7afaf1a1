#include "coordinator.hh"

#include <algorithm>
#include <filesystem>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign/shrink.hh"
#include "common/logging.hh"
#include "obs/artifact.hh"
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

    if (cfg_.serve) {
        cfg_.serve->handle("/healthz", [](const HttpRequest &) {
            HttpResponse r;
            r.body = "ok\n";
            return r;
        });
        cfg_.serve->handle("/metrics", [this](const HttpRequest &) {
            HttpResponse r;
            r.content_type = "text/plain; version=0.0.4";
            r.body = prometheusText(metricsJson(), "wo_fleet");
            return r;
        });
        cfg_.serve->handle("/progress", [this](const HttpRequest &) {
            HttpResponse r;
            r.content_type = "application/json";
            r.body = progressJson().dump(1) + "\n";
            return r;
        });
    }

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
            if (camp->journal)
                camp->journal->close();
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
              case Event::Kind::connected:
                break;
              case Event::Kind::message:
                handleMessage(ev.conn, ev.msg);
                break;
              case Event::Kind::closed:
                dropConn(ev.conn, "connection closed");
                break;
            }
        }
        expireSilentWorkers();
        grantLeases();
        sendClientProgress();
    }
}

void
Coordinator::handleMessage(std::uint64_t conn_id, const Json &msg)
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
    } else if (type == "result") {
        handleResult(c, msg);
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
    c.hw_threads = msg.uintAt("hw_threads");

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

void
Coordinator::handleResult(Conn &c, const Json &msg)
{
    Camp *camp = findCampaign(msg.uintAt("campaign"));
    const Json *cell = msg.find("cell");
    if (!camp || !cell || !cell->isObject())
        return;
    const std::uint64_t idx = msg.uintAt("idx");
    if (camp->completed || idx >= camp->spec.cells || camp->done[idx]) {
        // A reassigned lease's original holder reported late: the
        // merge is idempotent, the duplicate only counts.
        ++camp->duplicate_results;
        return;
    }
    camp->done[idx] = 1;
    ++camp->done_cells;
    ++camp->ran;
    ++c.cells_done;

    camp->tally.add(cell->stringAt("verdict"));

    const std::size_t shard_i =
        static_cast<std::size_t>(idx / cfg_.shard_size);
    Shard &shard = camp->shards[shard_i];
    if (shard.remaining > 0)
        --shard.remaining;

    // Merge into the campaign journal, annotated with the fleet
    // provenance a resumed coordinator needs.
    Json rec = *cell;
    rec.set("type", Json("cell"));
    rec.set("idx", Json(idx));
    rec.set("shard", Json(static_cast<std::uint64_t>(shard_i)));
    rec.set("worker", Json(c.name));
    camp->journal->appendJson(std::move(rec));

    if (const Json *f = msg.find("failure"); f && f->isObject()) {
        const std::string fkind = f->stringAt("kind");
        const std::string wo_text = f->stringAt("wo_text");
        // Same identity as the single-process engine: a bug found by
        // three workers is still one failure fleet-wide.
        const FailureId id = failureId(fkind, wo_text, camp->dir);
        FailureRecord rec;
        rec.dedup = id.dedup;
        rec.kind = fkind;
        rec.first_cell = cell->stringAt("key");
        rec.repro_path = id.stem + ".wo";
        rec.instructions = static_cast<std::size_t>(f->uintAt("insns"));
        rec.orig_instructions =
            static_cast<std::size_t>(f->uintAt("orig_insns"));
        rec.reproduced = f->boolAt("reproduced");
        if (camp->journal->recordFailure(rec)) {
            ++camp->unique_failures;
            writeFile(rec.repro_path, wo_text);
            if (cfg_.verbose)
                inform("fleet: campaign %llu failure %s (from '%s')",
                       static_cast<unsigned long long>(camp->id),
                       id.dedup.c_str(), c.name.c_str());
        }
    }

    if (shard.remaining == 0) {
        if (shard.state == Shard::State::leased)
            releaseLease(shard.lease);
        else
            shard.state = Shard::State::done;
    }
    maybeCompleteCampaign(*camp);
}

void
Coordinator::handleLeaseDone(Conn &c, const Json &msg)
{
    const std::uint64_t lease_id = msg.uintAt("lease");
    auto it = leases_.find(lease_id);
    if (it == leases_.end() || it->second.conn != c.id)
        return; // stale: the lease was reassigned while this ran
    releaseLease(lease_id);
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
    if (shard.lease != lease_id)
        return; // already re-leased
    shard.lease = 0;
    // Whatever the holder managed before the lease ended is merged
    // already; the remainder goes back to the pending pool.
    shard.state = shard.remaining == 0 ? Shard::State::done
                                       : Shard::State::pending;
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
        if (!cp->completed)
            return cp.get();
    return nullptr;
}

void
Coordinator::grantLeases()
{
    Camp *camp = activeCampaign();
    if (!camp)
        return;
    for (auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead || c->draining)
            continue;
        while (static_cast<int>(c->leases.size()) < cfg_.max_outstanding) {
            Shard *shard = nullptr;
            std::size_t shard_i = 0;
            for (std::size_t i = 0; i < camp->shards.size(); ++i)
                if (camp->shards[i].state == Shard::State::pending) {
                    shard = &camp->shards[i];
                    shard_i = i;
                    break;
                }
            if (!shard)
                return; // the lattice is fully leased or done

            const std::uint64_t lease_id = next_lease_++;
            Json msg = fleetMsg("lease");
            msg.set("campaign", Json(camp->id));
            msg.set("lease", Json(lease_id));
            msg.set("shard", Json(static_cast<std::uint64_t>(shard_i)));
            msg.set("spec", campaignSpecToJson(camp->spec));
            Json indices = Json::array();
            for (std::uint64_t i = shard->lo; i < shard->hi; ++i)
                if (!camp->done[i])
                    indices.push(Json(i));
            msg.set("indices", std::move(indices));
            if (!c->sock->writeLine(msg)) {
                dropConn(id, "lease write failed");
                break;
            }
            shard->state = Shard::State::leased;
            shard->lease = lease_id;
            Lease lease;
            lease.id = lease_id;
            lease.campaign = camp->id;
            lease.shard = shard_i;
            lease.conn = id;
            lease.granted = std::chrono::steady_clock::now();
            leases_.emplace(lease_id, lease);
            c->leases.push_back(lease_id);
            if (cfg_.verbose)
                inform("fleet: lease %llu (campaign %llu shard %zu, "
                       "%llu cells) -> '%s'",
                       static_cast<unsigned long long>(lease_id),
                       static_cast<unsigned long long>(camp->id), shard_i,
                       static_cast<unsigned long long>(shard->remaining),
                       c->name.c_str());
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
        if (cp->completed || cp->client_conn == 0)
            continue;
        auto it = conns_.find(cp->client_conn);
        if (it == conns_.end() || it->second->dead)
            continue;
        Json msg = fleetMsg("progress");
        msg.set("campaign", Json(cp->id));
        msg.set("cells", campaignProgressJson(*cp));
        it->second->sock->writeLine(msg);
    }
}

void
Coordinator::maybeCompleteCampaign(Camp &camp)
{
    if (camp.completed || camp.done_cells < camp.spec.cells)
        return;
    camp.completed = true;
    camp.summary = buildSummary(camp);
    camp.journal->close();
    writeFile(camp.dir + "/campaign.summary.json",
              camp.summary.dump(1) + "\n");
    ++completed_campaigns_;
    if (cfg_.verbose)
        inform("fleet: campaign %llu complete (%llu ran, %llu resumed, "
               "%llu unique failures)",
               static_cast<unsigned long long>(camp.id),
               static_cast<unsigned long long>(camp.ran),
               static_cast<unsigned long long>(camp.resumed),
               static_cast<unsigned long long>(camp.unique_failures));

    if (camp.client_conn != 0) {
        auto it = conns_.find(camp.client_conn);
        if (it != conns_.end() && !it->second->dead) {
            Json msg = fleetMsg("done");
            msg.set("campaign", Json(camp.id));
            msg.set("hardware_clean",
                    Json(camp.summary.boolAt("hardware_clean")));
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

Json
Coordinator::buildSummary(const Camp &camp) const
{
    Json j = Json::object();
    j.set("campaign", Json(camp.id));
    j.set("cells", Json(camp.spec.cells));
    j.set("ran", Json(camp.ran));
    j.set("resumed", Json(camp.resumed));
    camp.tally.toJson(j);
    j.set("duplicate_results", Json(camp.duplicate_results));
    j.set("reassigned_leases", Json(camp.reassigned_leases));
    // The journal's failure map spans resumed history too, so the
    // verdict survives a coordinator restart.
    const auto failures = camp.journal->failures();
    j.set("unique_failures",
          Json(static_cast<std::uint64_t>(failures.size())));
    j.set("hardware_clean", Json(failures.empty()));
    Json fl = Json::array();
    for (const FailureRecord &f : failures)
        fl.push(failureRecordToJson(f));
    j.set("failures", std::move(fl));
    j.set("wall_s",
          Json(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - camp.t0)
                   .count()));
    return j;
}

// --- campaign setup / resume -----------------------------------------

std::unique_ptr<Journal>
Coordinator::newJournal(const std::string &dir) const
{
    JournalCfg jcfg;
    jcfg.sync_every = cfg_.sync_every;
    jcfg.flush_interval_ms = cfg_.flush_interval_ms;
    return std::make_unique<Journal>(dir + "/campaign.journal.jsonl",
                                     jcfg);
}

void
Coordinator::layoutShards(Camp &camp) const
{
    const std::size_t nshards = static_cast<std::size_t>(
        (camp.spec.cells + cfg_.shard_size - 1) / cfg_.shard_size);
    camp.shards.resize(nshards);
    for (std::size_t i = 0; i < nshards; ++i) {
        Shard &s = camp.shards[i];
        s.lo = i * cfg_.shard_size;
        s.hi = std::min<std::uint64_t>(s.lo + cfg_.shard_size,
                                       camp.spec.cells);
        for (std::uint64_t idx = s.lo; idx < s.hi; ++idx)
            if (!camp.done[idx])
                ++s.remaining;
        if (s.remaining == 0)
            s.state = Shard::State::done;
    }
}

std::uint64_t
Coordinator::enqueueCampaign(CampaignSpec spec,
                             std::uint64_t client_conn)
{
    auto camp = std::make_unique<Camp>();
    camp->id = next_campaign_++;
    camp->spec = std::move(spec);
    camp->client_conn = client_conn;
    camp->t0 = std::chrono::steady_clock::now();
    camp->dir = cfg_.out_dir +
                strprintf("/c%llu",
                          static_cast<unsigned long long>(camp->id));
    std::error_code ec;
    std::filesystem::create_directories(camp->dir, ec);

    camp->journal = newJournal(camp->dir);
    camp->journal->reserveKeys(camp->spec.cells);
    camp->journal->open(true);
    Json meta = Json::object();
    meta.set("fleet", Json(true));
    meta.set("campaign_id", Json(camp->id));
    meta.set("spec", campaignSpecToJson(camp->spec));
    camp->journal->writeHeader(std::move(meta));

    camp->done.assign(camp->spec.cells, 0);
    layoutShards(*camp);
    const std::uint64_t id = camp->id;
    camps_.push_back(std::move(camp));
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
        const std::string name = ent.path().filename().string();
        if (name.size() < 2 || name[0] != 'c' || !ent.is_directory())
            continue;
        std::uint64_t id = 0;
        bool numeric = true;
        for (std::size_t i = 1; i < name.size(); ++i) {
            if (name[i] < '0' || name[i] > '9') {
                numeric = false;
                break;
            }
            id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
        }
        if (numeric && id > 0 &&
            std::filesystem::exists(ent.path() /
                                    "campaign.journal.jsonl"))
            ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());

    for (std::uint64_t id : ids) {
        const std::string dir =
            cfg_.out_dir +
            strprintf("/c%llu", static_cast<unsigned long long>(id));
        std::unique_ptr<Journal> journal = newJournal(dir);
        journal->load();
        const Json *spec_j = journal->header().find("spec");
        CampaignSpec spec;
        std::string why;
        if (!spec_j || !campaignSpecFromJson(*spec_j, spec, &why)) {
            warn("fleet: %s: cannot rebuild campaign spec from the "
                 "journal header (%s); skipping",
                 dir.c_str(), why.empty() ? "missing" : why.c_str());
            continue;
        }
        auto camp = std::make_unique<Camp>();
        camp->id = id;
        camp->spec = std::move(spec);
        camp->dir = dir;
        camp->t0 = std::chrono::steady_clock::now();
        camp->journal = std::move(journal);
        camp->journal->reserveKeys(camp->spec.cells);
        camp->journal->open(false);

        camp->done.assign(camp->spec.cells, 0);
        for (std::uint64_t idx : camp->journal->resumeIndices())
            if (idx < camp->spec.cells && !camp->done[idx]) {
                camp->done[idx] = 1;
                ++camp->done_cells;
                ++camp->resumed;
            }
        layoutShards(*camp);
        next_campaign_ = std::max(next_campaign_, id + 1);
        if (cfg_.verbose)
            inform("fleet: resumed campaign %llu (%llu/%llu cells "
                   "journaled)",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(camp->done_cells),
                   static_cast<unsigned long long>(camp->spec.cells));
        camps_.push_back(std::move(camp));
    }
}

// --- the public, lock-taking surface ---------------------------------

std::uint64_t
Coordinator::submitLocal(const CampaignSpec &spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = enqueueCampaign(spec, 0);
    maybeCompleteCampaign(*camps_.back());
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
        return camp->completed || stopping_.load(std::memory_order_relaxed);
    };
    if (timeout_ms <= 0)
        state_cv_.wait(lock, pred);
    else if (!state_cv_.wait_for(
                 lock, std::chrono::milliseconds(timeout_ms), pred))
        return false;
    if (!camp->completed)
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
    Json j = Json::object();
    j.set("cells", Json(camp.spec.cells));
    j.set("done", Json(camp.done_cells));
    j.set("ran", Json(camp.ran));
    j.set("resumed", Json(camp.resumed));
    j.set("hw", Json(camp.tally.hw));
    j.set("unique_failures", Json(camp.unique_failures));
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
    for (const auto &cp : camps_) {
        Json c = campaignProgressJson(*cp);
        c.set("campaign", Json(cp->id));
        c.set("completed", Json(cp->completed));
        camps.push(std::move(c));
    }
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
        Json c = Json::object();
        c.set("cells", Json(cp->spec.cells));
        c.set("done_cells", Json(cp->done_cells));
        c.set("ran", Json(cp->ran));
        c.set("resumed", Json(cp->resumed));
        c.set("hw", Json(cp->tally.hw));
        c.set("unique_failures", Json(cp->unique_failures));
        c.set("duplicate_results", Json(cp->duplicate_results));
        c.set("reassigned_leases", Json(cp->reassigned_leases));
        c.set("completed", Json(cp->completed ? 1 : 0));
        // Per-shard series are bounded by the operator's shard-size
        // choice; cap the cardinality anyway so a million-cell
        // campaign cannot flood a scrape.
        if (cp->shards.size() <= 256)
            for (std::size_t i = 0; i < cp->shards.size(); ++i) {
                Json s = Json::object();
                s.set("state",
                      Json(static_cast<int>(cp->shards[i].state)));
                s.set("remaining", Json(cp->shards[i].remaining));
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
