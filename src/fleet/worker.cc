#include "worker.hh"

#include <algorithm>
#include <chrono>

#include "campaign/fuzzer.hh"
#include "campaign/shrink.hh"
#include "common/logging.hh"

namespace wo {

FleetWorker::FleetWorker(WorkerCfg cfg) : cfg_(std::move(cfg))
{
    if (cfg_.jobs < 1)
        cfg_.jobs = 1;
    slots_.resize(static_cast<std::size_t>(cfg_.jobs));
}

FleetWorker::~FleetWorker()
{
    kill();
    if (heartbeat_.joinable())
        heartbeat_.join();
}

void
FleetWorker::requestStop()
{
    stop_.store(true, std::memory_order_relaxed);
    hb_cv_.notify_all();
}

void
FleetWorker::kill()
{
    stop_.store(true, std::memory_order_relaxed);
    hb_cv_.notify_all();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (conn_)
        conn_->shutdownNow();
}

void
FleetWorker::heartbeatLoop()
{
    std::unique_lock<std::mutex> lock(hb_mu_);
    for (;;) {
        hb_cv_.wait_for(lock,
                        std::chrono::milliseconds(cfg_.heartbeat_ms),
                        [&] {
                            return stop_.load(std::memory_order_relaxed);
                        });
        if (stop_.load(std::memory_order_relaxed))
            return;
        if (!conn_->writeLine(fleetMsg("heartbeat")))
            return; // the coordinator is gone; the reader notices too
    }
}

bool
FleetWorker::connectAndRun()
{
    const int fd = fleetConnect(cfg_.connect, &error_);
    if (fd < 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        conn_ = std::make_unique<LineConn>(fd);
    }

    Json hello = fleetMsg("hello");
    hello.set("proto", Json(fleet_proto_version));
    hello.set("role", Json("worker"));
    hello.set("name", Json(cfg_.name));
    hello.set("jobs", Json(cfg_.jobs));
    hello.set("hw_threads",
              Json(static_cast<std::uint64_t>(
                  std::thread::hardware_concurrency())));
    if (!conn_->writeLine(hello)) {
        error_ = "handshake write failed";
        return false;
    }

    std::string line;
    if (conn_->readLine(line, 10'000) != LineConn::Read::line) {
        error_ = "no handshake reply";
        return false;
    }
    JsonParseResult hp = jsonParse(line);
    if (!hp.ok || fleetMsgType(hp.value) != "hello_ok") {
        const Json *text =
            hp.ok ? hp.value.find("text") : nullptr;
        error_ = text && text->isString() ? text->stringValue()
                                          : "handshake rejected";
        return false;
    }
    if (const Json *n = hp.value.find("name"); n && n->isString())
        cfg_.name = n->stringValue();
    if (cfg_.verbose)
        inform("fleet worker '%s': connected to %s:%u", cfg_.name.c_str(),
               cfg_.connect.host.c_str(),
               static_cast<unsigned>(cfg_.connect.port));

    heartbeat_ = std::thread([this] { heartbeatLoop(); });

    bool drained = false;
    while (!stop_.load(std::memory_order_relaxed)) {
        const LineConn::Read r = conn_->readLine(line, 500);
        if (r == LineConn::Read::closed)
            break;
        if (r == LineConn::Read::timeout)
            continue;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const std::string type = fleetMsgType(p.value);
        if (type == "lease") {
            executeLease(p.value);
        } else if (type == "drain") {
            drained = true;
            break;
        } else if (type == "error") {
            const Json *text = p.value.find("text");
            error_ = text && text->isString() ? text->stringValue()
                                              : "coordinator error";
            warn("fleet worker '%s': %s", cfg_.name.c_str(),
                 error_.c_str());
            break;
        }
    }
    requestStop();
    if (cfg_.verbose)
        inform("fleet worker '%s': leaving (%llu cells run%s)",
               cfg_.name.c_str(),
               static_cast<unsigned long long>(cellsRun()),
               drained ? ", drained" : "");
    return true;
}

void
FleetWorker::executeLease(const Json &msg)
{
    const Json *spec_j = msg.find("spec");
    const Json *indices_j = msg.find("indices");
    CampaignSpec spec;
    std::string why;
    if (!spec_j || !campaignSpecFromJson(*spec_j, spec, &why) ||
        !indices_j || !indices_j->isArray()) {
        warn("fleet worker '%s': unusable lease (%s)", cfg_.name.c_str(),
             why.empty() ? "bad indices" : why.c_str());
        return;
    }
    const std::uint64_t campaign = msg.uintAt("campaign");
    const std::uint64_t lease = msg.uintAt("lease");

    std::vector<std::uint64_t> indices;
    indices.reserve(indices_j->items().size());
    for (const Json &i : indices_j->items())
        if (i.isNumber())
            indices.push_back(i.uintValue());

    const Fuzzer fuzzer(spec);

    // Slot results land at their cursor position, so the batch is
    // in lease order however the slots interleave.
    std::vector<Json> cells(indices.size());
    std::atomic<std::size_t> cursor{0};
    auto slot_fn = [&](int slot) {
        CellContext &ctx = slots_[static_cast<std::size_t>(slot)];
        for (;;) {
            if (stop_.load(std::memory_order_relaxed))
                return;
            const std::size_t at =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (at >= indices.size())
                return;
            const std::uint64_t idx = indices[at];
            // Shrink where the evidence is: only the minimized text
            // travels, and the coordinator derives the failure identity
            // from exactly this text.
            const ShrunkCellRun out =
                runAndShrinkCell(fuzzer.baseCell(idx), spec, &ctx);

            Json entry = Json::object();
            entry.set("idx", Json(idx));
            entry.set("cell", cellResultToJson(out.run.result));
            if (out.failure) {
                Json failure = Json::object();
                failure.set("kind", Json(out.run.result.primary_kind));
                failure.set("wo_text", Json(out.failure->wo_text));
                failure.set("insns",
                            Json(static_cast<std::uint64_t>(
                                out.failure->instructions)));
                failure.set("orig_insns",
                            Json(static_cast<std::uint64_t>(
                                out.failure->orig_instructions)));
                failure.set("reproduced", Json(out.failure->reproduced));
                entry.set("failure", std::move(failure));
            }
            cells[at] = std::move(entry);
            cells_run_.fetch_add(1, std::memory_order_relaxed);
        }
    };

    if (cfg_.verbose)
        inform("fleet worker '%s': lease %llu (%zu cells)",
               cfg_.name.c_str(), static_cast<unsigned long long>(lease),
               indices.size());
    if (cfg_.jobs == 1) {
        slot_fn(0);
    } else {
        std::vector<std::thread> slots;
        slots.reserve(static_cast<std::size_t>(cfg_.jobs));
        for (int s = 0; s < cfg_.jobs; ++s)
            slots.emplace_back(slot_fn, s);
        for (auto &t : slots)
            t.join();
    }
    if (stop_.load(std::memory_order_relaxed))
        return; // an unanswered lease returns whole to the pending pool
    Json batch = Json::array();
    for (Json &entry : cells)
        batch.push(std::move(entry));
    Json done = fleetMsg("lease_done");
    done.set("campaign", Json(campaign));
    done.set("lease", Json(lease));
    done.set("cells", std::move(batch));
    conn_->writeLine(done);
}

} // namespace wo
