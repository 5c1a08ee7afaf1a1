#include "client.hh"

#include <cstdio>
#include <memory>

#include "common/logging.hh"

namespace wo {

SubmitResult
submitCampaign(const SubmitCfg &cfg)
{
    SubmitResult out;
    std::string err;
    const int fd = fleetConnect(cfg.connect, &err);
    if (fd < 0) {
        out.error = err;
        return out;
    }
    LineConn conn(fd);

    Json hello = fleetMsg("hello");
    hello.set("proto", Json(fleet_proto_version));
    hello.set("role", Json("client"));
    hello.set("name", Json("submit"));
    if (!conn.writeLine(hello)) {
        out.error = "handshake write failed";
        return out;
    }
    std::string line;
    if (conn.readLine(line, 10'000) != LineConn::Read::line) {
        out.error = "no handshake reply";
        return out;
    }
    JsonParseResult hp = jsonParse(line);
    if (!hp.ok || fleetMsgType(hp.value) != "hello_ok") {
        const Json *text = hp.ok ? hp.value.find("text") : nullptr;
        out.error = text && text->isString() ? text->stringValue()
                                             : "handshake rejected";
        return out;
    }

    Json submit = fleetMsg("submit");
    submit.set("spec", campaignSpecToJson(cfg.spec));
    if (!conn.writeLine(submit)) {
        out.error = "submit write failed";
        return out;
    }

    // accepted -> (progress)* -> done, all pushed by the coordinator.
    const int wait_ms =
        cfg.idle_timeout_ms > 0 ? cfg.idle_timeout_ms : 2'000;
    for (;;) {
        const LineConn::Read r = conn.readLine(line, wait_ms);
        if (r == LineConn::Read::closed) {
            out.error = "fleet connection closed before the verdict";
            return out;
        }
        if (r == LineConn::Read::timeout) {
            if (cfg.idle_timeout_ms > 0) {
                out.error = strprintf(
                    "fleet silent for %d ms; giving up",
                    cfg.idle_timeout_ms);
                return out;
            }
            continue;
        }
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const std::string type = fleetMsgType(p.value);
        if (type == "accepted") {
            out.campaign = p.value.uintAt("campaign");
            if (!cfg.quiet)
                inform("fleet: campaign %llu accepted",
                       static_cast<unsigned long long>(out.campaign));
        } else if (type == "progress") {
            if (cfg.quiet)
                continue;
            // The campaign's ledger progress document (since proto v2).
            const Json *prog = p.value.find("progress");
            const Json *cells = prog ? prog->find("cells") : nullptr;
            if (!cells || !cells->isObject())
                continue;
            std::fprintf(
                stderr, "\rfleet: %llu/%llu cells, %llu hw   ",
                static_cast<unsigned long long>(cells->uintAt("completed")),
                static_cast<unsigned long long>(cells->uintAt("total")),
                static_cast<unsigned long long>(cells->uintAt("hw_failed")));
            std::fflush(stderr);
        } else if (type == "done") {
            if (!cfg.quiet)
                std::fprintf(stderr, "\n");
            out.hardware_clean = p.value.boolAt("hardware_clean");
            if (const Json *s = p.value.find("summary"))
                out.summary = *s;
            out.ok = true;
            return out;
        } else if (type == "error") {
            const Json *text = p.value.find("text");
            out.error = text && text->isString() ? text->stringValue()
                                                 : "coordinator error";
            return out;
        }
    }
}

} // namespace wo
