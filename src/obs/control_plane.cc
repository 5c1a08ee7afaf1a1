#include "control_plane.hh"

#include "obs/httpd.hh"
#include "obs/metrics.hh"

namespace wo {

void
mountControlPlane(HttpServer &srv, const std::string &prefix,
                  ControlPlaneSource src)
{
    srv.handle("/healthz", [](const HttpRequest &) {
        HttpResponse r;
        r.body = "ok\n";
        return r;
    });
    srv.handle("/metrics", [metrics = src.metrics,
                            prefix](const HttpRequest &) {
        HttpResponse r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = prometheusText(metrics(), prefix);
        return r;
    });
    srv.handle("/progress", [progress = src.progress](const HttpRequest &) {
        HttpResponse r;
        r.content_type = "application/json";
        r.body = progress().dump(1) + "\n";
        return r;
    });
    // Each connection copies this generator (and with it pristine
    // cursors), so a late subscriber first replays every failure
    // discovered so far, then follows along live.
    srv.stream("/events", [src, cursors = std::vector<std::size_t>()](
                              std::string &chunk) mutable {
        const bool finished = src.events(cursors, chunk);
        chunk += "event: progress\ndata: " + src.progress().dump(0) +
                 "\n\n";
        if (!finished)
            return true;
        chunk += "event: done\ndata: {}\n\n";
        return false;
    });
}

} // namespace wo
