/**
 * @file
 * The live control plane every long-running command serves over
 * obs/httpd.hh: `/healthz`, Prometheus `/metrics`, a JSON `/progress`
 * document and an SSE `/events` stream.  The in-process campaign, the
 * fleet coordinator and `wotool run|monitor` mount it from one place
 * and differ only in the documents they hand it (the campaign ones
 * come from campaign/ledger.hh).
 */

#ifndef WO_OBS_CONTROL_PLANE_HH
#define WO_OBS_CONTROL_PLANE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace wo {

class HttpServer;

/** What a control plane serves.  Every member is called from server
 *  threads and must be thread-safe. */
struct ControlPlaneSource
{
    std::function<Json()> metrics;  //!< the /metrics tree
    std::function<Json()> progress; //!< the /progress document
    /**
     * Append `failure` frames past @p cursors (one per campaign, grown
     * as needed; each stream owns its own) to @p chunk; true once the
     * command is done.
     */
    std::function<bool(std::vector<std::size_t> &cursors,
                       std::string &chunk)>
        events;
};

/**
 * Mount /healthz, /metrics (Prometheus text under @p prefix),
 * /progress and /events on @p srv.  /events replays every failure to a
 * new subscriber, then follows along with a `progress` event per poll
 * and ends with `done`.
 */
void mountControlPlane(HttpServer &srv, const std::string &prefix,
                       ControlPlaneSource src);

} // namespace wo

#endif // WO_OBS_CONTROL_PLANE_HH
