/**
 * @file
 * The fleet client: `wotool submit`.
 *
 * A client is the short-lived end of the protocol: connect to a warm
 * fleet, hand the coordinator one campaign spec, relay the progress
 * lines it pushes, and exit with the campaign's verdict -- the same
 * contract as running `wotool campaign` locally, except the cells run
 * wherever the fleet's workers are.
 */

#ifndef WO_FLEET_CLIENT_HH
#define WO_FLEET_CLIENT_HH

#include <string>

#include "fleet/proto.hh"
#include "obs/json.hh"

namespace wo {

/** Submission configuration (the `wotool submit` surface). */
struct SubmitCfg
{
    HostPort connect;        //!< the coordinator's endpoint
    CampaignSpec spec;  //!< what to run
    bool quiet = false;      //!< suppress the progress lines
    /** Give up when the fleet is silent this long (0 = wait forever);
     *  a coordinator pushes progress every ~500ms, so silence means
     *  the fleet died. */
    int idle_timeout_ms = 0;
};

/** What a submission came back with. */
struct SubmitResult
{
    bool ok = false;            //!< the campaign ran to completion
    std::string error;          //!< why not, when !ok
    std::uint64_t campaign = 0; //!< coordinator-assigned id
    bool hardware_clean = false;
    Json summary;               //!< the coordinator's campaign summary
};

/** Submit @p cfg.spec and block until the campaign's done line. */
SubmitResult submitCampaign(const SubmitCfg &cfg);

} // namespace wo

#endif // WO_FLEET_CLIENT_HH
