/**
 * @file
 * The one Chrome trace-event writer.
 *
 * Every Chrome trace the repo emits -- the simulator's full trace, the
 * flight-recorder dump, the sampler's counter tracks and the campaign
 * timelines -- builds its events here: lane metadata plus span ('X'),
 * instant ('i') and counter ('C') events.  On top of those builders sit
 * the two renderers of the simulator's event record (FlightEvent): one
 * Chrome renderer and one JSONL renderer, shared by the full trace and
 * the flight recorder, so a record renders the same in both documents.
 */

#ifndef WO_OBS_TRACE_WRITER_HH
#define WO_OBS_TRACE_WRITER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/json.hh"
#include "obs/recorder.hh"

namespace wo {

class Sampler;

namespace chrome {

/** 'M' metadata event naming lane @p tid. */
Json lane(std::uint64_t tid, const std::string &name);

/** 'X' complete event covering [@p from, @p to); @p args unless null. */
Json span(const std::string &name, std::uint64_t tid, std::uint64_t from,
          std::uint64_t to, Json args = Json());

/** Thread-scoped 'i' instant event; @p args unless null. */
Json instant(const std::string &name, std::uint64_t tid, std::uint64_t at,
             Json args = Json());

/** 'C' counter-track sample with args {"value": @p value}. */
Json counter(const std::string &name, std::uint64_t tid, std::uint64_t at,
             Json value);

} // namespace chrome

/**
 * Render @p records as a Chrome trace-event document.  Lanes: tid 2p
 * "cpu<p> ops", 2p+1 "cpu<p> stalls", 2P "network" and 2P+1
 * @p aux_lane.  An op renders as one issue->perform span at its perform
 * record, or as an instant when its issue or perform is not among the
 * records; commit and retire records only feed those spans.
 * @param fire_labels label table indexed by fire records' @c a
 * @param sampler     counter tracks appended after the records, or null
 * @param other_data  the document's "otherData" object
 */
std::string recordsChromeJson(const std::vector<FlightEvent> &records,
                              const std::vector<std::string> &fire_labels,
                              ProcId nprocs, const char *aux_lane,
                              const Sampler *sampler, Json other_data);

/**
 * Render @p records as JSONL, one compact object per record.  Covers the
 * kinds the full trace holds: fire, msg and the op lifecycle.
 */
std::string recordsJsonl(const std::vector<FlightEvent> &records,
                         const std::vector<std::string> &fire_labels);

} // namespace wo

#endif // WO_OBS_TRACE_WRITER_HH
