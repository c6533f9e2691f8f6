#include "service/report.h"

#include <ostream>

#include "model/platform.h"
#include "obs/json.h"
#include "scenario/digest.h"
#include "service/service.h"
#include "util/error.h"

namespace vc2m::service {

void write_serve_report(std::ostream& os, const ServeReport& r) {
  obs::json::write(os, r);
}

ServeReport read_serve_report(std::istream& is, const std::string& what,
                              std::vector<std::string>* notes) {
  ServeReport r = obs::json::read<ServeReport>(is, what, notes);
  VC2M_CHECK_MSG(r.schema == kServeReportSchema,
                 what << ": unsupported schema '" << r.schema << "'");
  VC2M_CHECK_MSG(!r.trace.empty(), what << ": empty trace spec");
  VC2M_CHECK_MSG(model::platform_from_name(r.platform),
                 what << ": unknown platform '" << r.platform << "'");
  ShedPolicy shed;
  VC2M_CHECK_MSG(shed_policy_from_string(r.shed_policy, shed),
                 what << ": unknown shed policy '" << r.shed_policy << "'");
  VC2M_CHECK_MSG(r.queue_cap >= 1, what << ": config.queue_cap must be >= 1");
  VC2M_CHECK_MSG(r.arrivals <= r.requests,
                 what << ": arrivals exceed the trace length");
  VC2M_CHECK_MSG(r.queue_max_depth <= r.queue_cap,
                 what << ": queue max_depth exceeds the configured cap");
  VC2M_CHECK_MSG(scenario::is_solve_digest(r.digest),
                 what << ": state.digest is not a solve digest (sched=...)");
  // Terminal outcomes must account for every enqueued attempt: arrivals plus
  // re-enqueued retries all end in exactly one terminal bucket.
  const std::uint64_t terminal = r.admitted + r.rejected + r.probe_rejected +
                                 r.removed + r.resized + r.resize_rejected +
                                 r.not_present + r.shed + r.timed_out;
  VC2M_CHECK_MSG(r.interrupted ||
                     terminal + r.deferred == r.arrivals + r.retries,
                 what << ": outcome totals do not cover the enqueued attempts");
  return r;
}

}  // namespace vc2m::service
