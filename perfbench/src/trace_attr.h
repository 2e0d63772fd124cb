#ifndef PERFBENCH_TRACE_ATTR_H_
#define PERFBENCH_TRACE_ATTR_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/trace.h"

namespace perfbench {

/// One benchmark-side request span: a user call into the program, timed on
/// the client thread with the engine tracer's clock (Tracer::NowNs).
struct RequestSpan {
  uint64_t id = 0;
  int client = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const char* step = "";
  /// Called on the client thread (Session::ExecuteProgressive), so its
  /// program spans run there rather than in a scheduler task.
  bool direct = false;
};

/// Copies the engine's per-thread trace rings into one growing list, often
/// enough that no ring wraps between two drains. A ring whose every buffered
/// event is new at a drain may have overwritten events; that drain counts as
/// lossy.
class TraceCollector {
 public:
  void Drain();
  const std::vector<exploredb::TraceEvent>& events() const { return events_; }
  uint64_t lossy_drains() const { return lossy_drains_; }

 private:
  std::unordered_set<uint64_t> seen_;
  std::vector<exploredb::TraceEvent> events_;
  uint64_t lossy_drains_ = 0;
};

/// Self time by span name, with speculation split out. Request-level spans
/// are "planner", "query" and "cache_hit" directly under a pool "task", or at
/// the top of a client thread inside a direct request. Within one task or
/// direct request they form units: a "planner" span opens one that also
/// holds the "query" spans after it (the plan's execution and an exact-plan
/// rescue); otherwise each "query" or "cache_hit" is a unit. The first unit
/// is the user's; later units, and any span under "cache_hit" that is not a
/// cache hit itself, are speculation, and their whole subtree on that thread
/// counts as "speculation". Each user unit is mapped to the request whose
/// interval holds its start; when several requests hold it (concurrent
/// sessions) it is counted as ambiguous and only the aggregate is kept.
/// `user_spans` and `speculative_spans` count units.
struct Attribution {
  std::map<std::string, int64_t> self_ns;
  uint64_t user_spans = 0;
  uint64_t speculative_spans = 0;
  uint64_t attributed = 0;
  uint64_t ambiguous = 0;
};

Attribution Attribute(const std::vector<exploredb::TraceEvent>& events,
                      const std::vector<RequestSpan>& requests);

/// Chrome trace_event JSON: program spans (pid 1, one tid per engine thread)
/// and request spans (pid 2, one tid per client, args carry the request id).
std::string ChromeTrace(const std::vector<exploredb::TraceEvent>& events,
                        const std::vector<RequestSpan>& requests);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_ATTR_H_
