#include "trace_attr.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

using exploredb::TraceEvent;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ULL;
}

uint64_t EventKey(const TraceEvent& e) {
  uint64_t h = Mix(e.tid, static_cast<uint64_t>(e.start_ns));
  h = Mix(h, static_cast<uint64_t>(e.dur_ns));
  h = Mix(h, e.depth);
  for (const char* p = e.name; *p != '\0'; ++p) h = Mix(h, uint8_t(*p));
  return h;
}

bool Named(const TraceEvent& e, const char* name) {
  return std::strncmp(e.name, name, sizeof(e.name)) == 0;
}

int64_t End(const TraceEvent& e) { return e.start_ns + e.dur_ns; }

}  // namespace

void TraceCollector::Drain() {
  std::vector<TraceEvent> snap = exploredb::Tracer::Snapshot();
  std::map<uint32_t, std::pair<size_t, size_t>> per_tid;  // buffered, new
  for (const TraceEvent& e : snap) {
    auto& [buffered, fresh] = per_tid[e.tid];
    ++buffered;
    if (seen_.insert(EventKey(e)).second) {
      ++fresh;
      events_.push_back(e);
    }
  }
  for (const auto& [tid, counts] : per_tid) {
    if (counts.first == exploredb::Tracer::kRingCapacity &&
        counts.second == counts.first) {
      ++lossy_drains_;
    }
  }
}

Attribution Attribute(const std::vector<TraceEvent>& all,
                      const std::vector<RequestSpan>& requests) {
  std::map<uint32_t, std::vector<TraceEvent>> by_tid;
  for (const TraceEvent& e : all) by_tid[e.tid].push_back(e);

  Attribution out;
  // A user span starts inside the request that caused it (its task may end
  // after the client has already seen the result).
  auto attribute = [&](int64_t at, bool direct) {
    int holders = 0;
    for (const RequestSpan& r : requests) {
      holders += r.direct == direct && r.start_ns <= at && at <= r.end_ns;
    }
    (holders == 1 ? out.attributed : out.ambiguous) += 1;
  };

  for (auto& [tid, ev] : by_tid) {
    std::sort(ev.begin(), ev.end(), [](const TraceEvent& a, const TraceEvent& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                       : a.depth < b.depth;
    });
    const size_t n = ev.size();
    std::vector<long> parent(n, -1);
    std::vector<int64_t> child_ns(n, 0);
    std::vector<long> stack;
    for (size_t i = 0; i < n; ++i) {
      while (!stack.empty() &&
             (ev[stack.back()].depth >= ev[i].depth ||
              End(ev[stack.back()]) < End(ev[i]))) {
        stack.pop_back();
      }
      if (!stack.empty() && ev[stack.back()].depth + 1 == ev[i].depth) {
        parent[i] = stack.back();
        child_ns[stack.back()] += ev[i].dur_ns;
      }
      stack.push_back(static_cast<long>(i));
    }

    // Request-level spans ("planner", "query", "cache_hit"), grouped by
    // their container: the pool task that ran them, or (top-level spans) the
    // first span of a run of spans that lie inside one direct request. Each
    // container holds units of work: a "planner" span opens one, and the
    // "query" spans after it until the next planner belong to it (the plan's
    // execution and an exact-plan rescue); outside a planner unit each
    // "query" or "cache_hit" opens its own. The first unit of a container is
    // the user's; the later ones are speculation.
    struct Container {
      uint64_t units = 0;
      bool planner_unit = false;
    };
    std::vector<bool> speculative(n, false);
    std::map<long, Container> containers;
    long direct_container = -1;
    for (size_t i = 0; i < n; ++i) {
      const bool is_planner = Named(ev[i], "planner");
      const bool is_query = Named(ev[i], "query");
      if (!is_planner && !is_query && !Named(ev[i], "cache_hit")) continue;
      const long p = parent[i];
      if (p >= 0 && Named(ev[p], "cache_hit") && (is_planner || is_query)) {
        // Speculation a cache hit runs before it returns.
        speculative[i] = true;
        ++out.speculative_spans;
        continue;
      }
      long key;
      if (p >= 0 && Named(ev[p], "task")) {
        key = p;
      } else if (p < 0) {
        // A later top-level span belongs to the open direct request when one
        // holds both it and the current container's first span.
        bool same_request = false;
        if (direct_container >= 0) {
          for (const RequestSpan& r : requests) {
            if (r.direct && r.start_ns <= ev[direct_container].start_ns &&
                End(ev[i]) <= r.end_ns) {
              same_request = true;
              break;
            }
          }
        }
        if (!same_request) direct_container = static_cast<long>(i);
        key = direct_container;
      } else {
        continue;  // nested inside another span: not request-level
      }
      Container& c = containers[key];
      if (is_planner || !c.planner_unit) {
        ++c.units;
        c.planner_unit = is_planner;
        if (c.units == 1) {
          ++out.user_spans;
          attribute(ev[i].start_ns, p < 0);
        } else {
          ++out.speculative_spans;
        }
      }
      speculative[i] = c.units > 1;
    }

    std::vector<bool> in_speculation(n, false);
    for (size_t i = 0; i < n; ++i) {
      in_speculation[i] =
          speculative[i] || (parent[i] >= 0 && in_speculation[parent[i]]);
      const int64_t self = std::max<int64_t>(0, ev[i].dur_ns - child_ns[i]);
      out.self_ns[in_speculation[i] ? "speculation" : ev[i].name] += self;
    }
  }
  return out;
}

std::string ChromeTrace(const std::vector<TraceEvent>& events,
                        const std::vector<RequestSpan>& requests) {
  // The program's spans as the engine serialises them, with the request
  // spans spliced in before the closing bracket of the event array.
  std::string out = exploredb::Tracer::ChromeTraceJson(events);
  const size_t close = out.rfind(']');
  bool first = out[close - 1] == '[';
  std::string extra;
  char buf[256];
  for (const RequestSpan& r : requests) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"request\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":2,\"tid\":%d,\"args\":{\"req\":%llu,"
                  "\"step\":\"%s\",\"direct\":%s}}",
                  first ? "" : ",", r.start_ns / 1e3,
                  (r.end_ns - r.start_ns) / 1e3, r.client,
                  static_cast<unsigned long long>(r.id), r.step,
                  r.direct ? "true" : "false");
    extra += buf;
    first = false;
  }
  out.insert(close, extra);
  return out;
}

}  // namespace perfbench
