// Exploration benchmark driver: generates a seeded table and query stream,
// drives it through ExplorationServer sessions as a closed loop, checks every
// answer against the benchmark's own reference, and prints the metrics as
// one JSON line. See perfbench/README.md.
//
//   explore_bench --workload dashboard|aqp_budget|filter_scan --seed N
//                 --seconds S --trace 0|1 [--rows N] [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "data.h"
#include "reference.h"
#include "server/server.h"
#include "simd/simd.h"
#include "trace_attr.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using exploredb::ExecContext;
using exploredb::ExecStats;
using exploredb::QueryResult;
using exploredb::Tracer;

constexpr size_t kDefaultRows = 8'000'000;
/// Share of approximate answers whose CI must cover the truth. Set below the
/// requested 95% confidence: the sampled plans read a few hundred rows, of
/// which a handful match, and normal-approximation CIs under-cover there
/// (measured 0.80-0.91 per run).
constexpr double kCoverageFloor = 0.70;
/// Above this share of CPU time taken by the hypervisor (steal) during the
/// timed phase, the parallel scans wait on descheduled vCPUs and throughput
/// drops by more than the bounds; such runs are flagged on stderr.
constexpr double kCalmSteal = 0.05;
constexpr auto kDrainInterval = std::chrono::milliseconds(200);
constexpr uint64_t kMinTimedQueries = 200;
/// The dashboard's cracker and shared result cache converge over its first
/// few thousand queries; timing them would make every figure depend on how
/// far convergence got. Those rounds run untimed (and checked) first.
constexpr int kDashboardRampRounds = 250;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t rows = kDefaultRows;
  std::string trace_out;
};

enum class Workload { kDashboard, kAqpBudget, kFilterScan };

/// One user call as the workload's stream generates it. Streams are
/// deterministic, so the checks after the timed phase regenerate the calls
/// instead of keeping them.
struct Call {
  BenchQuery query;
  const char* step = "";
  ExecContext ctx;
  bool progressive = false;
  int budget_ms = 0;
};

/// What the benchmark keeps of one call until the checks: its timing, stats
/// and a digest of the answer, not the rows.
struct Record {
  bool progressive = false;
  bool ok = false;
  bool ramp = false;  // untimed ramp query
  int budget_ms = 0;
  int64_t wall_ns = 0;
  double first_delivery_ms = -1.0;
  ExecStats stats;
  std::string error;  // failure or check failure
  Answer answer;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] * (1.0 - frac) + v[i + 1] * frac : v[i];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Share of the machine's CPU time stolen by the hypervisor since `since`
/// (the "steal" column of /proc/stat). Printed with every result: on a
/// shared virtual machine it explains much of the run-to-run spread.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTicks& since) {
  const CpuTicks now = ReadCpuTicks();
  const uint64_t total = now.total - since.total;
  return total == 0 ? 0.0 : double(now.steal - since.steal) / double(total);
}

uint64_t CounterValue(const char* name) {
  return exploredb::Metrics().GetCounter(name)->Value();
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--rows") {
      o->rows = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0 &&
         o->rows >= 1'000'000;
}

/// Refuses to measure a program other than the one users run: a debug or
/// non-Release build, or any EXPLOREDB_* override in the environment.
std::string RefusalReason() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EXPLOREDB_", 10) == 0) {
      return std::string("environment sets ") + *e;
    }
  }
  return "";
}

class Bench {
 public:
  Bench(const Options& o, Workload w) : opt_(o), workload_(w) {}

  int Run();

 private:
  exploredb::Status Setup();
  /// The calls of one client, in the order it sends them.
  std::function<Call()> Stream(int client) const;
  void Client(int client);
  void Checks();
  void PrintResult();

  // One user call, timed from outside; returns its record.
  Record Issue(int client, const Call& call);

  const Options opt_;
  const Workload workload_;
  Dataset data_;
  exploredb::Database db_;
  std::unique_ptr<exploredb::ExplorationServer> server_;
  std::vector<exploredb::ServerSession*> sessions_;
  double generate_s_ = 0.0;
  double setup_s_ = 0.0;
  double check_s_ = 0.0;
  double elapsed_s_ = 0.0;
  double memory_mb_ = 0.0;
  double ramp_s_ = 0.0;
  CpuTicks ticks_at_start_;
  double steal_ = 0.0;
  std::mutex phase_mu_;
  std::condition_variable phase_cv_;
  size_t ramped_ = 0;     // guarded by phase_mu_
  bool timing_ = false;   // guarded by phase_mu_
  std::atomic<uint64_t> timed_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_request_{0};
  std::vector<std::deque<Record>> records_;        // per client
  std::vector<std::vector<RequestSpan>> spans_;    // per client
  std::vector<ApproxOutcome> aqp_outcomes_;
  TraceCollector collector_;
  uint64_t rescues_before_ = 0;
  uint64_t budget_met_before_ = 0;
};

int Bench::Run() {
  const exploredb::Status st = Setup();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t clients = sessions_.size();
  records_.resize(clients);
  spans_.resize(clients);
  const auto ramp_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([this, c] { Client(static_cast<int>(c)); });
  }
  // Ramp: every session first runs whole untimed rounds (checked like the
  // rest), then all start the timed phase together.
  std::chrono::steady_clock::time_point start;
  {
    std::unique_lock<std::mutex> lock(phase_mu_);
    phase_cv_.wait(lock, [&] { return ramped_ == clients; });
    ramp_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            ramp_start).count();
    rescues_before_ = CounterValue("exploredb_planner_exact_rescues_total");
    budget_met_before_ = CounterValue("exploredb_planner_budget_met_total");
    if (opt_.trace) {
      Tracer::Clear();
      Tracer::SetEnabled(true);
    }
    start = std::chrono::steady_clock::now();
    ticks_at_start_ = ReadCpuTicks();
    timing_ = true;
    phase_cv_.notify_all();
  }
  const auto stop_at =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(opt_.seconds));
  // Run for the requested time and at least kMinTimedQueries queries, so
  // that ten or more lie beyond the 95th percentile.
  while (std::chrono::steady_clock::now() < stop_at ||
         timed_.load() < kMinTimedQueries) {
    std::this_thread::sleep_for(
        std::clamp<std::chrono::steady_clock::duration>(
            stop_at - std::chrono::steady_clock::now(),
            std::chrono::milliseconds(5), kDrainInterval));
    if (opt_.trace) collector_.Drain();
  }
  stop_.store(true);
  for (std::thread& t : threads) t.join();
  elapsed_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start).count();
  steal_ = StealShare(ticks_at_start_);
  server_->Drain();
  if (opt_.trace) {
    collector_.Drain();
    Tracer::SetEnabled(false);
  }
  memory_mb_ = PeakRssMb();
  const auto c0 = std::chrono::steady_clock::now();
  Checks();
  check_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           c0).count();
  PrintResult();
  return 0;
}

exploredb::Status Bench::Setup() {
  const auto g0 = std::chrono::steady_clock::now();
  data_ = Generate(opt_.seed, opt_.rows);
  exploredb::Table table = ToTable(data_);
  const auto t0 = std::chrono::steady_clock::now();
  generate_s_ = std::chrono::duration<double>(t0 - g0).count();
  EXPLOREDB_RETURN_NOT_OK(db_.CreateTable(kTableName, std::move(table)));
  EXPLOREDB_ASSIGN_OR_RETURN(exploredb::TableEntry * entry,
                             db_.GetTable(kTableName));
  // Warm-up: first-touch the lazy per-column structures the workload's
  // scans use, so that no timed query pays for them.
  std::vector<Col> used;
  switch (workload_) {
    case Workload::kDashboard: used = {kT, kM, kS}; break;
    case Workload::kAqpBudget: used = {kU, kM}; break;
    case Workload::kFilterScan: used = {kT, kU, kZ, kM, kS}; break;
  }
  for (Col c : used) {
    if (c == kS) {
      EXPLOREDB_RETURN_NOT_OK(entry->GetDict(c).status());
    } else {
      EXPLOREDB_RETURN_NOT_OK(entry->GetZoneMap(c).status());
    }
    EXPLOREDB_RETURN_NOT_OK(entry->GetCompressed(c).status());
  }
  setup_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0).count();

  server_ = std::make_unique<exploredb::ExplorationServer>(&db_);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  size_t clients = 1;
  const char* prefix = "filter";
  if (workload_ == Workload::kDashboard) {
    clients = std::min<size_t>(4, nproc);
    prefix = "dash";
  } else if (workload_ == Workload::kAqpBudget) {
    clients = std::min<size_t>(2, nproc);
    prefix = "aqp";
  }
  for (size_t c = 0; c < clients; ++c) {
    sessions_.push_back(
        server_->OpenSession(std::string(prefix) + std::to_string(c)));
  }
  return exploredb::Status::OK();
}

std::function<Call()> Bench::Stream(int client) const {
  switch (workload_) {
    case Workload::kDashboard: {
      auto flow = std::make_shared<DashboardFlow>(opt_.seed, client, opt_.rows);
      return [flow] {
        Call call;
        Step step;
        call.query = flow->Next(&step);
        call.step = StepName(step);
        call.ctx.SetMode(exploredb::ExecutionMode::kAuto);
        return call;
      };
    }
    case Workload::kAqpBudget: {
      auto stream = std::make_shared<AqpStream>(opt_.seed, client);
      return [stream] {
        const AqpQuery aq = stream->Next();
        Call call;
        call.query = aq.query;
        call.step = aq.progressive ? "progressive" : "budgeted";
        call.ctx.SetBudget({std::chrono::milliseconds(aq.budget_ms),
                            AqpStream::kTargetError, AqpStream::kConfidence});
        call.progressive = aq.progressive;
        call.budget_ms = aq.budget_ms;
        return call;
      };
    }
    case Workload::kFilterScan: {
      auto stream = std::make_shared<FilterStream>(opt_.seed, opt_.rows);
      return [stream] {
        Call call;
        call.query = stream->Next(&call.step);
        return call;
      };
    }
  }
  return nullptr;
}

Record Bench::Issue(int client, const Call& call) {
  exploredb::ServerSession* ss = sessions_[client];
  Record rec;
  rec.progressive = call.progressive;
  rec.budget_ms = call.budget_ms;
  const exploredb::Query q = ToQuery(call.query);
  RequestSpan span;
  span.id = next_request_.fetch_add(1);
  span.client = client;
  span.step = call.step;
  span.direct = call.progressive;
  span.start_ns = Tracer::NowNs();
  exploredb::Result<QueryResult> r = exploredb::Status::Internal("not run");
  if (call.progressive) {
    const int64_t start = span.start_ns;
    exploredb::LatencyBudget budget{std::chrono::milliseconds(call.budget_ms),
                                    AqpStream::kTargetError,
                                    AqpStream::kConfidence};
    r = ss->session().ExecuteProgressive(
        q, budget, [&rec, start](const exploredb::ProgressiveUpdate&) {
          if (rec.first_delivery_ms < 0) {
            rec.first_delivery_ms = (Tracer::NowNs() - start) / 1e6;
          }
        });
  } else {
    r = ss->Execute(q, call.ctx);
  }
  span.end_ns = Tracer::NowNs();
  rec.wall_ns = span.end_ns - span.start_ns;
  if (Tracer::enabled()) spans_[client].push_back(span);
  rec.ok = r.ok();
  if (!rec.ok) {
    rec.error = r.status().ToString();
    return rec;
  }
  const QueryResult& result = r.ValueOrDie();
  rec.stats = result.exec_stats;
  if (rec.stats.queue_nanos + rec.stats.total_nanos > rec.wall_ns) {
    rec.error = "queue_nanos + total_nanos exceeds the measured wall time";
  }
  rec.answer = Summarize(result);
  return rec;
}

void Bench::Client(int client) {
  const std::function<Call()> next = Stream(client);
  int round = 10;
  int ramp_rounds = 1;
  if (workload_ == Workload::kDashboard) {
    round = 8;
    ramp_rounds = kDashboardRampRounds;
  } else if (workload_ == Workload::kAqpBudget) {
    round = 12;
  }
  std::deque<Record>& out = records_[client];
  for (int r = 0; r < ramp_rounds; ++r) {
    for (int i = 0; i < round; ++i) {
      out.push_back(Issue(client, next()));
      out.back().ramp = true;
    }
  }
  {
    std::unique_lock<std::mutex> lock(phase_mu_);
    ++ramped_;
    phase_cv_.notify_all();
    phase_cv_.wait(lock, [this] { return timing_; });
  }
  while (!stop_.load()) {
    for (int i = 0; i < round; ++i) {
      out.push_back(Issue(client, next()));
      timed_.fetch_add(1);
    }
  }
}

void Bench::Checks() {
  // Every answer is checked after the timed phase, so the timed figures
  // measure only the program. The clients' streams are replayed to recover
  // each call's query; the references run on all cores.
  std::vector<std::pair<Record*, BenchQuery>> pending;
  for (size_t c = 0; c < records_.size(); ++c) {
    const std::function<Call()> next = Stream(static_cast<int>(c));
    for (Record& r : records_[c]) {
      BenchQuery q = next().query;
      if (r.ok && r.error.empty()) pending.emplace_back(&r, std::move(q));
    }
  }
  std::atomic<size_t> next{0};
  std::mutex mu;
  aqp_outcomes_.clear();
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < pending.size();) {
      auto& [r, q] = pending[i];
      const RefAnswer ref = Reference(data_, q);
      if (workload_ == Workload::kAqpBudget) {
        ApproxOutcome o = CheckApprox(data_, q, ref, r->answer);
        r->error = o.error;
        std::lock_guard<std::mutex> lock(mu);
        aqp_outcomes_.push_back(o);
      } else {
        r->error = CheckExact(data_, q, ref, r->answer);
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < nproc; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Bench::PrintResult() {
  uint64_t attempted = 0, failed = 0, bad = 0;
  std::vector<double> wall_ms, queue_ms, outside_ms, exec_ms, first_ms;
  std::vector<double> promised, achieved, first_budget_share;
  std::map<std::string, double> sum;  // per-query means of ExecStats fields
  std::map<std::string, double> count;
  uint64_t budgeted = 0, within_budget = 0;
  std::string first_error;
  uint64_t timed = 0;
  // The benchmark's own memory for what it keeps of each call; it is part
  // of memory_mb and grows with the number of calls.
  double bookkeeping_bytes = 0.0;
  for (const auto& recs : records_) {
    for (const Record& r : recs) {
      ++attempted;
      bookkeeping_bytes += sizeof(Record) + r.answer.groups.capacity() *
                                                sizeof(r.answer.groups[0]);
      failed += r.ok ? 0 : 1;
      if (r.ok && !r.error.empty()) {
        ++bad;
        if (first_error.empty()) first_error = r.error;
      }
      if (r.ramp) continue;
      ++timed;
      wall_ms.push_back(r.wall_ns / 1e6);
      if (!r.ok) continue;
      const ExecStats& st = r.stats;
      if (!r.progressive) queue_ms.push_back(st.queue_nanos / 1e6);
      outside_ms.push_back((r.wall_ns - st.queue_nanos - st.total_nanos) / 1e6);
      exec_ms.push_back(st.total_nanos / 1e6);
      sum["plan_ms"] += st.plan_nanos / 1e6;
      sum["select_ms"] += st.select_nanos / 1e6;
      sum["aggregate_ms"] += st.aggregate_nanos / 1e6;
      sum["project_ms"] += st.project_nanos / 1e6;
      sum["decompress_ms"] += st.decompress_nanos / 1e6;
      sum["rows_scanned"] += static_cast<double>(st.rows_scanned);
      sum["morsels_dispatched"] += static_cast<double>(st.morsels_dispatched);
      sum["morsels_pruned"] += static_cast<double>(st.morsels_pruned);
      sum["compressed_morsels"] += static_cast<double>(st.compressed_morsels);
      count[std::string("path_") + exploredb::AccessPathName(st.path)] += 1;
      count[std::string("choice_") +
            exploredb::PlannerChoiceName(st.planner_choice)] += 1;
      if (r.first_delivery_ms >= 0) {
        first_ms.push_back(r.first_delivery_ms);
        first_budget_share.push_back(r.first_delivery_ms / r.budget_ms);
      }
      if (r.budget_ms > 0) {
        ++budgeted;
        if (r.wall_ns <= int64_t{r.budget_ms} * 1'000'000) ++within_budget;
        promised.push_back(st.promised_error);
        achieved.push_back(st.achieved_error);
      }
    }
  }
  const double ok_queries = std::max<double>(1.0, double(exec_ms.size()));

  // Tenant accounting: the benchmark's count per session must match both
  // the scheduler's and the session's own.
  for (size_t c = 0; c < sessions_.size(); ++c) {
    uint64_t total = records_[c].size(), scheduled = 0;
    for (const Record& r : records_[c]) scheduled += r.progressive ? 0 : 1;
    const exploredb::TenantSchedStats sched =
        server_->scheduler().tenant_stats(sessions_[c]->tenant());
    const exploredb::SessionStats sess = sessions_[c]->session().stats();
    if (sched.completed != scheduled || sess.queries != total) {
      ++bad;
      if (first_error.empty()) {
        first_error = "tenant " + sessions_[c]->tenant() + ": benchmark " +
                      std::to_string(scheduled) + "/" + std::to_string(total) +
                      ", scheduler " + std::to_string(sched.completed) +
                      ", session " + std::to_string(sess.queries);
      }
    }
  }

  double rel_error_mean = 0.0, coverage = 0.0;
  if (!aqp_outcomes_.empty()) {
    std::vector<double> rel;
    uint64_t approx = 0, covered = 0;
    for (const ApproxOutcome& o : aqp_outcomes_) {
      rel.push_back(o.rel_error);
      if (o.approximate) {
        ++approx;
        covered += o.covered ? 1 : 0;
      }
    }
    rel_error_mean = Mean(rel);
    coverage = approx == 0 ? 1.0 : double(covered) / double(approx);
    if (coverage < kCoverageFloor) {
      ++bad;
      if (first_error.empty()) {
        first_error = "CI coverage " + std::to_string(coverage) +
                      " below the floor " + std::to_string(kCoverageFloor);
      }
    }
  }
  if (steal_ > kCalmSteal) {
    std::fprintf(stderr,
                 "perfbench: warning: the hypervisor took %.1f%% of CPU time "
                 "during the timed phase; figures are comparable only with "
                 "runs at under %.0f%%\n",
                 100.0 * steal_, 100.0 * kCalmSteal);
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench: incorrect output (%llu): %s\n",
                 static_cast<unsigned long long>(bad), first_error.c_str());
  }

  const double qps = double(timed) / elapsed_s_;
  std::vector<Metric> m;
  std::string layers;  // per-layer times that read 0 where a layer is idle
  if (!opt_.trace) {
    m = {{"setup_s", setup_s_, "s"},
         {"throughput_qps", qps, "queries/s"},
         {"latency_p50_ms", Quantile(wall_ms, 0.5), "ms"},
         {"latency_p95_ms", Quantile(wall_ms, 0.95), "ms"},
         {"memory_mb", memory_mb_, "MB"}};
  } else {
    std::vector<RequestSpan> spans;
    for (const auto& s : spans_) spans.insert(spans.end(), s.begin(), s.end());
    const Attribution attr = Attribute(collector_.events(), spans);
    if (!opt_.trace_out.empty()) {
      const std::string json = ChromeTrace(collector_.events(), spans);
      std::FILE* f = std::fopen(opt_.trace_out.c_str(), "w");
      const bool ok = f != nullptr &&
                      std::fwrite(json.data(), 1, json.size(), f) == json.size();
      if (f == nullptr || std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt_.trace_out.c_str());
        std::exit(1);
      }
    }
    if (collector_.lossy_drains() > 0) {
      std::fprintf(stderr, "perfbench: trace rings wrapped between drains\n");
      std::exit(1);
    }
    exploredb::TableEntry* entry = db_.GetTable(kTableName).ValueOrDie();
    uint64_t cracks = 0, shared_reads = 0;
    for (Col c : {kT, kU}) {
      exploredb::EpochCrackerColumn* cr = entry->GetCracker(c).ValueOrDie();
      cracks += cr->exclusive_cracks();
      shared_reads += cr->shared_reads();
    }
    uint64_t speculative = 0;
    for (auto* s : sessions_) speculative += s->session().stats().speculative_queries;
    const exploredb::CacheStats cache = server_->shared_cache().stats();
    auto per_query = [&](const char* k) { return sum[k] / ok_queries; };
    m = {{"server.queue_ms", Quantile(queue_ms, 0.5), "ms"},
         {"session.outside_exec_ms", Quantile(outside_ms, 0.5), "ms"},
         {"prefetch.speculative_queries", double(speculative), "count"},
         {"prefetch.cache_hits", double(cache.hits), "count"},
         {"prefetch.cache_misses", double(cache.misses), "count"},
         {"prefetch.cache_evictions", double(cache.evictions), "count"},
         {"prefetch.cache_entries", double(server_->shared_cache().size()), "count"},
         {"prefetch.hits_per_speculation",
          speculative == 0 ? 0.0 : double(cache.hits) / double(speculative),
          "ratio"},
         {"executor.exec_ms", Quantile(exec_ms, 0.5), "ms"}};
    for (const char* k : {"plan_ms", "select_ms", "aggregate_ms"}) {
      m.push_back({std::string("executor.") + k, per_query(k), "ms"});
    }
    // Idle on some workloads: in the comment line, not among the metrics.
    for (const char* k : {"project_ms", "decompress_ms"}) {
      layers += std::string(" executor.") + k + "=" + std::to_string(per_query(k));
    }
    for (const char* k : {"rows_scanned", "morsels_dispatched", "morsels_pruned",
                          "compressed_morsels"}) {
      m.push_back({std::string("executor.") + k, per_query(k), "count"});
    }
    for (const char* k : {"scan", "cracker", "sample", "online", "cache"}) {
      m.push_back({std::string("executor.path_") + k,
                   count[std::string("path_") + k], "count"});
    }
    for (const char* k : {"exact", "sample", "online"}) {
      m.push_back({std::string("planner.choice_") + k,
                   count[std::string("choice_") + k], "count"});
    }
    m.push_back({"planner.exact_rescues",
                 double(CounterValue("exploredb_planner_exact_rescues_total") -
                        rescues_before_), "count"});
    m.push_back({"planner.budget_met",
                 double(CounterValue("exploredb_planner_budget_met_total") -
                        budget_met_before_), "count"});
    m.push_back({"planner.promised_error_mean", Mean(promised), "ratio"});
    m.push_back({"planner.achieved_error_mean", Mean(achieved), "ratio"});
    m.push_back({"planner.first_delivery_budget_share",
                 Quantile(first_budget_share, 0.5), "ratio"});
    layers += " planner.first_delivery_ms=" +
              std::to_string(Quantile(first_ms, 0.5));
    m.push_back({"cracking.exclusive_cracks", double(cracks), "count"});
    m.push_back({"cracking.shared_reads", double(shared_reads), "count"});
    m.push_back({"storage.raw_bytes",
                 double(CounterValue("exploredb_storage_raw_bytes_total")), "B"});
    m.push_back({"storage.compressed_bytes",
                 double(CounterValue("exploredb_storage_compressed_bytes_total")),
                 "B"});
    m.push_back({"aqp.rel_error_mean", rel_error_mean, "ratio"});
    m.push_back({"aqp.ci_coverage", coverage, "ratio"});
    m.push_back({"aqp.within_budget_share",
                 budgeted == 0 ? 0.0 : double(within_budget) / double(budgeted),
                 "ratio"});
    // Span self times as shares of the summed wall time of the timed user
    // requests: every layer reads a figure, an idle one reads 0. Worker
    // spans run in parallel, so their shares can add up past 1.
    double wall_total_ns = 0.0;
    for (double w : wall_ms) wall_total_ns += w * 1e6;
    for (const char* span : {"query", "planner", "plan", "select", "aggregate",
                             "project", "decompress", "cache_hit", "morsel",
                             "agg_morsel", "groupby_morsel", "online_round",
                             "task", "speculation"}) {
      auto it = attr.self_ns.find(span);
      const double ns = it == attr.self_ns.end() ? 0.0 : double(it->second);
      m.push_back({std::string("trace.") + span + ".self_share",
                   ns / std::max(1.0, wall_total_ns), "ratio"});
      layers += std::string(" trace.") + span + ".self_ms=" +
                std::to_string(ns / 1e6 / ok_queries);
    }
    m.push_back({"trace.requests_attributed", double(attr.attributed), "count"});
    m.push_back({"trace.requests_ambiguous", double(attr.ambiguous), "count"});
    m.push_back({"trace.events", double(collector_.events().size()), "count"});
    m.push_back({"trace.latency_p50_ms", Quantile(wall_ms, 0.5), "ms"});
    m.push_back({"trace.throughput_qps", qps, "queries/s"});
  }

  const bool smoke = opt_.rows != kDefaultRows;
  std::printf(
      "# perfbench workload=%s seed=%llu build=%s rows=%zu nproc=%u simd=%s "
      "sessions=%zu trace=%d smoke=%d seconds=%.1f attempted=%llu failed=%llu "
      "incorrect=%llu timed=%llu rel_error_mean=%.6g ci_coverage=%.4g "
      "generate_s=%.2f ramp_s=%.2f check_s=%.2f bookkeeping_mb=%.1f "
      "steal=%.3f\n",
      opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
      PERFBENCH_BUILD_TYPE, opt_.rows, std::thread::hardware_concurrency(),
      exploredb::simd::SimdPathName(exploredb::simd::ActivePath()),
      sessions_.size(), opt_.trace ? 1 : 0, smoke ? 1 : 0, elapsed_s_,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(bad),
      static_cast<unsigned long long>(timed), rel_error_mean, coverage,
      generate_s_, ramp_s_, check_s_, bookkeeping_bytes / (1 << 20), steal_);
  if (!layers.empty()) std::printf("# layers%s\n", layers.c_str());
  std::string json = "{\"correct\": ";
  json += bad == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value, m[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Workload;
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: explore_bench --workload dashboard|aqp_budget|"
                 "filter_scan --seed N --seconds S --trace 0|1 "
                 "[--rows N>=1000000] [--trace-out FILE]\n");
    return 2;
  }
  const std::string refusal = perfbench::RefusalReason();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", refusal.c_str());
    return 2;
  }
  Workload w;
  if (opt.workload == "dashboard") {
    w = Workload::kDashboard;
  } else if (opt.workload == "aqp_budget") {
    w = Workload::kAqpBudget;
  } else if (opt.workload == "filter_scan") {
    w = Workload::kFilterScan;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(opt, w);
  return bench.Run();
}
