// Tests of the benchmark's own checks: the reference agrees with the engine
// on every workload's query shapes, and a corrupted answer or a shifted
// reference is reported as incorrect.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "data.h"
#include "engine/session.h"
#include "reference.h"
#include "trace_attr.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 50'000;

class ChecksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Dataset(Generate(7, kRows));
    db_ = new exploredb::Database();
    ASSERT_TRUE(db_->CreateTable(kTableName, ToTable(*data_)).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete data_;
  }

  static exploredb::QueryResult Run(const BenchQuery& q,
                                    exploredb::ExecutionMode mode =
                                        exploredb::ExecutionMode::kScan) {
    exploredb::Session session(db_);
    exploredb::ExecContext ctx;
    ctx.SetMode(mode);
    auto r = session.Execute(ToQuery(q), ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).ValueOrDie();
  }

  static std::string Check(const BenchQuery& q,
                           const exploredb::QueryResult& r) {
    return CheckExact(*data_, q, Reference(*data_, q), Summarize(r));
  }

  static Dataset* data_;
  static exploredb::Database* db_;
};

Dataset* ChecksTest::data_ = nullptr;
exploredb::Database* ChecksTest::db_ = nullptr;

BenchQuery Window(int64_t lo, int64_t hi, Agg agg) {
  BenchQuery q;
  q.conds = {{kT, Op::kGe, lo, 0.0}, {kT, Op::kLt, hi, 0.0}};
  q.agg = agg;
  if (agg == Agg::kNone) q.select = {kT, kM};
  return q;
}

TEST(DataTest, DeterministicSortedAndSkewed) {
  const Dataset a = Generate(3, 100'000);
  const Dataset b = Generate(3, 100'000);
  const Dataset c = Generate(4, 100'000);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.m, b.m);
  EXPECT_NE(a.u, c.u);
  EXPECT_TRUE(std::is_sorted(a.t.begin(), a.t.end()));
  size_t zero = 0, one = 0, cat0 = 0;
  for (size_t i = 0; i < a.n; ++i) {
    zero += a.z[i] == 0;
    one += a.z[i] == 1;
    cat0 += a.s[i] == 0;
  }
  // Zipf(s = 1.3): P(0) / P(1) = 2^1.3.
  EXPECT_NEAR(double(zero) / double(one), std::pow(2.0, kZipfExponent), 0.2);
  EXPECT_NEAR(double(cat0) / double(a.n), 0.4, 0.02);
}

TEST(WorkloadTest, StreamsAreDeterministic) {
  DashboardFlow f1(9, 0, kRows), f2(9, 0, kRows);
  FilterStream s1(9, kRows), s2(9, kRows);
  for (int i = 0; i < 50; ++i) {
    Step a, b;
    const char* x = "";
    const char* y = "";
    EXPECT_EQ(ToQuery(f1.Next(&a)).CacheKey(), ToQuery(f2.Next(&b)).CacheKey());
    EXPECT_EQ(ToQuery(s1.Next(&x)).CacheKey(), ToQuery(s2.Next(&y)).CacheKey());
    EXPECT_STREQ(x, y);
  }
}

TEST_F(ChecksTest, EngineAnswersMatchTheReference) {
  for (int session = 0; session < 2; ++session) {
    DashboardFlow flow(5, session, kRows);
    for (int i = 0; i < 60; ++i) {
      Step step;
      const BenchQuery q = flow.Next(&step);
      EXPECT_EQ(Check(q, Run(q, exploredb::ExecutionMode::kAuto)), "")
          << StepName(step);
    }
  }
  FilterStream stream(5, kRows);
  for (int i = 0; i < 20; ++i) {
    const char* shape = "";
    const BenchQuery q = stream.Next(&shape);
    EXPECT_EQ(Check(q, Run(q)), "") << shape;
  }
}

TEST_F(ChecksTest, CorruptedSelectionIsIncorrect) {
  const BenchQuery q = Window(4000, 12000, Agg::kNone);
  exploredb::QueryResult r = Run(q);
  ASSERT_EQ(Check(q, r), "");
  ASSERT_GT(r.positions.size(), 10u);

  exploredb::QueryResult dropped = r;
  dropped.positions.pop_back();
  EXPECT_NE(Check(q, dropped), "");

  exploredb::QueryResult wrong_value = r;
  (*wrong_value.rows->mutable_column(1)->mutable_double_data())[3] += 1.0;
  EXPECT_NE(Check(q, wrong_value), "");

  exploredb::QueryResult wrong_time = r;
  (*wrong_time.rows->mutable_column(0)->mutable_int64_data())[5] += 1;
  EXPECT_NE(Check(q, wrong_time), "");

  exploredb::QueryResult swapped = r;  // the same rows in another order
  std::swap(swapped.positions[1], swapped.positions[2]);
  EXPECT_NE(Check(q, swapped), "");

  // The reference of the window shifted by one row no longer matches.
  const BenchQuery shifted = Window(4000 + kTimeStep, 12000 + kTimeStep,
                                    Agg::kNone);
  EXPECT_NE(CheckExact(*data_, q, Reference(*data_, shifted), Summarize(r)), "");
}

TEST_F(ChecksTest, CorruptedAggregatesAreIncorrect) {
  const BenchQuery count = Window(0, 40000, Agg::kCount);
  exploredb::QueryResult c = Run(count);
  ASSERT_EQ(Check(count, c), "");
  c.scalar->value += 1;
  EXPECT_NE(Check(count, c), "");

  const BenchQuery sum = Window(0, 40000, Agg::kSum);
  exploredb::QueryResult s = Run(sum);
  ASSERT_EQ(Check(sum, s), "");
  s.scalar->value *= 1.0 + 1e-12;  // summation-order noise: accepted
  EXPECT_EQ(Check(sum, s), "");
  s.scalar->value *= 1.0 + 1e-6;
  EXPECT_NE(Check(sum, s), "");

  BenchQuery grouped = Window(0, 40000, Agg::kCount);
  grouped.group_by = kS;
  exploredb::QueryResult g = Run(grouped);
  ASSERT_EQ(Check(grouped, g), "");
  exploredb::QueryResult moved = g;
  moved.groups[0].value.value += 1;  // counts no longer sum to the window's
  EXPECT_NE(Check(grouped, moved), "");
  exploredb::QueryResult missing = g;
  missing.groups.pop_back();
  EXPECT_NE(Check(grouped, missing), "");
  exploredb::QueryResult renamed = g;
  renamed.groups[0].key = "cat99";
  EXPECT_NE(Check(grouped, renamed), "");

  exploredb::QueryResult approximate = c;
  approximate.approximate = true;
  EXPECT_NE(Check(count, approximate), "");
}

TEST_F(ChecksTest, ApproximateAnswers) {
  BenchQuery q;
  q.conds = {{kU, Op::kGe, 100'000, 0.0}, {kU, Op::kLt, 300'000, 0.0}};
  q.agg = Agg::kAvg;
  const RefAnswer ref = Reference(*data_, q);
  const double truth = ScalarTruth(q, ref);

  exploredb::QueryResult r;
  r.approximate = true;
  r.scalar = exploredb::Estimate{truth * 1.01, truth * 0.02, 0.95, 300};
  ApproxOutcome o = CheckApprox(*data_, q, ref, Summarize(r));
  EXPECT_EQ(o.error, "");
  EXPECT_TRUE(o.covered);
  EXPECT_NEAR(o.rel_error, 0.01, 1e-9);

  r.scalar->ci_half_width = truth * 0.001;
  EXPECT_FALSE(CheckApprox(*data_, q, ref, Summarize(r)).covered);

  exploredb::QueryResult bad = r;
  bad.scalar->value = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(CheckApprox(*data_, q, ref, Summarize(bad)).error, "");
  bad = r;
  bad.scalar->ci_half_width = -1.0;
  EXPECT_NE(CheckApprox(*data_, q, ref, Summarize(bad)).error, "");
  bad = r;
  bad.scalar->sample_size = kRows + 1;
  EXPECT_NE(CheckApprox(*data_, q, ref, Summarize(bad)).error, "");

  // An answer marked exact must equal the reference.
  exploredb::QueryResult exact = r;
  exact.approximate = false;
  EXPECT_NE(CheckApprox(*data_, q, ref, Summarize(exact)).error, "");
  exact.scalar->value = truth;
  EXPECT_EQ(CheckApprox(*data_, q, ref, Summarize(exact)).error, "");
}

exploredb::TraceEvent Ev(const char* name, int64_t start, int64_t dur,
                         uint16_t depth, uint32_t tid = 1) {
  exploredb::TraceEvent e;
  std::strncpy(e.name, name, exploredb::TraceEvent::kMaxName);
  e.start_ns = start;
  e.dur_ns = dur;
  e.depth = depth;
  e.tid = tid;
  return e;
}

TEST(AttributionTest, SpeculationFollowsTheUserSpan) {
  // One scheduler task: the user's query, then two speculative queries.
  const std::vector<exploredb::TraceEvent> events = {
      Ev("task", 100, 1000, 0), Ev("query", 110, 300, 1),
      Ev("select", 120, 200, 2), Ev("query", 420, 200, 1),
      Ev("select", 430, 150, 2), Ev("query", 630, 300, 1),
      // A cache hit whose nested query is speculation.
      Ev("task", 2000, 500, 0), Ev("cache_hit", 2010, 400, 1),
      Ev("project", 2020, 50, 2), Ev("query", 2080, 300, 2)};
  const std::vector<RequestSpan> requests = {{1, 0, 90, 1050, "a", false},
                                             {2, 0, 1990, 2600, "b", false}};
  const Attribution a = Attribute(events, requests);
  EXPECT_EQ(a.user_spans, 2u);
  EXPECT_EQ(a.speculative_spans, 3u);
  EXPECT_EQ(a.attributed, 2u);
  EXPECT_EQ(a.ambiguous, 0u);
  EXPECT_EQ(a.self_ns.at("speculation"), 200 + 300 + 300);
  EXPECT_EQ(a.self_ns.at("select"), 200);
  EXPECT_EQ(a.self_ns.at("query"), 100);
  EXPECT_EQ(a.self_ns.at("task"), 1000 - 800 + 500 - 400);
  EXPECT_EQ(a.self_ns.at("cache_hit"), 400 - 50 - 300);

  // Two overlapping requests hold the same task: ambiguous.
  const std::vector<RequestSpan> overlapping = {{1, 0, 90, 1050, "a", false},
                                                {2, 1, 95, 1200, "b", false}};
  const Attribution b = Attribute({events[0], events[1]}, overlapping);
  EXPECT_EQ(b.attributed, 0u);
  EXPECT_EQ(b.ambiguous, 1u);
}

TEST(AttributionTest, PlannerSpansOpenUnits) {
  // A budgeted call in a scheduler task: the user's planner, its exact plan
  // and the rescue that follows it, then one speculative planner unit.
  const std::vector<exploredb::TraceEvent> events = {
      Ev("task", 100, 2000, 0), Ev("planner", 110, 20, 1),
      Ev("query", 140, 300, 1), Ev("select", 150, 200, 2),
      Ev("query", 450, 100, 1), Ev("planner", 560, 30, 1),
      Ev("query", 600, 400, 1), Ev("select", 610, 300, 2),
      // A progressive call on the client thread: the same shape at top level.
      Ev("planner", 3000, 10, 0, 2), Ev("query", 3020, 200, 0, 2),
      Ev("planner", 3230, 10, 0, 2), Ev("query", 3250, 100, 0, 2)};
  const std::vector<RequestSpan> requests = {{1, 0, 90, 2200, "a", false},
                                             {2, 1, 2990, 3400, "b", true}};
  const Attribution a = Attribute(events, requests);
  EXPECT_EQ(a.user_spans, 2u);
  EXPECT_EQ(a.speculative_spans, 2u);
  EXPECT_EQ(a.attributed, 2u);
  EXPECT_EQ(a.ambiguous, 0u);
  EXPECT_EQ(a.self_ns.at("planner"), 20 + 10);
  EXPECT_EQ(a.self_ns.at("query"), 100 + 100 + 200);
  EXPECT_EQ(a.self_ns.at("select"), 200);
  EXPECT_EQ(a.self_ns.at("speculation"), 30 + 400 + 10 + 100);
  EXPECT_EQ(a.self_ns.at("task"), 2000 - 20 - 300 - 100 - 30 - 400);
}

TEST(AttributionTest, ChromeTraceHoldsBothKinds) {
  const std::string json =
      ChromeTrace({Ev("query", 1000, 500, 0)}, {{7, 0, 900, 1600, "a", false}});
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"req\":7"), std::string::npos);
  EXPECT_NE(json.find("},{"), std::string::npos);
  EXPECT_EQ(json.find("[,"), std::string::npos);
  EXPECT_EQ(ChromeTrace({}, {{7, 0, 900, 1600, "a", false}}).find("[,"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
