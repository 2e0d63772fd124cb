#include "workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

Cond I(Col col, Op op, int64_t v) { return Cond{col, op, v, 0.0}; }
Cond D(Col col, Op op, double v) { return Cond{col, op, 0, v}; }

// A measure threshold within half a standard deviation of the mean.
double Threshold(Rng* rng) {
  return kMeasureMean + kMeasureSd * (rng->NextDouble() - 0.5);
}

}  // namespace

const char* StepName(Step step) {
  switch (step) {
    case Step::kBrush: return "brush";
    case Step::kPan: return "pan";
    case Step::kZoom: return "zoom";
    case Step::kGroupBy: return "groupby";
    case Step::kDrill: return "drill";
    case Step::kJump: return "jump";
  }
  return "?";
}

DashboardFlow::DashboardFlow(uint64_t seed, int session, size_t rows)
    : rng_(seed * 1000003 + 101 + static_cast<uint64_t>(session)),
      domain_(static_cast<int64_t>(rows) * kTimeStep),
      width_(kBaseRows * kTimeStep) {
  Rng shared(seed * 1000003 + 7);
  for (size_t i = 0; i < kLandmarks; ++i) {
    landmarks_.push_back(shared.Between(0, domain_ - width_));
  }
  lo_ = landmarks_[rng_.Uniform(kLandmarks)];
}

void DashboardFlow::Clamp() {
  width_ = std::clamp(width_, kMinRows * kTimeStep, kMaxRows * kTimeStep);
  if (lo_ < 0) lo_ = 0;
  if (lo_ + width_ > domain_) lo_ = 0;
}

BenchQuery DashboardFlow::Window(Agg agg) const {
  BenchQuery q;
  q.conds = {I(kT, Op::kGe, lo_), I(kT, Op::kLt, lo_ + width_)};
  q.agg = agg;
  if (agg == Agg::kNone) q.select = {kT, kM};
  return q;
}

BenchQuery DashboardFlow::Next(Step* step) {
  const uint64_t r = rng_.Uniform(100);
  if (r < 30) {
    *step = Step::kBrush;
    return Window(Agg::kCount);
  }
  if (r < 55) {
    *step = Step::kPan;
    lo_ += width_;
    Clamp();
    return Window(Agg::kNone);
  }
  if (r < 65) {
    *step = Step::kZoom;
    const int64_t center = lo_ + width_ / 2;
    width_ = rng_.Uniform(2) == 0 ? width_ / 2 : width_ * 2;
    Clamp();
    lo_ = center - width_ / 2;
    Clamp();
    return Window(Agg::kNone);
  }
  if (r < 80) {
    *step = Step::kGroupBy;
    BenchQuery q = Window(Agg::kCount);
    q.group_by = kS;
    return q;
  }
  if (r < 90) {
    *step = Step::kDrill;
    BenchQuery q = Window(Agg::kAvg);
    // The four most frequent categories: a drill-down target is never empty.
    q.conds.push_back(I(kS, Op::kEq, static_cast<int64_t>(rng_.Uniform(4))));
    return q;
  }
  *step = Step::kJump;
  lo_ = landmarks_[rng_.Uniform(kLandmarks)];
  width_ = kBaseRows * kTimeStep;
  return Window(Agg::kNone);
}

AqpStream::AqpStream(uint64_t seed, int session)
    : rng_(seed * 7919 + 3 + static_cast<uint64_t>(session) * 104729) {}

AqpQuery AqpStream::Next() {
  AqpQuery out;
  const int64_t width = rng_.Between(kUniformDomain / 100, kUniformDomain * 3 / 100);
  const int64_t lo = rng_.Between(0, kUniformDomain - width);
  out.query.conds = {I(kU, Op::kGe, lo), I(kU, Op::kLt, lo + width)};
  const Agg aggs[] = {Agg::kCount, Agg::kSum, Agg::kAvg};
  out.query.agg = aggs[k_ % 3];
  out.budget_ms = k_ % 2 == 0 ? kTightBudgetMs : kLooseBudgetMs;
  out.progressive = k_ % 4 == 3;
  ++k_;
  return out;
}

FilterStream::FilterStream(uint64_t seed, size_t rows)
    : rng_(seed * 6364136223846793005ULL + 1442695040888963407ULL),
      domain_(static_cast<int64_t>(rows) * kTimeStep) {}

BenchQuery FilterStream::Next(const char** shape) {
  BenchQuery q;
  switch (k_++ % 5) {
    case 0: {  // time window + measure threshold
      *shape = "window_threshold";
      const int64_t w = rng_.Between(domain_ / 10, domain_ / 5);
      const int64_t lo = rng_.Between(0, domain_ - w);
      q.conds = {I(kT, Op::kGe, lo), I(kT, Op::kLt, lo + w),
                 D(kM, Op::kGt, Threshold(&rng_))};
      q.agg = Agg::kCount;
      break;
    }
    case 1: {  // uniform range + category equality
      *shape = "range_category";
      const int64_t w = rng_.Between(kUniformDomain / 5, kUniformDomain * 3 / 10);
      const int64_t lo = rng_.Between(0, kUniformDomain - w);
      q.conds = {I(kU, Op::kGe, lo), I(kU, Op::kLt, lo + w),
                 I(kS, Op::kEq, static_cast<int64_t>(rng_.Uniform(6)))};
      q.agg = Agg::kSum;
      break;
    }
    case 2: {  // thresholds, GROUP BY the Zipf column
      *shape = "groupby_zipf";
      q.conds = {I(kU, Op::kGe, rng_.Between(kUniformDomain / 5,
                                             kUniformDomain * 2 / 5)),
                 D(kM, Op::kLt, Threshold(&rng_)),
                 I(kZ, Op::kLt, rng_.Between(200, 1000))};
      q.agg = Agg::kCount;
      q.group_by = kZ;
      break;
    }
    case 3: {  // thresholds, GROUP BY the category column
      *shape = "groupby_category";
      q.conds = {I(kT, Op::kGe, rng_.Between(domain_ / 5, domain_ / 2)),
                 I(kU, Op::kLt, rng_.Between(kUniformDomain / 2,
                                             kUniformDomain * 4 / 5)),
                 D(kM, Op::kGt, Threshold(&rng_))};
      q.agg = Agg::kAvg;
      q.group_by = kS;
      break;
    }
    default: {  // narrow window + Zipf equality + threshold, rows returned
      *shape = "rows_zipf";
      const int64_t w = rng_.Between(domain_ / 100, domain_ / 20);
      const int64_t lo = rng_.Between(0, domain_ - w);
      q.conds = {I(kT, Op::kGe, lo), I(kT, Op::kLt, lo + w),
                 I(kZ, Op::kEq, rng_.Between(0, 9)),
                 D(kM, Op::kGt, Threshold(&rng_))};
      q.select = {kT, kU, kM};
      break;
    }
  }
  return q;
}

}  // namespace perfbench
