#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "data.h"
#include "reference.h"

namespace perfbench {

/// Linked-view dashboard steps over the time column (IDEBench-style
/// workflow). Every session runs its own flow; jumps land on a small set of
/// landmark windows shared by all sessions of a seed.
enum class Step { kBrush, kPan, kZoom, kGroupBy, kDrill, kJump };
const char* StepName(Step step);

class DashboardFlow {
 public:
  static constexpr int64_t kMinRows = 8 * 1024;
  static constexpr int64_t kBaseRows = 32 * 1024;
  static constexpr int64_t kMaxRows = 128 * 1024;
  static constexpr size_t kLandmarks = 16;

  DashboardFlow(uint64_t seed, int session, size_t rows);

  /// The next interaction; `step` receives its kind.
  BenchQuery Next(Step* step);

 private:
  BenchQuery Window(Agg agg) const;
  void Clamp();

  Rng rng_;
  int64_t domain_;
  int64_t lo_;
  int64_t width_;
  std::vector<int64_t> landmarks_;
};

/// Budgeted scalar aggregates over random ranges of the uniform column:
/// COUNT / SUM / AVG in turn, a tight and a loose budget in turn, and every
/// fourth query through the progressive entry point.
struct AqpQuery {
  BenchQuery query;
  int budget_ms = 0;
  bool progressive = false;
};

class AqpStream {
 public:
  static constexpr int kTightBudgetMs = 20;
  static constexpr int kLooseBudgetMs = 100;
  static constexpr double kTargetError = 0.01;
  static constexpr double kConfidence = 0.95;

  AqpStream(uint64_t seed, int session);
  AqpQuery Next();

 private:
  Rng rng_;
  uint64_t k_ = 0;
};

/// Filter-panel queries of three or more conjuncts, five templates in turn,
/// with fresh constants on every query (no predicate repeats).
class FilterStream {
 public:
  FilterStream(uint64_t seed, size_t rows);
  /// The next query; `shape` receives its template's name.
  BenchQuery Next(const char** shape);

 private:
  Rng rng_;
  int64_t domain_;
  uint64_t k_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
