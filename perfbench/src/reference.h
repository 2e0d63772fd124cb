#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data.h"
#include "engine/query.h"

namespace perfbench {

/// A query as the benchmark describes it. It is translated into an engine
/// Query for the program and evaluated separately, by a plain row loop over
/// the benchmark's own Dataset, for the reference answer.
enum class Op { kGe, kLt, kGt, kLe, kEq };
enum class Agg { kNone, kCount, kSum, kAvg };

struct Cond {
  Col col = kT;
  Op op = Op::kEq;
  int64_t i = 0;    ///< constant for t/u/z; category code for s
  double d = 0.0;   ///< constant for m
};

struct BenchQuery {
  std::vector<Cond> conds;
  Agg agg = Agg::kNone;          ///< kNone: a row-returning selection
  int group_by = -1;             ///< kZ or kS, or -1
  std::vector<Col> select;       ///< projected columns of a selection
};

exploredb::Query ToQuery(const BenchQuery& q);

/// Relative tolerance for SUM/AVG: the engine sums in morsel order, the
/// reference in row order.
inline constexpr double kSumTolerance = 1e-9;

struct GroupRef {
  uint64_t count = 0;
  double sum = 0.0;
};

struct RefAnswer {
  uint64_t count = 0;
  double sum = 0.0;                        ///< of m over matching rows
  std::map<std::string, GroupRef> groups;  ///< grouped queries, by display key
  std::vector<uint32_t> positions;         ///< selections, ascending
};

/// Plain evaluation over `data`. Conditions on the sorted time column narrow
/// the scanned row range by binary search; every row in it is then tested
/// against every condition.
RefAnswer Reference(const Dataset& data, const BenchQuery& q);

/// What the checks need of one answer, without its row data, so that every
/// answer can be kept until the references are computed after the timed
/// phase. A selection keeps its row count and hashes of its positions and of
/// its projected values; a grouped answer keeps (key hash, value) pairs.
struct Answer {
  bool approximate = false;
  std::optional<exploredb::Estimate> scalar;
  std::vector<std::pair<uint64_t, double>> groups;  ///< sorted by key hash
  bool has_rows = false;          ///< a projected rows table came back
  size_t positions = 0;           ///< selected row count
  size_t projected_rows = 0;
  size_t projected_columns = 0;
  uint64_t positions_hash = 0;
  uint64_t values_hash = 0;
};

/// Digests `result` as an Answer (O(rows) for selections).
Answer Summarize(const exploredb::QueryResult& result);

/// Empty when `answer` equals the reference answer; otherwise what differs.
/// Exact COUNTs, group keys and selected rows (positions and projected
/// values) must be equal; SUM/AVG within kSumTolerance; grouped counts must
/// sum to the reference count.
std::string CheckExact(const Dataset& data, const BenchQuery& q,
                       const RefAnswer& ref, const Answer& answer);

/// The outcome of one approximate (budgeted) scalar answer.
struct ApproxOutcome {
  std::string error;        ///< non-empty when the answer is invalid
  bool approximate = false;
  bool covered = false;     ///< |estimate - truth| <= CI half-width
  double rel_error = 0.0;   ///< |estimate - truth| / |truth|
};

/// Validity: finite estimate, CI half-width >= 0, sample size <= rows; an
/// answer the program marks exact must equal the reference.
ApproxOutcome CheckApprox(const Dataset& data, const BenchQuery& q,
                          const RefAnswer& ref, const Answer& answer);

/// The reference value of a scalar aggregate.
double ScalarTruth(const BenchQuery& q, const RefAnswer& ref);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
