#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

namespace perfbench {

namespace {

using exploredb::CompareOp;

const char* const kColumnNames[] = {"t", "u", "z", "m", "s"};

CompareOp ToCompareOp(Op op) {
  switch (op) {
    case Op::kGe: return CompareOp::kGe;
    case Op::kLt: return CompareOp::kLt;
    case Op::kGt: return CompareOp::kGt;
    case Op::kLe: return CompareOp::kLe;
    case Op::kEq: return CompareOp::kEq;
  }
  return CompareOp::kEq;
}

// Rows are tested a chunk at a time, one condition at a time, into a byte
// mask: plain loops the compiler vectorizes, so a full-table reference costs
// a few milliseconds.
constexpr size_t kChunk = 4096;

template <typename T>
void Apply(const T* v, Op op, T c, size_t len, uint8_t* mask) {
  switch (op) {
    case Op::kGe: for (size_t j = 0; j < len; ++j) mask[j] &= v[j] >= c; break;
    case Op::kLt: for (size_t j = 0; j < len; ++j) mask[j] &= v[j] < c; break;
    case Op::kGt: for (size_t j = 0; j < len; ++j) mask[j] &= v[j] > c; break;
    case Op::kLe: for (size_t j = 0; j < len; ++j) mask[j] &= v[j] <= c; break;
    case Op::kEq: for (size_t j = 0; j < len; ++j) mask[j] &= v[j] == c; break;
  }
}

void ApplyCond(const Dataset& d, const Cond& c, size_t base, size_t len,
               uint8_t* mask) {
  switch (c.col) {
    case kT: Apply(d.t.data() + base, c.op, c.i, len, mask); break;
    case kU: Apply(d.u.data() + base, c.op, c.i, len, mask); break;
    case kZ: Apply(d.z.data() + base, c.op, c.i, len, mask); break;
    case kM: Apply(d.m.data() + base, c.op, c.d, len, mask); break;
    case kS:
      Apply(d.s.data() + base, c.op, static_cast<uint8_t>(c.i), len, mask);
      break;
  }
}

std::string Describe(const BenchQuery& q) { return ToQuery(q).CacheKey(); }

bool NearlyEqual(double got, double want) {
  return std::fabs(got - want) <= kSumTolerance * std::max(1.0, std::fabs(want));
}

std::string Fmt(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

uint64_t Fmix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Sequences are hashed as a sum of independent per-element terms, each
// salted with the sequence's salt and the element's index, so the order
// counts and the loop has no dependency chain.
uint64_t Term(uint64_t salt, size_t i, uint64_t x) {
  return Fmix(x ^ (salt + static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL));
}

constexpr uint64_t kPositionSalt = 0x5EED;

uint64_t ColumnSalt(size_t j) { return Fmix(j + 1); }

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t StringHash(const std::string& s) { return std::hash<std::string>{}(s); }

uint64_t PositionsHash(const std::vector<uint32_t>& positions) {
  uint64_t h = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    h += Term(kPositionSalt, i, positions[i]);
  }
  return h;
}

// The hash Summarize computes over the projected columns, here from the
// benchmark's own data at the reference positions.
uint64_t ReferenceValuesHash(const Dataset& d, const std::vector<Col>& cols,
                             const std::vector<uint32_t>& positions) {
  const std::vector<std::string>& names = CategoryNames();
  uint64_t h = 0;
  for (size_t j = 0; j < cols.size(); ++j) {
    const uint64_t salt = ColumnSalt(j);
    for (size_t i = 0; i < positions.size(); ++i) {
      const uint32_t p = positions[i];
      uint64_t x = 0;
      switch (cols[j]) {
        case kT: x = static_cast<uint64_t>(d.t[p]); break;
        case kU: x = static_cast<uint64_t>(d.u[p]); break;
        case kZ: x = static_cast<uint64_t>(d.z[p]); break;
        case kM: x = Bits(d.m[p]); break;
        case kS: x = StringHash(names[d.s[p]]); break;
      }
      h += Term(salt, i, x);
    }
  }
  return h;
}

}  // namespace

exploredb::Query ToQuery(const BenchQuery& q) {
  std::vector<exploredb::Condition> conds;
  for (const Cond& c : q.conds) {
    exploredb::Value v;
    if (c.col == kM) {
      v = exploredb::Value(c.d);
    } else if (c.col == kS) {
      v = exploredb::Value(CategoryNames()[static_cast<size_t>(c.i)]);
    } else {
      v = exploredb::Value(c.i);
    }
    conds.push_back({static_cast<size_t>(c.col), ToCompareOp(c.op), v});
  }
  exploredb::Query query = exploredb::Query::On(kTableName)
                               .Where(exploredb::Predicate(std::move(conds)));
  if (q.agg == Agg::kNone) {
    std::vector<std::string> select;
    for (Col c : q.select) select.push_back(kColumnNames[c]);
    query.Select(std::move(select));
    return query;
  }
  const exploredb::AggKind kind = q.agg == Agg::kCount ? exploredb::AggKind::kCount
                                  : q.agg == Agg::kSum ? exploredb::AggKind::kSum
                                                       : exploredb::AggKind::kAvg;
  query.Aggregate(kind, q.agg == Agg::kCount ? "" : "m");
  if (q.group_by >= 0) query.GroupBy(kColumnNames[q.group_by]);
  return query;
}

RefAnswer Reference(const Dataset& d, const BenchQuery& q) {
  size_t begin = 0;
  size_t end = d.n;
  for (const Cond& c : q.conds) {
    if (c.col != kT) continue;
    const auto lower = [&] {
      return static_cast<size_t>(
          std::lower_bound(d.t.begin(), d.t.end(), c.i) - d.t.begin());
    };
    const auto upper = [&] {
      return static_cast<size_t>(
          std::upper_bound(d.t.begin(), d.t.end(), c.i) - d.t.begin());
    };
    switch (c.op) {
      case Op::kGe: begin = std::max(begin, lower()); break;
      case Op::kGt: begin = std::max(begin, upper()); break;
      case Op::kLt: end = std::min(end, lower()); break;
      case Op::kLe: end = std::min(end, upper()); break;
      case Op::kEq:
        begin = std::max(begin, lower());
        end = std::min(end, upper());
        break;
    }
  }
  RefAnswer ref;
  std::vector<GroupRef> by_key;
  if (q.group_by == kZ) by_key.resize(kZipfKeys);
  if (q.group_by == kS) by_key.resize(kCategories);
  uint8_t mask[kChunk];
  uint32_t sel[kChunk];
  for (size_t base = begin; base < end; base += kChunk) {
    const size_t len = std::min(kChunk, end - base);
    std::fill(mask, mask + len, uint8_t{1});
    for (const Cond& c : q.conds) ApplyCond(d, c, base, len, mask);
    // Branch-free compaction of the matching offsets.
    size_t k = 0;
    for (size_t j = 0; j < len; ++j) {
      sel[k] = static_cast<uint32_t>(j);
      k += mask[j];
    }
    ref.count += k;
    const double* m = d.m.data() + base;
    for (size_t i = 0; i < k; ++i) ref.sum += m[sel[i]];
    if (q.group_by == kZ || q.group_by == kS) {
      for (size_t i = 0; i < k; ++i) {
        const size_t row = base + sel[i];
        GroupRef& g = by_key[q.group_by == kZ ? static_cast<size_t>(d.z[row])
                                              : d.s[row]];
        ++g.count;
        g.sum += d.m[row];
      }
    } else if (q.agg == Agg::kNone) {
      for (size_t i = 0; i < k; ++i) {
        ref.positions.push_back(static_cast<uint32_t>(base + sel[i]));
      }
    }
  }
  for (size_t k = 0; k < by_key.size(); ++k) {
    if (by_key[k].count == 0) continue;
    ref.groups[q.group_by == kZ ? std::to_string(k) : CategoryNames()[k]] =
        by_key[k];
  }
  return ref;
}

double ScalarTruth(const BenchQuery& q, const RefAnswer& ref) {
  switch (q.agg) {
    case Agg::kCount: return static_cast<double>(ref.count);
    case Agg::kSum: return ref.sum;
    case Agg::kAvg:
      return ref.count == 0 ? 0.0 : ref.sum / static_cast<double>(ref.count);
    case Agg::kNone: break;
  }
  return 0.0;
}

Answer Summarize(const exploredb::QueryResult& r) {
  Answer a;
  a.approximate = r.approximate;
  a.scalar = r.scalar;
  for (const exploredb::GroupValue& g : r.groups) {
    a.groups.emplace_back(StringHash(g.key), g.value.value);
  }
  std::sort(a.groups.begin(), a.groups.end());
  a.positions = r.positions.size();
  a.positions_hash = PositionsHash(r.positions);
  if (r.rows.has_value()) {
    const exploredb::Table& rows = *r.rows;
    a.has_rows = true;
    a.projected_rows = rows.num_rows();
    a.projected_columns = rows.num_columns();
    for (size_t j = 0; j < rows.num_columns(); ++j) {
      const exploredb::ColumnVector& c = rows.column(j);
      const uint64_t salt = ColumnSalt(j);
      for (size_t i = 0; i < c.size(); ++i) {
        uint64_t x = 0;
        switch (c.type()) {
          case exploredb::DataType::kInt64:
            x = static_cast<uint64_t>(c.int64_data()[i]);
            break;
          case exploredb::DataType::kDouble: x = Bits(c.double_data()[i]); break;
          case exploredb::DataType::kString:
            x = StringHash(c.string_data()[i]);
            break;
        }
        a.values_hash += Term(salt, i, x);
      }
    }
  }
  return a;
}

std::string CheckExact(const Dataset& d, const BenchQuery& q,
                       const RefAnswer& ref, const Answer& a) {
  const std::string where = " [" + Describe(q) + "]";
  if (a.approximate) return "exact query answered approximately" + where;
  if (q.agg == Agg::kNone) {
    if (!a.has_rows) return "selection returned no rows table" + where;
    if (a.positions != ref.positions.size()) {
      return Fmt("selected %.0f rows, reference %.0f", double(a.positions),
                 double(ref.positions.size())) + where;
    }
    if (a.positions_hash != PositionsHash(ref.positions)) {
      return "selected rows differ from the reference" + where;
    }
    std::vector<Col> cols = q.select;
    if (cols.empty()) cols = {kT, kU, kZ, kM, kS};
    if (a.projected_columns != cols.size()) return "projected column count" + where;
    if (a.projected_rows != a.positions) return "projected row count" + where;
    if (a.values_hash != ReferenceValuesHash(d, cols, ref.positions)) {
      return "projected values differ from the reference" + where;
    }
    return "";
  }
  if (q.group_by < 0) {
    if (!a.scalar.has_value()) return "aggregate returned no scalar" + where;
    const double want = ScalarTruth(q, ref);
    const double got = a.scalar->value;
    const bool same = q.agg == Agg::kCount ? got == want : NearlyEqual(got, want);
    return same ? "" : Fmt("scalar %.17g, reference %.17g", got, want) + where;
  }
  if (a.groups.size() != ref.groups.size()) {
    return Fmt("%.0f groups, reference %.0f", double(a.groups.size()),
               double(ref.groups.size())) + where;
  }
  for (const auto& [key, want] : ref.groups) {
    const uint64_t h = StringHash(key);
    auto it = std::lower_bound(a.groups.begin(), a.groups.end(),
                               std::make_pair(h, -HUGE_VAL));
    if (it == a.groups.end() || it->first != h) {
      return "group '" + key + "' missing" + where;
    }
    const double truth = q.agg == Agg::kCount ? static_cast<double>(want.count)
                         : q.agg == Agg::kSum ? want.sum
                                              : want.sum / static_cast<double>(want.count);
    const bool same = q.agg == Agg::kCount ? it->second == truth
                                           : NearlyEqual(it->second, truth);
    if (!same) {
      return "group '" + key + "' " +
             Fmt("value %.17g, reference %.17g", it->second, truth) + where;
    }
  }
  if (q.agg == Agg::kCount) {
    uint64_t grouped_count = 0;
    for (const auto& g : a.groups) grouped_count += static_cast<uint64_t>(g.second);
    if (grouped_count != ref.count) {
      return Fmt("grouped counts sum to %.0f, window count %.0f",
                 double(grouped_count), double(ref.count)) + where;
    }
  }
  return "";
}

ApproxOutcome CheckApprox(const Dataset& d, const BenchQuery& q,
                          const RefAnswer& ref, const Answer& a) {
  ApproxOutcome out;
  const std::string where = " [" + Describe(q) + "]";
  if (!a.scalar.has_value()) {
    out.error = "budgeted aggregate returned no scalar" + where;
    return out;
  }
  const exploredb::Estimate& e = *a.scalar;
  if (!std::isfinite(e.value)) out.error = "non-finite estimate" + where;
  if (!(e.ci_half_width >= 0.0) || !std::isfinite(e.ci_half_width)) {
    out.error = "CI half-width not a finite value >= 0" + where;
  }
  if (e.sample_size > d.n) out.error = "sample larger than the table" + where;
  if (!out.error.empty()) return out;
  const double truth = ScalarTruth(q, ref);
  out.approximate = a.approximate;
  if (!a.approximate) {
    out.error = CheckExact(d, q, ref, a);
    if (!out.error.empty()) return out;
  }
  const double diff = std::fabs(e.value - truth);
  out.covered = diff <= e.ci_half_width + kSumTolerance * std::fabs(truth);
  out.rel_error = truth == 0.0 ? (diff == 0.0 ? 0.0 : 1.0) : diff / std::fabs(truth);
  return out;
}

}  // namespace perfbench
