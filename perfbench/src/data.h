#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

/// The benchmark's own generator (splitmix64), independent of the engine's
/// Random so that inputs and references never depend on program code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  uint64_t Uniform(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  /// Uniform in [lo, hi], lo <= hi.
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Gaussian();

 private:
  uint64_t state_;
};

/// Column layout of the generated table (indexes into the schema).
enum Col : size_t { kT = 0, kU = 1, kZ = 2, kM = 3, kS = 4 };

inline constexpr const char* kTableName = "explore";
inline constexpr int64_t kTimeStep = 4;          ///< t[i] in [4i, 4i+4)
inline constexpr int64_t kUniformDomain = 1'000'000;
inline constexpr uint64_t kZipfKeys = 10'000;
inline constexpr double kZipfExponent = 1.3;
inline constexpr double kMeasureMean = 100.0;
inline constexpr double kMeasureSd = 20.0;
inline constexpr size_t kCategories = 12;
inline constexpr double kCategoryDecay = 0.6;  ///< P(cat k) ~ decay^k

/// Category display names ("cat00".."cat11").
const std::vector<std::string>& CategoryNames();

/// The benchmark's private copy of the generated data: the reference
/// computations read only this, never the engine's table.
struct Dataset {
  size_t n = 0;
  std::vector<int64_t> t;  ///< clustered (non-decreasing) time
  std::vector<int64_t> u;  ///< uniform in [0, kUniformDomain)
  std::vector<int64_t> z;  ///< Zipf(kZipfKeys, kZipfExponent) rank
  std::vector<double> m;   ///< Gaussian measure
  std::vector<uint8_t> s;  ///< category code (skewed, low cardinality)
};

/// Deterministic in (seed, n).
Dataset Generate(uint64_t seed, size_t n);

/// Copies the dataset into an engine Table (schema t, u, z, m, s).
exploredb::Table ToTable(const Dataset& data);

/// Draws a category code with the same skew the data has.
uint8_t DrawCategory(Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
