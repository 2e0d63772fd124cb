#include "data.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

std::vector<double> CumulativeWeights(size_t k, double (*weight)(size_t)) {
  std::vector<double> cdf(k);
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    total += weight(i);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

constexpr size_t kGenerateBlock = 1 << 16;

size_t DrawFrom(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->NextDouble();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

const std::vector<double>& CategoryCdf() {
  static const std::vector<double> cdf = CumulativeWeights(
      kCategories, [](size_t i) { return std::pow(kCategoryDecay, double(i)); });
  return cdf;
}

const std::vector<double>& ZipfCdf() {
  static const std::vector<double> cdf =
      CumulativeWeights(kZipfKeys, [](size_t i) {
        return 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      });
  return cdf;
}

}  // namespace

double Rng::Gaussian() {
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

const std::vector<std::string>& CategoryNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (size_t i = 0; i < kCategories; ++i) {
      out.push_back(std::string("cat") + (i < 10 ? "0" : "") +
                    std::to_string(i));
    }
    return out;
  }();
  return names;
}

uint8_t DrawCategory(Rng* rng) {
  return static_cast<uint8_t>(DrawFrom(CategoryCdf(), rng));
}

Dataset Generate(uint64_t seed, size_t n) {
  Dataset d;
  d.n = n;
  d.t.resize(n);
  d.u.resize(n);
  d.z.resize(n);
  d.m.resize(n);
  d.s.resize(n);
  const std::vector<double>& zipf = ZipfCdf();
  CategoryCdf();  // initialize before the workers share it
  // Fixed-size blocks, each with its own stream: the data depend on (seed, n)
  // only, not on how many threads generate them.
  const size_t blocks = (n + kGenerateBlock - 1) / kGenerateBlock;
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t b; (b = next.fetch_add(1)) < blocks;) {
      Rng rng(seed * 0x2545F4914F6CDD1DULL + 17 + b * 0x9E3779B97F4A7C15ULL);
      const size_t end = std::min(n, (b + 1) * kGenerateBlock);
      for (size_t i = b * kGenerateBlock; i < end; ++i) {
        d.t[i] = static_cast<int64_t>(i) * kTimeStep +
                 static_cast<int64_t>(rng.Uniform(kTimeStep));
        d.u[i] = static_cast<int64_t>(rng.Uniform(kUniformDomain));
        d.z[i] = static_cast<int64_t>(DrawFrom(zipf, &rng));
        d.m[i] = kMeasureMean + kMeasureSd * rng.Gaussian();
        d.s[i] = DrawCategory(&rng);
      }
    }
  };
  std::vector<std::thread> threads;
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return d;
}

exploredb::Table ToTable(const Dataset& data) {
  using exploredb::DataType;
  exploredb::Table table(exploredb::Schema({{"t", DataType::kInt64},
                                            {"u", DataType::kInt64},
                                            {"z", DataType::kInt64},
                                            {"m", DataType::kDouble},
                                            {"s", DataType::kString}}));
  *table.mutable_column(kT)->mutable_int64_data() = data.t;
  *table.mutable_column(kU)->mutable_int64_data() = data.u;
  *table.mutable_column(kZ)->mutable_int64_data() = data.z;
  *table.mutable_column(kM)->mutable_double_data() = data.m;
  std::vector<std::string>* s = table.mutable_column(kS)->mutable_string_data();
  s->reserve(data.n);
  const std::vector<std::string>& names = CategoryNames();
  for (uint8_t code : data.s) s->push_back(names[code]);
  return table;
}

}  // namespace perfbench
