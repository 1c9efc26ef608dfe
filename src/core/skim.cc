#include "core/skim.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace core {

int64_t LookupDense(const DenseFrequencies& dense, uint64_t value) {
  const auto it = std::lower_bound(
      dense.begin(), dense.end(), value,
      [](const std::pair<uint64_t, int64_t>& entry, uint64_t v) {
        return entry.first < v;
      });
  if (it == dense.end() || it->first != value) return 0;
  return it->second;
}

namespace {

// Step 2 of the block kernel: passes[i], for i in [from, n), counts the
// tables whose counter at values[i]'s bucket has |C| >= threshold. Since
// |ξ·C| = |C|, no sign hash is needed. Table-major, so each counter row is
// walked once per block.
void CountPassingTables(const sketch::HashSketch& sketch,
                        const uint64_t* buckets, size_t n, size_t from,
                        int64_t threshold, uint64_t* passes) {
  const uint64_t num_buckets = sketch.config().num_buckets;
  const int64_t* row = sketch.CounterArray().data();
  std::fill(passes + from, passes + n, 0);
  for (uint64_t table = 0; table < sketch.config().num_tables; ++table) {
    const uint64_t* bucket = buckets + table * n;
    for (size_t i = from; i < n; ++i) {
      const int64_t counter = row[bucket[i]];
      passes[i] += (counter >= threshold) | (counter <= -threshold);
    }
    row += num_buckets;
  }
}

// The one SKIMDENSE kernel (Fig. 3 steps 5–9) over one block of ascending
// values; see skim.h for why it matches the per-value loop bit for bit.
void SkimBlock(sketch::HashSketch* sketch, const uint64_t* values, size_t n,
               int64_t threshold, int64_t margin, DenseFrequencies* out) {
  const uint64_t tables = sketch->config().num_tables;
  const hashing::SimdLevel level = sketch->kernel_options().use_simd
                                       ? hashing::DetectSimdLevel()
                                       : hashing::SimdLevel::kScalar;
  // One block × num_tables of scratch, thread_local like the batch kernels'.
  static thread_local std::vector<uint64_t> buckets;
  static thread_local std::vector<uint64_t> passes;
  buckets.resize(n * tables);
  passes.resize(n);
  for (uint64_t table = 0; table < tables; ++table) {
    sketch->BucketBlock(table, values, n, &buckets[table * n], level);
  }
  // |median| >= T needs at least ceil(s/2) tables with |C| >= T.
  const uint64_t needed = tables - tables / 2;
  CountPassingTables(*sketch, buckets.data(), n, 0, threshold, passes.data());
  for (size_t i = 0; i < n; ++i) {
    if (passes[i] < needed) continue;
    const int64_t estimate = sketch->PointEstimate(values[i]);
    if (std::llabs(estimate) < threshold) continue;
    // A positive `margin` holds that much of the estimate back (Theorem 4's
    // conservative skim).
    const int64_t magnitude = std::llabs(estimate) - margin;
    if (magnitude <= 0) continue;
    const int64_t skimmed = estimate >= 0 ? magnitude : -magnitude;
    out->emplace_back(values[i], skimmed);
    sketch->Update(values[i], -skimmed);
    // Later values must see the subtraction, as in the per-value loop.
    CountPassingTables(*sketch, buckets.data(), n, i + 1, threshold,
                       passes.data());
  }
}

size_t SkimBlockSize(const sketch::HashSketch& sketch) {
  return std::max<uint64_t>(1, sketch.kernel_options().batch_block_size);
}

}  // namespace

DenseFrequencies SkimDenseNaive(sketch::HashSketch* sketch,
                                uint64_t domain_size, int64_t threshold,
                                int64_t margin) {
  SKIMJOIN_CHECK(sketch != nullptr);
  SKIMJOIN_CHECK_GE(threshold, 1);
  SKIMJOIN_CHECK_GE(margin, 0);
  const size_t block = SkimBlockSize(*sketch);
  static thread_local std::vector<uint64_t> values;
  DenseFrequencies dense;
  for (uint64_t begin = 0; begin < domain_size; begin += block) {
    const size_t n = std::min<uint64_t>(block, domain_size - begin);
    values.resize(n);
    std::iota(values.begin(), values.end(), begin);
    SkimBlock(sketch, values.data(), n, threshold, margin, &dense);
  }
  return dense;  // domain scan emits values in sorted order already
}

DenseFrequencies SkimDenseCandidates(sketch::HashSketch* sketch,
                                     const std::vector<uint64_t>& candidates,
                                     int64_t threshold, int64_t margin) {
  SKIMJOIN_CHECK(sketch != nullptr);
  SKIMJOIN_CHECK_GE(threshold, 1);
  SKIMJOIN_CHECK_GE(margin, 0);
  std::vector<uint64_t> unique = candidates;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const size_t block = SkimBlockSize(*sketch);
  DenseFrequencies dense;
  for (size_t begin = 0; begin < unique.size(); begin += block) {
    SkimBlock(sketch, &unique[begin], std::min(block, unique.size() - begin),
              threshold, margin, &dense);
  }
  return dense;
}

int64_t DenseDenseJoin(const DenseFrequencies& f, const DenseFrequencies& g) {
  __int128 total = 0;
  auto fi = f.begin();
  auto gi = g.begin();
  while (fi != f.end() && gi != g.end()) {
    if (fi->first < gi->first) {
      ++fi;
    } else if (gi->first < fi->first) {
      ++gi;
    } else {
      total += static_cast<__int128>(fi->second) * gi->second;
      ++fi;
      ++gi;
    }
  }
  SKIMJOIN_CHECK(total <= INT64_MAX && total >= INT64_MIN);
  return static_cast<int64_t>(total);
}

std::vector<double> EstimateSubJoinSizePerTable(
    const DenseFrequencies& dense_f, const sketch::HashSketch& skimmed_g) {
  const uint64_t num_tables = skimmed_g.config().num_tables;
  std::vector<double> per_table;
  per_table.reserve(num_tables);
  for (uint64_t table = 0; table < num_tables; ++table) {
    double sum = 0.0;
    for (const auto& [value, frequency] : dense_f) {
      const uint64_t bucket = skimmed_g.Bucket(table, value);
      sum += static_cast<double>(frequency) *
             static_cast<double>(skimmed_g.Sign(table, value)) *
             static_cast<double>(skimmed_g.Counter(table, bucket));
    }
    per_table.push_back(sum);
  }
  return per_table;
}

double EstimateSubJoinSize(const DenseFrequencies& dense_f,
                           const sketch::HashSketch& skimmed_g) {
  return Median(EstimateSubJoinSizePerTable(dense_f, skimmed_g));
}

}  // namespace core
}  // namespace skimjoin
