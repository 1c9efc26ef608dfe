// Count-Min sketch [Cormode–Muthukrishnan '04], included as an additional
// point-estimation / join-size baseline for the ablation benchmarks.
//
// Same table-of-buckets layout as the hash sketch but without ±1 signs:
// counters only ever accumulate |weight| contributions of colliding values,
// so point estimates are one-sided overestimates (min over tables) and the
// inner-product estimate is an upper bound in insert-only streams. With
// deletions the one-sided guarantee disappears — one of the reasons the
// paper's estimators are built on ±1 atomic sketches instead.

#ifndef SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_
#define SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "hashing/hash_plan_cache.h"
#include "hashing/kwise_hash.h"
#include "hashing/simd_hash.h"
#include "sketch/kernel_options.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// Shape of a Count-Min sketch.
struct CountMinConfig {
  uint64_t num_tables = 5;
  uint64_t num_buckets = 256;

  uint64_t TotalCounters() const { return num_tables * num_buckets; }
};

/// One Count-Min synopsis for one stream.
class CountMinSketch {
 public:
  /// Validates `config`; families deterministic in `seed` (see
  /// sketch_seed.h).
  static StatusOr<CountMinSketch> Create(const CountMinConfig& config,
                                         uint64_t seed);

  /// O(num_tables) counter touches.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Applies a batch of arrivals; counter-for-counter identical to scalar
  /// Update calls. Blocked hash→scatter by default (see
  /// HashSketch::UpdateBatch and DESIGN.md §10), legacy table-major when
  /// blocking is disabled.
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Selects fast-path kernels (bit-identical; DESIGN.md §10). Rebuilds or
  /// drops the plan cache, restarting its hit/miss tallies.
  void SetKernelOptions(const KernelOptions& options);

  const KernelOptions& kernel_options() const { return kernel_options_; }

  /// Plan-cache tallies (zero when the cache is disabled).
  uint64_t hash_cache_hits() const {
    return plan_cache_ ? plan_cache_->hits() : 0;
  }
  uint64_t hash_cache_misses() const {
    return plan_cache_ ? plan_cache_->misses() : 0;
  }

  /// Zeroes every counter (families untouched).
  void Reset();

  void Absorb(const stream::FrequencyVector& frequencies);

  /// Point estimate: min over tables (an overestimate for insert-only
  /// streams).
  int64_t PointEstimate(uint64_t value) const;

  /// Inner-product estimate: min over tables of Σ_k C^F[j][k]·C^G[j][k]
  /// (an upper bound on the join size for insert-only streams).
  static StatusOr<double> EstimateJoinSize(const CountMinSketch& f,
                                           const CountMinSketch& g);

  /// Join estimation with provenance: the per-table product sums as copy
  /// estimates and the one-sided a-priori envelope F1(F)·F1(G)/b (expected
  /// single-table collision excess; F1 read exactly off one table's counter
  /// sum). Because the point answer is the MINIMUM over tables, the CI's
  /// lower edge is the estimate itself. `estimate` is bit-identical to
  /// EstimateJoinSize.
  static StatusOr<EstimateReport> EstimateJoinSizeWithReport(
      const CountMinSketch& f, const CountMinSketch& g);

  /// Total stream weight F1 (one table's counter sum — exact, since every
  /// update lands in exactly one bucket per table).
  double TotalWeight() const;

  bool CompatibleWith(const CountMinSketch& other) const;

  /// Counter-wise addition of a compatible sketch (same shape and seed):
  /// merge(A, B) is bit-identical to having ingested both streams into one
  /// sketch. CHECK-fails on incompatible sketches.
  void Merge(const CountMinSketch& other);

  /// Writes a self-describing text record (config, seed, counters); hash
  /// families are reconstructed from (config, seed) on deserialization.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<CountMinSketch> DeserializeFrom(std::istream& in);

  /// Read-only health probe (occupancy, |counter| quantiles, saturation
  /// headroom, collision pressure); see HashSketch::HealthProbe.
  SynopsisHealth HealthProbe() const;

  const CountMinConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total footprint in bytes: the object plus counter array and hash
  /// family heap storage. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  /// Raw counter array, row-major by table.
  std::span<const int64_t> CounterArray() const { return counters_; }

 private:
  CountMinSketch(const CountMinConfig& config, uint64_t seed);

  /// The per-table copy estimates both estimation entry points reduce:
  /// copy j is Σ_k C^F[j][k]·C^G[j][k]. Pre-condition: f.CompatibleWith(g).
  static std::vector<double> PerTableProducts(const CountMinSketch& f,
                                              const CountMinSketch& g);

  /// Sequential min over per-table sums, 0.0 for an empty vector —
  /// reduction order matches the legacy loop so both paths agree bit-wise.
  static double MinOverTables(const std::vector<double>& per_table);

  /// Probes the plan cache for `value`; on a miss, evaluates all tables'
  /// buckets into the claimed slot (one bucket per word; no signs here).
  /// Pre-condition: the plan cache is enabled.
  const uint32_t* ComputePlan(uint64_t value);

  /// Evaluates every table's bucket word for `value` into `plan`.
  void FillPlan(uint64_t value, uint32_t* plan) const;

  /// SIMD form of FillPlan over a whole block: bucket plans for
  /// values[0..n) into `plans` (element-major, n × num_tables words) via
  /// the hashing/simd_hash.h block kernels. Word-for-word identical to
  /// calling FillPlan per value.
  void FillPlansBlock(const uint64_t* values, size_t n, uint32_t* plans,
                      hashing::SimdLevel level) const;

  /// Adds `weight` at each table's planned bucket.
  void ApplyPlan(const uint32_t* plan, int64_t weight);

  /// The blocked hash→scatter batch kernel (use_blocked_batch).
  void UpdateBatchBlocked(std::span<const stream::StreamElement> elements);

  CountMinConfig config_;
  uint64_t seed_;
  std::vector<hashing::BucketHash> bucket_hashes_;
  std::vector<int64_t> counters_;
  KernelOptions kernel_options_;
  // Derived acceleration state; see HashSketch for the contract (never
  // serialized, survives Reset, disengaged when use_plan_cache is off).
  std::optional<hashing::HashPlanCache> plan_cache_;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_COUNT_MIN_SKETCH_H_
