// The hash sketch data structure (§4.1 of the paper; structurally the
// COUNTSKETCH of Charikar–Chen–Farach-Colton '02).
//
// An array of `s` hash tables, each with `b` buckets holding one atomic-
// sketch counter. Table j carries a pairwise-independent bucket hash h_j and
// a four-wise-independent ±1 family ξ_j; an arrival (v, w) adds w·ξ_j(v) to
// bucket h_j(v) of every table — i.e., O(s) counter touches per element,
// logarithmic overall, versus the O(s1·s2) of basic AGMS sketching.
//
// The same structure serves three roles in this library:
//   * point (top-k / dense) frequency estimation — medians of ξ_j(v)·C[j][h_j(v)],
//   * the un-skimmed hash-sketch join estimator (a baseline; bucket-wise
//     products per table, median over tables),
//   * the substrate that core/skim.* skims dense frequencies out of, after
//     which it represents only residual ("sparse") frequencies.

#ifndef SKIMJOIN_SKETCH_HASH_SKETCH_H_
#define SKIMJOIN_SKETCH_HASH_SKETCH_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "hashing/hash_plan_cache.h"
#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "hashing/simd_hash.h"
#include "sketch/kernel_options.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// Shape of a hash sketch.
struct HashSketchConfig {
  /// s: number of hash tables (confidence booster; odd keeps medians crisp).
  uint64_t num_tables = 7;
  /// b: buckets per table (accuracy: estimation error scales with 1/sqrt(b)).
  uint64_t num_buckets = 256;

  /// Total counters ("space in words").
  uint64_t TotalCounters() const { return num_tables * num_buckets; }
};

/// One hash sketch for one stream. Copyable; copies are independent.
class HashSketch {
 public:
  /// Validates `config` (both dimensions >= 1). Families are deterministic
  /// in `seed`: equal (config, seed) ⇒ compatible sketches with identical
  /// h_j and ξ_j — required for join estimation across two streams.
  static StatusOr<HashSketch> Create(const HashSketchConfig& config,
                                     uint64_t seed);

  /// Applies one stream arrival: one counter touched per table.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Applies a batch of arrivals. Counter-for-counter identical to calling
  /// Update element by element (integer addition commutes). The default
  /// kernel blocks the batch: it hashes `batch_block_size` elements into a
  /// reusable scratch plan array, then scatters table-major with prefetch
  /// (DESIGN.md §10); with blocking disabled it falls back to the legacy
  /// table-major loop.
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Selects which fast-path kernels this sketch uses (DESIGN.md §10).
  /// Every combination is bit-identical on counters; this only trades
  /// instruction sequences. Rebuilds (or drops) the plan cache, so hit/miss
  /// tallies restart from zero.
  void SetKernelOptions(const KernelOptions& options);

  const KernelOptions& kernel_options() const { return kernel_options_; }

  /// Plan-cache hit/miss tallies since the cache was (re)built; both zero
  /// when the cache is disabled. Feed the `ingest.<stream>.hash_cache_*`
  /// engine metrics.
  uint64_t hash_cache_hits() const {
    return plan_cache_ ? plan_cache_->hits() : 0;
  }
  uint64_t hash_cache_misses() const {
    return plan_cache_ ? plan_cache_->misses() : 0;
  }

  /// Zeroes every counter, returning the sketch to its freshly created
  /// state (hash families are untouched). Used by the parallel ingestor to
  /// recycle thread-local replicas between flushes.
  void Reset();

  /// Folds a whole frequency vector in (linearity; see AgmsSketch::Absorb).
  void Absorb(const stream::FrequencyVector& frequencies);

  /// Merges a compatible sketch (concatenation of streams).
  /// Pre-condition: CompatibleWith(other).
  void Merge(const HashSketch& other);

  /// Point frequency estimate for `value`: median over tables of
  /// ξ_j(value)·C[j][h_j(value)] (the COUNTSKETCH estimator used by
  /// SKIMDENSE, Fig. 3 step 5).
  int64_t PointEstimate(uint64_t value) const;

  /// Join-size estimate WITHOUT skimming: for each table, the sum over
  /// buckets of C^F[j][k]·C^G[j][k]; median over tables. This is the
  /// sparse·sparse estimator of Fig. 4 (steps 3–7) and doubles as the
  /// "hash-sketch only" baseline. Returns INVALID_ARGUMENT for incompatible
  /// synopses.
  static StatusOr<double> EstimateJoinSize(const HashSketch& f,
                                           const HashSketch& g);

  /// Join estimation with provenance: the per-table bucket-product sums as
  /// copy estimates, their spread, an empirical confidence interval, and
  /// the a-priori envelope 4·sqrt(F̂2(F)·F̂2(G)/b) (the hash-sketch analogue
  /// of Theorem 1 — variance shrinks with buckets instead of averaged
  /// copies). `estimate` is bit-identical to EstimateJoinSize.
  static StatusOr<EstimateReport> EstimateJoinSizeWithReport(
      const HashSketch& f, const HashSketch& g);

  /// The per-table copy estimates behind EstimateJoinSize (copy j is
  /// Σ_k C^F[j][k]·C^G[j][k]). Exposed so the skimmed estimator (core/) can
  /// report its sparse⋈sparse sub-join per table; also used by white-box
  /// tests. Pre-condition: f.CompatibleWith(g).
  static std::vector<double> PerTableJoinProducts(const HashSketch& f,
                                                  const HashSketch& g);

  /// Self-join (F2) estimate: median over tables of Σ_k C[j][k]^2.
  double EstimateSelfJoinSize() const;

  /// Self-join provenance (the F = G case of EstimateJoinSizeWithReport);
  /// `estimate` bit-identical to EstimateSelfJoinSize.
  EstimateReport EstimateSelfJoinSizeWithReport() const;

  bool CompatibleWith(const HashSketch& other) const;

  /// Writes a self-describing text record (config, seed, counters) so the
  /// sketch can be shipped between processes/sites and merged remotely —
  /// hash families are reconstructed from (config, seed) on the other end.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a
  /// malformed or truncated record.
  static StatusOr<HashSketch> DeserializeFrom(std::istream& in);

  /// Read-only health probe: bucket-occupancy quantiles, |counter|
  /// order statistics with int32/int64 saturation headroom, and estimated
  /// collision pressure (see util::SynopsisHealth). Never mutates the
  /// sketch; runs at health/report time, not on the ingest path.
  SynopsisHealth HealthProbe() const;

  const HashSketchConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total footprint in bytes: the object plus counter array and hash
  /// family heap storage. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  // --- Low-level access used by the skimmed-sketch estimator (core/) and
  // --- white-box tests.

  /// h_j(value), in [0, num_buckets).
  uint64_t Bucket(uint64_t table, uint64_t value) const {
    return bucket_hashes_[table](value);
  }

  /// h_table over a whole block: buckets[i] = Bucket(table, values[i]) for
  /// i in [0, n), the polynomial evaluated with the hashing/simd_hash.h
  /// block kernels at `level`. The one bucket loop shared by the blocked
  /// ingest kernel and the SKIMDENSE scan (core/skim.cc).
  void BucketBlock(uint64_t table, const uint64_t* values, size_t n,
                   uint64_t* buckets, hashing::SimdLevel level) const;

  /// ξ_j(value), in {-1, +1}.
  int64_t Sign(uint64_t table, uint64_t value) const {
    return sign_hashes_[table](value);
  }

  /// Counter of `bucket` in `table`.
  int64_t Counter(uint64_t table, uint64_t bucket) const {
    return counters_[table * config_.num_buckets + bucket];
  }

  /// Raw counter array, row-major by table (num_tables * num_buckets).
  std::span<const int64_t> CounterArray() const { return counters_; }

 private:
  HashSketch(const HashSketchConfig& config, uint64_t seed);

  /// Probes the plan cache for `value`; on a miss, evaluates all tables'
  /// (bucket, sign) pairs into the claimed slot. Returns the plan either
  /// way. Pre-condition: the plan cache is enabled.
  const uint32_t* ComputePlan(uint64_t value);

  /// Evaluates every table's packed (bucket, sign) word for `value` into
  /// `plan` (`num_tables` words) — the full polynomial path.
  void FillPlan(uint64_t value, uint32_t* plan) const;

  /// SIMD form of FillPlan over a whole block: plans for values[0..n) into
  /// `plans` (element-major, n × num_tables words), evaluating each table's
  /// polynomials with the hashing/simd_hash.h block kernels at `level`.
  /// Word-for-word identical to calling FillPlan per value.
  void FillPlansBlock(const uint64_t* values, size_t n, uint32_t* plans,
                      hashing::SimdLevel level) const;

  /// Adds `weight` (sign-adjusted per table) at each table's planned
  /// bucket.
  void ApplyPlan(const uint32_t* plan, int64_t weight);

  /// The blocked hash→scatter batch kernel (use_blocked_batch).
  void UpdateBatchBlocked(std::span<const stream::StreamElement> elements);

  HashSketchConfig config_;
  uint64_t seed_;
  std::vector<hashing::BucketHash> bucket_hashes_;  // one per table
  std::vector<hashing::SignHash> sign_hashes_;      // one per table
  std::vector<int64_t> counters_;                   // row-major by table
  KernelOptions kernel_options_;
  // Derived acceleration state: never serialized, ignored by
  // CompatibleWith/Merge, and kept across Reset (plans depend only on the
  // hash families). Disengaged when use_plan_cache is off.
  std::optional<hashing::HashPlanCache> plan_cache_;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_HASH_SKETCH_H_
