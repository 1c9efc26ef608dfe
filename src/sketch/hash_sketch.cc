#include "sketch/hash_sketch.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace sketch {

HashSketch::HashSketch(const HashSketchConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  bucket_hashes_.reserve(config.num_tables);
  sign_hashes_.reserve(config.num_tables);
  for (uint64_t table = 0; table < config.num_tables; ++table) {
    Rng bucket_rng = FamilyRng(seed, FamilyTag::kHashSketchBucket, table);
    bucket_hashes_.emplace_back(config.num_buckets, &bucket_rng);
    Rng sign_rng = FamilyRng(seed, FamilyTag::kHashSketchSign, table);
    sign_hashes_.emplace_back(&sign_rng);
  }
  counters_.assign(config.TotalCounters(), 0);
  SetKernelOptions(KernelOptions{});
}

void HashSketch::SetKernelOptions(const KernelOptions& options) {
  kernel_options_ = options;
  for (hashing::BucketHash& hash : bucket_hashes_) {
    hash.set_use_fastmod(options.use_fastmod);
  }
  // Packed (bucket, sign) plan words are 32-bit; a bucket count beyond 2^31
  // cannot pack, so the cache quietly stands down (the other kernels and
  // the scalar path are unaffected — results are identical either way).
  if (options.use_plan_cache && config_.num_buckets <= (uint64_t{1} << 31)) {
    plan_cache_.emplace(options.plan_cache_slots, config_.num_tables);
  } else {
    plan_cache_.reset();
  }
}

const uint32_t* HashSketch::ComputePlan(uint64_t value) {
  bool hit = false;
  uint32_t* plan = plan_cache_->Probe(value, &hit);
  if (!hit) FillPlan(value, plan);
  return plan;
}

void HashSketch::FillPlan(uint64_t value, uint32_t* plan) const {
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    plan[table] = hashing::PackBucketSign(bucket_hashes_[table](value),
                                          sign_hashes_[table](value));
  }
}

void HashSketch::FillPlansBlock(const uint64_t* values, size_t n,
                                uint32_t* plans,
                                hashing::SimdLevel level) const {
  // Per-table scratch for the buckets and the raw sign residues;
  // thread_local for the same reasons as the blocked kernel's plan scratch.
  static thread_local std::vector<uint64_t> bucket_scratch;
  static thread_local std::vector<uint64_t> sign_scratch;
  bucket_scratch.resize(n);
  sign_scratch.resize(n);
  const uint64_t tables = config_.num_tables;
  for (uint64_t table = 0; table < tables; ++table) {
    BucketBlock(table, values, n, bucket_scratch.data(), level);
    hashing::PolyEvalBlock(sign_hashes_[table].poly().coefficients(), values,
                           n, sign_scratch.data(), level);
    // PackBucketSign by hand: the packed sign bit IS the residue's low bit
    // (ξ(v) = 1 - 2·(h(v) & 1)), so no ±1 materialization is needed.
    for (size_t i = 0; i < n; ++i) {
      plans[i * tables + table] = static_cast<uint32_t>(
          (bucket_scratch[i] << 1) | (sign_scratch[i] & 1));
    }
  }
}

void HashSketch::BucketBlock(uint64_t table, const uint64_t* values, size_t n,
                             uint64_t* buckets,
                             hashing::SimdLevel level) const {
  const hashing::BucketHash& hash = bucket_hashes_[table];
  hashing::PolyEvalBlock(hash.poly().coefficients(), values, n, buckets,
                         level);
  for (size_t i = 0; i < n; ++i) buckets[i] = hash.ModReduce(buckets[i]);
}

void HashSketch::ApplyPlan(const uint32_t* plan, int64_t weight) {
  int64_t* row = counters_.data();
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const uint32_t word = plan[table];
    row[hashing::PlanBucket(word)] += hashing::PlanSign(word) * weight;
    row += config_.num_buckets;
  }
}

StatusOr<HashSketch> HashSketch::Create(const HashSketchConfig& config,
                                        uint64_t seed) {
  if (config.num_tables < 1) {
    return InvalidArgumentError("HashSketchConfig.num_tables must be >= 1");
  }
  if (config.num_buckets < 1) {
    return InvalidArgumentError("HashSketchConfig.num_buckets must be >= 1");
  }
  return HashSketch(config, seed);
}

void HashSketch::Update(uint64_t value, int64_t weight) {
  if (plan_cache_) {
    ApplyPlan(ComputePlan(value), weight);
    return;
  }
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const uint64_t bucket = bucket_hashes_[table](value);
    counters_[table * config_.num_buckets + bucket] +=
        sign_hashes_[table](value) * weight;
  }
}

void HashSketch::UpdateBatch(std::span<const stream::StreamElement> elements) {
  // The blocked kernel stores packed 32-bit plan words; beyond 2^31 buckets
  // it cannot, so such shapes take the legacy kernels below.
  if (kernel_options_.use_blocked_batch &&
      config_.num_buckets <= (uint64_t{1} << 31)) {
    UpdateBatchBlocked(elements);
    return;
  }
  if (plan_cache_) {
    // Element-major so each element's plan is probed once, not per table.
    for (const stream::StreamElement& element : elements) {
      Update(element.value, element.weight);
    }
    return;
  }
  // Legacy table-major reference kernel: each table's hash families and
  // counter row stay hot across the whole batch.
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const hashing::BucketHash& bucket = bucket_hashes_[table];
    const hashing::SignHash& sign = sign_hashes_[table];
    int64_t* row = &counters_[table * config_.num_buckets];
    for (const stream::StreamElement& element : elements) {
      row[bucket(element.value)] += sign(element.value) * element.weight;
    }
  }
}

void HashSketch::UpdateBatchBlocked(
    std::span<const stream::StreamElement> elements) {
  const uint64_t tables = config_.num_tables;
  const size_t block = static_cast<size_t>(
      kernel_options_.batch_block_size < 1 ? 1
                                           : kernel_options_.batch_block_size);
  // Function-local thread_local scratch: zero allocations per batch, and
  // each ingest worker gets its own copy, so the sketch itself
  // stays cheaply copyable.
  static thread_local std::vector<uint32_t> plan_scratch;
  static thread_local std::vector<int64_t> weight_scratch;
  plan_scratch.resize(block * tables);
  weight_scratch.resize(block);
  constexpr size_t kPrefetchDistance = 8;
  // Staging plans for a table-major scatter only pays once the counter
  // array outgrows the fast cache levels — below that, every bucket line is
  // resident anyway and the extra scratch traffic is pure loss (measured:
  // ~20% slower at 56 KiB of counters, ~20% faster at 3.5 MiB). Small
  // shapes therefore apply misses on the spot too.
  constexpr uint64_t kScatterStageBytes = uint64_t{1} << 21;
  const bool stage = counters_.size() * sizeof(int64_t) > kScatterStageBytes;
  const hashing::SimdLevel simd = kernel_options_.use_simd
                                      ? hashing::DetectSimdLevel()
                                      : hashing::SimdLevel::kScalar;
  static thread_local std::vector<uint64_t> value_scratch;
  if (simd != hashing::SimdLevel::kScalar) value_scratch.resize(block);
  for (size_t begin = 0; begin < elements.size(); begin += block) {
    const size_t n = std::min(block, elements.size() - begin);
    // Phase 1 (hash): cache hits apply on the spot — the plan words were
    // just pulled into L1 by the probe, so staging them through scratch
    // would only add traffic. Misses (or, with the cache off, everything)
    // evaluate their polynomials into the scratch arrays for phase 2.
    // Counters only ever accumulate integer adds, which commute exactly,
    // so the hit/miss split leaves every final counter bit-identical to
    // the scalar kernels.
    size_t pending = 0;
    if (simd != hashing::SimdLevel::kScalar) {
      // SIMD phase 1: probe with the non-claiming Lookup — Probe would
      // claim the slot before the deferred vector fill, so a duplicate
      // value later in the block would hit a claimed-but-unfilled plan.
      // Hits apply on the spot; misses collect into the value scratch for
      // one block evaluation, then install into the cache. A duplicate
      // miss inside a block is evaluated (and installed) twice with the
      // same result — counters stay bit-identical, only the hit/miss
      // tallies shift against the scalar phase 1.
      for (size_t i = 0; i < n; ++i) {
        const stream::StreamElement& element = elements[begin + i];
        if (plan_cache_) {
          const uint32_t* plan = plan_cache_->Lookup(element.value);
          if (plan != nullptr) {
            ApplyPlan(plan, element.weight);
            continue;
          }
        }
        value_scratch[pending] = element.value;
        weight_scratch[pending] = element.weight;
        ++pending;
      }
      FillPlansBlock(value_scratch.data(), pending, plan_scratch.data(), simd);
      if (plan_cache_) {
        for (size_t i = 0; i < pending; ++i) {
          std::copy_n(&plan_scratch[i * tables], tables,
                      plan_cache_->Insert(value_scratch[i]));
        }
      }
      if (!stage) {
        for (size_t i = 0; i < pending; ++i) {
          ApplyPlan(&plan_scratch[i * tables], weight_scratch[i]);
        }
        pending = 0;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        const stream::StreamElement& element = elements[begin + i];
        if (plan_cache_) {
          bool hit = false;
          uint32_t* plan = plan_cache_->Probe(element.value, &hit);
          if (hit) {
            ApplyPlan(plan, element.weight);
            continue;
          }
          FillPlan(element.value, plan);
          if (!stage) {
            ApplyPlan(plan, element.weight);
            continue;
          }
          std::copy_n(plan, tables, &plan_scratch[pending * tables]);
        } else {
          uint32_t* plan = &plan_scratch[pending * tables];
          FillPlan(element.value, plan);
          if (!stage) {
            ApplyPlan(plan, element.weight);
            continue;
          }
        }
        weight_scratch[pending] = element.weight;
        ++pending;
      }
    }
    // Phase 2 (scatter): table-major over the block's unapplied plans,
    // prefetching the counter line a few elements ahead.
    for (uint64_t table = 0; table < tables; ++table) {
      int64_t* row = &counters_[table * config_.num_buckets];
      for (size_t i = 0; i < pending; ++i) {
        if (i + kPrefetchDistance < pending) {
          const uint32_t ahead =
              plan_scratch[(i + kPrefetchDistance) * tables + table];
          __builtin_prefetch(&row[hashing::PlanBucket(ahead)], 1);
        }
        const uint32_t word = plan_scratch[i * tables + table];
        row[hashing::PlanBucket(word)] +=
            hashing::PlanSign(word) * weight_scratch[i];
      }
    }
  }
}

void HashSketch::Reset() {
  counters_.assign(counters_.size(), 0);
}

void HashSketch::Absorb(const stream::FrequencyVector& frequencies) {
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) Update(value, counts[value]);
  }
}

void HashSketch::Merge(const HashSketch& other) {
  SKIMJOIN_CHECK(CompatibleWith(other)) << "merging incompatible hash sketches";
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

int64_t HashSketch::PointEstimate(uint64_t value) const {
  // thread_local scratch: no allocation per estimate once warm (SKIMDENSE
  // calls this for every value that survives its bucket filter).
  static thread_local std::vector<int64_t> estimates;
  estimates.resize(config_.num_tables);
  for (uint64_t table = 0; table < config_.num_tables; ++table) {
    const uint64_t bucket = bucket_hashes_[table](value);
    estimates[table] = sign_hashes_[table](value) *
                       counters_[table * config_.num_buckets + bucket];
  }
  return MedianInt64(estimates);
}

bool HashSketch::CompatibleWith(const HashSketch& other) const {
  return config_.num_tables == other.config_.num_tables &&
         config_.num_buckets == other.config_.num_buckets &&
         seed_ == other.seed_;
}

StatusOr<double> HashSketch::EstimateJoinSize(const HashSketch& f,
                                              const HashSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "hash-sketch join estimation requires sketches with equal "
        "configuration and seed (shared h_j and ξ_j families)");
  }
  return Median(PerTableJoinProducts(f, g));
}

std::vector<double> HashSketch::PerTableJoinProducts(const HashSketch& f,
                                                     const HashSketch& g) {
  std::vector<double> per_table;
  per_table.reserve(f.config_.num_tables);
  for (uint64_t table = 0; table < f.config_.num_tables; ++table) {
    const int64_t* fc = &f.counters_[table * f.config_.num_buckets];
    const int64_t* gc = &g.counters_[table * g.config_.num_buckets];
    double sum = 0.0;
    for (uint64_t k = 0; k < f.config_.num_buckets; ++k) {
      sum += static_cast<double>(fc[k]) * static_cast<double>(gc[k]);
    }
    per_table.push_back(sum);
  }
  return per_table;
}

StatusOr<EstimateReport> HashSketch::EstimateJoinSizeWithReport(
    const HashSketch& f, const HashSketch& g) {
  if (!f.CompatibleWith(g)) {
    return InvalidArgumentError(
        "hash-sketch join estimation requires sketches with equal "
        "configuration and seed (shared h_j and ξ_j families)");
  }
  EstimateReport report;
  report.method = "hash-sketch";
  report.copy_estimates = PerTableJoinProducts(f, g);
  report.estimate = Median(report.copy_estimates);
  const double f2_f = std::max(f.EstimateSelfJoinSize(), 0.0);
  const double f2_g = std::max(g.EstimateSelfJoinSize(), 0.0);
  report.apriori_bound = 4.0 * std::sqrt(f2_f * f2_g /
                                         static_cast<double>(
                                             f.config_.num_buckets));
  FinishReportFromCopies(&report);
  return report;
}

Status HashSketch::SerializeTo(std::ostream& out) const {
  out << "skimjoin.hash_sketch v2\n"
      << config_.num_tables << ' ' << config_.num_buckets << ' ' << seed_
      << '\n';
  for (size_t i = 0; i < counters_.size(); ++i) {
    out << counters_[i] << (i + 1 == counters_.size() ? '\n' : ' ');
  }
  // Trailing sentinel: lets the reader tell a complete counter block from
  // one truncated exactly at a counter boundary.
  out << "end\n";
  if (!out) return IoError("hash-sketch serialization failed");
  return OkStatus();
}

StatusOr<HashSketch> HashSketch::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.hash_sketch" ||
      version != "v2") {
    return InvalidArgumentError("not a skimjoin hash-sketch v2 record");
  }
  HashSketchConfig config;
  uint64_t seed = 0;
  if (!(in >> config.num_tables >> config.num_buckets >> seed)) {
    return InvalidArgumentError("malformed hash-sketch header");
  }
  // Validate the untrusted dimensions BEFORE Create allocates counters (a
  // hostile header could otherwise demand a multi-GB assign).
  SKIMJOIN_RETURN_IF_ERROR(CheckDeserializeDims(
      config.num_tables, config.num_buckets, "hash-sketch"));
  StatusOr<HashSketch> sketch = HashSketch::Create(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(sketch.status());
  for (int64_t& counter : sketch->counters_) {
    if (!(in >> counter)) {
      return InvalidArgumentError("truncated hash-sketch counter block");
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError("hash-sketch record missing its end sentinel");
  }
  return sketch;
}

double HashSketch::EstimateSelfJoinSize() const {
  StatusOr<double> result = EstimateJoinSize(*this, *this);
  SKIMJOIN_CHECK(result.ok());
  return *result;
}

EstimateReport HashSketch::EstimateSelfJoinSizeWithReport() const {
  StatusOr<EstimateReport> report = EstimateJoinSizeWithReport(*this, *this);
  SKIMJOIN_CHECK(report.ok());
  report->method = "hash-sketch-selfjoin";
  return *std::move(report);
}

uint64_t HashSketch::MemoryBytes() const {
  uint64_t total = sizeof(*this) + counters_.capacity() * sizeof(int64_t);
  for (const hashing::BucketHash& h : bucket_hashes_) total += h.MemoryBytes();
  for (const hashing::SignHash& h : sign_hashes_) total += h.MemoryBytes();
  if (plan_cache_) total += plan_cache_->MemoryBytes();
  return total;
}

SynopsisHealth HashSketch::HealthProbe() const {
  SynopsisHealth health = ProbeCounters(counters_, config_.num_tables);
  health.kind = "hash-sketch";
  return health;
}

}  // namespace sketch
}  // namespace skimjoin
