// Differential proof that every fast-path kernel combination (fastmod,
// plan cache, blocked batches — DESIGN.md §10) is bit-identical to the
// scalar reference path: same counters, same serialized bytes, for every
// sketch family, across randomized shapes, seeds, batch splits, deletes
// and out-of-domain values. The blocked SKIMDENSE scan is held to a
// per-value reference loop the same way.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/skim.h"
#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/kernel_options.h"
#include "stream/stream_element.h"
#include "util/random.h"

namespace skimjoin {
namespace {

using sketch::KernelOptions;
using stream::StreamElement;

/// The kernel combinations under test: each fast path alone, all together,
/// and a stress shape (tiny blocks, tiny cache) that forces block remainders
/// and constant cache eviction.
std::vector<std::pair<std::string, KernelOptions>> KernelModes() {
  std::vector<std::pair<std::string, KernelOptions>> modes;
  modes.emplace_back("scalar", KernelOptions::Scalar());

  KernelOptions fastmod = KernelOptions::Scalar();
  fastmod.use_fastmod = true;
  modes.emplace_back("fastmod", fastmod);

  KernelOptions cache = KernelOptions::Scalar();
  cache.use_plan_cache = true;
  modes.emplace_back("cache", cache);

  KernelOptions blocked = KernelOptions::Scalar();
  blocked.use_blocked_batch = true;
  modes.emplace_back("blocked", blocked);

  KernelOptions simd = KernelOptions::Scalar();
  simd.use_blocked_batch = true;  // the SIMD path lives in the blocked kernel
  simd.use_simd = true;
  modes.emplace_back("simd", simd);

  KernelOptions simd_cache = simd;
  simd_cache.use_plan_cache = true;  // Lookup/Insert miss batching
  modes.emplace_back("simd-cache", simd_cache);

  // All-on (the production default) and the stress shape both include the
  // SIMD dispatch; block size 3 forces every vector kernel through its
  // sub-lane-width tail path on every block.
  modes.emplace_back("all", KernelOptions{});

  KernelOptions stress;
  stress.batch_block_size = 3;
  stress.plan_cache_slots = 4;
  modes.emplace_back("stress", stress);

  KernelOptions stress_scalar = stress;
  stress_scalar.use_simd = false;
  modes.emplace_back("stress-nosimd", stress_scalar);
  return modes;
}

/// A randomized workload: Zipf-ish skew (hot values repeat, exercising the
/// plan cache), signed weights including deletes, and — when requested —
/// values beyond `domain` to hit the drop path.
std::vector<StreamElement> MakeWorkload(Rng* rng, uint64_t domain,
                                        uint64_t num_elements,
                                        bool include_out_of_domain) {
  std::vector<StreamElement> elements;
  elements.reserve(num_elements);
  const uint64_t hot_set = 1 + rng->NextUint64Below(16);
  for (uint64_t i = 0; i < num_elements; ++i) {
    uint64_t value;
    const uint64_t roll = rng->NextUint64Below(100);
    if (roll < 50) {
      value = rng->NextUint64Below(hot_set);  // hot keys: cache hits
    } else if (include_out_of_domain && roll < 55) {
      value = domain + rng->NextUint64Below(1 + domain);  // dropped
    } else {
      value = rng->NextUint64Below(domain);  // cold tail: cache misses
    }
    int64_t weight = 1;
    const uint64_t wroll = rng->NextUint64Below(10);
    if (wroll < 2) {
      weight = -1;  // delete
    } else if (wroll < 4) {
      weight = 1 + static_cast<int64_t>(rng->NextUint64Below(1000));
    }
    elements.push_back({value, weight});
  }
  return elements;
}

/// Feeds `elements` through a mix of scalar Update calls and UpdateBatch
/// calls of randomized sizes (including empty and size-1 batches, and sizes
/// that are not multiples of any block size). `split_rng` must be seeded
/// identically across modes so every mode sees the same call sequence.
template <typename Sketch>
void ApplyWorkload(Sketch* sketch, std::span<const StreamElement> elements,
                   Rng* split_rng) {
  size_t pos = 0;
  while (pos < elements.size()) {
    const uint64_t roll = split_rng->NextUint64Below(10);
    if (roll == 0) {
      sketch->Update(elements[pos]);
      ++pos;
    } else {
      const size_t max_batch = elements.size() - pos;
      size_t batch = split_rng->NextUint64Below(257);
      if (batch > max_batch) batch = max_batch;
      sketch->UpdateBatch(elements.subspan(pos, batch));
      pos += batch;
    }
  }
  sketch->UpdateBatch({});  // empty batch must be a no-op in every mode
}

template <typename Sketch>
std::string Serialize(const Sketch& sketch) {
  std::ostringstream out;
  const Status status = sketch.SerializeTo(out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return std::move(out).str();
}

/// Runs `make_sketch()` once per kernel mode over the same workload and
/// asserts every mode serializes to exactly the scalar reference bytes.
template <typename Sketch>
void ExpectAllModesBitIdentical(
    const std::function<Sketch()>& make_sketch,
    std::span<const StreamElement> elements, uint64_t split_seed,
    const std::string& context) {
  std::string reference;
  std::string reference_mode;
  for (const auto& [name, options] : KernelModes()) {
    Sketch sketch = make_sketch();
    sketch.SetKernelOptions(options);
    Rng split_rng(split_seed);
    ApplyWorkload(&sketch, elements, &split_rng);
    const std::string bytes = Serialize(sketch);
    if (reference_mode.empty()) {
      reference = bytes;
      reference_mode = name;
      continue;
    }
    ASSERT_EQ(bytes, reference)
        << context << ": mode '" << name << "' diverged from '"
        << reference_mode << "'";
  }
}

TEST(KernelDifferentialTest, HashSketchAllModesBitIdentical) {
  Rng rng(101);
  for (int trial = 0; trial < 8; ++trial) {
    sketch::HashSketchConfig config;
    config.num_tables = 1 + rng.NextUint64Below(9);
    config.num_buckets = 1 + rng.NextUint64Below(700);
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = 1 + rng.NextUint64Below(1u << 14);
    const auto elements =
        MakeWorkload(&rng, domain, 2000 + rng.NextUint64Below(3000),
                     /*include_out_of_domain=*/false);
    const uint64_t split_seed = rng.NextUint64();
    ExpectAllModesBitIdentical<sketch::HashSketch>(
        [&] {
          auto sketch = sketch::HashSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok());
          return *std::move(sketch);
        },
        elements, split_seed,
        "HashSketch trial " + std::to_string(trial) + " tables=" +
            std::to_string(config.num_tables) + " buckets=" +
            std::to_string(config.num_buckets));
  }
}

TEST(KernelDifferentialTest, CountMinSketchAllModesBitIdentical) {
  Rng rng(202);
  for (int trial = 0; trial < 8; ++trial) {
    sketch::CountMinConfig config;
    config.num_tables = 1 + rng.NextUint64Below(7);
    config.num_buckets = 1 + rng.NextUint64Below(500);
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = 1 + rng.NextUint64Below(1u << 14);
    const auto elements =
        MakeWorkload(&rng, domain, 2000 + rng.NextUint64Below(3000),
                     /*include_out_of_domain=*/false);
    const uint64_t split_seed = rng.NextUint64();
    ExpectAllModesBitIdentical<sketch::CountMinSketch>(
        [&] {
          auto sketch = sketch::CountMinSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok());
          return *std::move(sketch);
        },
        elements, split_seed,
        "CountMinSketch trial " + std::to_string(trial) + " tables=" +
            std::to_string(config.num_tables) + " buckets=" +
            std::to_string(config.num_buckets));
  }
}

TEST(KernelDifferentialTest, AgmsSketchAllModesBitIdentical) {
  Rng rng(303);
  for (int trial = 0; trial < 6; ++trial) {
    sketch::AgmsConfig config;
    config.num_means = 1 + rng.NextUint64Below(48);
    config.num_medians = 1 + rng.NextUint64Below(7);
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = 1 + rng.NextUint64Below(1u << 12);
    const auto elements =
        MakeWorkload(&rng, domain, 1000 + rng.NextUint64Below(2000),
                     /*include_out_of_domain=*/false);
    const uint64_t split_seed = rng.NextUint64();
    ExpectAllModesBitIdentical<sketch::AgmsSketch>(
        [&] {
          auto sketch = sketch::AgmsSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok());
          return *std::move(sketch);
        },
        elements, split_seed,
        "AgmsSketch trial " + std::to_string(trial) + " means=" +
            std::to_string(config.num_means) + " medians=" +
            std::to_string(config.num_medians));
  }
}

TEST(KernelDifferentialTest, SkimmedSketchAllModesBitIdentical) {
  Rng rng(404);
  for (int trial = 0; trial < 5; ++trial) {
    core::SkimmedSketchConfig config;
    config.domain_size = uint64_t{1} << (6 + rng.NextUint64Below(8));
    config.num_tables = 1 + rng.NextUint64Below(7);
    config.num_buckets = 1 + rng.NextUint64Below(300);
    config.use_dyadic_skim = (trial % 2 == 0);  // cover both layouts
    const uint64_t seed = rng.NextUint64();
    // Out-of-domain values exercise the drop path in every kernel; the
    // dropped-update tally must agree across modes as well (it is part of
    // observable behaviour even though it is not serialized).
    const auto elements =
        MakeWorkload(&rng, config.domain_size,
                     2000 + rng.NextUint64Below(3000),
                     /*include_out_of_domain=*/true);
    const uint64_t split_seed = rng.NextUint64();

    std::string reference;
    std::string reference_mode;
    uint64_t reference_dropped = 0;
    for (const auto& [name, options] : KernelModes()) {
      auto created = core::SkimmedSketch::Create(config, seed);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      core::SkimmedSketch sketch = *std::move(created);
      sketch.SetKernelOptions(options);
      Rng split_rng(split_seed);
      ApplyWorkload(&sketch, std::span<const StreamElement>(elements),
                    &split_rng);
      const std::string bytes = Serialize(sketch);
      const std::string context =
          "SkimmedSketch trial " + std::to_string(trial) +
          " dyadic=" + std::to_string(config.use_dyadic_skim);
      if (reference_mode.empty()) {
        reference = bytes;
        reference_mode = name;
        reference_dropped = sketch.dropped_updates();
        continue;
      }
      ASSERT_EQ(bytes, reference)
          << context << ": mode '" << name << "' diverged from '"
          << reference_mode << "'";
      ASSERT_EQ(sketch.dropped_updates(), reference_dropped)
          << context << ": drop count of mode '" << name << "' diverged";
    }
  }
}

// Toggling kernels mid-stream must not disturb accumulated counters: the
// cache is rebuilt but the counter array carries over untouched.
TEST(KernelDifferentialTest, SwitchingModesMidStreamPreservesCounters) {
  Rng rng(505);
  sketch::HashSketchConfig config;
  config.num_tables = 5;
  config.num_buckets = 123;
  const auto elements = MakeWorkload(&rng, /*domain=*/4096, 6000,
                                     /*include_out_of_domain=*/false);
  const auto half = elements.size() / 2;

  auto reference = sketch::HashSketch::Create(config, 99);
  ASSERT_TRUE(reference.ok());
  reference->SetKernelOptions(KernelOptions::Scalar());
  reference->UpdateBatch(std::span<const StreamElement>(elements));

  auto switched = sketch::HashSketch::Create(config, 99);
  ASSERT_TRUE(switched.ok());
  switched->SetKernelOptions(KernelOptions{});
  switched->UpdateBatch(std::span<const StreamElement>(elements).first(half));
  switched->SetKernelOptions(KernelOptions::Scalar());
  switched->UpdateBatch(
      std::span<const StreamElement>(elements).subspan(half));

  EXPECT_EQ(Serialize(*switched), Serialize(*reference));
}

// The plan cache is derived state: Reset() must clear counters while cached
// plans stay valid, and subsequent updates must still match scalar.
TEST(KernelDifferentialTest, ResetThenReuseStaysBitIdentical) {
  Rng rng(606);
  sketch::HashSketchConfig config;
  config.num_tables = 7;
  config.num_buckets = 257;
  const auto warmup = MakeWorkload(&rng, 2048, 3000, false);
  const auto after = MakeWorkload(&rng, 2048, 3000, false);

  auto fast = sketch::HashSketch::Create(config, 7);
  ASSERT_TRUE(fast.ok());
  fast->UpdateBatch(std::span<const StreamElement>(warmup));
  fast->Reset();
  fast->UpdateBatch(std::span<const StreamElement>(after));

  auto scalar = sketch::HashSketch::Create(config, 7);
  ASSERT_TRUE(scalar.ok());
  scalar->SetKernelOptions(KernelOptions::Scalar());
  scalar->UpdateBatch(std::span<const StreamElement>(after));

  EXPECT_EQ(Serialize(*fast), Serialize(*scalar));
}

// --- SKIMDENSE --------------------------------------------------------------

// The COUNTSKETCH point estimate, computed independently of
// HashSketch::PointEstimate: median of ξ_j(v)·C[j][h_j(v)] from a sorted
// copy, the two central values averaged with truncation toward zero.
int64_t ReferenceEstimate(const sketch::HashSketch& sketch, uint64_t value) {
  std::vector<int64_t> estimates;
  for (uint64_t table = 0; table < sketch.config().num_tables; ++table) {
    estimates.push_back(sketch.Sign(table, value) *
                        sketch.Counter(table, sketch.Bucket(table, value)));
  }
  std::sort(estimates.begin(), estimates.end());
  const size_t mid = estimates.size() / 2;
  if (estimates.size() % 2 == 1) return estimates[mid];
  return estimates[mid - 1] + (estimates[mid] - estimates[mid - 1]) / 2;
}

// Fig. 3 as a plain per-value loop over ascending distinct values: estimate,
// skim |estimate| - margin when |estimate| >= threshold, subtract at once.
core::DenseFrequencies ReferenceSkim(sketch::HashSketch* sketch,
                                     std::vector<uint64_t> values,
                                     int64_t threshold, int64_t margin) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  core::DenseFrequencies dense;
  for (uint64_t value : values) {
    const int64_t estimate = ReferenceEstimate(*sketch, value);
    if (std::llabs(estimate) < threshold) continue;
    const int64_t magnitude = std::llabs(estimate) - margin;
    if (magnitude <= 0) continue;
    const int64_t skimmed = estimate >= 0 ? magnitude : -magnitude;
    dense.emplace_back(value, skimmed);
    sketch->Update(value, -skimmed);
  }
  return dense;
}

void ExpectSameSkim(const core::DenseFrequencies& dense,
                    const sketch::HashSketch& residual,
                    const core::DenseFrequencies& reference_dense,
                    const sketch::HashSketch& reference_residual,
                    const std::string& context) {
  ASSERT_EQ(dense, reference_dense) << context;
  const auto counters = residual.CounterArray();
  const auto reference = reference_residual.CounterArray();
  ASSERT_TRUE(std::equal(counters.begin(), counters.end(), reference.begin(),
                         reference.end()))
      << context << ": residual counters differ";
}

// Both SKIMDENSE entry points against the per-value loop, in every kernel
// mode: table counts odd and even (the ceil(s/2) filter bound), thresholds
// from 1 (a skim almost everywhere, so every block recounts after each
// subtraction) up to the largest counter, margins, delete-dominated
// streams, domains below one block and off block multiples (the stress
// modes' 3-value blocks too), and unsorted candidate lists with
// duplicates.
TEST(KernelDifferentialTest, SkimDenseMatchesPerValueLoop) {
  Rng rng(707);
  for (uint64_t tables : {1, 2, 7, 8, 21}) {
    for (bool deletes_dominate : {false, true}) {
      sketch::HashSketchConfig config;
      config.num_tables = tables;
      config.num_buckets = 1 + rng.NextUint64Below(300);
      const uint64_t seed = rng.NextUint64();
      // Below one default block (256), or a few blocks plus a remainder.
      const uint64_t domain = deletes_dominate
                                  ? 1 + rng.NextUint64Below(255)
                                  : 257 + rng.NextUint64Below(900);
      std::vector<StreamElement> elements =
          MakeWorkload(&rng, domain, 3000, /*include_out_of_domain=*/false);
      if (deletes_dominate) {
        for (StreamElement& element : elements) element.weight *= -1;
      }
      auto loaded = sketch::HashSketch::Create(config, seed);
      ASSERT_TRUE(loaded.ok());
      loaded->UpdateBatch(std::span<const StreamElement>(elements));
      int64_t largest = 1;
      for (int64_t counter : loaded->CounterArray()) {
        largest = std::max<int64_t>(largest, std::llabs(counter));
      }
      // Unsorted candidates with duplicates: every hot value twice, then
      // random draws (which repeat on their own).
      std::vector<uint64_t> candidates;
      for (uint64_t value = 0; value < std::min<uint64_t>(domain, 16);
           ++value) {
        candidates.push_back(value);
        candidates.push_back(value);
      }
      for (uint64_t i = 0; i < domain / 2; ++i) {
        candidates.push_back(rng.NextUint64Below(domain));
      }
      std::vector<uint64_t> whole_domain(domain);
      for (uint64_t value = 0; value < domain; ++value) {
        whole_domain[value] = value;
      }

      for (int64_t threshold : {int64_t{1}, largest / 4 + 1, largest}) {
        for (int64_t margin : {int64_t{0}, threshold / 2 + 1}) {
          sketch::HashSketch naive_ref = *loaded;
          const core::DenseFrequencies naive_dense =
              ReferenceSkim(&naive_ref, whole_domain, threshold, margin);
          sketch::HashSketch cand_ref = *loaded;
          const core::DenseFrequencies cand_dense =
              ReferenceSkim(&cand_ref, candidates, threshold, margin);
          for (const auto& [name, options] : KernelModes()) {
            const std::string context =
                "tables=" + std::to_string(tables) +
                " buckets=" + std::to_string(config.num_buckets) +
                " domain=" + std::to_string(domain) +
                " T=" + std::to_string(threshold) +
                " margin=" + std::to_string(margin) +
                " deletes=" + std::to_string(deletes_dominate) +
                " mode=" + name;
            sketch::HashSketch naive = *loaded;
            naive.SetKernelOptions(options);
            const core::DenseFrequencies dense =
                core::SkimDenseNaive(&naive, domain, threshold, margin);
            ExpectSameSkim(dense, naive, naive_dense, naive_ref,
                           "naive " + context);
            sketch::HashSketch cand = *loaded;
            cand.SetKernelOptions(options);
            const core::DenseFrequencies cand_out = core::SkimDenseCandidates(
                &cand, candidates, threshold, margin);
            ExpectSameSkim(cand_out, cand, cand_dense, cand_ref,
                           "candidates " + context);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace skimjoin
