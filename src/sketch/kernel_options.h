// Ablation switches for the sketch update fast paths (DESIGN.md §10).
//
// Every fast path is bit-identical to the scalar reference kernel —
// tests/kernel_differential_test.cc proves it across randomized configs —
// so these switches exist for measurement (bench_update_time runs each
// mode) and for bisecting a perf surprise, not for correctness trade-offs.
// Defaults are all-on: the fast paths ARE the production path.

#ifndef SKIMJOIN_SKETCH_KERNEL_OPTIONS_H_
#define SKIMJOIN_SKETCH_KERNEL_OPTIONS_H_

#include <cstdint>

namespace skimjoin {
namespace sketch {

struct KernelOptions {
  /// Replace `% num_buckets` in BucketHash with a precomputed 128-bit
  /// reciprocal multiply (hashing::FastDivisor).
  bool use_fastmod = true;

  /// Memoize per-element (bucket, sign) plans in a direct-mapped
  /// hashing::HashPlanCache so hot keys skip polynomial evaluation.
  bool use_plan_cache = true;

  /// Batch updates in fixed-size blocks: hash a block into scratch arrays,
  /// then scatter with prefetch, instead of a per-element hash→store chain.
  bool use_blocked_batch = true;

  /// Slots in each sketch's plan cache (rounded up to a power of two).
  /// 16384 slots is tags (128 KiB) + plans (16384 × tables × 4 B ≈ 448 KiB
  /// at s=7) — large enough that a z=1.0 Zipf hot set over a 2^18 domain
  /// hits ~2/3 of probes, small enough to stay cache-resident next to the
  /// counter arrays. Dyadic levels clamp this to their own prefix domain
  /// (DyadicSkimmer::SetKernelOptions), so deep levels cost almost nothing.
  uint64_t plan_cache_slots = 16384;

  /// Elements hashed per block before the scatter phase; 256 keeps the
  /// scratch plan array (256 × tables × 8 B ≈ 14 KiB at s=7) inside L1.
  /// The SKIMDENSE scan blocks its values by the same size.
  uint64_t batch_block_size = 256;

  /// Evaluate the Carter–Wegman polynomials of the blocked kernels (batch
  /// ingest and the SKIMDENSE scan of core/skim.h) with the SIMD block
  /// kernels (hashing/simd_hash.h): AVX-512 or AVX2 lanes by runtime CPUID
  /// dispatch, scalar fallback elsewhere (and under
  /// SKIMJOIN_FORCE_SCALAR=1). Lane-for-lane bit-identical to the scalar
  /// Horner loop; ingest uses it only when use_blocked_batch is on.
  bool use_simd = true;

  /// Everything off: the pre-kernel scalar reference path, kept for
  /// differential tests and ablation baselines.
  static KernelOptions Scalar() {
    KernelOptions o;
    o.use_fastmod = false;
    o.use_plan_cache = false;
    o.use_blocked_batch = false;
    o.use_simd = false;
    return o;
  }

  bool operator==(const KernelOptions&) const = default;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_KERNEL_OPTIONS_H_
