// Estimate provenance: the self-description every estimator family can
// return next to its point answer. A bare double says nothing about how
// trustworthy it is; an EstimateReport carries the per-copy atomic
// estimates behind the median-of-means boost, their spread, an empirical
// confidence interval read off the copy distribution, the paper's a-priori
// additive-error envelope, and — for skimmed joins — the full skim
// diagnostics (dense items extracted, residual L2 mass before/after
// skimming, the four sub-join contributions of PAPER.md §3.2).
//
// This lives in util (not sketch/ or core/) because it is pure data plus
// order statistics: every layer from the sketches up through the query
// engine fills one in without new inter-layer dependencies. Reports are
// built at ESTIMATE time only — never on the per-element ingest path.

#ifndef SKIMJOIN_UTIL_ESTIMATE_REPORT_H_
#define SKIMJOIN_UTIL_ESTIMATE_REPORT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace skimjoin {

/// An empirical two-sided interval around an estimate, derived from the
/// copy distribution (see FinishReportFromCopies).
struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
  /// Nominal coverage level in (0, 1), e.g. 0.90.
  double level = 0.90;

  double Width() const { return upper - lower; }
};

/// Skim-pipeline internals for one skimmed-sketch join estimate
/// (ESTSKIMJOINSIZE, PAPER.md §3): what was skimmed out of each stream and
/// how the four sub-joins composed into the answer.
struct SkimDiagnostics {
  /// SKIMDENSE extraction thresholds (counts at or above are "dense").
  int64_t threshold_f = 0;
  int64_t threshold_g = 0;
  /// Dense domain values extracted per stream.
  uint64_t dense_count_f = 0;
  uint64_t dense_count_g = 0;
  /// Estimated L2 norm (sqrt of self-join size) of each stream's frequency
  /// vector before skimming and of the residual sketch after the dense
  /// frequencies were subtracted out. The paper's error gain comes from
  /// after << before.
  double residual_l2_before_f = 0.0;
  double residual_l2_after_f = 0.0;
  double residual_l2_before_g = 0.0;
  double residual_l2_after_g = 0.0;
  /// The four sub-join contributions; they sum to the point estimate.
  double dense_dense = 0.0;
  double dense_sparse = 0.0;
  double sparse_dense = 0.0;
  double sparse_sparse = 0.0;

  /// Residual-to-original L2 ratio per stream in [0, ~1]: how much mass
  /// skimming removed (0 = everything was dense, 1 = nothing skimmed).
  /// Zero when the "before" norm is zero (empty stream).
  double ResidualRatioF() const {
    return residual_l2_before_f > 0.0
               ? residual_l2_after_f / residual_l2_before_f
               : 0.0;
  }
  double ResidualRatioG() const {
    return residual_l2_before_g > 0.0
               ? residual_l2_after_g / residual_l2_before_g
               : 0.0;
  }
};

/// A point-in-time health probe of one synopsis: is this sketch sized and
/// behaving right for the stream it has absorbed? Like SkimDiagnostics,
/// this is pure data living in util/ so every synopsis family (sketch/,
/// core/) can fill one in and every consumer (query engine, shell, dist
/// coordinator) can read it without new inter-layer dependencies. Probes
/// are read-only and run at HEALTH time, never on the ingest path.
struct SynopsisHealth {
  /// Synopsis family, e.g. "hash-sketch", "count-min", "agms", "skimmed",
  /// "dyadic".
  std::string kind;
  /// Which side of a pair this probe describes ("f"/"g"), or "" for a
  /// standalone synopsis.
  std::string role;
  /// Counters probed.
  uint64_t total_counters = 0;
  /// Fraction of counters that are nonzero, overall and as the min/max
  /// across tables (bucket-occupancy quantiles: a lopsided table hints at
  /// a weak hash interaction or a pathological value distribution).
  double occupancy = 0.0;
  double occupancy_min_table = 0.0;
  double occupancy_max_table = 0.0;
  /// |counter| order statistics over the NONZERO counters (0 when all
  /// counters are zero).
  double counter_p50 = 0.0;
  double counter_p99 = 0.0;
  double counter_max = 0.0;
  /// Counter-saturation headroom: p99 |counter| as a fraction of int32's
  /// range (where counters stop fitting 32 bits) and max |counter| as a
  /// fraction of int64's (true overflow).
  double int32_saturation = 0.0;
  double int64_saturation = 0.0;
  /// Estimated distinct values hashed per bucket, inverted from mean
  /// occupancy (n̂ = ln(1-occ)/ln(1-1/b), pressure = n̂/b). NaN for
  /// synopses where every update touches every counter (AGMS).
  double collision_pressure = std::numeric_limits<double>::quiet_NaN();
  /// Skimmed sketches only; NaN elsewhere. The current skim's dense-value
  /// fraction of the domain and residual-to-original L2 ratio, next to the
  /// values recorded at the last ESTIMATE-path SKIMDENSE — drift between
  /// them means answers are being served from an increasingly stale
  /// picture of which values are dense.
  double dense_fraction = std::numeric_limits<double>::quiet_NaN();
  double residual_ratio = std::numeric_limits<double>::quiet_NaN();
  double dense_fraction_at_estimate =
      std::numeric_limits<double>::quiet_NaN();
  double residual_ratio_at_estimate =
      std::numeric_limits<double>::quiet_NaN();
};

/// Fills the counter-derived fields of a SynopsisHealth (occupancy,
/// |counter| quantiles, saturation, collision pressure) from a row-major
/// counter array of `num_tables` equal tables. The caller sets kind/role
/// and any family-specific fields. `num_tables` == 0 or a size that does
/// not divide evenly degrades to one whole-array "table".
SynopsisHealth ProbeCounters(std::span<const int64_t> counters,
                             uint64_t num_tables);

/// Compact one-line description of a probe, e.g. "occ 0.93, p99 1824
/// (0.0% of int32), 3.1 values/bucket, residual 0.40 (vs 0.38 at
/// estimate)". Shared by RenderEstimateReport and the engine's health
/// renderer so both read the same.
std::string DescribeSynopsisHealth(const SynopsisHealth& health);

/// One shard's contribution to a distributed (coordinator-merged) answer:
/// which worker it came from, how healthy that worker looked at answer
/// time, and whether its delta was refreshed in the answering pull round
/// or served stale from the coordinator's cache.
struct ShardContribution {
  /// Worker shard name, e.g. "shard0".
  std::string shard;
  /// Health at answer time: "healthy", "recovering", or "down".
  std::string health;
  /// True when the delta was pulled fresh in the answering round; false
  /// when the coordinator fell back to its cached (stale) copy.
  bool fresh = true;
  /// Worker ingest epoch (update batches applied) the delta reflects.
  uint64_t epoch = 0;
  /// How many epochs the delta lags the worker's last acknowledged epoch.
  /// Nonzero for a restarted worker that has not finished replay.
  uint64_t epochs_behind = 0;
};

/// The provenance record a *WithReport estimator variant returns. The
/// `estimate` field is always bit-identical to the corresponding legacy
/// double-returning API (both paths share the same per-copy computation).
struct EstimateReport {
  /// Estimator family, e.g. "agms", "hash-sketch", "skimmed", "count-min".
  std::string method;
  /// The point answer (identical to the legacy API's return value).
  double estimate = 0.0;
  /// The independent atomic estimates the point answer was boosted from:
  /// one per median group (AGMS) or per hash table (bucketed sketches).
  /// May be empty for methods without per-copy structure (e.g. sampling).
  std::vector<double> copy_estimates;
  /// Population standard deviation of copy_estimates (0 when < 2 copies):
  /// the observed median-of-means spread.
  double copy_spread = 0.0;
  /// Empirical interval from the copy distribution, widened when necessary
  /// to contain `estimate` (a min- or sum-composed point answer need not
  /// lie between the copy quantiles).
  ConfidenceInterval ci;
  /// The paper's a-priori additive error envelope for this family and
  /// provisioning (§2.2 Theorem 1 variance term for AGMS-style estimators,
  /// §3.2 decomposition for skimmed joins), evaluated with estimated
  /// self-join sizes. NaN when the family has no closed-form envelope.
  double apriori_bound = std::numeric_limits<double>::quiet_NaN();
  /// Present only for skimmed-sketch join estimates.
  std::optional<SkimDiagnostics> skim;
  /// Synopsis health probes taken at answer time (one per synopsis behind
  /// the estimate, e.g. the f and g sketches of a join pair). Optional:
  /// empty when the answering layer did not attach probes. Never affects
  /// `estimate` — probes are read-only observers.
  std::vector<SynopsisHealth> health;
  /// Distributed answers only: true when at least one shard's contribution
  /// was stale or missing — the answer is degraded, not exact-merge.
  bool partial = false;
  /// Distributed answers only: one entry per worker shard the coordinator
  /// merged (or tried to). Empty for single-process answers.
  std::vector<ShardContribution> shards;

  /// CI width relative to the estimate's magnitude (absolute width when the
  /// estimate is smaller than 1 in magnitude) — the blow-up signal the
  /// engine records as query.<id>.ci_rel_width.
  double CiRelWidth() const;
};

/// Fills the derived statistics of `report` from its `estimate` and
/// `copy_estimates`: copy_spread, and the empirical CI as the
/// [(1-level)/2, 1-(1-level)/2] percentiles of the copies, expanded to
/// include the point estimate. With no copies the CI degenerates to the
/// point estimate itself.
void FinishReportFromCopies(EstimateReport* report, double level = 0.90);

/// Renders the report as a fixed-width text table (util/table_printer) for
/// the shell's `explain` command and the CLI's --explain flag.
std::string RenderEstimateReport(const EstimateReport& report);

}  // namespace skimjoin

#endif  // SKIMJOIN_UTIL_ESTIMATE_REPORT_H_
