// Order statistics and summary statistics used by the estimators
// (median-of-means boosting) and the benchmark harness.

#ifndef SKIMJOIN_UTIL_STATS_H_
#define SKIMJOIN_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace skimjoin {

/// Median of `values` (lower median for even sizes is NOT used: the two
/// central elements are averaged, matching the convention in the paper's
/// estimator pseudo-code). Pre-condition: !values.empty(). The input is
/// taken by value because selection reorders it.
double Median(std::vector<double> values);

/// Arithmetic mean. Pre-condition: !values.empty().
double Mean(const std::vector<double>& values);

/// Population standard deviation. Pre-condition: !values.empty().
double StdDev(const std::vector<double>& values);

/// Linear-interpolation percentile, q in [0, 1]. Pre-condition:
/// !values.empty() and 0 <= q <= 1.
double Percentile(std::vector<double> values, double q);

/// Integer median used on counter-valued estimates; averages the two central
/// elements with rounding toward zero. Selects in place, so it reorders
/// `values` and never allocates. Pre-condition: !values.empty().
int64_t MedianInt64(std::span<int64_t> values);

}  // namespace skimjoin

#endif  // SKIMJOIN_UTIL_STATS_H_
