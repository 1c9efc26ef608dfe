#include "stream/generators.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/logging.h"

namespace skimjoin {
namespace stream {

UniformDistribution::UniformDistribution(uint64_t domain_size)
    : domain_size_(domain_size) {
  SKIMJOIN_CHECK_GE(domain_size, 1u);
}

uint64_t UniformDistribution::Sample(Rng* rng) const {
  return rng->NextUint64Below(domain_size_);
}

std::vector<StreamElement> UniformDistribution::GenerateElements(
    uint64_t count, Rng* rng) const {
  std::vector<StreamElement> elements;
  elements.reserve(count);
  for (uint64_t i = 0; i < count; ++i) elements.push_back(Insert(Sample(rng)));
  return elements;
}

FrequencyVector UniformDistribution::ExpectedFrequencies(
    uint64_t count) const {
  FrequencyVector result(domain_size_);
  const uint64_t base = count / domain_size_;
  const uint64_t remainder = count % domain_size_;
  for (uint64_t v = 0; v < domain_size_; ++v) {
    result.Add(v, static_cast<int64_t>(base + (v < remainder ? 1 : 0)));
  }
  return result;
}

SelfSimilarDistribution::SelfSimilarDistribution(uint64_t domain_size,
                                                 double bias)
    : domain_size_(domain_size),
      bias_(bias),
      levels_(std::bit_width(domain_size - 1)) {
  SKIMJOIN_CHECK(std::has_single_bit(domain_size) && domain_size >= 2)
      << "self-similar distributions need a power-of-two domain";
  SKIMJOIN_CHECK(bias >= 0.5 && bias < 1.0) << "bias must be in [0.5, 1)";
}

uint64_t SelfSimilarDistribution::Sample(Rng* rng) const {
  // Walk the bit levels top-down: at each level choose the biased (lower)
  // half with probability `bias`.
  uint64_t value = 0;
  for (uint64_t level = 0; level < levels_; ++level) {
    value <<= 1;
    if (rng->NextDouble() >= bias_) value |= 1;
  }
  return value;
}

double SelfSimilarDistribution::Probability(uint64_t value) const {
  SKIMJOIN_CHECK_LT(value, domain_size_);
  double p = 1.0;
  for (uint64_t level = 0; level < levels_; ++level) {
    const bool high_bit = (value >> (levels_ - 1 - level)) & 1;
    p *= high_bit ? (1.0 - bias_) : bias_;
  }
  return p;
}

std::vector<StreamElement> SelfSimilarDistribution::GenerateElements(
    uint64_t count, Rng* rng) const {
  std::vector<StreamElement> elements;
  elements.reserve(count);
  for (uint64_t i = 0; i < count; ++i) elements.push_back(Insert(Sample(rng)));
  return elements;
}

FrequencyVector SelfSimilarDistribution::ExpectedFrequencies(
    uint64_t count) const {
  FrequencyVector result(domain_size_);
  std::vector<double> fractional(domain_size_);
  uint64_t assigned = 0;
  for (uint64_t v = 0; v < domain_size_; ++v) {
    const double expected = Probability(v) * static_cast<double>(count);
    const auto base = static_cast<uint64_t>(expected);
    result.Add(v, static_cast<int64_t>(base));
    assigned += base;
    fractional[v] = expected - static_cast<double>(base);
  }
  SKIMJOIN_CHECK_LE(assigned, count);
  uint64_t leftover = count - assigned;
  if (leftover > 0) {
    std::vector<uint64_t> order(domain_size_);
    std::iota(order.begin(), order.end(), 0);
    const uint64_t take = std::min<uint64_t>(leftover, domain_size_);
    std::partial_sort(
        order.begin(), order.begin() + take, order.end(),
        [&](uint64_t a, uint64_t b) { return fractional[a] > fractional[b]; });
    for (uint64_t i = 0; i < leftover; ++i) {
      result.Add(order[i % domain_size_], 1);
    }
  }
  SKIMJOIN_CHECK_EQ(result.TotalCount(), static_cast<int64_t>(count));
  return result;
}

}  // namespace stream
}  // namespace skimjoin
