#include "stream/wavelet.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"

namespace skimjoin {
namespace stream {

namespace {

// Depth of heap-numbered node j >= 1 (root j=1 has depth 0).
uint64_t DepthOf(uint64_t j) {
  uint64_t depth = 0;
  while (j >>= 1) ++depth;
  return depth;
}

// Size of the intersection of [lo, hi] with [start, start+len).
uint64_t Overlap(uint64_t lo, uint64_t hi, uint64_t start, uint64_t len) {
  const uint64_t a = std::max(lo, start);
  const uint64_t b = std::min(hi, start + len - 1);
  return a <= b ? (b - a + 1) : 0;
}

}  // namespace

WaveletSynopsis::WaveletSynopsis(uint64_t domain_size)
    : domain_size_(domain_size), levels_(std::bit_width(domain_size - 1)) {}

StatusOr<WaveletSynopsis> WaveletSynopsis::Create(uint64_t domain_size) {
  if (!std::has_single_bit(domain_size) || domain_size < 2) {
    return InvalidArgumentError(
        "wavelet synopses require a power-of-two domain size >= 2");
  }
  return WaveletSynopsis(domain_size);
}

void WaveletSynopsis::Adjust(uint64_t index, double delta) {
  const double updated = Coefficient(index) + delta;
  if (updated == 0.0) {
    coefficients_.erase(index);
  } else {
    coefficients_[index] = updated;
  }
}

void WaveletSynopsis::Update(uint64_t value, int64_t weight) {
  SKIMJOIN_CHECK_LT(value, domain_size_);
  const double w = static_cast<double>(weight);
  // Average coefficient.
  Adjust(0, w / static_cast<double>(domain_size_));
  // Root-to-leaf path: node j covers [start, start+size); the detail
  // coefficient is (avg of left half - avg of right half) / 2, so a +w
  // point mass in the left half moves it by +w/size, right half by -w/size.
  uint64_t j = 1;
  uint64_t start = 0;
  uint64_t size = domain_size_;
  while (size >= 2) {
    const uint64_t half = size / 2;
    const bool left = value < start + half;
    Adjust(j, left ? w / static_cast<double>(size)
                   : -w / static_cast<double>(size));
    j = 2 * j + (left ? 0 : 1);
    if (!left) start += half;
    size = half;
  }
}

double WaveletSynopsis::PointEstimate(uint64_t value) const {
  SKIMJOIN_CHECK_LT(value, domain_size_);
  double result = Coefficient(0);
  uint64_t j = 1;
  uint64_t start = 0;
  uint64_t size = domain_size_;
  while (size >= 2) {
    const uint64_t half = size / 2;
    const bool left = value < start + half;
    result += left ? Coefficient(j) : -Coefficient(j);
    j = 2 * j + (left ? 0 : 1);
    if (!left) start += half;
    size = half;
  }
  return result;
}

StatusOr<double> WaveletSynopsis::RangeSum(uint64_t lo, uint64_t hi) const {
  if (lo > hi) {
    return InvalidArgumentError("range lower bound exceeds upper bound");
  }
  if (hi >= domain_size_) {
    return OutOfRangeError("range extends past the wavelet domain");
  }
  // Iterate the SPARSE coefficient store: each retained coefficient
  // contributes its reconstruction weight times its overlap with the range.
  double total = 0.0;
  for (const auto& [index, value] : coefficients_) {
    if (index == 0) {
      total += value * static_cast<double>(hi - lo + 1);
      continue;
    }
    const uint64_t depth = DepthOf(index);
    const uint64_t size = domain_size_ >> depth;
    const uint64_t start = (index - (uint64_t{1} << depth)) * size;
    const uint64_t half = size / 2;
    const uint64_t left_overlap = Overlap(lo, hi, start, half);
    const uint64_t right_overlap = Overlap(lo, hi, start + half, half);
    total += value * (static_cast<double>(left_overlap) -
                      static_cast<double>(right_overlap));
  }
  return total;
}

Status WaveletSynopsis::SerializeTo(std::ostream& out) const {
  out << "skimjoin.wavelet v1\n"
      << domain_size_ << ' ' << coefficients_.size() << '\n';
  const auto saved_precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& [index, value] : coefficients_) {
    out << index << ' ' << value << '\n';
  }
  out.precision(saved_precision);
  out << "end\n";
  if (!out) return IoError("wavelet serialization failed");
  return OkStatus();
}

StatusOr<WaveletSynopsis> WaveletSynopsis::DeserializeFrom(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.wavelet" ||
      version != "v1") {
    return InvalidArgumentError("not a skimjoin wavelet v1 record");
  }
  uint64_t domain_size = 0;
  uint64_t coefficient_count = 0;
  if (!(in >> domain_size >> coefficient_count)) {
    return InvalidArgumentError("malformed wavelet header");
  }
  StatusOr<WaveletSynopsis> synopsis = WaveletSynopsis::Create(domain_size);
  SKIMJOIN_RETURN_IF_ERROR(synopsis.status());
  // Coefficient indices live in [0, domain_size), so a valid record never
  // holds more than domain_size coefficients — caps the read up front.
  if (coefficient_count > domain_size) {
    return InvalidArgumentError("wavelet record has a bad coefficient count");
  }
  for (uint64_t i = 0; i < coefficient_count; ++i) {
    uint64_t index = 0;
    double value = 0.0;
    if (!(in >> index >> value)) {
      return InvalidArgumentError("truncated wavelet coefficient block");
    }
    if (index >= domain_size) {
      return InvalidArgumentError("wavelet coefficient index out of range");
    }
    if (!synopsis->coefficients_.emplace(index, value).second) {
      return InvalidArgumentError("wavelet record has a duplicate index");
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError("wavelet record missing its end sentinel");
  }
  return synopsis;
}

double WaveletSynopsis::NormalizationOf(uint64_t index) const {
  if (index == 0) return std::sqrt(static_cast<double>(domain_size_));
  return std::sqrt(static_cast<double>(domain_size_ >> DepthOf(index)));
}

std::vector<std::pair<uint64_t, double>> WaveletSynopsis::TopCoefficients(
    uint64_t budget) const {
  std::vector<std::pair<uint64_t, double>> all(coefficients_.begin(),
                                               coefficients_.end());
  std::sort(all.begin(), all.end(), [this](const auto& a, const auto& b) {
    const double na = std::abs(a.second) * NormalizationOf(a.first);
    const double nb = std::abs(b.second) * NormalizationOf(b.first);
    if (na != nb) return na > nb;
    return a.first < b.first;
  });
  if (all.size() > budget) all.resize(budget);
  return all;
}

void WaveletSynopsis::CompressTo(uint64_t budget) {
  if (coefficients_.size() <= budget) return;
  const auto kept = TopCoefficients(budget);
  coefficients_.clear();
  for (const auto& [index, value] : kept) coefficients_.emplace(index, value);
}

uint64_t WaveletSynopsis::MemoryBytes() const {
  // Red-black tree nodes carry three pointers plus a color word on top of
  // the key/value payload.
  constexpr uint64_t kMapNodeOverhead = 4 * sizeof(void*);
  return sizeof(*this) +
         coefficients_.size() *
             (sizeof(std::pair<const uint64_t, double>) + kMapNodeOverhead);
}

}  // namespace stream
}  // namespace skimjoin
