#include "core/join_estimators.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/skimmed_sketch.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/reservoir_sample.h"
#include "sketch/serial_limits.h"
#include "util/logging.h"

namespace skimjoin {
namespace core {

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kAgms:
      return "agms";
    case EstimatorKind::kHashSketch:
      return "hash-sketch";
    case EstimatorKind::kSkimmedSketch:
      return "skimmed";
    case EstimatorKind::kCountMin:
      return "count-min";
    case EstimatorKind::kSampling:
      return "sampling";
    case EstimatorKind::kPartitionedAgms:
      return "partitioned-agms";
  }
  return "unknown";
}

namespace {

// A frequency vector as one batch of (value, frequency) arrivals.
std::vector<stream::StreamElement> NonzeroElements(
    const stream::FrequencyVector& frequencies) {
  std::vector<stream::StreamElement> elements;
  const auto& counts = frequencies.counts();
  for (uint64_t value = 0; value < counts.size(); ++value) {
    if (counts[value] != 0) elements.push_back({value, counts[value]});
  }
  return elements;
}

}  // namespace

void JoinEstimatorPair::AbsorbF(const stream::FrequencyVector& frequencies) {
  UpdateBatchF(NonzeroElements(frequencies));
}

void JoinEstimatorPair::AbsorbG(const stream::FrequencyVector& frequencies) {
  UpdateBatchG(NonzeroElements(frequencies));
}

StatusOr<EstimateReport> JoinEstimatorPair::EstimateWithReport() const {
  StatusOr<double> estimate = Estimate();
  SKIMJOIN_RETURN_IF_ERROR(estimate.status());
  EstimateReport report;
  report.method = Name();
  report.estimate = *estimate;
  FinishReportFromCopies(&report);
  return report;
}

Status JoinEstimatorPair::SerializeTo(std::ostream&) const {
  return UnimplementedError(std::string("join estimator '") + Name() +
                            "' does not support serialization");
}

Status JoinEstimatorPair::RestoreFrom(std::istream&) {
  return UnimplementedError(std::string("join estimator '") + Name() +
                            "' does not support serialization");
}

Status JoinEstimatorPair::MergeFrom(const JoinEstimatorPair&) {
  return UnimplementedError(std::string("join estimator '") + Name() +
                            "' does not support merging");
}

namespace {

// Shared framing for the serializable pair classes: one tagged header line
// naming the concrete method, then the F and G synopsis records.
Status WritePairHeader(std::ostream& out, const char* kind) {
  out << "skimjoin.join_pair v1 " << kind << '\n';
  if (!out) return IoError("join-pair serialization failed");
  return OkStatus();
}

Status ReadPairHeader(std::istream& in, const char* kind) {
  std::string tag, version, recorded_kind;
  if (!(in >> tag >> version >> recorded_kind) ||
      tag != "skimjoin.join_pair" || version != "v1") {
    return InvalidArgumentError("not a skimjoin join-pair v1 record");
  }
  if (recorded_kind != kind) {
    return InvalidArgumentError("join-pair record holds method '" +
                                recorded_kind + "', expected '" + kind + "'");
  }
  return OkStatus();
}

Status MergeMismatch(const char* kind) {
  return InvalidArgumentError(
      std::string("cannot merge into join estimator '") + kind +
      "': peer is a different method or an incompatible shape/seed");
}

// Shared by the sketch-backed pairs' HealthProbe overrides: probe both
// synopses and tag which stream each probe belongs to.
template <typename Sketch>
std::vector<SynopsisHealth> ProbePair(const Sketch& f, const Sketch& g) {
  std::vector<SynopsisHealth> probes;
  probes.reserve(2);
  probes.push_back(f.HealthProbe());
  probes.back().role = "f";
  probes.push_back(g.HealthProbe());
  probes.back().role = "g";
  return probes;
}

template <typename Sketch>
Status SerializePair(std::ostream& out, const char* kind, const Sketch& f,
                     const Sketch& g) {
  SKIMJOIN_RETURN_IF_ERROR(WritePairHeader(out, kind));
  SKIMJOIN_RETURN_IF_ERROR(f.SerializeTo(out));
  return g.SerializeTo(out);
}

template <typename Sketch>
Status RestorePair(std::istream& in, const char* kind, Sketch* f, Sketch* g) {
  SKIMJOIN_RETURN_IF_ERROR(ReadPairHeader(in, kind));
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch restored_f, Sketch::DeserializeFrom(in));
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch restored_g, Sketch::DeserializeFrom(in));
  // The pair being restored into was created from the checkpointed spec +
  // seed, so a shape/seed mismatch means the record belongs to a different
  // query — refuse rather than splice in foreign hash families.
  if (!restored_f.CompatibleWith(*f) || !restored_g.CompatibleWith(*g)) {
    return InvalidArgumentError(
        std::string("join-pair record for '") + kind +
        "' is incompatible with this pair's configuration");
  }
  *f = std::move(restored_f);
  *g = std::move(restored_g);
  return OkStatus();
}

// The four linear sketch families share one pair: each exposes the same
// Update/UpdateBatch kernels, static EstimateJoinSize{,WithReport},
// CompatibleWith/Merge, HealthProbe and text codec.
template <typename Sketch, EstimatorKind kKind>
class SketchPair final : public JoinEstimatorPair {
 public:
  SketchPair(Sketch f, Sketch g) : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateBatchF(std::span<const stream::StreamElement> elements) override {
    f_.UpdateBatch(elements);
  }
  void UpdateBatchG(std::span<const stream::StreamElement> elements) override {
    g_.UpdateBatch(elements);
  }
  StatusOr<double> Estimate() const override {
    return Sketch::EstimateJoinSize(f_, g_);
  }
  StatusOr<EstimateReport> EstimateWithReport() const override {
    return Sketch::EstimateJoinSizeWithReport(f_, g_);
  }
  uint64_t SpaceCounters() const override {
    if constexpr (requires(const Sketch& s) { s.TotalCounters(); }) {
      return f_.TotalCounters();
    } else {
      return f_.config().TotalCounters();
    }
  }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override { return EstimatorKindName(kKind); }
  Status SerializeTo(std::ostream& out) const override {
    return SerializePair(out, Name(), f_, g_);
  }
  Status RestoreFrom(std::istream& in) override {
    return RestorePair(in, Name(), &f_, &g_);
  }
  Status MergeFrom(const JoinEstimatorPair& other) override {
    const auto* peer = dynamic_cast<const SketchPair*>(&other);
    if (peer == nullptr || !f_.CompatibleWith(peer->f_) ||
        !g_.CompatibleWith(peer->g_)) {
      return MergeMismatch(Name());
    }
    f_.Merge(peer->f_);
    g_.Merge(peer->g_);
    return OkStatus();
  }

  std::vector<SynopsisHealth> HealthProbe() const override {
    return ProbePair(f_, g_);
  }

 private:
  Sketch f_;
  Sketch g_;
};

using AgmsPair = SketchPair<sketch::AgmsSketch, EstimatorKind::kAgms>;
using HashSketchPair =
    SketchPair<sketch::HashSketch, EstimatorKind::kHashSketch>;
using SkimmedPair = SketchPair<SkimmedSketch, EstimatorKind::kSkimmedSketch>;
using CountMinPair =
    SketchPair<sketch::CountMinSketch, EstimatorKind::kCountMin>;

// The methods without a batch kernel, codec, merge or probes (partitioned
// AGMS, sampling) feed a batch element by element.
template <typename Synopsis, EstimatorKind kKind>
class ElementwisePair : public JoinEstimatorPair {
 public:
  ElementwisePair(Synopsis f, Synopsis g)
      : f_(std::move(f)), g_(std::move(g)) {}

  void UpdateBatchF(std::span<const stream::StreamElement> elements) override {
    for (const auto& e : elements) f_.Update(e.value, e.weight);
  }
  void UpdateBatchG(std::span<const stream::StreamElement> elements) override {
    for (const auto& e : elements) g_.Update(e.value, e.weight);
  }
  StatusOr<double> Estimate() const override {
    return Synopsis::EstimateJoinSize(f_, g_);
  }
  uint64_t MemoryBytes() const override {
    return f_.MemoryBytes() + g_.MemoryBytes();
  }
  const char* Name() const override { return EstimatorKindName(kKind); }

 protected:
  Synopsis f_;
  Synopsis g_;
};

class PartitionedAgmsPair final
    : public ElementwisePair<sketch::PartitionedAgmsSketch,
                             EstimatorKind::kPartitionedAgms> {
 public:
  using ElementwisePair::ElementwisePair;
  uint64_t SpaceCounters() const override { return f_.TotalCounters(); }
};

class SamplingPair final
    : public ElementwisePair<sketch::ReservoirSample,
                             EstimatorKind::kSampling> {
 public:
  using ElementwisePair::ElementwisePair;
  uint64_t SpaceCounters() const override { return f_.capacity(); }
  // A sample is not a linear synopsis: expand frequency vectors into unit
  // inserts.
  void AbsorbF(const stream::FrequencyVector& frequencies) override {
    AbsorbInto(&f_, frequencies);
  }
  void AbsorbG(const stream::FrequencyVector& frequencies) override {
    AbsorbInto(&g_, frequencies);
  }

 private:
  static void AbsorbInto(sketch::ReservoirSample* sample,
                         const stream::FrequencyVector& frequencies) {
    const auto& counts = frequencies.counts();
    for (uint64_t value = 0; value < counts.size(); ++value) {
      SKIMJOIN_CHECK_GE(counts[value], 0)
          << "sampling cannot absorb negative frequencies";
      for (int64_t i = 0; i < counts[value]; ++i) sample->Update(value, 1);
    }
  }
};

// Wraps the F and G synopses in `Pair`, or returns the first creation error.
template <typename Pair, typename Sketch>
StatusOr<std::unique_ptr<JoinEstimatorPair>> MakePair(StatusOr<Sketch> f,
                                                      StatusOr<Sketch> g) {
  SKIMJOIN_RETURN_IF_ERROR(f.status());
  SKIMJOIN_RETURN_IF_ERROR(g.status());
  return std::unique_ptr<JoinEstimatorPair>(
      new Pair(*std::move(f), *std::move(g)));
}

}  // namespace

StatusOr<std::unique_ptr<JoinEstimatorPair>> CreateJoinEstimatorPair(
    const EstimatorSpec& spec, uint64_t seed) {
  if (spec.space_counters < 1) {
    return InvalidArgumentError("EstimatorSpec.space_counters must be >= 1");
  }
  // Every sketch and the reservoir hold at most space_counters counters
  // (the dyadic skimmed levels check their extra on top in ForSpace).
  SKIMJOIN_RETURN_IF_ERROR(
      sketch::CheckSpecCounters({{spec.space_counters}}, "join estimator"));
  // Checkpoints and fleet registrations carry the skimmed knobs as decimal
  // text, which has no spelling for inf or NaN: every method's must be
  // finite, even where it goes unused.
  if (!std::isfinite(spec.threshold_scale) ||
      !std::isfinite(spec.recurse_slack) || !std::isfinite(spec.skim_margin)) {
    return InvalidArgumentError("EstimatorSpec skim knobs must be finite");
  }
  switch (spec.kind) {
    case EstimatorKind::kAgms: {
      if (spec.agms_num_medians < 1 ||
          spec.space_counters < spec.agms_num_medians) {
        return InvalidArgumentError(
            "AGMS spec needs 1 <= agms_num_medians <= space_counters");
      }
      sketch::AgmsConfig config;
      config.num_medians = spec.agms_num_medians;
      config.num_means = spec.space_counters / spec.agms_num_medians;
      return MakePair<AgmsPair>(
          sketch::AgmsSketch::Create(config, seed),
          sketch::AgmsSketch::Create(config, seed));
    }
    case EstimatorKind::kHashSketch: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "hash-sketch spec needs 1 <= num_tables <= space_counters");
      }
      sketch::HashSketchConfig config;
      config.num_tables = spec.num_tables;
      config.num_buckets = spec.space_counters / spec.num_tables;
      return MakePair<HashSketchPair>(
          sketch::HashSketch::Create(config, seed),
          sketch::HashSketch::Create(config, seed));
    }
    case EstimatorKind::kSkimmedSketch: {
      SKIMJOIN_ASSIGN_OR_RETURN(
          SkimmedSketchConfig config,
          SkimmedSketchConfig::ForSpace(spec.domain_size, spec.num_tables,
                                        spec.space_counters,
                                        spec.skimmed_use_dyadic));
      config.threshold_scale = spec.threshold_scale;
      config.recurse_slack = spec.recurse_slack;
      config.skim_margin = spec.skim_margin;
      return MakePair<SkimmedPair>(
          SkimmedSketch::Create(config, seed),
          SkimmedSketch::Create(config, seed));
    }
    case EstimatorKind::kCountMin: {
      if (spec.num_tables < 1 || spec.space_counters < spec.num_tables) {
        return InvalidArgumentError(
            "count-min spec needs 1 <= num_tables <= space_counters");
      }
      sketch::CountMinConfig config;
      config.num_tables = spec.num_tables;
      config.num_buckets = spec.space_counters / spec.num_tables;
      return MakePair<CountMinPair>(
          sketch::CountMinSketch::Create(config, seed),
          sketch::CountMinSketch::Create(config, seed));
    }
    case EstimatorKind::kPartitionedAgms: {
      if (spec.partition_plan == nullptr) {
        return InvalidArgumentError(
            "partitioned AGMS requires EstimatorSpec.partition_plan (built "
            "from a-priori frequency statistics via sketch::PlanPartitions)");
      }
      return MakePair<PartitionedAgmsPair>(
          sketch::PartitionedAgmsSketch::Create(*spec.partition_plan, seed),
          sketch::PartitionedAgmsSketch::Create(*spec.partition_plan, seed));
    }
    case EstimatorKind::kSampling: {
      return MakePair<SamplingPair>(
          sketch::ReservoirSample::Create(spec.space_counters, seed),
          sketch::ReservoirSample::Create(spec.space_counters, seed + 1));
    }
  }
  return InvalidArgumentError("unknown estimator kind");
}

}  // namespace core
}  // namespace skimjoin
