#include "query/synopsis.h"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "sketch/serial_limits.h"
#include "util/logging.h"

namespace skimjoin {
namespace query {
namespace {

template <typename Node, typename... Args>
std::unique_ptr<Synopsis> MakeNode(Args&&... args) {
  return std::make_unique<Node>(std::forward<Args>(args)...);
}

Status MergeMismatch(const char* kind) {
  return InvalidArgumentError(std::string("cannot merge another query kind "
                                          "into a ") +
                              kind + " synopsis");
}

StatusOr<std::unique_ptr<Synopsis>> BuildChain(const ChainJoinQuerySpec& spec,
                                               uint64_t seed) {
  if (spec.relations.size() < 2) {
    return InvalidArgumentError("a chain join needs >= 2 relations");
  }
  const uint64_t relations = spec.relations.size();
  std::optional<MultiJoinEstimator> grid;
  std::optional<MultiJoinHashEstimator> hashed;
  if (spec.method == ChainJoinQuerySpec::Method::kAgmsGrid) {
    SKIMJOIN_RETURN_IF_ERROR(sketch::CheckSpecCounters(
        {{relations, spec.num_means, spec.num_medians}}, "chain join"));
    MultiJoinConfig config;
    config.num_means = spec.num_means;
    config.num_medians = spec.num_medians;
    config.relation_attributes.push_back({0});
    for (size_t r = 1; r + 1 < relations; ++r) {
      config.relation_attributes.push_back({r - 1, r});
    }
    config.relation_attributes.push_back({relations - 2});
    SKIMJOIN_ASSIGN_OR_RETURN(grid, MultiJoinEstimator::Create(config, seed));
  } else {
    // The two end relations hold one bucket row per table, every middle
    // relation a buckets² matrix.
    SKIMJOIN_RETURN_IF_ERROR(sketch::CheckSpecCounters(
        {{2, spec.num_tables, spec.num_buckets},
         {relations - 2, spec.num_tables, spec.num_buckets,
          spec.num_buckets}},
        "chain join"));
    MultiJoinHashConfig config;
    config.num_relations = relations;
    config.num_tables = spec.num_tables;
    config.num_buckets = spec.num_buckets;
    SKIMJOIN_ASSIGN_OR_RETURN(hashed,
                              MultiJoinHashEstimator::Create(config, seed));
  }
  return MakeNode<ChainJoinSynopsis>(std::move(grid), std::move(hashed),
                                     spec.relations);
}

}  // namespace

StatusOr<std::unique_ptr<Synopsis>> BuildSynopsis(const QuerySpec& spec,
                                                  uint64_t seed,
                                                  uint64_t domain_size) {
  using Built = StatusOr<std::unique_ptr<Synopsis>>;
  return std::visit(
      SpecVisitor{
          [&](const JoinQuerySpec& s) -> Built {
            core::EstimatorSpec estimator = s.estimator;
            estimator.domain_size = domain_size;
            SKIMJOIN_ASSIGN_OR_RETURN(
                std::unique_ptr<core::JoinEstimatorPair> pair,
                core::CreateJoinEstimatorPair(estimator, seed));
            return MakeNode<JoinSynopsis>(std::move(pair));
          },
          [&](const FrequencyQuerySpec& s) -> Built {
            SKIMJOIN_ASSIGN_OR_RETURN(
                const core::SkimmedSketchConfig config,
                core::SkimmedSketchConfig::ForSpace(
                    domain_size, s.num_tables, s.space_counters,
                    s.use_dyadic));
            SKIMJOIN_ASSIGN_OR_RETURN(
                core::SkimmedSketch sketch,
                core::SkimmedSketch::Create(config, seed));
            return MakeNode<FrequencySynopsis>(std::move(sketch));
          },
          [&](const DistinctCountQuerySpec& s) -> Built {
            SKIMJOIN_RETURN_IF_ERROR(sketch::CheckSpecCounters(
                {{s.num_maps, sketch::FmSketch::kPositions}},
                "distinct-count"));
            SKIMJOIN_ASSIGN_OR_RETURN(
                sketch::FmSketch sketch,
                sketch::FmSketch::Create(s.num_maps, seed));
            return MakeNode<DistinctSynopsis>(std::move(sketch));
          },
          [&](const TopKQuerySpec& s) -> Built {
            if (s.num_tables < 1 || s.space_counters < s.num_tables) {
              return InvalidArgumentError(
                  "top-k query needs 1 <= num_tables <= space_counters");
            }
            sketch::HashSketchConfig config;
            config.num_tables = s.num_tables;
            config.num_buckets =
                std::max<uint64_t>(1, s.space_counters / s.num_tables);
            SKIMJOIN_RETURN_IF_ERROR(sketch::CheckSpecCounters(
                {{config.num_tables, config.num_buckets}, {s.k}}, "top-k"));
            SKIMJOIN_ASSIGN_OR_RETURN(
                core::TopKTracker tracker,
                core::TopKTracker::Create(s.k, config, seed));
            return MakeNode<TopKSynopsis>(std::move(tracker));
          },
          [&](const QuantileQuerySpec& s) -> Built {
            SKIMJOIN_ASSIGN_OR_RETURN(
                stream::GkQuantileSummary summary,
                stream::GkQuantileSummary::Create(s.epsilon));
            return MakeNode<QuantileSynopsis>(std::move(summary));
          },
          [&](const RangeSumQuerySpec& s) -> Built {
            if (s.coefficient_budget < 1) {
              return InvalidArgumentError("coefficient_budget must be >= 1");
            }
            SKIMJOIN_ASSIGN_OR_RETURN(
                stream::WaveletSynopsis synopsis,
                stream::WaveletSynopsis::Create(domain_size));
            return MakeNode<RangeSumSynopsis>(std::move(synopsis),
                                                      s.coefficient_budget);
          },
          [&](const ChainJoinQuerySpec& s) -> Built {
            return BuildChain(s, seed);
          },
      },
      spec);
}

Status JoinSynopsis::MergeFrom(const Synopsis& other) {
  const auto* piece = dynamic_cast<const JoinSynopsis*>(&other);
  if (piece == nullptr) return MergeMismatch("join");
  return pair_->MergeFrom(*piece->pair_);
}

Status FrequencySynopsis::UpdateBatch(
    size_t, std::span<const stream::StreamElement> elements) {
  SKIMJOIN_CHECK(options_ != nullptr)
      << "frequency synopsis fed before an engine subscribed it";
  // Concurrent mode hands every batch but a single element (the scalar
  // Update path) to the workers; synchronous sharding only a batch that
  // fills two chunks — below that the replica round trip costs more than
  // it saves.
  const bool to_workers =
      options_->concurrent
          ? elements.size() > 1
          : options_->shards > 1 &&
                elements.size() >= 2 * ingest::kMinChunkElements;
  if (!to_workers) {
    // Under a live concurrent ingestor this joins the writer lock instead
    // of racing propagation.
    const Ingestor::WriteLock lock = WriterLock();
    if (elements.size() == 1) {
      sketch_.Update(elements.front());
    } else {
      sketch_.UpdateBatch(elements);
      PublishHashCacheDeltas();
    }
    return OkStatus();
  }
  if (ingestor_ == nullptr) {
    const ingest::ConcurrentIngestOptions ingest_options =
        options_->concurrent
            ? ingest::ConcurrentIngestOptions{
                  .num_workers = options_->shards,
                  .propagation_interval_elements =
                      options_->propagation_interval_elements,
                  .max_lag_elements = options_->max_lag_elements}
            : ingest::SynchronousIngestOptions(options_->shards);
    SKIMJOIN_ASSIGN_OR_RETURN(ingestor_,
                              Ingestor::Create(&sketch_, ingest_options));
  }
  const ingest::IngestStats before = ingestor_->stats();
  if (options_->concurrent) {
    // Return without waiting; Engine::FlushIngest is the linearization
    // point.
    ingestor_->AbsorbBatch(elements);
    counters_.epoch_lag->Set(static_cast<double>(ingestor_->epoch_lag()));
  } else {
    ingestor_->IngestBatch(elements);
  }
  PublishIngestStats(before);
  return OkStatus();
}

bool FrequencySynopsis::Flush() {
  if (!Concurrent()) return false;
  const ingest::IngestStats before = ingestor_->stats();
  ingestor_->Flush();
  PublishIngestStats(before);
  counters_.epoch_lag->Set(0.0);
  return true;
}

void FrequencySynopsis::PublishIngestStats(
    const ingest::IngestStats& before) const {
  const ingest::IngestStats& after = ingestor_->stats();
  counters_.merges->Increment(after.merges - before.merges);
  counters_.absorb_nanos->Increment(after.absorb_nanos - before.absorb_nanos);
  counters_.merge_nanos->Increment(after.merge_nanos - before.merge_nanos);
}

Status FrequencySynopsis::RestoreFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(core::SkimmedSketch restored,
                            core::SkimmedSketch::DeserializeFrom(in));
  if (!restored.CompatibleWith(sketch_)) {
    return InvalidArgumentError(
        "restored frequency sketch disagrees with its spec");
  }
  ResetIngest();
  // Deserialized sketches carry default kernel options; keep this node's.
  const sketch::KernelOptions kernels = sketch_.kernel_options();
  sketch_ = std::move(restored);
  SetKernelOptions(kernels);
  return OkStatus();
}

Status FrequencySynopsis::MergeFrom(const Synopsis& other) {
  const auto* piece = dynamic_cast<const FrequencySynopsis*>(&other);
  if (piece == nullptr) return MergeMismatch("frequency");
  if (!piece->sketch_.CompatibleWith(sketch_)) {
    return InvalidArgumentError(
        "frequency sketches disagree on configuration or seed");
  }
  // Concurrent workers propagate into the sketch under the ingestor's
  // writer lock; merge under it too.
  const Ingestor::WriteLock lock = WriterLock();
  sketch_.Merge(piece->sketch_);
  return OkStatus();
}

std::vector<SynopsisHealth> FrequencySynopsis::HealthProbe() const {
  std::vector<SynopsisHealth> probes{sketch_.HealthProbe()};
  if (std::optional<SynopsisHealth> dyadic = sketch_.DyadicHealthProbe()) {
    probes.push_back(*std::move(dyadic));
  }
  return probes;
}

void FrequencySynopsis::SetKernelOptions(const sketch::KernelOptions& options) {
  // Replicas were copied from the sketch under the old kernels.
  ResetIngest();
  sketch_.SetKernelOptions(options);
  // The sketch's tallies restarted with its rebuilt caches.
  cache_hits_seen_ = 0;
  cache_misses_seen_ = 0;
}

void FrequencySynopsis::PublishHashCacheDeltas() const {
  const uint64_t hits = sketch_.hash_cache_hits();
  const uint64_t misses = sketch_.hash_cache_misses();
  if (hits > cache_hits_seen_) {
    counters_.hash_cache_hits->Increment(hits - cache_hits_seen_);
  }
  if (misses > cache_misses_seen_) {
    counters_.hash_cache_misses->Increment(misses - cache_misses_seen_);
  }
  cache_hits_seen_ = hits;
  cache_misses_seen_ = misses;
}

Status DistinctSynopsis::RestoreFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(sketch::FmSketch restored,
                            sketch::FmSketch::DeserializeFrom(in));
  if (!restored.CompatibleWith(sketch_)) {
    return InvalidArgumentError("restored FM sketch disagrees with its spec");
  }
  sketch_ = std::move(restored);
  return OkStatus();
}

Status TopKSynopsis::RestoreFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(core::TopKTracker restored,
                            core::TopKTracker::DeserializeFrom(in));
  if (restored.k() != tracker_.k()) {
    return InvalidArgumentError(
        "restored top-k tracker disagrees with its spec");
  }
  tracker_ = std::move(restored);
  return OkStatus();
}

Status QuantileSynopsis::UpdateBatch(
    size_t, std::span<const stream::StreamElement> elements) {
  for (const stream::StreamElement& element : elements) {
    for (int64_t i = 0; i < element.weight; ++i) summary_.Insert(element.value);
  }
  return OkStatus();
}

Status QuantileSynopsis::RestoreFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(stream::GkQuantileSummary restored,
                            stream::GkQuantileSummary::DeserializeFrom(in));
  if (restored.epsilon() != summary_.epsilon()) {
    return InvalidArgumentError(
        "restored quantile summary disagrees with its spec");
  }
  summary_ = std::move(restored);
  return OkStatus();
}

Status RangeSumSynopsis::UpdateBatch(
    size_t, std::span<const stream::StreamElement> elements) {
  for (const stream::StreamElement& element : elements) {
    synopsis_.Update(element.value, element.weight);
    // Keep the synopsis a B-term summary (with slack so compression is
    // amortized, not per-update).
    if (synopsis_.CoefficientCount() > 2 * coefficient_budget_) {
      synopsis_.CompressTo(coefficient_budget_);
    }
  }
  return OkStatus();
}

Status RangeSumSynopsis::RestoreFrom(std::istream& in) {
  SKIMJOIN_ASSIGN_OR_RETURN(stream::WaveletSynopsis restored,
                            stream::WaveletSynopsis::DeserializeFrom(in));
  if (restored.domain_size() != synopsis_.domain_size()) {
    return InvalidArgumentError(
        "restored wavelet synopsis disagrees with its stream domain");
  }
  synopsis_ = std::move(restored);
  return OkStatus();
}

Status ChainJoinSynopsis::RestoreFrom(std::istream& in) {
  // A fresh node's counters are all zero, so merging the record in leaves
  // exactly the record's state, behind MergeFrom's config-and-seed check.
  if (grid_.has_value()) {
    SKIMJOIN_ASSIGN_OR_RETURN(MultiJoinEstimator restored,
                              MultiJoinEstimator::DeserializeFrom(in));
    return grid_->MergeFrom(restored);
  }
  SKIMJOIN_ASSIGN_OR_RETURN(MultiJoinHashEstimator restored,
                            MultiJoinHashEstimator::DeserializeFrom(in));
  return hashed_->MergeFrom(restored);
}

Status ChainJoinSynopsis::MergeFrom(const Synopsis& other) {
  const auto* piece = dynamic_cast<const ChainJoinSynopsis*>(&other);
  if (piece == nullptr || piece->grid_.has_value() != grid_.has_value()) {
    return MergeMismatch("chain-join");
  }
  return grid_.has_value() ? grid_->MergeFrom(*piece->grid_)
                           : hashed_->MergeFrom(*piece->hashed_);
}

Status ChainJoinSynopsis::UpdateTuple(const std::string& relation,
                                      const std::vector<uint64_t>& attributes,
                                      int64_t weight) {
  for (size_t position = 0; position < chain_.size(); ++position) {
    if (chain_[position] != relation) continue;
    if (grid_.has_value()) {
      SKIMJOIN_RETURN_IF_ERROR(grid_->Update(position, attributes, weight));
    } else if (position == 0 || position + 1 == chain_.size()) {
      SKIMJOIN_RETURN_IF_ERROR(
          hashed_->UpdateEnd(position, attributes[0], weight));
    } else {
      SKIMJOIN_RETURN_IF_ERROR(hashed_->UpdateMiddle(
          position, attributes[0], attributes[1], weight));
    }
  }
  return OkStatus();
}

}  // namespace query
}  // namespace skimjoin
