#include "query/synopsis.h"

#include <string>
#include <utility>

namespace skimjoin {
namespace query {
Status FrequencySynopsis::UpdateBatch(
    size_t, std::span<const stream::StreamElement> elements) {
  if (elements.size() == 1) {
    // One element (the scalar Update path) is not worth a replica round
    // trip or a worker hand-off. Under a live concurrent ingestor it joins
    // the writer lock instead of racing propagation.
    std::optional<ingest::ConcurrentIngestor<core::SkimmedSketch>::WriteLock>
        lock;
    if (concurrent_ != nullptr) lock.emplace(concurrent_->WriterLock());
    sketch_.Update(elements.front());
    return OkStatus();
  }
  if (options_->concurrent) {
    // Relaxed-consistency path: hand chunks to the persistent workers and
    // return without waiting. Staleness is bounded by the ingestor's
    // propagation policy; Engine::FlushIngest is the linearization point.
    if (concurrent_ == nullptr) {
      ingest::ConcurrentIngestOptions concurrent_options;
      concurrent_options.num_workers = options_->shards;
      concurrent_options.propagation_interval_elements =
          options_->propagation_interval_elements;
      concurrent_options.max_lag_elements = options_->max_lag_elements;
      concurrent_options.pin_threads = options_->pin_threads;
      SKIMJOIN_ASSIGN_OR_RETURN(
          concurrent_, ingest::ConcurrentIngestor<core::SkimmedSketch>::Create(
                           &sketch_, concurrent_options));
    }
    concurrent_->AbsorbBatch(elements);
    counters_.epoch_lag->Set(static_cast<double>(concurrent_->epoch_lag()));
    return OkStatus();
  }
  if (options_->shards > 1) {
    if (!ingestor_.has_value() || ingestor_->num_shards() != options_->shards) {
      SKIMJOIN_ASSIGN_OR_RETURN(
          ingestor_, ingest::ParallelIngestor<core::SkimmedSketch>::Create(
                         sketch_, options_->shards));
    }
    const uint64_t absorb_before = ingestor_->stats().absorb_nanos;
    const uint64_t merge_before = ingestor_->stats().merge_nanos;
    ingestor_->IngestInto(&sketch_, elements);
    counters_.merges->Increment();
    counters_.absorb_nanos->Increment(ingestor_->stats().absorb_nanos -
                                      absorb_before);
    counters_.merge_nanos->Increment(ingestor_->stats().merge_nanos -
                                     merge_before);
    return OkStatus();
  }
  sketch_.UpdateBatch(elements);
  PublishHashCacheDeltas();
  return OkStatus();
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

Status ChainJoinSynopsis::UpdateTuple(uint64_t relation,
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
