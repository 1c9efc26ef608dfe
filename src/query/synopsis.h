// The synopsis node behind every standing query (DESIGN.md §7, "Engine
// state"). The engine keeps one table of queries; each entry owns exactly
// one Synopsis, and every path that touches query state — the ingest
// fan-out, the memory gauges, the health report, wire pulls, checkpoints
// and the fleet coordinator's merge — talks to it through this one
// interface. Answer paths downcast to the concrete node of the query kind
// they serve. BuildSynopsis makes a node from a query's spec alone, so the
// engine and the coordinator build the same node for the same spec.

#ifndef SKIMJOIN_QUERY_SYNOPSIS_H_
#define SKIMJOIN_QUERY_SYNOPSIS_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/join_estimators.h"
#include "core/skimmed_sketch.h"
#include "core/top_k.h"
#include "ingest/concurrent_ingestor.h"
#include "query/multi_join.h"
#include "query/multi_join_hash.h"
#include "query/query.h"
#include "sketch/fm_sketch.h"
#include "sketch/kernel_options.h"
#include "stream/gk_quantiles.h"
#include "stream/stream_element.h"
#include "stream/wavelet.h"
#include "util/estimate_report.h"
#include "util/metrics.h"
#include "util/status.h"

namespace skimjoin {
namespace query {

/// Ingestion-concurrency configuration (DESIGN.md §13), set through
/// Engine::SetIngestOptions and read by every frequency node.
struct IngestOptions {
  /// Worker threads (and replicas) per frequency-query synopsis. With
  /// `concurrent` off, a batch of two ingest::kMinChunkElements chunks or
  /// more is split across them and merged back before UpdateBatch returns.
  uint64_t shards = 1;
  /// Relaxed-consistency concurrent ingestion: UpdateBatch hands chunks
  /// to persistent workers and returns WITHOUT waiting; workers fold
  /// into private replicas and propagate into the query synopsis on
  /// epoch boundaries. Point-frequency / heavy-hitter answers then read
  /// a bounded-staleness (but always internally consistent) snapshot
  /// until FlushIngest() linearizes. Exactness everywhere else is
  /// preserved: serialization, checkpoints, and health reports flush
  /// first.
  bool concurrent = false;
  /// Propagation cadence and hard staleness bound, forwarded to
  /// ingest::ConcurrentIngestOptions (ignored unless `concurrent`).
  uint64_t propagation_interval_elements = 1 << 16;
  uint64_t max_lag_elements = 1 << 20;
};

/// A stream's registry-backed ingest instruments (`ingest.<name>.*`). The
/// pointees are owned by the engine's registry and stay valid until
/// Engine::Clear.
struct StreamCounters {
  metrics::Counter* absorbed = nullptr;
  metrics::Counter* batches = nullptr;
  metrics::Counter* dropped = nullptr;
  metrics::Counter* merges = nullptr;
  metrics::Counter* absorb_nanos = nullptr;
  metrics::Counter* merge_nanos = nullptr;
  // Plan-cache hit/miss totals over the stream's frequency-query synopses,
  // accumulated on the inline batch path (sharded replicas keep their
  // caches worker-local; see docs/OBSERVABILITY.md).
  metrics::Counter* hash_cache_hits = nullptr;
  metrics::Counter* hash_cache_misses = nullptr;
  // Elements accepted by concurrent-mode UpdateBatch but not yet visible
  // to readers; 0 outside concurrent mode.
  metrics::Gauge* epoch_lag = nullptr;
};

/// One query's synopsis. Writer-thread only, like the engine.
class Synopsis {
 public:
  virtual ~Synopsis() = default;

  Synopsis(const Synopsis&) = delete;
  Synopsis& operator=(const Synopsis&) = delete;

  /// Folds one subscription's share of a batch: the in-domain elements
  /// that passed the subscription's predicate, each carrying its nonzero
  /// input weight, in arrival order. `side` is the subscription's index
  /// in the query (0 for F or the only stream, 1 for G).
  virtual Status UpdateBatch(
      size_t side, std::span<const stream::StreamElement> elements) = 0;

  /// Most elements one UpdateBatch call carries: the fan-out hands a larger
  /// projection over in pieces of this size, so its scratch stays small.
  virtual size_t MaxBatch() const { return size_t{1} << 12; }

  /// Footprint in bytes (heap included); feeds `query.<id>.memory_bytes`.
  virtual uint64_t MemoryBytes() const = 0;

  /// The synopsis' self-describing text record, as checkpoints and wire
  /// pulls carry it. Default: UNIMPLEMENTED.
  virtual Status SerializeTo(std::ostream&) const {
    return UnimplementedError("this query's synopsis has no serializer");
  }

  /// Replaces this freshly created synopsis with a record written by
  /// SerializeTo. INVALID_ARGUMENT when the record disagrees with the
  /// query's spec. Default: UNIMPLEMENTED.
  virtual Status RestoreFrom(std::istream&) {
    return UnimplementedError("this query's synopsis cannot be restored");
  }

  /// Adds `other`'s state counter for counter: every mergeable synopsis is
  /// linear, so merging shard synopses gives exactly the synopsis one node
  /// fed every shard's elements would hold. INVALID_ARGUMENT when `other`
  /// is another kind or disagrees in shape or seed. Default: UNIMPLEMENTED.
  virtual Status MergeFrom(const Synopsis&) {
    return UnimplementedError("this query's synopsis cannot be merged");
  }

  /// Read-only counter probes for the health report. Default: none.
  virtual std::vector<SynopsisHealth> HealthProbe() const { return {}; }

 protected:
  Synopsis() = default;
};

/// Builds the node of a query with `spec`, its randomness derived from
/// `seed`, over the value domain [0, domain_size) of its streams (chain
/// joins have none and ignore it). The node is fresh: all counters zero.
/// INVALID_ARGUMENT for an inconsistent spec.
StatusOr<std::unique_ptr<Synopsis>> BuildSynopsis(const QuerySpec& spec,
                                                  uint64_t seed,
                                                  uint64_t domain_size);

/// A join or self-join: the estimator pair, F fed by side 0, G by side 1.
class JoinSynopsis final : public Synopsis {
 public:
  using Spec = JoinQuerySpec;
  explicit JoinSynopsis(std::unique_ptr<core::JoinEstimatorPair> pair)
      : pair_(std::move(pair)) {}

  Status UpdateBatch(size_t side,
                     std::span<const stream::StreamElement> elements) override {
    side == 0 ? pair_->UpdateBatchF(elements) : pair_->UpdateBatchG(elements);
    return OkStatus();
  }
  uint64_t MemoryBytes() const override { return pair_->MemoryBytes(); }
  Status SerializeTo(std::ostream& out) const override {
    return pair_->SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override {
    return pair_->RestoreFrom(in);
  }
  Status MergeFrom(const Synopsis& other) override;
  std::vector<SynopsisHealth> HealthProbe() const override {
    return pair_->HealthProbe();
  }

  const core::JoinEstimatorPair& pair() const { return *pair_; }

 private:
  std::unique_ptr<core::JoinEstimatorPair> pair_;
};

/// Point-frequency / heavy-hitter tracking: one skimmed sketch, ingested
/// inline or through one ConcurrentIngestor — absorb then flush per batch
/// when synchronous (shards > 1), absorb only under
/// IngestOptions::concurrent.
class FrequencySynopsis final : public Synopsis {
 public:
  using Spec = FrequencyQuerySpec;
  using Ingestor = ingest::ConcurrentIngestor<core::SkimmedSketch>;
  using ReadLock = Ingestor::ReadLock;

  explicit FrequencySynopsis(core::SkimmedSketch sketch)
      : sketch_(std::move(sketch)) {}

  /// Wires the node into an engine that subscribed it: `options` is the
  /// engine's live ingest configuration and `counters` the stream's
  /// instruments, both outliving the node. Only a subscribed node ingests;
  /// one built to merge shard records never needs either.
  void Subscribe(const IngestOptions* options,
                 const StreamCounters& counters) {
    options_ = options;
    counters_ = counters;
  }

  Status UpdateBatch(size_t side,
                     std::span<const stream::StreamElement> elements) override;
  /// Whole batches: the ingestor splits a batch across workers only when
  /// it is large enough.
  size_t MaxBatch() const override { return SIZE_MAX; }
  uint64_t MemoryBytes() const override { return sketch_.MemoryBytes(); }
  Status SerializeTo(std::ostream& out) const override {
    return sketch_.SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override;
  Status MergeFrom(const Synopsis& other) override;
  std::vector<SynopsisHealth> HealthProbe() const override;

  /// Read only under ReaderLock.
  const core::SkimmedSketch& sketch() const { return sketch_; }

  /// Reader lock over the sketch while concurrent workers may propagate
  /// into it; a no-op guard otherwise (synchronous ingest finishes every
  /// merge before UpdateBatch returns). Answers hold one across every
  /// sketch read so they observe whole-epoch snapshots, never a
  /// mid-propagation state.
  ReadLock ReaderLock() const {
    return Concurrent() ? ingestor_->ReaderLock() : ReadLock();
  }

  /// Linearizes a live concurrent ingestor (counting the merge round and
  /// zeroing the stream's epoch lag). False when none is live: synchronous
  /// ingest has nothing pending.
  bool Flush();

  /// Drops the ingestor built under the previous ingest configuration;
  /// the next batch rebuilds it. A live ingestor folds its pending
  /// elements in first.
  void ResetIngest() { ingestor_.reset(); }

  /// Switches the sketch's kernels (rebuilding its plan caches) and
  /// restarts the plan-cache delta bookkeeping.
  void SetKernelOptions(const sketch::KernelOptions& options);

  /// Publishes the sketch's plan-cache activity to the stream's
  /// hash_cache_* counters as deltas against the last export.
  void PublishHashCacheDeltas() const;

 private:
  /// True while workers may propagate into the sketch between calls.
  bool Concurrent() const {
    return ingestor_ != nullptr && options_->concurrent;
  }
  /// Writer lock over the sketch for inline updates and merges while
  /// Concurrent(); a no-op guard otherwise.
  Ingestor::WriteLock WriterLock() const {
    return Concurrent() ? ingestor_->WriterLock() : Ingestor::WriteLock();
  }
  /// Adds the ingestor's merge rounds and absorb/merge time since `before`
  /// to the stream's counters.
  void PublishIngestStats(const ingest::IngestStats& before) const;

  core::SkimmedSketch sketch_;
  const IngestOptions* options_ = nullptr;  // set by Subscribe
  StreamCounters counters_;
  mutable uint64_t cache_hits_seen_ = 0;
  mutable uint64_t cache_misses_seen_ = 0;
  // Built lazily on the first batch that needs workers, over &sketch_ (the
  // node is heap-resident, so the address is stable). Declared after
  // sketch_ so its destructor, which flushes pending work into the sketch,
  // runs while the sketch is still alive.
  std::unique_ptr<Ingestor> ingestor_;
};

/// COUNT DISTINCT: one Flajolet–Martin sketch.
class DistinctSynopsis final : public Synopsis {
 public:
  using Spec = DistinctCountQuerySpec;
  explicit DistinctSynopsis(sketch::FmSketch sketch)
      : sketch_(std::move(sketch)) {}

  Status UpdateBatch(size_t,
                     std::span<const stream::StreamElement> elements) override {
    for (const auto& element : elements) sketch_.Update(element);
    return OkStatus();
  }
  uint64_t MemoryBytes() const override { return sketch_.MemoryBytes(); }
  Status SerializeTo(std::ostream& out) const override {
    return sketch_.SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override;

  const sketch::FmSketch& sketch() const { return sketch_; }

 private:
  sketch::FmSketch sketch_;
};

/// Continuous top-k: one TopKTracker.
class TopKSynopsis final : public Synopsis {
 public:
  using Spec = TopKQuerySpec;
  explicit TopKSynopsis(core::TopKTracker tracker)
      : tracker_(std::move(tracker)) {}

  Status UpdateBatch(size_t,
                     std::span<const stream::StreamElement> elements) override {
    for (const auto& element : elements) tracker_.Update(element);
    return OkStatus();
  }
  uint64_t MemoryBytes() const override { return tracker_.MemoryBytes(); }
  Status SerializeTo(std::ostream& out) const override {
    return tracker_.SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override;

  const core::TopKTracker& tracker() const { return tracker_; }

 private:
  core::TopKTracker tracker_;
};

/// Quantiles: one GK summary. Insert-only — negative weights are ignored.
class QuantileSynopsis final : public Synopsis {
 public:
  using Spec = QuantileQuerySpec;
  explicit QuantileSynopsis(stream::GkQuantileSummary summary)
      : summary_(std::move(summary)) {}

  Status UpdateBatch(size_t side,
                     std::span<const stream::StreamElement> elements) override;
  uint64_t MemoryBytes() const override { return summary_.MemoryBytes(); }
  Status SerializeTo(std::ostream& out) const override {
    return summary_.SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override;

  const stream::GkQuantileSummary& summary() const { return summary_; }

 private:
  stream::GkQuantileSummary summary_;
};

/// Range sums: one wavelet synopsis, kept a B-term summary.
class RangeSumSynopsis final : public Synopsis {
 public:
  using Spec = RangeSumQuerySpec;
  RangeSumSynopsis(stream::WaveletSynopsis synopsis,
                   uint64_t coefficient_budget)
      : synopsis_(std::move(synopsis)),
        coefficient_budget_(coefficient_budget) {}

  Status UpdateBatch(size_t side,
                     std::span<const stream::StreamElement> elements) override;
  uint64_t MemoryBytes() const override { return synopsis_.MemoryBytes(); }
  Status SerializeTo(std::ostream& out) const override {
    return synopsis_.SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override;

  const stream::WaveletSynopsis& synopsis() const { return synopsis_; }

 private:
  stream::WaveletSynopsis synopsis_;
  uint64_t coefficient_budget_;
};

/// A chain join over relations: one of the two multi-join estimators plus
/// the relation names in chain order. It subscribes to no stream; tuples
/// arrive through UpdateTuple.
class ChainJoinSynopsis final : public Synopsis {
 public:
  using Spec = ChainJoinQuerySpec;
  ChainJoinSynopsis(std::optional<MultiJoinEstimator> grid,
                    std::optional<MultiJoinHashEstimator> hashed,
                    std::vector<std::string> chain)
      : grid_(std::move(grid)),
        hashed_(std::move(hashed)),
        chain_(std::move(chain)) {}

  Status UpdateBatch(size_t,
                     std::span<const stream::StreamElement>) override {
    return OkStatus();
  }
  uint64_t MemoryBytes() const override {
    return grid_.has_value() ? grid_->MemoryBytes() : hashed_->MemoryBytes();
  }
  Status SerializeTo(std::ostream& out) const override {
    return grid_.has_value() ? grid_->SerializeTo(out)
                             : hashed_->SerializeTo(out);
  }
  Status RestoreFrom(std::istream& in) override;
  Status MergeFrom(const Synopsis& other) override;

  /// Feeds one tuple of `relation` to every chain position it occupies.
  Status UpdateTuple(const std::string& relation,
                     const std::vector<uint64_t>& attributes, int64_t weight);

  double Estimate() const {
    return grid_.has_value() ? grid_->Estimate() : hashed_->Estimate();
  }
  EstimateReport EstimateWithReport() const {
    return grid_.has_value() ? grid_->EstimateWithReport()
                             : hashed_->EstimateWithReport();
  }

 private:
  std::optional<MultiJoinEstimator> grid_;
  std::optional<MultiJoinHashEstimator> hashed_;
  std::vector<std::string> chain_;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_SYNOPSIS_H_
