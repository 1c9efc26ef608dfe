#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>
#include <variant>

#include "hashing/simd_hash.h"
#include "util/event_log.h"
#include "util/logging.h"
#include "util/table_printer.h"

namespace skimjoin {
namespace query {
namespace {

// Compact numeric rendering for event-log payloads (events carry string
// fields; %g keeps magnitudes readable without fixed-point noise).
std::string FormatForEvent(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Times one Answer* call under an "estimate" trace span: bumps the call
/// counter on entry, records the elapsed nanoseconds on exit. The clock
/// reads stay in even when histogram recording is compiled out — answer
/// paths are cold, and keeping the object unconditional keeps the call
/// sites branch-free.
class ScopedEstimate {
 public:
  ScopedEstimate(metrics::Counter* calls, metrics::ShardedHistogram* nanos)
      : span_("estimate", "query"),
        nanos_(nanos),
        start_(std::chrono::steady_clock::now()) {
    if (calls != nullptr) calls->Increment();
  }
  ~ScopedEstimate() {
    if (nanos_ == nullptr) return;
    nanos_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

  ScopedEstimate(const ScopedEstimate&) = delete;
  ScopedEstimate& operator=(const ScopedEstimate&) = delete;

 private:
  metrics::TraceSpan span_;
  metrics::ShardedHistogram* nanos_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const char* HealthSeverityName(HealthFinding::Severity severity) {
  switch (severity) {
    case HealthFinding::Severity::kInfo:
      return "info";
    case HealthFinding::Severity::kWarn:
      return "warn";
    case HealthFinding::Severity::kCritical:
      return "critical";
  }
  return "unknown";
}

std::string RenderHealthFindings(const std::vector<HealthFinding>& findings) {
  if (findings.empty()) return "no findings\n";
  std::ostringstream out;
  for (const HealthFinding& finding : findings) {
    out << '[' << HealthSeverityName(finding.severity) << "] "
        << finding.subject;
    if (!finding.shard.empty()) out << "{shard=\"" << finding.shard << "\"}";
    out << ' ' << finding.rule << ": " << finding.message << '\n';
  }
  return out.str();
}

std::string RenderHealthReport(const HealthReport& report) {
  std::ostringstream out;
  TablePrinter streams("stream health",
                      {"stream", "absorbed", "dropped", "skew", "distinct",
                       "delete_ratio", "heavy_mass", "hash_cache_hit"});
  for (const StreamHealth& stream : report.streams) {
    std::string skew = "n/a";
    std::string distinct = "n/a";
    std::string delete_ratio = "n/a";
    std::string heavy_mass = "n/a";
    if (stream.profile.has_value()) {
      if (!std::isnan(stream.profile->skew)) {
        skew = TablePrinter::FormatDouble(stream.profile->skew, 2);
      }
      distinct = TablePrinter::FormatDouble(stream.profile->distinct_estimate, 0);
      delete_ratio = TablePrinter::FormatDouble(stream.profile->delete_ratio, 2);
      heavy_mass =
          TablePrinter::FormatDouble(stream.profile->heavy_mass_fraction, 2);
    }
    streams.AddRow(
        {stream.stream, std::to_string(stream.elements_absorbed),
         std::to_string(stream.elements_dropped), skew, distinct, delete_ratio,
         heavy_mass,
         std::isnan(stream.hash_cache_hit_rate)
             ? "n/a"
             : TablePrinter::FormatDouble(stream.hash_cache_hit_rate, 2)});
  }
  streams.Print(out);

  if (!report.queries.empty()) {
    out << '\n';
    TablePrinter queries("synopsis health",
                         {"query", "method", "streams", "synopsis", "probe"});
    for (const QueryHealth& query : report.queries) {
      for (const SynopsisHealth& health : query.synopses) {
        const std::string synopsis =
            health.role.empty() ? health.kind
                                : health.kind + "." + health.role;
        queries.AddRow({std::to_string(query.id), query.method, query.streams,
                        synopsis, DescribeSynopsisHealth(health)});
      }
    }
    queries.Print(out);
  }

  out << '\n' << RenderHealthFindings(report.findings);
  return out.str();
}

void Engine::InitStreamMetrics(StreamState* state) {
  const std::string prefix = "ingest." + state->spec.name + ".";
  StreamCounters& counters = state->counters;
  counters.absorbed = metrics_.GetCounter(prefix + "elements_absorbed");
  counters.batches = metrics_.GetCounter(prefix + "batches");
  counters.dropped = metrics_.GetCounter(prefix + "elements_dropped");
  counters.merges = metrics_.GetCounter(prefix + "merges");
  counters.absorb_nanos = metrics_.GetCounter(prefix + "absorb_nanos");
  counters.merge_nanos = metrics_.GetCounter(prefix + "merge_nanos");
  counters.hash_cache_hits = metrics_.GetCounter(prefix + "hash_cache_hits");
  counters.hash_cache_misses =
      metrics_.GetCounter(prefix + "hash_cache_misses");
  counters.epoch_lag = metrics_.GetGauge(prefix + "epoch_lag");

  metrics_.SetHelp(prefix + "elements_absorbed",
                   "In-domain stream elements fed to this stream's synopses.");
  metrics_.SetHelp(prefix + "batches", "UpdateBatch calls on this stream.");
  metrics_.SetHelp(prefix + "elements_dropped",
                   "Out-of-domain elements dropped before any synopsis.");
  metrics_.SetHelp(prefix + "merges",
                   "Sharded-ingest and concurrent-flush merge rounds.");
  metrics_.SetHelp(prefix + "absorb_nanos",
                   "Nanoseconds the ingest driver spent handing batches to "
                   "worker shards and waiting for them.");
  metrics_.SetHelp(prefix + "merge_nanos",
                   "Nanoseconds spent merging shard replicas back.");
  metrics_.SetHelp(prefix + "hash_cache_hits",
                   "Hash-plan cache hits across this stream's frequency-query "
                   "synopses (inline batch path).");
  metrics_.SetHelp(prefix + "hash_cache_misses",
                   "Hash-plan cache misses across this stream's "
                   "frequency-query synopses (inline batch path).");
  metrics_.SetHelp(prefix + "epoch_lag",
                   "Elements accepted by concurrent-mode UpdateBatch but "
                   "not yet visible to readers; 0 after FlushIngest.");

  const std::string profile = prefix + "profile.";
  metrics_.SetHelp(profile + "observations",
                   "Stream elements seen by the workload profiler.");
  metrics_.SetHelp(profile + "delete_ratio",
                   "Delete mass over total mass observed by the profiler.");
  metrics_.SetHelp(profile + "distinct_estimate",
                   "Profiler HLL estimate of distinct values seen.");
  metrics_.SetHelp(profile + "distinct_rate",
                   "Distinct estimate over observations (1.0 = every element "
                   "new).");
  metrics_.SetHelp(profile + "skew",
                   "Fitted Zipf exponent of the stream's frequency "
                   "distribution (NaN until stable heavy hitters exist).");
  metrics_.SetHelp(profile + "heavy_mass_fraction",
                   "Fraction of insert mass covered by the profiler's "
                   "monitored heavy hitters.");
  metrics_.SetHelp(profile + "net_mass",
                   "Net mass (inserts minus deletes) observed by the "
                   "profiler.");
}

Engine::QueryMetrics Engine::MakeQueryMetrics(QueryId id) {
  const std::string prefix = "query." + std::to_string(id) + ".";
  QueryMetrics metrics;
  metrics.estimate_calls = metrics_.GetCounter(prefix + "estimate_calls");
  metrics.estimate_ns = metrics_.GetHistogram(prefix + "estimate_ns");
  metrics.memory_bytes = metrics_.GetGauge(prefix + "memory_bytes");
  metrics.rel_error = metrics_.GetHistogram(prefix + "rel_error");
  metrics.ci_rel_width = metrics_.GetHistogram(prefix + "ci_rel_width");
  metrics.skim_residual_ratio =
      metrics_.GetHistogram(prefix + "skim_residual_ratio");
  metrics.cache_hits = metrics_.GetCounter(prefix + "cache_hits");
  metrics.cache_misses = metrics_.GetCounter(prefix + "cache_misses");
  metrics.cache_invalidations =
      metrics_.GetCounter(prefix + "cache_invalidations");

  metrics_.SetHelp(prefix + "estimate_calls",
                   "Answer* calls against this query.");
  metrics_.SetHelp(prefix + "estimate_ns",
                   "Nanoseconds per actual estimator execution (cache hits "
                   "excluded).");
  metrics_.SetHelp(prefix + "memory_bytes",
                   "Current synopsis footprint in bytes (refreshed "
                   "pull-style).");
  metrics_.SetHelp(prefix + "rel_error",
                   "Observed relative error against an attached exact "
                   "reference.");
  metrics_.SetHelp(prefix + "ci_rel_width",
                   "Relative width of the empirical CI from *WithReport "
                   "answers.");
  metrics_.SetHelp(prefix + "skim_residual_ratio",
                   "Residual-to-original L2 ratio per stream from skimmed "
                   "join reports.");
  metrics_.SetHelp(prefix + "cache_hits", "Query-cache hits (read path).");
  metrics_.SetHelp(prefix + "cache_misses",
                   "Query-cache misses, including invalidated entries.");
  metrics_.SetHelp(prefix + "cache_invalidations",
                   "Cached answers discarded because a participating "
                   "stream's epoch advanced.");
  metrics_.SetHelp(prefix + "health.occupancy",
                   "Max nonzero-counter fraction across this query's "
                   "synopses (last HealthReport).");
  metrics_.SetHelp(prefix + "health.int32_saturation",
                   "Max p99 |counter| over int32 range across this query's "
                   "synopses (last HealthReport).");
  metrics_.SetHelp(prefix + "health.collision_pressure",
                   "Max estimated distinct values per bucket across this "
                   "query's synopses (last HealthReport).");
  return metrics;
}

QueryCache::Epochs Engine::EpochsFor(const QueryState& q) const {
  // A self-join subscribes to its stream twice; the duplicate entry is
  // harmless (both slots move together) and keeps the shape uniform.
  QueryCache::Epochs epochs{};
  for (size_t side = 0; side < q.subscriptions.size(); ++side) {
    epochs[side] = streams_[q.subscriptions[side].stream].counters.absorbed
                       ->Value();
  }
  return epochs;
}

void Engine::CountCacheOutcome(const QueryMetrics& metrics,
                               QueryCache::Outcome outcome) {
  switch (outcome) {
    case QueryCache::Outcome::kHit:
      metrics.cache_hits->Increment();
      break;
    case QueryCache::Outcome::kMiss:
      metrics.cache_misses->Increment();
      break;
    case QueryCache::Outcome::kInvalidated:
      // An invalidated entry still forces a recompute, so it is both an
      // invalidation and a miss — dashboards can read hit rates off
      // hits / (hits + misses) without special-casing.
      metrics.cache_invalidations->Increment();
      metrics.cache_misses->Increment();
      break;
  }
}

void Engine::SetReadPathOptions(const ReadPathOptions& options) {
  if (!options.use_query_cache) query_cache_.DropAll();
  read_path_ = options;
}

StatusOr<Engine::QueryCacheStats> Engine::QueryCacheStatsFor(
    QueryId query) const {
  const auto it = queries_.find(query);
  if (it == queries_.end() ||
      !(std::holds_alternative<JoinQuerySpec>(it->second.spec) ||
        std::holds_alternative<FrequencyQuerySpec>(it->second.spec))) {
    return NotFoundError("query " + std::to_string(query) +
                         " has no cached read path (not a join or "
                         "frequency query)");
  }
  const QueryMetrics& metrics = it->second.metrics;
  QueryCacheStats stats;
  stats.enabled = read_path_.use_query_cache;
  stats.hits = metrics.cache_hits->Value();
  stats.misses = metrics.cache_misses->Value();
  stats.invalidations = metrics.cache_invalidations->Value();
  return stats;
}

ingest::IngestStats Engine::IngestStatsFor(const StreamState& state) const {
  const StreamCounters& counters = state.counters;
  ingest::IngestStats stats;
  stats.elements_absorbed = counters.absorbed->Value();
  stats.batches = counters.batches->Value();
  stats.elements_dropped = counters.dropped->Value();
  stats.merges = counters.merges->Value();
  stats.absorb_nanos = counters.absorb_nanos->Value();
  stats.merge_nanos = counters.merge_nanos->Value();
  stats.hash_cache_hits = counters.hash_cache_hits->Value();
  stats.hash_cache_misses = counters.hash_cache_misses->Value();
  return stats;
}

void Engine::RecordRelError(QueryId query, metrics::ShardedHistogram* histogram,
                            double estimate, double exact) const {
  const double rel_error =
      std::abs(estimate - exact) / std::max(1.0, std::abs(exact));
  if (histogram != nullptr) histogram->Record(rel_error);
  if (rel_error > drift_warn_threshold_) {
    EventLog::Global().Emit(LogLevel::kWarn, "accuracy_drift",
                            {{"query", std::to_string(query)},
                             {"estimate", FormatForEvent(estimate)},
                             {"exact", FormatForEvent(exact)},
                             {"rel_error", FormatForEvent(rel_error)},
                             {"threshold",
                              FormatForEvent(drift_warn_threshold_)}});
  }
}

void Engine::RecordReportMetrics(QueryId query, const QueryMetrics& metrics,
                                 const EstimateReport& report) const {
  const double rel_width = report.CiRelWidth();
  if (metrics.ci_rel_width != nullptr) metrics.ci_rel_width->Record(rel_width);
  if (report.skim.has_value() && metrics.skim_residual_ratio != nullptr) {
    metrics.skim_residual_ratio->Record(report.skim->ResidualRatioF());
    metrics.skim_residual_ratio->Record(report.skim->ResidualRatioG());
  }
  if (rel_width > ci_warn_rel_width_) {
    EventLog::Global().Emit(
        LogLevel::kWarn, "ci_blowup",
        {{"query", std::to_string(query)},
         {"method", report.method},
         {"estimate", FormatForEvent(report.estimate)},
         {"ci_lower", FormatForEvent(report.ci.lower)},
         {"ci_upper", FormatForEvent(report.ci.upper)},
         {"ci_rel_width", FormatForEvent(rel_width)},
         {"threshold", FormatForEvent(ci_warn_rel_width_)}});
  }
}

StatusOr<StreamId> Engine::RegisterStream(const StreamSpec& spec) {
  if (spec.name.empty()) {
    return InvalidArgumentError("stream name must be non-empty");
  }
  if (spec.domain_size < 2) {
    return InvalidArgumentError("stream domain_size must be >= 2");
  }
  if (stream_ids_.contains(spec.name)) {
    return AlreadyExistsError("stream already registered: " + spec.name);
  }
  const StreamId id = streams_.size();
  StreamState state;
  state.spec = spec;
  InitStreamMetrics(&state);
  state.profiler = std::make_unique<util::StreamProfiler>();
  streams_.push_back(std::move(state));
  stream_ids_.emplace(spec.name, id);
  return id;
}

StatusOr<StreamId> Engine::FindStream(const std::string& name) const {
  const auto it = stream_ids_.find(name);
  if (it == stream_ids_.end()) {
    return NotFoundError("unknown stream: " + name);
  }
  return it->second;
}

StatusOr<QueryId> Engine::AddQuery(const QuerySpec& spec, uint64_t seed) {
  // Resolve the streams the query listens to (chain joins: check the
  // relations); the node itself is built from the spec alone.
  std::vector<Subscription> subscriptions;
  SKIMJOIN_RETURN_IF_ERROR(std::visit(
      SpecVisitor{
          [&](const JoinQuerySpec& s) -> Status {
            SKIMJOIN_ASSIGN_OR_RETURN(const StreamId left,
                                      FindStream(s.left_stream));
            SKIMJOIN_ASSIGN_OR_RETURN(const StreamId right,
                                      FindStream(s.right_stream));
            if (streams_[left].spec.domain_size !=
                streams_[right].spec.domain_size) {
              return InvalidArgumentError(
                  "join streams must share a domain: " + s.left_stream +
                  " vs " + s.right_stream);
            }
            subscriptions = {{left, s.left_predicate, s.left_input},
                             {right, s.right_predicate, s.right_input}};
            return OkStatus();
          },
          [&](const ChainJoinQuerySpec& s) { return CheckChain(s); },
          [&](const auto& s) -> Status {
            SKIMJOIN_ASSIGN_OR_RETURN(const StreamId stream,
                                      FindStream(s.stream));
            subscriptions = {{stream, s.predicate}};
            return OkStatus();
          },
      },
      spec));
  const uint64_t domain_size =
      subscriptions.empty()
          ? 0
          : streams_[subscriptions[0].stream].spec.domain_size;
  SKIMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Synopsis> synopsis,
                            BuildSynopsis(spec, seed, domain_size));
  if (auto* frequency = dynamic_cast<FrequencySynopsis*>(synopsis.get())) {
    frequency->SetKernelOptions(kernel_options_);
    frequency->Subscribe(&ingest_options_,
                         streams_[subscriptions[0].stream].counters);
  }
  const QueryId id = next_query_id_++;
  queries_.emplace(id, QueryState{std::move(subscriptions),
                                  MakeQueryMetrics(id), std::move(synopsis),
                                  spec, seed});
  return id;
}

template <typename Node>
std::pair<const Engine::QueryState*, const Node*> Engine::FindQuery(
    QueryId id) const {
  // The spec names the node's type; a variant index check keeps the answer
  // hot path free of a dynamic_cast.
  const auto it = queries_.find(id);
  if (it == queries_.end() ||
      !std::holds_alternative<typename Node::Spec>(it->second.spec)) {
    return {nullptr, nullptr};
  }
  return {&it->second, static_cast<const Node*>(it->second.synopsis.get())};
}

StatusOr<QueryId> Engine::AddJoinQuery(const JoinQuerySpec& spec,
                                       uint64_t seed) {
  return AddQuery(spec, seed);
}

StatusOr<QueryId> Engine::AddSelfJoinQuery(const SelfJoinQuerySpec& spec,
                                           uint64_t seed) {
  return AddQuery(spec.AsJoin(), seed);
}

StatusOr<QueryId> Engine::AddFrequencyQuery(const FrequencyQuerySpec& spec,
                                            uint64_t seed) {
  return AddQuery(spec, seed);
}

StatusOr<QueryId> Engine::AddDistinctCountQuery(
    const DistinctCountQuerySpec& spec, uint64_t seed) {
  return AddQuery(spec, seed);
}

StatusOr<QueryId> Engine::AddTopKQuery(const TopKQuerySpec& spec,
                                       uint64_t seed) {
  return AddQuery(spec, seed);
}

StatusOr<QueryId> Engine::AddQuantileQuery(const QuantileQuerySpec& spec) {
  return AddQuery(spec, /*seed=*/0);
}

StatusOr<QueryId> Engine::AddRangeSumQuery(const RangeSumQuerySpec& spec) {
  return AddQuery(spec, /*seed=*/0);
}

StatusOr<StreamId> Engine::RegisterRelation(const RelationSpec& spec) {
  if (spec.name.empty()) {
    return InvalidArgumentError("relation name must be non-empty");
  }
  if (spec.arity < 1 || spec.arity > 2) {
    return InvalidArgumentError(
        "chain-join relations carry 1 (end) or 2 (interior) join attributes");
  }
  if (spec.domain_size < 2) {
    return InvalidArgumentError("relation domain_size must be >= 2");
  }
  if (relation_ids_.contains(spec.name) || stream_ids_.contains(spec.name)) {
    return AlreadyExistsError("name already registered: " + spec.name);
  }
  const StreamId id = relations_.size();
  relations_.push_back(RelationState{spec, 0});
  relation_ids_.emplace(spec.name, id);
  return id;
}

StatusOr<StreamId> Engine::FindRelation(const std::string& name) const {
  const auto it = relation_ids_.find(name);
  if (it == relation_ids_.end()) {
    return NotFoundError("unknown relation: " + name);
  }
  return it->second;
}

Status Engine::CheckChain(const ChainJoinQuerySpec& spec) const {
  for (size_t position = 0; position < spec.relations.size(); ++position) {
    SKIMJOIN_ASSIGN_OR_RETURN(const StreamId id,
                              FindRelation(spec.relations[position]));
    const bool is_end =
        (position == 0 || position + 1 == spec.relations.size());
    const uint64_t expected_arity = is_end ? 1 : 2;
    if (relations_[id].spec.arity != expected_arity) {
      return InvalidArgumentError(
          "relation " + spec.relations[position] + " has arity " +
          std::to_string(relations_[id].spec.arity) + " but chain position " +
          std::to_string(position) + " requires arity " +
          std::to_string(expected_arity));
    }
  }
  return OkStatus();
}

StatusOr<QueryId> Engine::AddChainJoinQuery(const ChainJoinQuerySpec& spec,
                                            uint64_t seed) {
  return AddQuery(spec, seed);
}

Status Engine::UpdateRelation(const std::string& relation,
                              const std::vector<uint64_t>& attributes,
                              int64_t weight) {
  StatusOr<StreamId> id = FindRelation(relation);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  RelationState& state = relations_[*id];
  if (attributes.size() != state.spec.arity) {
    return InvalidArgumentError(
        "relation " + relation + " expects " +
        std::to_string(state.spec.arity) + " attribute values, got " +
        std::to_string(attributes.size()));
  }
  for (uint64_t value : attributes) {
    if (value >= state.spec.domain_size) {
      return OutOfRangeError("attribute value outside the domain of " +
                             relation);
    }
  }
  state.tuple_count += weight;

  for (auto& [query_id, q] : queries_) {
    if (auto* chain = dynamic_cast<ChainJoinSynopsis*>(q.synopsis.get())) {
      SKIMJOIN_RETURN_IF_ERROR(
          chain->UpdateTuple(relation, attributes, weight));
    }
  }
  return OkStatus();
}

Status Engine::Update(const std::string& stream, const StreamUpdate& update) {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return Update(*id, update);
}

Status Engine::Update(StreamId stream, const StreamUpdate& update) {
  if (stream >= streams_.size()) {
    return NotFoundError("unknown stream id");
  }
  const StreamState& state = streams_[stream];
  if (update.value >= state.spec.domain_size) {
    state.counters.dropped->Increment();
    return OutOfRangeError("value outside the domain of stream " +
                           state.spec.name);
  }
  return Ingest(stream, std::span<const StreamUpdate>(&update, 1));
}

Status Engine::UpdateBatch(const std::string& stream,
                           std::span<const StreamUpdate> updates) {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return UpdateBatch(*id, updates);
}

Status Engine::UpdateBatch(StreamId stream,
                           std::span<const StreamUpdate> updates) {
  if (stream >= streams_.size()) {
    return NotFoundError("unknown stream id");
  }
  metrics::TraceSpan batch_span("ingest_batch", "ingest");
  streams_[stream].counters.batches->Increment();
  return Ingest(stream, updates);
}

Status Engine::Ingest(StreamId stream,
                      std::span<const StreamUpdate> updates) {
  StreamState& state = streams_[stream];
  // One validation pass, hoisted out of every synopsis loop: bad elements
  // are dropped and counted here so no synopsis ever sees one. Counter
  // deltas accumulate in locals — one atomic add per batch, not per
  // element, keeps the instrumented fast path within the 1% overhead
  // budget.
  uint64_t absorbed = 0;
  uint64_t dropped = 0;
#ifndef SKIMJOIN_DISABLE_PROFILER
  util::StreamProfiler* profiler =
      profiler_enabled_ ? state.profiler.get() : nullptr;
#else
  util::StreamProfiler* profiler = nullptr;
#endif
  // The profiler's scalar tallies fold in once per batch: the net mass is
  // the element_count delta the loop maintains anyway, and the insert mass
  // is net + deletes — so the per-element profiler cost beyond ObserveValue
  // is one (rarely taken) delete branch.
  const int64_t count_before_batch = state.element_count;
  uint64_t profiled_deletes = 0;
  for (const StreamUpdate& update : updates) {
    if (update.value >= state.spec.domain_size) {
      ++dropped;
      continue;
    }
    state.element_count += update.count;
    ++absorbed;
    if (profiler != nullptr) {
      profiler->ObserveValue(update.value, update.count);
      if (update.count < 0) {
        profiled_deletes += static_cast<uint64_t>(-update.count);
      }
    }
  }
  if (profiler != nullptr && absorbed != 0) {
    const int64_t profiled_net = state.element_count - count_before_batch;
    profiler->AddTallies(
        absorbed,
        static_cast<uint64_t>(profiled_net +
                              static_cast<int64_t>(profiled_deletes)),
        profiled_deletes, profiled_net);
  }
  if (absorbed != 0) state.counters.absorbed->Increment(absorbed);
  if (dropped != 0) state.counters.dropped->Increment(dropped);
  if (absorbed == 0) return OkStatus();

  // The fan-out: every subscription to this stream gets its projection of
  // the batch — in-domain, predicate-matching elements with their nonzero
  // input weight — in pieces of at most the synopsis' MaxBatch().
  for (auto& [id, q] : queries_) {
    const size_t max_batch = q.synopsis->MaxBatch();
    for (size_t side = 0; side < q.subscriptions.size(); ++side) {
      const Subscription& subscription = q.subscriptions[side];
      if (subscription.stream != stream) continue;
      projected_.clear();
      for (const StreamUpdate& update : updates) {
        if (update.value >= state.spec.domain_size) continue;
        if (subscription.predicate &&
            !subscription.predicate->Matches(update.value)) {
          continue;
        }
        const int64_t weight = subscription.input == AggregateInput::kCount
                                   ? update.count
                                   : update.measure;
        if (weight == 0) continue;
        projected_.push_back({update.value, weight});
        if (projected_.size() == max_batch) {
          SKIMJOIN_RETURN_IF_ERROR(q.synopsis->UpdateBatch(side, projected_));
          projected_.clear();
        }
      }
      if (projected_.empty()) continue;
      SKIMJOIN_RETURN_IF_ERROR(q.synopsis->UpdateBatch(side, projected_));
    }
  }
  return OkStatus();
}

Status Engine::SetIngestOptions(const IngestOptions& options) {
  if (options.shards < 1) {
    return InvalidArgumentError("ingest shard count must be >= 1");
  }
  if (options.propagation_interval_elements < 1) {
    return InvalidArgumentError("propagation interval must be >= 1");
  }
  // Existing ingestors were built under the old configuration; linearize
  // them out so no accepted element is lost, then let the next batch
  // rebuild under the new knobs.
  FlushIngest();
  for (auto& [id, q] : queries_) {
    if (auto* frequency = dynamic_cast<FrequencySynopsis*>(q.synopsis.get())) {
      frequency->ResetIngest();
    }
  }
  ingest_options_ = options;
  return OkStatus();
}

void Engine::FlushIngest() {
  for (auto& [id, q] : queries_) {
    auto* frequency = dynamic_cast<FrequencySynopsis*>(q.synopsis.get());
    // The cache epoch counts elements when UpdateBatch hands them to the
    // workers, so an answer cached before the flush may come from a
    // lagging snapshot: drop it.
    if (frequency != nullptr && frequency->Flush()) query_cache_.DropQuery(id);
  }
}

void Engine::SetKernelOptions(const sketch::KernelOptions& options) {
  kernel_options_ = options;
  // Concurrent replicas were copied under the old kernels; linearize them
  // out before the rebuild so no accepted element is lost.
  FlushIngest();
  for (auto& [id, q] : queries_) {
    if (auto* frequency = dynamic_cast<FrequencySynopsis*>(q.synopsis.get())) {
      frequency->SetKernelOptions(options);
    }
  }
}

StatusOr<ingest::IngestStats> Engine::StreamIngestStats(
    const std::string& stream) const {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return IngestStatsFor(streams_[*id]);
}

Status Engine::AttachAccuracyReference(
    const std::string& stream, const stream::FrequencyVector* reference) {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  // FrequencyVector::Get aborts on out-of-domain indices, so a reference
  // narrower than the stream would turn a valid point query into a crash.
  if (reference != nullptr &&
      reference->domain_size() != streams_[*id].spec.domain_size) {
    return InvalidArgumentError(
        "accuracy reference domain (" +
        std::to_string(reference->domain_size()) +
        ") does not match the domain of stream " + stream + " (" +
        std::to_string(streams_[*id].spec.domain_size) + ")");
  }
  streams_[*id].reference = reference;
  return OkStatus();
}

void Engine::MaybeRecordJoinDrift(QueryId query, const QueryState& q,
                                  double estimate) const {
  const stream::FrequencyVector* left =
      streams_[q.subscriptions[0].stream].reference;
  const stream::FrequencyVector* right =
      streams_[q.subscriptions[1].stream].reference;
  if (left == nullptr || right == nullptr) return;
  // The reference holds raw frequencies: only an unfiltered COUNT join has
  // an exact counterpart to compare against.
  for (const Subscription& side : q.subscriptions) {
    if (side.predicate.has_value() || side.input != AggregateInput::kCount) {
      return;
    }
  }
  if (left->domain_size() != right->domain_size()) return;
  RecordRelError(query, q.metrics.rel_error, estimate,
                 static_cast<double>(stream::JoinSize(*left, *right)));
}

StatusOr<double> Engine::AnswerJoin(QueryId query) const {
  const auto [q, join] = FindQuery<JoinSynopsis>(query);
  if (join == nullptr) return NotFoundError("unknown join query id");
  QueryCache::Epochs epochs{};
  if (read_path_.use_query_cache) {
    epochs = EpochsFor(*q);
    QueryCache::Outcome outcome;
    const std::optional<double> cached =
        query_cache_.LookupJoin(query, epochs, &outcome);
    CountCacheOutcome(q->metrics, outcome);
    if (cached.has_value()) {
      // Hit path stays O(lookup): count the call but take no trace span
      // and no latency sample — estimate_ns measures actual estimator
      // executions. The answer is bit-identical to a recompute (the
      // estimator is deterministic and no participating stream advanced),
      // so the drift record stays meaningful too.
      q->metrics.estimate_calls->Increment();
      MaybeRecordJoinDrift(query, *q, *cached);
      return *cached;
    }
  }
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  StatusOr<double> estimate = join->pair().Estimate();
  if (estimate.ok()) {
    if (read_path_.use_query_cache) {
      query_cache_.StoreJoin(query, epochs, *estimate);
    }
    MaybeRecordJoinDrift(query, *q, *estimate);
  }
  return estimate;
}

StatusOr<EstimateReport> Engine::AnswerJoinWithReport(QueryId query) const {
  const auto [q, join] = FindQuery<JoinSynopsis>(query);
  if (join == nullptr) return NotFoundError("unknown join query id");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  StatusOr<EstimateReport> report = join->pair().EstimateWithReport();
  if (report.ok()) {
    // Probe AFTER the estimate so skimmed probes compare against the
    // baselines this very answer just recorded. Probes are read-only;
    // the estimate is still bit-identical to AnswerJoin.
    report->health = join->HealthProbe();
    MaybeRecordJoinDrift(query, *q, report->estimate);
    RecordReportMetrics(query, q->metrics, *report);
  }
  return report;
}

StatusOr<int64_t> Engine::AnswerPointFrequency(QueryId query,
                                               uint64_t value) const {
  const auto [q, frequency] = FindQuery<FrequencySynopsis>(query);
  if (frequency == nullptr) {
    return NotFoundError("unknown frequency query id");
  }
  const Subscription& subscription = q->subscriptions[0];
  const StreamState& state = streams_[subscription.stream];
  if (value >= state.spec.domain_size) {
    return OutOfRangeError("value outside the domain of stream " +
                           state.spec.name);
  }
  // Drift is only comparable without a predicate: the reference holds the
  // unfiltered stream.
  const bool track_drift =
      state.reference != nullptr && !subscription.predicate.has_value();
  QueryCache::Epochs epochs{};
  if (read_path_.use_query_cache) {
    epochs = EpochsFor(*q);
    QueryCache::Outcome outcome;
    const std::optional<int64_t> cached =
        query_cache_.LookupPoint(query, value, epochs, &outcome);
    CountCacheOutcome(q->metrics, outcome);
    if (cached.has_value()) {
      // Hit path stays O(lookup): count the call but take no trace span
      // and no latency sample — estimate_ns measures actual estimator
      // executions.
      q->metrics.estimate_calls->Increment();
      if (track_drift) {
        RecordRelError(query, q->metrics.rel_error,
                       static_cast<double>(*cached),
                       static_cast<double>(state.reference->Get(value)));
      }
      return *cached;
    }
  }
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  int64_t estimate = 0;
  {
    // Under concurrent ingestion: a whole-epoch (bounded-staleness)
    // snapshot of the sketch, taken without blocking in-flight absorbs.
    const FrequencySynopsis::ReadLock read_lock = frequency->ReaderLock();
    estimate = frequency->sketch().EstimatePointFrequency(value);
  }
  if (read_path_.use_query_cache) {
    query_cache_.StorePoint(query, value, epochs, estimate);
  }
  if (track_drift) {
    RecordRelError(query, q->metrics.rel_error, static_cast<double>(estimate),
                   static_cast<double>(state.reference->Get(value)));
  }
  return estimate;
}

StatusOr<core::DenseFrequencies> Engine::AnswerHeavyHitters(
    QueryId query, int64_t threshold) const {
  const auto [q, frequency] = FindQuery<FrequencySynopsis>(query);
  if (frequency == nullptr) {
    return NotFoundError("unknown frequency query id");
  }
  if (threshold < 1) {
    return InvalidArgumentError("heavy-hitter threshold must be >= 1");
  }
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  const FrequencySynopsis::ReadLock read_lock = frequency->ReaderLock();
  return frequency->sketch().HeavyHitters(threshold);
}

StatusOr<double> Engine::AnswerDistinctCount(QueryId query) const {
  const auto [q, distinct] = FindQuery<DistinctSynopsis>(query);
  if (distinct == nullptr) {
    return NotFoundError("unknown distinct-count query id");
  }
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  const double estimate = distinct->sketch().EstimateDistinctCount();
  const Subscription& subscription = q->subscriptions[0];
  const StreamState& state = streams_[subscription.stream];
  if (state.reference != nullptr && !subscription.predicate.has_value()) {
    RecordRelError(query, q->metrics.rel_error, estimate,
                   static_cast<double>(state.reference->SupportSize()));
  }
  return estimate;
}

StatusOr<std::vector<std::pair<uint64_t, int64_t>>> Engine::AnswerTopK(
    QueryId query) const {
  const auto [q, topk] = FindQuery<TopKSynopsis>(query);
  if (topk == nullptr) return NotFoundError("unknown top-k query id");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return topk->tracker().TopK();
}

StatusOr<uint64_t> Engine::AnswerQuantile(QueryId query, double phi) const {
  const auto [q, quantile] = FindQuery<QuantileSynopsis>(query);
  if (quantile == nullptr) return NotFoundError("unknown quantile query id");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return quantile->summary().Quantile(phi);
}

StatusOr<double> Engine::AnswerRangeSum(QueryId query, uint64_t lo,
                                        uint64_t hi) const {
  const auto [q, range_sum] = FindQuery<RangeSumSynopsis>(query);
  if (range_sum == nullptr) {
    return NotFoundError("unknown range-sum query id");
  }
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return range_sum->synopsis().RangeSum(lo, hi);
}

StatusOr<double> Engine::AnswerChainJoin(QueryId query) const {
  const auto [q, chain] = FindQuery<ChainJoinSynopsis>(query);
  if (chain == nullptr) return NotFoundError("unknown chain-join query id");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  return chain->Estimate();
}

StatusOr<EstimateReport> Engine::AnswerChainJoinWithReport(
    QueryId query) const {
  const auto [q, chain] = FindQuery<ChainJoinSynopsis>(query);
  if (chain == nullptr) return NotFoundError("unknown chain-join query id");
  ScopedEstimate timer(q->metrics.estimate_calls, q->metrics.estimate_ns);
  EstimateReport report = chain->EstimateWithReport();
  RecordReportMetrics(query, q->metrics, report);
  return report;
}

Status Engine::SerializeQuerySynopsis(QueryId query, std::string* out) const {
  const auto it = queries_.find(query);
  if (it == queries_.end()) {
    return NotFoundError("unknown query id " + std::to_string(query));
  }
  // Serialized synopses feed distributed delta pulls and must be exact;
  // linearize any in-flight concurrent ingestion first. Writer-thread only
  // (like every engine read), so the const_cast mutates nothing reentrant.
  const_cast<Engine*>(this)->FlushIngest();
  std::ostringstream record;
  SKIMJOIN_RETURN_IF_ERROR(it->second.synopsis->SerializeTo(record));
  *out = std::move(record).str();
  return OkStatus();
}

StatusOr<int64_t> Engine::StreamElementCount(const std::string& stream) const {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return streams_[*id].element_count;
}

std::vector<std::string> Engine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const StreamState& state : streams_) names.push_back(state.spec.name);
  return names;
}

void Engine::RefreshMetricsGauges() const {
  // Gauges are refreshed pull-style: footprints change on every update, so
  // pushing them from the hot path would cost more than anyone reading
  // them. Runs on the writer thread only — it walks the query containers.
  for (const auto& [id, q] : queries_) {
    q.metrics.memory_bytes->Set(static_cast<double>(q.synopsis->MemoryBytes()));
    // Scalar updates bump the sketch-side plan-cache tallies without
    // passing through the batch path's export; pull the deltas here so
    // snapshots stay current for scalar-only sessions.
    if (const auto* frequency =
            dynamic_cast<const FrequencySynopsis*>(q.synopsis.get())) {
      frequency->PublishHashCacheDeltas();
    }
  }
#ifndef SKIMJOIN_DISABLE_PROFILER
  for (const StreamState& state : streams_) {
    if (state.profiler == nullptr) continue;
    const util::StreamProfiler::Snapshot profile =
        state.profiler->TakeSnapshot();
    const std::string prefix = "ingest." + state.spec.name + ".profile.";
    metrics_.GetGauge(prefix + "observations")
        ->Set(static_cast<double>(profile.observations));
    metrics_.GetGauge(prefix + "delete_ratio")->Set(profile.delete_ratio);
    metrics_.GetGauge(prefix + "distinct_estimate")
        ->Set(profile.distinct_estimate);
    metrics_.GetGauge(prefix + "distinct_rate")->Set(profile.distinct_rate);
    if (!std::isnan(profile.skew)) {
      metrics_.GetGauge(prefix + "skew")->Set(profile.skew);
    }
    metrics_.GetGauge(prefix + "heavy_mass_fraction")
        ->Set(profile.heavy_mass_fraction);
    metrics_.GetGauge(prefix + "net_mass")
        ->Set(static_cast<double>(profile.net_mass));
  }
#endif
  metrics_.SetHelp("engine.num_streams", "Registered streams.");
  metrics_.SetHelp("engine.num_queries", "Registered standing queries.");
  metrics_.SetHelp("engine.ingest_shards",
                   "Worker threads UpdateBatch may fan a batch out to.");
  metrics_.SetHelp("engine.ingest_concurrent",
                   "1 while relaxed-consistency concurrent ingestion is on.");
  metrics_.SetHelp("engine.simd_level",
                   "SIMD dispatch the sketch kernels selected on this "
                   "machine: 0 scalar, 1 AVX2, 2 AVX-512.");
  metrics_.GetGauge("engine.num_streams")
      ->Set(static_cast<double>(num_streams()));
  metrics_.GetGauge("engine.num_queries")
      ->Set(static_cast<double>(num_queries()));
  metrics_.GetGauge("engine.ingest_shards")
      ->Set(static_cast<double>(ingest_options_.shards));
  metrics_.GetGauge("engine.ingest_concurrent")
      ->Set(ingest_options_.concurrent ? 1.0 : 0.0);
  metrics_.GetGauge("engine.simd_level")
      ->Set(static_cast<double>(hashing::DetectSimdLevel()));
}

StatusOr<util::StreamProfiler::Snapshot> Engine::StreamProfile(
    const std::string& stream) const {
  StatusOr<StreamId> id = FindStream(stream);
  SKIMJOIN_RETURN_IF_ERROR(id.status());
  return streams_[*id].profiler->TakeSnapshot();
}

HealthReport Engine::HealthReport() const {
  // Probes copy synopses; linearize concurrent ingestion first so the
  // report describes a state every future answer will agree with
  // (writer-thread only, see SerializeQuerySynopsis).
  const_cast<Engine*>(this)->FlushIngest();
  query::HealthReport report;

  for (const StreamState& state : streams_) {
    StreamHealth health;
    health.stream = state.spec.name;
    health.elements_absorbed = state.counters.absorbed->Value();
    health.elements_dropped = state.counters.dropped->Value();
    const uint64_t hits = state.counters.hash_cache_hits->Value();
    const uint64_t misses = state.counters.hash_cache_misses->Value();
    health.hash_cache_hit_rate =
        hits + misses == 0
            ? std::numeric_limits<double>::quiet_NaN()
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
#ifndef SKIMJOIN_DISABLE_PROFILER
    if (state.profiler != nullptr) {
      health.profile = state.profiler->TakeSnapshot();
    }
#endif
    report.streams.push_back(std::move(health));
  }

  // Kinds without probe support (sampling joins, distinct, top-k, ...)
  // return no probes and contribute nothing to the health picture.
  for (const auto& [id, q] : queries_) {
    QueryHealth health;
    health.synopses = q.synopsis->HealthProbe();
    if (health.synopses.empty()) continue;
    health.id = id;
    health.kind = QueryKindName(q.spec);
    const auto* join = std::get_if<JoinQuerySpec>(&q.spec);
    health.method =
        join != nullptr ? core::EstimatorKindName(join->estimator.kind)
                        : "skimmed";
    for (const Subscription& subscription : q.subscriptions) {
      if (!health.streams.empty()) health.streams += "⋈";
      health.streams += streams_[subscription.stream].spec.name;
    }
    // Publish the per-query health gauges (max across the query's
    // synopses) so scrapes between HealthReport calls still see the last
    // probe.
    const std::string prefix = "query." + std::to_string(id) + ".health.";
    double occupancy = 0.0, saturation = 0.0, pressure = 0.0;
    bool any_pressure = false;
    for (const SynopsisHealth& probe : health.synopses) {
      occupancy = std::max(occupancy, probe.occupancy);
      saturation = std::max(saturation, probe.int32_saturation);
      if (!std::isnan(probe.collision_pressure)) {
        pressure = std::max(pressure, probe.collision_pressure);
        any_pressure = true;
      }
    }
    metrics_.GetGauge(prefix + "occupancy")->Set(occupancy);
    metrics_.GetGauge(prefix + "int32_saturation")->Set(saturation);
    if (any_pressure) {
      metrics_.GetGauge(prefix + "collision_pressure")->Set(pressure);
    }
    report.queries.push_back(std::move(health));
  }

  // Rule pass. Stream-level rules first, then per-synopsis rules, so the
  // findings list reads workload -> synopsis.
  for (const StreamHealth& stream : report.streams) {
    const std::string subject = "stream " + stream.stream;
    if (stream.profile.has_value() && !std::isnan(stream.profile->skew) &&
        stream.profile->skew >= 1.2 &&
        !std::isnan(stream.hash_cache_hit_rate) &&
        stream.hash_cache_hit_rate < 0.5) {
      report.findings.push_back(
          {HealthFinding::Severity::kInfo, subject, "skew-cache-mismatch",
           "stream skew " + TablePrinter::FormatDouble(stream.profile->skew, 2) +
               " but hash-plan-cache hit rate " +
               TablePrinter::FormatDouble(stream.hash_cache_hit_rate, 2) +
               " — a skewed stream should reuse cached plans; raise the "
               "cache slots",
           ""});
    }
    if (stream.profile.has_value() && stream.profile->delete_ratio > 0.25) {
      report.findings.push_back(
          {HealthFinding::Severity::kInfo, subject, "delete-heavy",
           "delete ratio " +
               TablePrinter::FormatDouble(stream.profile->delete_ratio, 2) +
               " — insert-only synopses (quantiles) undercover this stream",
           ""});
    }
    if (stream.elements_dropped > 0) {
      report.findings.push_back(
          {HealthFinding::Severity::kInfo, subject, "domain-drops",
           std::to_string(stream.elements_dropped) +
               " elements dropped outside the registered domain",
           ""});
    }
  }
  for (const QueryHealth& query : report.queries) {
    const std::string subject = "query " + std::to_string(query.id);
    for (const SynopsisHealth& health : query.synopses) {
      const std::string synopsis =
          health.role.empty() ? health.kind : health.kind + "." + health.role;
      if (health.int64_saturation >= 0.5) {
        report.findings.push_back(
            {HealthFinding::Severity::kCritical, subject, "counter-saturation",
             synopsis + " max |counter| at " +
                 TablePrinter::FormatDouble(100.0 * health.int64_saturation,
                                            1) +
                 "% of int64 — counters are about to overflow",
             ""});
      } else if (health.int32_saturation >= 0.5) {
        report.findings.push_back(
            {HealthFinding::Severity::kWarn, subject, "counter-saturation",
             synopsis + " counter p99 at " +
                 TablePrinter::FormatDouble(100.0 * health.int32_saturation,
                                            1) +
                 "% of int32 — counters are outgrowing 32 bits; int64 "
                 "overflow is still far off",
             ""});
      }
      if ((!std::isnan(health.collision_pressure) &&
           health.collision_pressure >= 4.0) ||
          health.occupancy >= 0.95) {
        std::string message = synopsis + " occupancy " +
                              TablePrinter::FormatDouble(health.occupancy, 2);
        if (!std::isnan(health.collision_pressure)) {
          message += ", ~" +
                     TablePrinter::FormatDouble(health.collision_pressure, 1) +
                     " values/bucket";
        }
        message += " over " + query.streams +
                   " — the sketch is undersized for this stream";
        report.findings.push_back({HealthFinding::Severity::kWarn, subject,
                                   "collision-pressure", std::move(message),
                                   ""});
      }
      if (!std::isnan(health.residual_ratio) &&
          !std::isnan(health.residual_ratio_at_estimate) &&
          std::fabs(health.residual_ratio -
                    health.residual_ratio_at_estimate) > 0.25) {
        report.findings.push_back(
            {HealthFinding::Severity::kWarn, subject, "skim-drift",
             synopsis + " residual ratio " +
                 TablePrinter::FormatDouble(health.residual_ratio, 2) +
                 " vs " +
                 TablePrinter::FormatDouble(health.residual_ratio_at_estimate,
                                            2) +
                 " at the last estimate — the dense-value picture has gone "
                 "stale; re-answer with a report to refresh",
             ""});
      }
    }
  }
  return report;
}

metrics::Snapshot Engine::MetricsSnapshot() const {
  RefreshMetricsGauges();
  return metrics_.TakeSnapshot();
}

void Engine::Clear() {
  streams_.clear();
  stream_ids_.clear();
  relations_.clear();
  relation_ids_.clear();
  queries_.clear();
  next_query_id_ = 1;
  ingest_options_ = IngestOptions{};
  // Entries guard on per-stream epochs that are about to reset with the
  // registry; a future same-id query must never see an old life's answer.
  query_cache_.DropAll();
  // Last: every cached instrument pointer above is gone, so dropping the
  // instruments themselves is safe.
  metrics_.Clear();
}

}  // namespace query
}  // namespace skimjoin
