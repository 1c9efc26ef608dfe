// Tests for the batched / sharded ingestion pipeline: UpdateBatch must be
// counter-for-counter identical to scalar Update on every synopsis type,
// the replica ingestor's drop accounting must stay consistent, and the
// engine batch entry point must answer queries identically to element-wise
// feeding at any shard count (linearity makes the parallelism lossless)
// while tracking ingest counters.

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "ingest/concurrent_ingestor.h"
#include "query/engine.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "stream/stream_element.h"
#include "stream/zipf.h"
#include "util/logging.h"
#include "util/random.h"

namespace skimjoin {
namespace {

using stream::StreamElement;

std::vector<StreamElement> MixedStream(uint64_t count, uint64_t domain,
                                       uint64_t seed) {
  // Inserts, deletes, and heavier SUM-style weights, skewed like a real
  // workload.
  Rng zipf_rng(seed);
  std::vector<StreamElement> elements =
      stream::ZipfDistribution(domain, 1.1).GenerateElements(count, &zipf_rng);
  Rng rng(seed + 1);
  for (StreamElement& element : elements) {
    const uint64_t roll = rng.NextUint64Below(10);
    if (roll == 0) element.weight = -1;
    if (roll == 1) element.weight = static_cast<int64_t>(2 + roll);
  }
  return elements;
}

template <typename Sketch>
std::string Serialized(const Sketch& sketch) {
  std::stringstream buffer;
  EXPECT_TRUE(sketch.SerializeTo(buffer).ok());
  return buffer.str();
}

TEST(UpdateBatchTest, HashSketchMatchesScalarBitForBit) {
  const auto elements = MixedStream(20000, 1u << 14, 7);
  auto scalar = *sketch::HashSketch::Create({7, 128}, 3);
  auto batched = *sketch::HashSketch::Create({7, 128}, 3);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  for (uint64_t t = 0; t < 7; ++t) {
    for (uint64_t b = 0; b < 128; ++b) {
      ASSERT_EQ(scalar.Counter(t, b), batched.Counter(t, b))
          << "table " << t << " bucket " << b;
    }
  }
}

TEST(UpdateBatchTest, AgmsSketchMatchesScalarBitForBit) {
  const auto elements = MixedStream(5000, 1u << 12, 11);
  auto scalar = *sketch::AgmsSketch::Create({16, 5}, 3);
  auto batched = *sketch::AgmsSketch::Create({16, 5}, 3);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  for (uint64_t i = 0; i < 16; ++i) {
    for (uint64_t j = 0; j < 5; ++j) {
      ASSERT_EQ(scalar.counter(i, j), batched.counter(i, j));
    }
  }
}

TEST(UpdateBatchTest, CountMinMatchesScalarOnPointEstimates) {
  const auto elements = MixedStream(20000, 1u << 12, 13);
  auto scalar = *sketch::CountMinSketch::Create({5, 256}, 3);
  auto batched = *sketch::CountMinSketch::Create({5, 256}, 3);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  for (uint64_t v = 0; v < (1u << 12); ++v) {
    ASSERT_EQ(scalar.PointEstimate(v), batched.PointEstimate(v)) << v;
  }
}

TEST(UpdateBatchTest, SkimmedSketchMatchesScalarIncludingDyadicLevels) {
  const auto elements = MixedStream(30000, 1u << 12, 17);
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 12;
  config.num_buckets = 256;
  config.use_dyadic_skim = true;
  config.dyadic_num_buckets = 64;
  auto scalar = *core::SkimmedSketch::Create(config, 5);
  auto batched = *core::SkimmedSketch::Create(config, 5);
  for (const StreamElement& element : elements) scalar.Update(element);
  batched.UpdateBatch(elements);
  // The serialized text covers every counter of level 0 AND every dyadic
  // level, so string equality is bit-identity of the whole synopsis.
  EXPECT_EQ(Serialized(scalar), Serialized(batched));
}

TEST(UpdateBatchTest, SkimmedSketchBatchDropsOutOfDomainLikeScalar) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 8;
  config.num_buckets = 64;
  auto sketch = *core::SkimmedSketch::Create(config, 5);
  std::vector<StreamElement> elements = {
      {3, 1}, {1u << 9, 1}, {5, 2}, {UINT64_MAX, 1}, {3, 1}};
  sketch.UpdateBatch(elements);
  EXPECT_EQ(sketch.dropped_updates(), 2u);
  EXPECT_EQ(sketch.EstimatePointFrequency(3), 2);
  EXPECT_EQ(sketch.EstimatePointFrequency(5), 2);
}

TEST(UpdateBatchTest, ResetReturnsToFreshState) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 10;
  auto fresh = *core::SkimmedSketch::Create(config, 9);
  auto used = *core::SkimmedSketch::Create(config, 9);
  used.UpdateBatch(MixedStream(5000, 1u << 10, 21));
  used.Update(1u << 11, 1);  // one dropped update
  used.Reset();
  EXPECT_EQ(used.dropped_updates(), 0u);
  EXPECT_EQ(Serialized(fresh), Serialized(used));
}

TEST(ReplicaIngestTest, FoldsReplicaDropCountsIntoStats) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1u << 8;
  config.num_buckets = 64;
  auto master = *core::SkimmedSketch::Create(config, 3);
  auto ingestor =
      *ingest::ConcurrentIngestor<core::SkimmedSketch>::Create(&master);
  std::vector<StreamElement> elements(20000, StreamElement{1, 1});
  elements[7].value = 1u << 9;    // out of domain
  elements[19999].value = 1u << 10;  // out of domain
  ingestor->IngestBatch(elements);
  EXPECT_EQ(ingestor->stats().elements_dropped, 2u);
  EXPECT_EQ(ingestor->stats().elements_absorbed, 19998u);
  EXPECT_EQ(master.EstimatePointFrequency(1), 19998);
  EXPECT_EQ(master.dropped_updates(), 0u);  // drops stayed in the replicas
}

/// Minimal linear synopsis whose Reset deliberately KEEPS its drop counter,
/// modeling a synopsis that treats drops as a lifetime tally (or a prototype
/// copied from a non-reset master). Its replicas then report drops the
/// ingestor never counted as absorbed.
class StickyDropSynopsis {
 public:
  void Update(const StreamElement& element) {
    if (element.value >= 16) {
      ++dropped_;
    } else {
      total_ += element.weight;
    }
  }
  void UpdateBatch(std::span<const StreamElement> elements) {
    for (const StreamElement& element : elements) Update(element);
  }
  void Merge(const StickyDropSynopsis& other) { total_ += other.total_; }
  void Reset() { total_ = 0; }  // dropped_ intentionally survives
  uint64_t dropped_updates() const { return dropped_; }
  int64_t total() const { return total_; }

 private:
  int64_t total_ = 0;
  uint64_t dropped_ = 0;
};

// Regression: replica drop counts larger than the ingestor's own absorbed
// tally used to underflow stats_.elements_absorbed (unsigned) to ~2^64.
// The subtraction must saturate at zero instead.
TEST(ReplicaIngestTest, FlushSaturatesAbsorbedWhenReplicaDropsExceedIt) {
  StickyDropSynopsis shared;
  // Pre-existing drops on the shared synopsis survive the replicas' Reset,
  // so the flush sees 3 drops against 2 absorbed elements.
  const std::vector<StreamElement> out_of_range = {{99, 1}, {99, 1}, {99, 1}};
  shared.UpdateBatch(out_of_range);
  ASSERT_EQ(shared.dropped_updates(), 3u);

  auto ingestor = ingest::ConcurrentIngestor<StickyDropSynopsis>::Create(
      &shared, {.num_workers = 2});
  ASSERT_TRUE(ingestor.ok());
  // Too small to split: the whole batch lands on one replica.
  const std::vector<StreamElement> in_range = {{1, 1}, {2, 1}};
  (*ingestor)->AbsorbBatch(in_range);
  (*ingestor)->Flush();

  const ingest::IngestStats& stats = (*ingestor)->stats();
  EXPECT_EQ(stats.elements_absorbed, 0u);  // saturated, not ~2^64
  EXPECT_EQ(stats.elements_dropped, 3u);
  EXPECT_EQ(shared.total(), 2);
}

// Every answer a query of any kind gives, rendered at full precision, so
// that string equality is bit-for-bit answer equality.
std::string AllAnswers(const query::Engine& engine, query::QueryId id) {
  std::ostringstream out;
  out.precision(17);
  if (const auto join = engine.AnswerJoin(id); join.ok()) {
    out << "join " << *join;
  }
  for (const uint64_t value : {0, 1, 7, 100}) {
    if (const auto point = engine.AnswerPointFrequency(id, value);
        point.ok()) {
      out << " point " << *point;
    }
  }
  if (const auto heavy = engine.AnswerHeavyHitters(id, 50); heavy.ok()) {
    for (const auto& [value, frequency] : *heavy) {
      out << " heavy " << value << ':' << frequency;
    }
  }
  if (const auto distinct = engine.AnswerDistinctCount(id); distinct.ok()) {
    out << " distinct " << *distinct;
  }
  if (const auto topk = engine.AnswerTopK(id); topk.ok()) {
    for (const auto& [value, frequency] : *topk) {
      out << " top " << value << ':' << frequency;
    }
  }
  if (const auto median = engine.AnswerQuantile(id, 0.5); median.ok()) {
    out << " median " << *median;
  }
  if (const auto range = engine.AnswerRangeSum(id, 10, 500); range.ok()) {
    out << " range " << *range;
  }
  return out.str();
}

// The one fan-out behind Update and UpdateBatch: a query of every kind, fed
// whole batches, must end bit-for-bit where per-element Update leaves it —
// same synopsis record, same answers.
TEST(EngineBatchTest, UpdateBatchMatchesScalarUpdates) {
  constexpr uint64_t kDomain = 1u << 10;
  using query::Engine;
  using query::QueryId;
  using AddQuery = std::function<StatusOr<QueryId>(Engine*)>;
  auto join = [](core::EstimatorKind kind,
                 std::function<void(query::JoinQuerySpec*)> tweak = {}) {
    return [kind, tweak](Engine* engine) {
      query::JoinQuerySpec spec;
      spec.left_stream = "f";
      spec.right_stream = "g";
      spec.estimator.kind = kind;
      spec.estimator.space_counters = 512;
      if (tweak) tweak(&spec);
      return engine->AddJoinQuery(spec, 5);
    };
  };
  const AddQuery frequency = [](Engine* engine) {
    query::FrequencyQuerySpec spec;
    spec.stream = "f";
    return engine->AddFrequencyQuery(spec, 5);
  };
  struct Case {
    std::string name;
    AddQuery add;
    uint64_t shards = 1;
    // Reservoir samples take unit inserts and deletes only.
    bool unit_counts = false;
  };
  const std::vector<Case> cases = {
      {"agms join", join(core::EstimatorKind::kAgms)},
      {"hash-sketch join", join(core::EstimatorKind::kHashSketch)},
      {"skimmed join", join(core::EstimatorKind::kSkimmedSketch)},
      {"dyadic skimmed join",
       join(core::EstimatorKind::kSkimmedSketch,
            [](query::JoinQuerySpec* spec) {
              spec->estimator.skimmed_use_dyadic = true;
              spec->estimator.space_counters = 4096;
            })},
      {"count-min join", join(core::EstimatorKind::kCountMin)},
      {"sampling join", join(core::EstimatorKind::kSampling), 1, true},
      {"SUM join", join(core::EstimatorKind::kSkimmedSketch,
                        [](query::JoinQuerySpec* spec) {
                          spec->left_input = query::AggregateInput::kMeasure;
                          spec->right_input = query::AggregateInput::kMeasure;
                        })},
      {"join with predicates",
       join(core::EstimatorKind::kHashSketch,
            [](query::JoinQuerySpec* spec) {
              spec->left_predicate = query::RangePredicate{0, 300};
              spec->right_predicate = query::RangePredicate{100, 900};
            })},
      {"self-join",
       [](Engine* engine) {
         query::SelfJoinQuerySpec spec;
         spec.stream = "f";
         spec.estimator.kind = core::EstimatorKind::kSkimmedSketch;
         return engine->AddSelfJoinQuery(spec, 5);
       }},
      {"frequency", frequency},
      {"frequency, 2 shards",
       [](Engine* engine) {
         query::FrequencyQuerySpec spec;
         spec.stream = "f";
         spec.predicate = query::RangePredicate{0, 700};
         return engine->AddFrequencyQuery(spec, 5);
       },
       2},
      {"frequency, 3 shards", frequency, 3},
      {"frequency, 4 shards", frequency, 4},
      {"frequency, 8 shards", frequency, 8},
      {"distinct", [](Engine* engine) {
         return engine->AddDistinctCountQuery(
             {.stream = "f", .predicate = {}}, 5);
       }},
      {"top-k", [](Engine* engine) {
         return engine->AddTopKQuery(
             {.stream = "f", .k = 5, .predicate = {}}, 5);
       }},
      {"quantile", [](Engine* engine) {
         return engine->AddQuantileQuery({.stream = "f", .predicate = {}});
       }},
      {"range-sum", [](Engine* engine) {
         return engine->AddRangeSumQuery(
             {.stream = "f", .coefficient_budget = 16, .predicate = {}});
       }},
  };

  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    std::vector<query::StreamUpdate> f_updates, g_updates;
    for (const auto& [seed, updates] :
         {std::pair{31, &f_updates}, std::pair{32, &g_updates}}) {
      for (StreamElement& element : MixedStream(20000, kDomain, seed)) {
        if (test_case.unit_counts) {
          element.weight = element.weight < 0 ? -1 : 1;
        }
        updates->push_back(
            {element.value, element.weight, element.weight * 2});
      }
    }

    auto build = [&](bool batched) {
      auto engine = std::make_unique<Engine>();
      Engine::IngestOptions options;
      options.shards = test_case.shards;
      SKIMJOIN_CHECK_OK(engine->SetIngestOptions(options));
      SKIMJOIN_CHECK(engine->RegisterStream({"f", kDomain}).ok());
      SKIMJOIN_CHECK(engine->RegisterStream({"g", kDomain}).ok());
      const StatusOr<QueryId> id = test_case.add(engine.get());
      SKIMJOIN_CHECK(id.ok()) << id.status();
      if (batched) {
        // Two batches per stream, each large enough to split across shards.
        const std::span<const query::StreamUpdate> f(f_updates);
        const std::span<const query::StreamUpdate> g(g_updates);
        const size_t half = f.size() / 2;
        for (const size_t start : {size_t{0}, half}) {
          SKIMJOIN_CHECK_OK(engine->UpdateBatch("f", f.subspan(start, half)));
          SKIMJOIN_CHECK_OK(engine->UpdateBatch("g", g.subspan(start, half)));
        }
        // Every batch went through the workers and merged back once.
        if (test_case.shards > 1) {
          EXPECT_EQ(engine->StreamIngestStats("f")->merges, 2u);
        }
      } else {
        for (size_t i = 0; i < f_updates.size(); ++i) {
          SKIMJOIN_CHECK_OK(engine->Update("f", f_updates[i]));
          SKIMJOIN_CHECK_OK(engine->Update("g", g_updates[i]));
        }
      }
      std::string record;
      const Status serialized = engine->SerializeQuerySynopsis(*id, &record);
      return std::tuple{serialized.code(), record, AllAnswers(*engine, *id),
                        *engine->StreamElementCount("f")};
    };

    const auto scalar = build(false);
    const auto batched = build(true);
    EXPECT_EQ(scalar, batched);
    EXPECT_FALSE(std::get<2>(scalar).empty());
  }
}

// Synchronous sharding: a batch too small to fill two chunks folds in
// inline with no replica merge; a larger one is absorbed by the workers and
// merged back before UpdateBatch returns.
TEST(EngineBatchTest, ShardedBatchesBelowTheFloorSkipTheMerge) {
  query::Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", 1u << 12}).ok());
  query::Engine::IngestOptions options;
  options.shards = 2;
  ASSERT_TRUE(engine.SetIngestOptions(options).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "s";
  ASSERT_TRUE(engine.AddFrequencyQuery(freq, 1).ok());
  std::vector<query::StreamUpdate> updates;
  for (const StreamElement& element :
       MixedStream(2 * ingest::kMinChunkElements, 1u << 12, 41)) {
    updates.push_back({element.value, element.weight, 0});
  }
  const std::span<const query::StreamUpdate> all(updates);

  ASSERT_TRUE(engine.UpdateBatch("s", all.first(all.size() - 1)).ok());
  const ingest::IngestStats small = *engine.StreamIngestStats("s");
  EXPECT_EQ(small.merges, 0u);
  EXPECT_EQ(small.absorb_nanos, 0u);

  ASSERT_TRUE(engine.UpdateBatch("s", all).ok());
  const ingest::IngestStats large = *engine.StreamIngestStats("s");
  EXPECT_EQ(large.merges, 1u);
  EXPECT_GT(large.absorb_nanos, small.absorb_nanos);
}

TEST(EngineBatchTest, DropsOutOfDomainAndCountsThem) {
  query::Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"s", 256}).ok());
  query::FrequencyQuerySpec freq;
  freq.stream = "s";
  auto fq = engine.AddFrequencyQuery(freq, 1);
  ASSERT_TRUE(fq.ok());

  std::vector<query::StreamUpdate> updates = {
      {5, 1, 0}, {512, 1, 0}, {5, 1, 0}, {UINT64_MAX, 3, 0}};
  ASSERT_TRUE(engine.UpdateBatch("s", updates).ok());

  auto stats = engine.StreamIngestStats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches, 1u);
  EXPECT_EQ(stats->elements_absorbed, 2u);
  EXPECT_EQ(stats->elements_dropped, 2u);
  EXPECT_EQ(*engine.AnswerPointFrequency(*fq, 5), 2);
  EXPECT_EQ(*engine.StreamElementCount("s"), 2);

  // The scalar path still reports the error, and counts the drop.
  EXPECT_EQ(engine.Update("s", {1000, 1, 0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.StreamIngestStats("s")->elements_dropped, 3u);
}

TEST(EngineBatchTest, UnknownStreamAndBadShardCountRejected) {
  query::Engine engine;
  std::vector<query::StreamUpdate> updates = {{1, 1, 0}};
  EXPECT_EQ(engine.UpdateBatch("nope", updates).code(),
            StatusCode::kNotFound);
  query::Engine::IngestOptions no_shards;
  no_shards.shards = 0;
  EXPECT_EQ(engine.SetIngestOptions(no_shards).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.StreamIngestStats("nope").ok());
}

}  // namespace
}  // namespace skimjoin
