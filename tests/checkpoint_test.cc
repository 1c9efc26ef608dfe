// Recovery torture tests for Engine::SaveCheckpoint / RestoreCheckpoint:
// byte-level truncation and corruption sweeps over a real checkpoint file
// (restore must fail cleanly — never abort, never silently answer wrong),
// crash-during-save fault injection proving an existing checkpoint is never
// clobbered, partial recovery, and a full round-trip equivalence test where
// a restored engine must answer every query bit-identically to an engine
// that never stopped.

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "query/engine.h"
#include "stream/zipf.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/status.h"

namespace skimjoin {
namespace query {
namespace {

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "checkpoint_" + info->name() + "_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

void ExpectEmpty(const Engine& engine) {
  EXPECT_EQ(engine.num_streams(), 0u);
  EXPECT_EQ(engine.num_relations(), 0u);
  EXPECT_EQ(engine.num_queries(), 0u);
}

// Byte offsets of every frame boundary in a durable file: after the magic,
// and after each section frame (including the end marker). Lets the torture
// tests cut exactly at section boundaries — the truncation a CRC alone
// cannot catch.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> boundaries;
  size_t offset = 20;  // "skimjoin.durable v1\n"
  boundaries.push_back(offset);
  const auto u32 = [&](size_t at) {
    return static_cast<uint32_t>(static_cast<unsigned char>(bytes[at])) |
           static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
               << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
               << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
               << 24;
  };
  while (offset + 12 <= bytes.size()) {
    const uint64_t name_len = u32(offset);
    const uint64_t payload_len = u32(offset + 4);
    offset += 12 + name_len + payload_len;
    if (offset > bytes.size()) break;
    boundaries.push_back(offset);
  }
  return boundaries;
}

// --- a compact engine for the byte-sweep torture tests ---------------------

struct SmallIds {
  QueryId frequency = 0;
  QueryId quantile = 0;
  QueryId range_sum = 0;
};

SmallIds BuildSmallEngine(Engine* engine) {
  SmallIds ids;
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"s", 1u << 8}).status());

  FrequencyQuerySpec frequency;
  frequency.stream = "s";
  frequency.space_counters = 64;
  frequency.num_tables = 4;
  frequency.use_dyadic = false;
  auto fq = engine->AddFrequencyQuery(frequency, 11);
  SKIMJOIN_CHECK_OK(fq.status());
  ids.frequency = *fq;

  QuantileQuerySpec quantile;
  quantile.stream = "s";
  quantile.epsilon = 0.05;
  auto qq = engine->AddQuantileQuery(quantile);
  SKIMJOIN_CHECK_OK(qq.status());
  ids.quantile = *qq;

  RangeSumQuerySpec range_sum;
  range_sum.stream = "s";
  range_sum.coefficient_budget = 16;
  auto rq = engine->AddRangeSumQuery(range_sum);
  SKIMJOIN_CHECK_OK(rq.status());
  ids.range_sum = *rq;

  Rng rng(7);
  stream::ZipfDistribution zipf(1u << 8, 1.0);
  for (const stream::StreamElement& e : zipf.GenerateElements(300, &rng)) {
    SKIMJOIN_CHECK_OK(engine->Update(
        "s", StreamUpdate{e.value, e.weight, 0}));
  }
  return ids;
}

// --- torture: truncation ---------------------------------------------------

TEST(CheckpointTortureTest, TruncationAtEveryByteFailsCleanly) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("full");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"note", "torture"}}).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 100u);

  const std::string truncated_path = TempPath("truncated");
  for (size_t length = 0; length < bytes.size(); ++length) {
    WriteAll(truncated_path, bytes.substr(0, length));
    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(truncated_path);
    EXPECT_FALSE(report.ok()) << "truncation to " << length
                              << " bytes was not detected";
    ExpectEmpty(restored);
  }

  // The untouched file still restores — nothing above damaged it.
  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(restored.num_queries(), 3u);
}

TEST(CheckpointTortureTest, TruncationAtEverySectionBoundaryFailsCleanly) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("full");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"note", "torture"}}).ok());
  const std::string bytes = ReadAll(path);

  // manifest + meta + 3 query sections + end marker ⇒ 6 frames, 7 boundaries.
  const std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(boundaries.size(), 7u);
  ASSERT_EQ(boundaries.back(), bytes.size());

  const std::string truncated_path = TempPath("truncated");
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    WriteAll(truncated_path, bytes.substr(0, boundaries[i]));
    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(truncated_path);
    EXPECT_FALSE(report.ok())
        << "truncation at frame boundary " << boundaries[i]
        << " looked like a complete checkpoint";
    ExpectEmpty(restored);
  }
}

// --- torture: corruption ---------------------------------------------------

TEST(CheckpointTortureTest, BitFlipAtEveryByteFailsCleanly) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("full");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"note", "torture"}}).ok());
  const std::string bytes = ReadAll(path);

  const std::string corrupt_path = TempPath("corrupt");
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xff);
    WriteAll(corrupt_path, corrupt);
    Engine restored;
    StatusOr<RestoreReport> report = restored.RestoreCheckpoint(corrupt_path);
    EXPECT_FALSE(report.ok()) << "byte flip at offset " << offset
                              << " was not detected";
    ExpectEmpty(restored);
  }

  // The previous good checkpoint still loads after the whole sweep.
  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  EXPECT_EQ(restored.num_queries(), 3u);
}

// --- crash-during-save fault injection -------------------------------------

TEST(CheckpointCrashTest, CrashDuringSaveNeverClobbersOldCheckpoint) {
  const std::string path = TempPath("ckpt");

  Engine engine;
  const SmallIds ids = BuildSmallEngine(&engine);
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  const std::string good_bytes = ReadAll(path);
  const StatusOr<uint64_t> good_median = engine.AnswerQuantile(ids.quantile,
                                                               0.5);
  ASSERT_TRUE(good_median.ok());

  // Mutate the engine so the attempted second checkpoint differs, then
  // crash the save at every stage of the write path in turn.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Update("s", StreamUpdate{uint64_t(i % 251), 1, 0}).ok());
  }
  const char* kCrashPoints[] = {"durable:open-temp", "durable:append",
                                "durable:fsync", "durable:rename",
                                "checkpoint:after-header"};
  for (const char* point : kCrashPoints) {
    failpoint::Spec spec;
    spec.mode = failpoint::Mode::kCrash;
    failpoint::ScopedFailpoint guard(point, spec);
    const Status crashed = engine.SaveCheckpoint(path);
    ASSERT_FALSE(crashed.ok()) << point;
    EXPECT_TRUE(failpoint::IsSimulatedCrash(crashed)) << point;
    EXPECT_EQ(ReadAll(path), good_bytes)
        << "crash at " << point << " altered the committed checkpoint";
  }

  // Torn write mid-save: same guarantee.
  {
    failpoint::Spec spec;
    spec.mode = failpoint::Mode::kTornWrite;
    spec.torn_bytes = 5;
    spec.skip = 2;
    failpoint::ScopedFailpoint guard("durable:append", spec);
    const Status torn = engine.SaveCheckpoint(path);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(ReadAll(path), good_bytes);
  }

  // Plain I/O error on fsync: save fails, old checkpoint intact.
  {
    failpoint::Spec spec;
    failpoint::ScopedFailpoint guard("durable:fsync", spec);
    const Status failed = engine.SaveCheckpoint(path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(ReadAll(path), good_bytes);
  }

  // The surviving checkpoint restores the ORIGINAL state.
  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path).ok());
  const StatusOr<uint64_t> restored_median =
      restored.AnswerQuantile(ids.quantile, 0.5);
  ASSERT_TRUE(restored_median.ok());
  EXPECT_EQ(*restored_median, *good_median);

  // And with the failpoints gone, a clean save of the new state succeeds.
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  Engine restored_v2;
  ASSERT_TRUE(restored_v2.RestoreCheckpoint(path).ok());
  StatusOr<int64_t> count = restored_v2.StreamElementCount("s");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 350);
}

// --- partial restore -------------------------------------------------------

TEST(CheckpointPartialTest, AllowPartialRecoversEveryIntactSection) {
  Engine engine;
  const SmallIds ids = BuildSmallEngine(&engine);
  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path, {{"tag", "v1"}}).ok());
  const std::string bytes = ReadAll(path);

  // Cut just after the second query section: manifest, meta, and the first
  // two query sections survive; the last query's synopsis is gone.
  const std::vector<size_t> boundaries = FrameBoundaries(bytes);
  ASSERT_EQ(boundaries.size(), 7u);
  const std::string cut_path = TempPath("cut");
  WriteAll(cut_path, bytes.substr(0, boundaries[4]));

  // Strict restore refuses the damaged file outright.
  {
    Engine strict;
    EXPECT_FALSE(strict.RestoreCheckpoint(cut_path).ok());
    ExpectEmpty(strict);
  }

  // Partial restore recovers everything that is intact and itemizes the
  // loss: exactly one query, restored empty rather than dropped.
  Engine partial;
  StatusOr<RestoreReport> report =
      partial.RestoreCheckpoint(cut_path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->metadata.at("tag"), "v1");
  ASSERT_EQ(report->lost.size(), 1u);
  EXPECT_EQ(report->lost[0].query, ids.range_sum);
  EXPECT_EQ(partial.num_queries(), 3u);

  // The intact queries answer exactly as in the original engine.
  for (uint64_t v : {0u, 1u, 5u, 40u}) {
    EXPECT_EQ(*partial.AnswerPointFrequency(ids.frequency, v),
              *engine.AnswerPointFrequency(ids.frequency, v));
  }
  EXPECT_EQ(*partial.AnswerQuantile(ids.quantile, 0.5),
            *engine.AnswerQuantile(ids.quantile, 0.5));
  // The lost query still exists and still answers — from an empty synopsis.
  StatusOr<double> empty_sum = partial.AnswerRangeSum(ids.range_sum, 0, 255);
  ASSERT_TRUE(empty_sum.ok());
  EXPECT_EQ(*empty_sum, 0.0);
}

// --- guardrails ------------------------------------------------------------

TEST(CheckpointTest, RestoreRequiresEmptyEngine) {
  Engine engine;
  BuildSmallEngine(&engine);
  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  Engine occupied;
  ASSERT_TRUE(occupied.RegisterStream({"other", 16}).ok());
  StatusOr<RestoreReport> report = occupied.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // The occupied engine was not cleared.
  EXPECT_EQ(occupied.num_streams(), 1u);

  occupied.Clear();
  ExpectEmpty(occupied);
  EXPECT_TRUE(occupied.RestoreCheckpoint(path).ok());
}

TEST(CheckpointTest, StrictRestoreRefusesUnsupportedQueries) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterRelation({"r0", 1, 64}).ok());
  ASSERT_TRUE(engine.RegisterRelation({"r1", 2, 64}).ok());
  ASSERT_TRUE(engine.RegisterRelation({"r2", 1, 64}).ok());
  ChainJoinQuerySpec chain;
  chain.relations = {"r0", "r1", "r2"};
  ASSERT_TRUE(engine.AddChainJoinQuery(chain, 5).ok());
  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  Engine strict;
  StatusOr<RestoreReport> report = strict.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnimplemented);
  ExpectEmpty(strict);

  Engine partial;
  StatusOr<RestoreReport> partial_report =
      partial.RestoreCheckpoint(path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(partial_report.ok());
  ASSERT_EQ(partial_report->lost.size(), 1u);
  EXPECT_EQ(partial_report->lost[0].kind, "chain");
  EXPECT_EQ(partial.num_queries(), 1u);
}

// --- full round-trip equivalence -------------------------------------------

struct FullIds {
  QueryId skimmed_join = 0;
  QueryId agms_join = 0;
  QueryId hash_join = 0;
  QueryId countmin_join = 0;
  QueryId self_join = 0;
  QueryId sampling_join = 0;
  QueryId frequency = 0;
  QueryId distinct = 0;
  QueryId topk = 0;
  QueryId quantile = 0;
  QueryId range_sum = 0;
  QueryId chain = 0;
};

constexpr uint64_t kDomain = 1u << 10;

FullIds BuildFullEngine(Engine* engine) {
  FullIds ids;
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"left", kDomain}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"right", kDomain}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r0", 1, 64}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r1", 2, 64}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r2", 1, 64}).status());

  const auto join_with = [&](core::EstimatorKind kind) {
    JoinQuerySpec spec;
    spec.left_stream = "left";
    spec.right_stream = "right";
    spec.estimator.kind = kind;
    spec.estimator.space_counters = 512;
    spec.left_predicate = RangePredicate{0, kDomain - 5};
    auto id = engine->AddJoinQuery(spec, 21);
    SKIMJOIN_CHECK_OK(id.status());
    return *id;
  };
  ids.skimmed_join = join_with(core::EstimatorKind::kSkimmedSketch);
  ids.agms_join = join_with(core::EstimatorKind::kAgms);
  ids.hash_join = join_with(core::EstimatorKind::kHashSketch);
  ids.countmin_join = join_with(core::EstimatorKind::kCountMin);
  ids.sampling_join = join_with(core::EstimatorKind::kSampling);

  SelfJoinQuerySpec self_join;
  self_join.stream = "left";
  self_join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  self_join.estimator.space_counters = 512;
  auto sj = engine->AddSelfJoinQuery(self_join, 22);
  SKIMJOIN_CHECK_OK(sj.status());
  ids.self_join = *sj;

  FrequencyQuerySpec frequency;
  frequency.stream = "left";
  frequency.space_counters = 1024;
  frequency.num_tables = 4;
  frequency.use_dyadic = true;
  auto fq = engine->AddFrequencyQuery(frequency, 23);
  SKIMJOIN_CHECK_OK(fq.status());
  ids.frequency = *fq;

  DistinctCountQuerySpec distinct;
  distinct.stream = "right";
  distinct.num_maps = 32;
  auto dq = engine->AddDistinctCountQuery(distinct, 24);
  SKIMJOIN_CHECK_OK(dq.status());
  ids.distinct = *dq;

  TopKQuerySpec topk;
  topk.stream = "left";
  topk.k = 8;
  topk.space_counters = 256;
  topk.num_tables = 4;
  auto tq = engine->AddTopKQuery(topk, 25);
  SKIMJOIN_CHECK_OK(tq.status());
  ids.topk = *tq;

  QuantileQuerySpec quantile;
  quantile.stream = "right";
  quantile.epsilon = 0.02;
  quantile.predicate = RangePredicate{1, kDomain - 1};
  auto qq = engine->AddQuantileQuery(quantile);
  SKIMJOIN_CHECK_OK(qq.status());
  ids.quantile = *qq;

  RangeSumQuerySpec range_sum;
  range_sum.stream = "left";
  range_sum.coefficient_budget = 64;
  auto rq = engine->AddRangeSumQuery(range_sum);
  SKIMJOIN_CHECK_OK(rq.status());
  ids.range_sum = *rq;

  ChainJoinQuerySpec chain;
  chain.relations = {"r0", "r1", "r2"};
  chain.method = ChainJoinQuerySpec::Method::kHashSketch;
  auto cq = engine->AddChainJoinQuery(chain, 26);
  SKIMJOIN_CHECK_OK(cq.status());
  ids.chain = *cq;
  return ids;
}

void Feed(Engine* engine, const std::vector<stream::StreamElement>& left,
          const std::vector<stream::StreamElement>& right) {
  for (const stream::StreamElement& e : left) {
    SKIMJOIN_CHECK_OK(engine->Update(
        "left", StreamUpdate{e.value, e.weight, int64_t(e.value % 7)}));
  }
  for (const stream::StreamElement& e : right) {
    SKIMJOIN_CHECK_OK(engine->Update(
        "right", StreamUpdate{e.value, e.weight, int64_t(e.value % 5)}));
  }
}

// Every Answer* of the two engines must agree EXACTLY (bit-identical
// doubles) for the given queries.
void ExpectIdenticalAnswers(Engine& a, Engine& b, const FullIds& ids) {
  EXPECT_EQ(*a.AnswerJoin(ids.skimmed_join), *b.AnswerJoin(ids.skimmed_join));
  EXPECT_EQ(*a.AnswerJoin(ids.agms_join), *b.AnswerJoin(ids.agms_join));
  EXPECT_EQ(*a.AnswerJoin(ids.hash_join), *b.AnswerJoin(ids.hash_join));
  EXPECT_EQ(*a.AnswerJoin(ids.countmin_join), *b.AnswerJoin(ids.countmin_join));
  EXPECT_EQ(*a.AnswerJoin(ids.self_join), *b.AnswerJoin(ids.self_join));
  for (uint64_t v : {0u, 1u, 3u, 17u, 100u, 1000u}) {
    EXPECT_EQ(*a.AnswerPointFrequency(ids.frequency, v),
              *b.AnswerPointFrequency(ids.frequency, v))
        << "value " << v;
  }
  const StatusOr<core::DenseFrequencies> heavy_a =
      a.AnswerHeavyHitters(ids.frequency, 10);
  const StatusOr<core::DenseFrequencies> heavy_b =
      b.AnswerHeavyHitters(ids.frequency, 10);
  ASSERT_TRUE(heavy_a.ok());
  ASSERT_TRUE(heavy_b.ok());
  EXPECT_EQ(*heavy_a, *heavy_b);
  EXPECT_EQ(*a.AnswerDistinctCount(ids.distinct),
            *b.AnswerDistinctCount(ids.distinct));
  EXPECT_EQ(*a.AnswerTopK(ids.topk), *b.AnswerTopK(ids.topk));
  for (double phi : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(*a.AnswerQuantile(ids.quantile, phi),
              *b.AnswerQuantile(ids.quantile, phi))
        << "phi " << phi;
  }
  EXPECT_EQ(*a.AnswerRangeSum(ids.range_sum, 0, kDomain - 1),
            *b.AnswerRangeSum(ids.range_sum, 0, kDomain - 1));
  EXPECT_EQ(*a.AnswerRangeSum(ids.range_sum, 5, 300),
            *b.AnswerRangeSum(ids.range_sum, 5, 300));
  EXPECT_EQ(*a.StreamElementCount("left"), *b.StreamElementCount("left"));
  EXPECT_EQ(*a.StreamElementCount("right"), *b.StreamElementCount("right"));
}

TEST(CheckpointEquivalenceTest, RestoredEngineAnswersBitIdentically) {
  Engine live;
  const FullIds ids = BuildFullEngine(&live);

  Rng rng(99);
  stream::ZipfDistribution zipf(kDomain, 1.0);
  const std::vector<stream::StreamElement> left_prefix =
      zipf.GenerateElements(3000, &rng);
  const std::vector<stream::StreamElement> right_prefix =
      zipf.GenerateElements(3000, &rng);
  Feed(&live, left_prefix, right_prefix);
  for (uint64_t t = 0; t < 200; ++t) {
    SKIMJOIN_CHECK_OK(live.UpdateRelation("r0", {t % 64}, 1));
    SKIMJOIN_CHECK_OK(live.UpdateRelation("r1", {t % 64, (t * 3) % 64}, 1));
    SKIMJOIN_CHECK_OK(live.UpdateRelation("r2", {(t * 3) % 64}, 1));
  }

  const std::string path = TempPath("ckpt");
  ASSERT_TRUE(
      live.SaveCheckpoint(path, {{"build", "test"}, {"epoch", "12"}}).ok());

  Engine restored;
  StatusOr<RestoreReport> report = restored.RestoreCheckpoint(
      path, RestoreOptions{.allow_partial = true});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Exactly the sampling join and the chain join lose synopsis state — and
  // they are REPORTED, not silently skipped.
  std::set<QueryId> lost;
  for (const RestoreLoss& loss : report->lost) lost.insert(loss.query);
  EXPECT_EQ(lost, (std::set<QueryId>{ids.sampling_join, ids.chain}));
  EXPECT_EQ(report->metadata.at("build"), "test");
  EXPECT_EQ(report->metadata.at("epoch"), "12");
  EXPECT_EQ(restored.num_queries(), live.num_queries());
  EXPECT_EQ(restored.num_streams(), 2u);
  EXPECT_EQ(restored.num_relations(), 3u);

  // Identical right after restore...
  ExpectIdenticalAnswers(live, restored, ids);

  // ...and still identical after both engines ingest the same suffix,
  // including deletes: the restored synopses must CONTINUE exactly.
  std::vector<stream::StreamElement> left_suffix =
      zipf.GenerateElements(1500, &rng);
  std::vector<stream::StreamElement> right_suffix =
      zipf.GenerateElements(1500, &rng);
  for (size_t i = 0; i < left_suffix.size(); i += 10) {
    left_suffix[i].weight = -1;
  }
  Feed(&live, left_suffix, right_suffix);
  Feed(&restored, left_suffix, right_suffix);
  ExpectIdenticalAnswers(live, restored, ids);

  // The ingest statistics carried over and kept counting.
  const StatusOr<ingest::IngestStats> stats_live =
      live.StreamIngestStats("left");
  const StatusOr<ingest::IngestStats> stats_restored =
      restored.StreamIngestStats("left");
  ASSERT_TRUE(stats_live.ok());
  ASSERT_TRUE(stats_restored.ok());
  EXPECT_EQ(stats_live->elements_absorbed, stats_restored->elements_absorbed);

  // A re-checkpoint of the restored engine equals a re-checkpoint of the
  // live engine byte for byte — the strongest equivalence check available.
  const std::string live_again = TempPath("live2");
  const std::string restored_again = TempPath("restored2");
  ASSERT_TRUE(live.SaveCheckpoint(live_again).ok());
  ASSERT_TRUE(restored.SaveCheckpoint(restored_again).ok());
  const std::string live_bytes = ReadAll(live_again);
  const std::string restored_bytes = ReadAll(restored_again);
  // The sampling-join and chain sections differ (their state was lost), but
  // the manifests are identical.
  EXPECT_EQ(live_bytes.substr(0, 200), restored_bytes.substr(0, 200));
}

// --- the query-spec codec ---------------------------------------------------

// One spec of every alternative, with predicates, SUM inputs, both chain
// methods and doubles that have no short decimal spelling.
std::vector<QuerySpec> EverySpec() {
  JoinQuerySpec join;
  join.left_stream = "left side";  // percent-encoded on the way out
  join.right_stream = "right%";
  join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  join.estimator.space_counters = 4096;
  join.estimator.num_tables = 5;
  join.estimator.threshold_scale = 0.1;
  join.estimator.recurse_slack = 1.0 / 3.0;
  join.estimator.skim_margin = 0.2;
  join.estimator.skimmed_use_dyadic = true;
  join.left_input = AggregateInput::kMeasure;
  join.left_predicate = RangePredicate{3, 900};
  join.right_predicate = RangePredicate{0, UINT64_MAX};
  FrequencyQuerySpec frequency;
  frequency.stream = "f";
  frequency.use_dyadic = false;
  frequency.predicate = RangePredicate{7, 7};
  DistinctCountQuerySpec distinct;
  distinct.stream = "d";
  distinct.num_maps = 48;
  TopKQuerySpec topk;
  topk.stream = "t";
  topk.k = 3;
  topk.predicate = RangePredicate{1, 2};
  QuantileQuerySpec quantile;
  quantile.stream = "q";
  quantile.epsilon = 1.0 / 3.0;
  RangeSumQuerySpec range_sum;
  range_sum.stream = "r";
  range_sum.coefficient_budget = 17;
  ChainJoinQuerySpec grid;
  grid.relations = {"a", "b", "c", "d"};
  grid.method = ChainJoinQuerySpec::Method::kAgmsGrid;
  grid.num_means = 12;
  ChainJoinQuerySpec hashed;
  hashed.relations = {"a", "c"};
  hashed.num_buckets = 32;
  return {join, frequency, distinct, topk, quantile, range_sum, grid, hashed};
}

std::string Encode(const QuerySpec& spec) {
  std::ostringstream out;
  WriteQuerySpec(out, spec);
  return out.str();
}

TEST(QuerySpecCodecTest, EveryAlternativeRoundTripsBitExactly) {
  const std::vector<QuerySpec> specs = EverySpec();
  std::set<size_t> kinds;
  for (const QuerySpec& spec : specs) {
    kinds.insert(spec.index());
    std::istringstream in(Encode(spec));
    const StatusOr<QuerySpec> decoded = ReadQuerySpec(in, QueryKindName(spec));
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " in " << Encode(spec);
    std::string rest;
    EXPECT_FALSE(in >> rest) << "unread: " << rest;
    ASSERT_EQ(decoded->index(), spec.index());
    EXPECT_EQ(Encode(*decoded), Encode(spec));
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<QuerySpec>);

  // Field by field where the text could hide a difference: the doubles bit
  // for bit, the names byte for byte.
  std::istringstream join_in(Encode(specs[0]));
  const StatusOr<QuerySpec> join = ReadQuerySpec(join_in, "join");
  ASSERT_TRUE(join.ok()) << join.status();
  const JoinQuerySpec& got = std::get<JoinQuerySpec>(*join);
  const JoinQuerySpec& want = std::get<JoinQuerySpec>(specs[0]);
  EXPECT_EQ(got.left_stream, want.left_stream);
  EXPECT_EQ(got.right_stream, want.right_stream);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.estimator.threshold_scale),
            std::bit_cast<uint64_t>(want.estimator.threshold_scale));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.estimator.recurse_slack),
            std::bit_cast<uint64_t>(want.estimator.recurse_slack));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.estimator.skim_margin),
            std::bit_cast<uint64_t>(want.estimator.skim_margin));
  EXPECT_EQ(got.left_input, AggregateInput::kMeasure);
  EXPECT_EQ(got.right_input, AggregateInput::kCount);
  EXPECT_EQ(got.left_predicate->lo, 3u);
  EXPECT_EQ(got.right_predicate->hi, UINT64_MAX);
  std::istringstream quantile_in(Encode(specs[4]));
  const StatusOr<QuerySpec> quantile = ReadQuerySpec(quantile_in, "quantile");
  ASSERT_TRUE(quantile.ok()) << quantile.status();
  EXPECT_EQ(std::bit_cast<uint64_t>(
                std::get<QuantileQuerySpec>(*quantile).epsilon),
            std::bit_cast<uint64_t>(1.0 / 3.0));

  std::istringstream unknown_in("x 1");
  EXPECT_FALSE(ReadQuerySpec(unknown_in, "nosuchkind").ok());
  std::istringstream truncated_in("f 4096 7");
  EXPECT_FALSE(ReadQuerySpec(truncated_in, "frequency").ok());
}

// The queries block of a manifest for an engine holding every kind, as the
// format has always spelled it: moving the codec must not move a byte.
TEST(QuerySpecCodecTest, ManifestQueriesBlockIsUnchanged) {
  Engine engine;
  BuildFullEngine(&engine);
  JoinQuerySpec sum_join = std::get<JoinQuerySpec>(EverySpec()[0]);
  sum_join.left_stream = "left";
  sum_join.right_stream = "right";
  ASSERT_TRUE(engine.AddJoinQuery(sum_join, 31).ok());
  ChainJoinQuerySpec grid = std::get<ChainJoinQuerySpec>(EverySpec()[6]);
  grid.relations = {"r0", "r1", "r2"};
  ASSERT_TRUE(engine.AddChainJoinQuery(grid, 32).ok());
  const std::string path = TempPath("golden");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  StatusOr<util::DurableFileReader> reader =
      util::DurableFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  StatusOr<std::optional<util::DurableSection>> manifest = reader->Next();
  ASSERT_TRUE(manifest.ok() && manifest->has_value());
  const std::string& text = (*manifest)->payload;
  const size_t begin = text.find("queries ");
  const size_t end = text.find("metrics ");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(text.substr(begin, end - begin),
            "queries 14\n"
            "1 join 21 1 left right skimmed 512 5 7 2 0.5 0 0 0 0"
            " pred 0 1019 nopred\n"
            "2 join 21 1 left right agms 512 5 7 2 0.5 0 0 0 0"
            " pred 0 1019 nopred\n"
            "3 join 21 1 left right hashsketch 512 5 7 2 0.5 0 0 0 0"
            " pred 0 1019 nopred\n"
            "4 join 21 1 left right countmin 512 5 7 2 0.5 0 0 0 0"
            " pred 0 1019 nopred\n"
            "5 join 21 0 left right sampling 512 5 7 2 0.5 0 0 0 0"
            " pred 0 1019 nopred\n"
            "6 join 22 1 left left skimmed 512 5 7 2 0.5 0 0 0 0"
            " nopred nopred\n"
            "7 frequency 23 1 left 1024 4 1 nopred\n"
            "8 distinct 24 1 right 32 nopred\n"
            "9 topk 25 1 left 8 256 4 nopred\n"
            "10 quantile 0 1 right 0.02 pred 1 1023\n"
            "11 rangesum 0 1 left 64 nopred\n"
            "12 chain 26 0 3 r0 r1 r2 hashsketch 64 5 5 64\n"
            "13 join 31 1 left right skimmed 4096 5 5 0.10000000000000001"
            " 0.33333333333333331 0.20000000000000001 1 1 0"
            " pred 3 900 pred 0 18446744073709551615\n"
            "14 chain 32 0 3 r0 r1 r2 agmsgrid 12 5 5 64\n");
}

// Manifests spell the skim knobs in decimal, which has no inf or NaN:
// such a join is refused at registration, while a huge finite knob
// registers, answers and survives a checkpoint round trip.
TEST(CheckpointTest, SkimKnobsMustBeFiniteToRoundTrip) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterStream({"f", kDomain}).ok());
  ASSERT_TRUE(engine.RegisterStream({"g", kDomain}).ok());
  JoinQuerySpec spec;
  spec.left_stream = "f";
  spec.right_stream = "g";
  spec.estimator.space_counters = 512;
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    for (core::EstimatorKind kind :
         {core::EstimatorKind::kSkimmedSketch, core::EstimatorKind::kAgms}) {
      JoinQuerySpec refused = spec;
      refused.estimator.kind = kind;
      refused.estimator.threshold_scale = bad;
      EXPECT_FALSE(engine.AddJoinQuery(refused, 3).ok()) << bad;
    }
  }
  spec.estimator.threshold_scale = 1e300;
  const StatusOr<QueryId> id = engine.AddJoinQuery(spec, 3);
  ASSERT_TRUE(id.ok()) << id.status();
  for (uint64_t v = 0; v < 200; ++v) {
    SKIMJOIN_CHECK_OK(engine.Update("f", {.value = v % 50, .count = 3}));
    SKIMJOIN_CHECK_OK(engine.Update("g", {.value = v % 40}));
  }
  const StatusOr<double> answer = engine.AnswerJoin(*id);
  ASSERT_TRUE(answer.ok()) << answer.status();

  const std::string path = TempPath("knobs");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  Engine restored;
  const StatusOr<RestoreReport> report = restored.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(*restored.AnswerJoin(*id), *answer);
}

// The v2 manifest carries a counters-only metrics block: cumulative ingest
// counters AND any embedder-registered counters (e.g. the shell's command
// count) must survive a save/restore cycle.
TEST(CheckpointTest, MetricsCountersRoundTrip) {
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterStream({.name = "f", .domain_size = 256}).ok());
  for (uint64_t v = 0; v < 40; ++v) {
    SKIMJOIN_CHECK_OK(engine.Update("f", {.value = v % 256}));
  }
  engine.metrics_registry().GetCounter("shell.commands")->Increment(17);

  const std::string path = TempPath("metrics");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  Engine restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(path, {}).ok());
  uint64_t shell_commands = 0, absorbed = 0;
  for (const auto& [name, value] : restored.MetricsSnapshot().counters) {
    if (name == "shell.commands") shell_commands = value;
    if (name == "ingest.f.elements_absorbed") absorbed = value;
  }
  EXPECT_EQ(shell_commands, 17u);
  EXPECT_EQ(absorbed, 40u);

  // And the restored counters keep counting from where they left off.
  SKIMJOIN_CHECK_OK(restored.Update("f", {.value = 1}));
  const StatusOr<ingest::IngestStats> stats =
      restored.StreamIngestStats("f");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->elements_absorbed, 41u);
}

// A checkpoint is a function of what the engine was fed, not of when: two
// engines fed identically write byte-identical files, even though sharded
// ingest (shards = 2, batches past the inline floor) timed its absorb and
// merge rounds on the wall clock.
TEST(CheckpointTest, IdenticallyFedEnginesWriteIdenticalFiles) {
  std::string bytes[2];
  for (int run = 0; run < 2; ++run) {
    Engine engine;
    ASSERT_TRUE(engine.SetIngestOptions({.shards = 2}).ok());
    BuildFullEngine(&engine);
    Rng rng(31);
    stream::ZipfDistribution zipf(kDomain, 1.0);
    std::vector<StreamUpdate> batch;
    for (const stream::StreamElement& e : zipf.GenerateElements(8192, &rng)) {
      batch.push_back(StreamUpdate{e.value, e.weight, int64_t(e.value % 7)});
    }
    ASSERT_TRUE(engine.UpdateBatch("left", batch).ok());
    ASSERT_TRUE(engine.UpdateBatch("right", batch).ok());
    const StatusOr<ingest::IngestStats> stats =
        engine.StreamIngestStats("left");
    ASSERT_TRUE(stats.ok());
    ASSERT_GT(stats->merges, 0u) << "the batch skipped the sharded ingestor";
    ASSERT_GT(stats->absorb_nanos, 0u);

    const std::string path = TempPath("run" + std::to_string(run));
    ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
    bytes[run] = ReadAll(path);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
