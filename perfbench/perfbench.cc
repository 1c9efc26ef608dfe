// perfbench: the repository benchmark's measuring program.
//
// One process, one client thread, closed loop: the engine is single-writer,
// so the client waits on every UpdateBatch / Answer* call before issuing the
// next. Each workload is a fixed script (set-up, then a fixed element count
// and answer schedule). The script repeats, each repetition with its own
// fixed hash families, while another repetition fits in --seconds; timings
// are medians over every repetition, and answer latencies pool every
// repetition's calls.
// Except on fleet, the ingest, answer and wall times are corrected for the
// host's speed at the time by a fixed probe run between repetitions (see
// HostProbe). Inputs are generated from --seed before any
// timing starts.
//
// With --trace 1 the same script alternates untraced and traced
// repetitions. Traced ones record spans around every call into a layer,
// and a shadow replay then feeds the same batches to standalone layer
// objects (sketches, profiler, codec) to split each layer's cost out. The
// spans are written to --trace-file as JSON lines.
//
// The result is one JSON object on the last line of stdout; perfbench/run.py
// wraps it into the benchmark's reporting contract.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dyadic_skim.h"
#include "core/join_estimators.h"
#include "core/skimmed_sketch.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "hashing/simd_hash.h"
#include "query/engine.h"
#include "sketch/hash_sketch.h"
#include "stream/frequency_vector.h"
#include "stream/zipf.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/stream_profiler.h"

namespace perfbench {
namespace {

using skimjoin::Rng;
using skimjoin::Status;
using skimjoin::StatusOr;
using skimjoin::query::Engine;
using skimjoin::query::QueryId;
using skimjoin::query::StreamUpdate;
using skimjoin::stream::FrequencyVector;
using skimjoin::stream::StreamElement;

using Batches = std::vector<std::span<const StreamUpdate>>;

constexpr uint64_t kDomain = uint64_t{1} << 18;
constexpr uint64_t kDyadicLevels = 18;  // log2(kDomain)
constexpr double kZipf = 1.0;
constexpr uint64_t kShiftG = 100;  // the paper's Fig. 5(a) pair
constexpr size_t kJoinBatch = 4096;

// ---------------------------------------------------------------------------
// Options and scale.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  std::string trace_file;
  std::string work_dir = ".";
};

/// Shape of the host probe (see HostProbe): counters per row of its 7-row
/// table, elements per timed pass, and the time its pass is scaled to.
/// With no elements, the workload's times are as measured.
struct ProbeShape {
  size_t width = 0;
  size_t elements = 0;
  double reference_ns = 0.0;
};

/// Sizes of one workload's script. `tiny` shrinks every count so the
/// self-test runs each workload in well under a second.
struct Scale {
  size_t pool = 0;          // generated elements per stream (join, fleet)
  size_t elements = 0;      // elements fed per stream per repetition
                            // (point_serving: served, after the bulk load)
  size_t batch = 0;         // elements per UpdateBatch call
  size_t bulk = 0;          // elements bulk-loaded before serving
  size_t bulk_batch = 0;    // elements per bulk UpdateBatch call
  size_t polls = 0;         // answers per round (join_answer, point_serving)
  size_t answer_every = 0;  // elements per stream between fleet answers
  size_t hh_every = 0;      // rounds between heavy-hitter answers
  size_t min_reps = 0;      // repetitions before --seconds may end the run
  size_t error_reps = 0;    // repetitions whose final answers answer_error
                            // averages over
  size_t error_families = 0;  // hash families answer_error covers in all
  size_t setup_trials = 0;  // minimum set-up samples
  ProbeShape probe;  // host correction; none by default
};

/// Probe shapes. The reference times are about each probe's time on a
/// 4-vCPU Xeon (Sapphire Rapids) VM, where it ranged 17-28 and 25-40 ms.
/// The join synopses' shape: 7 rows of 4096 counters, in cache.
constexpr ProbeShape kJoinProbe = {
    .width = 4096, .elements = size_t{1} << 19, .reference_ns = 24e6};

/// 7 rows of 2^19 counters, 28 MiB: point_serving's synopsis is 31 MiB.
constexpr ProbeShape kOutOfCacheProbe = {
    .width = size_t{1} << 19, .elements = size_t{1} << 17,
    .reference_ns = 32e6};

Scale ScaleFor(const std::string& workload, bool tiny) {
  Scale s;
  if (workload == "join_ingest") {
    s = {.pool = size_t{1} << 20, .elements = size_t{1} << 22,
         .batch = kJoinBatch, .min_reps = 8, .error_reps = 16,
         .error_families = 32, .setup_trials = 31, .probe = kJoinProbe};
  } else if (workload == "join_answer") {
    // Six polls per round: one cold answer, one hit on caches the skim just
    // evicted, four warm hits. With four polls the median answer fell on
    // the boundary between warm and cold hits and swung 0.2-0.9 us.
    s = {.pool = size_t{1} << 18, .elements = size_t{1} << 18,
         .batch = size_t{1} << 16, .polls = 6, .min_reps = 24,
         .error_reps = 24, .error_families = 64, .setup_trials = 31,
         .probe = kJoinProbe};
  } else if (workload == "point_serving") {
    // Bulk batches of 2^14 split into two 2^13 shards, above the
    // ParallelIngestor's 4096-per-shard floor, so the worker pool runs.
    // Its synopsis is 31 MiB, so its probe's table is out of cache too.
    s = {.elements = size_t{1} << 17, .batch = 256, .bulk = size_t{1} << 17,
         .bulk_batch = size_t{1} << 14, .polls = 64, .hh_every = 64,
         .min_reps = 8, .error_reps = 8, .setup_trials = 31,
         .probe = kOutOfCacheProbe};
  } else if (workload == "fleet") {
    // The first answer of a repetition faults in fresh memory and costs ~3x
    // a later one, and on a shared host about one refresh in 60 spikes to
    // 2-3x. With 16 answers per repetition a run has about six such
    // outliers, under the ten the tail percentile leaves beyond it, so
    // answer_tail_us sits in the body of the refresh latencies. With 64 it
    // swung between the body and the spikes (spread 0.47 over 4 seeds).
    // Times are as measured: either probe shape tracks fleet repetitions
    // weakly (correlation 0.28-0.54), and correcting them widened their
    // spreads over 5-6 seeds.
    s = {.pool = size_t{1} << 20, .elements = size_t{1} << 20,
         .batch = kJoinBatch, .answer_every = size_t{1} << 16, .min_reps = 4,
         .error_reps = 4, .error_families = 16, .setup_trials = 15,
         .probe = {}};
  }
  if (tiny) {
    s.pool = std::min<size_t>(s.pool, 1 << 14);
    s.elements = std::min<size_t>(s.elements, 1 << 14);
    s.batch = std::min<size_t>(s.batch, 1024);
    s.bulk = std::min<size_t>(s.bulk, 1 << 14);
    s.bulk_batch = std::min<size_t>(s.bulk_batch, 1 << 13);
    s.answer_every = std::min<size_t>(s.answer_every, 1 << 12);
    s.hh_every = std::min<size_t>(s.hh_every, 8);
    s.min_reps = 2;
    s.error_reps = 2;
    s.error_families = std::min<size_t>(s.error_families, 3);
    s.setup_trials = 2;
  }
  return s;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Hash-family seed of repetition `index`. It does not depend on --seed:
/// every run asks the same estimator instances about a different input
/// sample, which keeps answer_error comparable across seeds (the error's
/// spread over hash families dwarfs its spread over Zipf samples).
uint64_t QuerySeed(size_t index) { return Mix(0x736b696d, index); }

// ---------------------------------------------------------------------------
// Inputs.

/// A turnstile Zipf stream: ~10% of the updates delete an earlier insert
/// (chosen uniformly among the live ones), so no frequency goes negative.
std::vector<StreamUpdate> MakeStream(size_t n, uint64_t shift, Rng* rng) {
  const skimjoin::stream::ZipfDistribution zipf(kDomain, kZipf, shift);
  std::vector<StreamUpdate> out;
  out.reserve(n);
  std::vector<uint64_t> live;
  live.reserve(n);
  while (out.size() < n) {
    if (!live.empty() && rng->NextUint64Below(10) == 0) {
      const size_t i = rng->NextUint64Below(live.size());
      out.push_back({live[i], -1, 0});
      live[i] = live.back();
      live.pop_back();
    } else {
      const uint64_t value = zipf.Sample(rng);
      out.push_back({value, 1, 0});
      live.push_back(value);
    }
  }
  return out;
}

/// Batches covering `elements` elements of the replayed pool.
Batches Schedule(
    const std::vector<StreamUpdate>& pool, size_t elements, size_t batch) {
  Batches batches;
  size_t fed = 0;
  size_t offset = 0;
  while (fed < elements) {
    const size_t len =
        std::min({batch, elements - fed, pool.size() - offset});
    batches.push_back(std::span<const StreamUpdate>(pool).subspan(offset, len));
    fed += len;
    offset = (offset + len) % pool.size();
  }
  return batches;
}

/// `updates` cut into consecutive batches of `batch` elements.
Batches Slices(std::span<const StreamUpdate> updates, size_t batch) {
  Batches batches;
  for (size_t offset = 0; offset < updates.size(); offset += batch) {
    batches.push_back(
        updates.subspan(offset, std::min(batch, updates.size() - offset)));
  }
  return batches;
}

FrequencyVector Exact(const Batches& batches) {
  FrequencyVector exact(kDomain);
  for (const auto& batch : batches) {
    for (const StreamUpdate& u : batch) exact.Add(u.value, u.count);
  }
  return exact;
}

/// The paper's symmetric answer-quality metric (§5.1): max/min − 1, with
/// non-positive estimates charged the sanity constant 10.
double RatioError(double estimate, double exact) {
  if (exact <= 0.0) return 10.0;
  if (estimate <= 0.0) return 10.0;
  return std::min(std::max(estimate, exact) / std::min(estimate, exact) - 1.0,
                  10.0);
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Hands the pages earlier repetitions freed back to the kernel, so the
/// set-up that follows faults in fresh memory as a starting process does,
/// and returns the resident set size after that. Reusing whatever the last
/// repetition left resident made set-up time bimodal across runs (0.1 or
/// 0.2 ms on join_answer).
double TrimmedRssMb() {
  malloc_trim(0);
  return RssMb();
}

// ---------------------------------------------------------------------------
// Host speed.

/// A fixed piece of sketch work that is not the program's code: each input
/// element is hashed into the 7 rows of a counter table by a degree-2
/// polynomial over the Mersenne prime 2^61 - 1, as the sketches hash, and
/// the hit counter moves by ±1. The table has the workload's synopsis
/// scale (ProbeShape): in cache for the joins, 28 MiB for point_serving.
/// On a shared machine, other tenants slow such work by 30-60% for
/// stretches of seconds to minutes (a scalar dependent multiply chain
/// slows by under 10%), the workloads slow with it, and the program's code
/// cannot change the probe's time. A corrected workload multiplies each
/// repetition's times by the shape's reference time over the probe's mean
/// time just before and just after it.
class HostProbe {
 public:
  explicit HostProbe(const ProbeShape& shape)
      : shape_(shape), input_(shape.elements), table_(kRows * shape.width) {
    uint64_t x = 0x686f7374;
    for (uint64_t& v : input_) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = x >> 46;  // an 18-bit value, as in the workloads' domain
    }
  }

  /// The factor that scales a repetition's times to the reference speed,
  /// from the probe's times just before and just after it.
  double Factor(double before_ns, double after_ns) const {
    return shape_.reference_ns / (0.5 * (before_ns + after_ns));
  }

  /// One timed pass, after a short untimed one that brings the table back
  /// to its steady state, so the repetition before it does not change its
  /// time.
  double Ns() {
    Pass(input_.size() / 16);
    const uint64_t start = NowNs();
    Pass(input_.size());
    return static_cast<double>(NowNs() - start);
  }

 private:
  static constexpr uint64_t kRows = 7;
  static constexpr uint64_t kPrime = (uint64_t{1} << 61) - 1;

  static uint64_t Mod61(unsigned __int128 x) {
    const uint64_t r =
        (static_cast<uint64_t>(x) & kPrime) + static_cast<uint64_t>(x >> 61);
    return r >= kPrime ? r - kPrime : r;
  }

  void Pass(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = input_[i];
      for (uint64_t row = 0; row < kRows; ++row) {
        uint64_t h = Mod61(
            static_cast<unsigned __int128>(0x5deece66dULL + row) * v + row);
        h = Mod61(static_cast<unsigned __int128>(h) * v + 0x2545f491ULL);
        table_[row * shape_.width + (h & (shape_.width - 1))] +=
            ((h >> 20) & 1) ? 1 : -1;
      }
    }
  }

  ProbeShape shape_;
  std::vector<uint64_t> input_;
  std::vector<int64_t> table_;
};

// ---------------------------------------------------------------------------
// Result accumulation.

class Run {
 public:
  explicit Run(const Options& options)
      : options_(options),
        scale_(ScaleFor(options.workload, options.tiny)),
        host_probe_(scale_.probe) {
    tracer_.set_enabled(false);
  }

  const Options& options() const { return options_; }
  const Scale& scale() const { return scale_; }
  Tracer& tracer() { return tracer_; }
  HostProbe& host_probe() { return host_probe_; }

  /// Counts one call; non-OK statuses count as failed and are kept.
  bool Count(const Status& status, const char* what) {
    ++attempted_;
    if (status.ok()) return true;
    ++failed_;
    if (first_error_.empty()) {
      first_error_ = std::string(what) + ": " + status.ToString();
    }
    return false;
  }
  void CountDropped(uint64_t dropped) { failed_ += dropped; }

  /// Times one call as a leaf span. Returns its duration in ns.
  template <typename Fn>
  uint64_t Time(const char* span, Fn&& fn) {
    const uint64_t start = NowNs();
    fn();
    const uint64_t end = NowNs();
    tracer_.Record(span, start, end);
    return end - start;
  }

  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }

  /// Names come from BENCHMARK.json, which run.py reads for their units.
  void AddMetric(const std::string& name, double value) {
    metrics_[name] = value;
  }

  /// One repetition of the workload script, as measured. `host_factor`
  /// scales its times to the probe's reference speed.
  struct Rep {
    double wall_s = 0.0;
    double ingest_meps = 0.0;
    bool traced = false;
    std::vector<uint64_t> answer_ns;
    double host_factor = 1.0;
  };

  /// The untraced or the traced repetitions. Every timing is taken over
  /// all of them: other tenants of a shared machine slow whole stretches
  /// of a run, but a subset chosen by speed would hide a change that slows
  /// only some repetitions.
  std::vector<const Rep*> Select(bool traced) const {
    std::vector<const Rep*> kept;
    for (const Rep& rep : reps) {
      if (rep.traced == traced) kept.push_back(&rep);
    }
    return kept;
  }

  /// Median of a time field; `corrected` applies each repetition's
  /// host factor.
  static double MedianTime(const std::vector<const Rep*>& reps,
                           double Rep::*field, bool corrected) {
    Samples values;
    for (const Rep* rep : reps) {
      values.Add(rep->*field * (corrected ? rep->host_factor : 1.0));
    }
    return values.Median();
  }

  /// Median ingest rate; a corrected rate divides by the host factor.
  static double MedianRate(const std::vector<const Rep*>& reps,
                           bool corrected) {
    Samples values;
    for (const Rep* rep : reps) {
      values.Add(rep->ingest_meps / (corrected ? rep->host_factor : 1.0));
    }
    return values.Median();
  }

  static LatencyHistogram Answers(const std::vector<const Rep*>& reps,
                                  bool corrected) {
    LatencyHistogram answers;
    for (const Rep* rep : reps) {
      const double factor = corrected ? rep->host_factor : 1.0;
      for (const uint64_t ns : rep->answer_ns) {
        answers.Add(static_cast<uint64_t>(static_cast<double>(ns) * factor));
      }
    }
    return answers;
  }

  std::vector<Rep> reps;
  std::vector<uint64_t> answer_ns;  // the current repetition's Answer* calls
  Samples setup_s;  // every repetition's set-up plus extra trials
  Samples probe_ns;  // the host probe before the first and after every
                     // repetition
  Samples errors;
  double rss_mb = 0.0;
  double synopsis_mb = 0.0;
  double refresh_kb = 0.0;

  // Layer figures gathered during traced repetitions.
  std::map<std::string, Samples> layer;

  /// 1 − (failed calls + dropped elements) / calls attempted.
  double ok_ratio() const {
    return attempted_ == 0 ? 0.0
                           : 1.0 - static_cast<double>(failed_) /
                                       static_cast<double>(attempted_);
  }

  bool correct() const {
    if (attempted_ == 0) return false;
    for (const auto& check : checks_) {
      if (!check.ok) return false;
    }
    return true;
  }

  std::string ToJson() const;

  // Filled by Emit: the sample count and percentile behind answer_tail_us,
  // and the timings before the host-speed correction.
  uint64_t answer_samples = 0;
  double tail_pct = 0.0;
  std::map<std::string, double> uncorrected;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };

  Options options_;
  Scale scale_;
  Tracer tracer_;
  HostProbe host_probe_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_error_;
  std::vector<CheckResult> checks_;
  std::map<std::string, double> metrics_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string Run::ToJson() const {
  std::ostringstream out;
  out << "{\"workload\":\"" << options_.workload << "\",\"correct\":"
      << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
      << ",\"failed\":" << failed_ << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    out << (first ? "" : ",") << "\"" << name << "\":" << Number(value);
    first = false;
  }
  out << "},\"checks\":[";
  first = true;
  for (const auto& check : checks_) {
    out << (first ? "" : ",") << "{\"name\":\"" << JsonEscape(check.name)
        << "\",\"ok\":" << (check.ok ? "true" : "false") << ",\"detail\":\""
        << JsonEscape(check.detail) << "\"}";
    first = false;
  }
  const char* force_scalar = std::getenv("SKIMJOIN_FORCE_SCALAR");
  std::ostringstream walls;
  std::ostringstream rates;
  std::ostringstream factors;
  for (const Rep& rep : reps) {
    if (rep.traced) continue;
    walls << (walls.tellp() > 0 ? "," : "") << Number(rep.wall_s);
    rates << (rates.tellp() > 0 ? "," : "") << Number(rep.ingest_meps);
    factors << (factors.tellp() > 0 ? "," : "") << Number(rep.host_factor);
  }
  std::ostringstream raw;
  for (const auto& [name, value] : uncorrected) {
    raw << (raw.tellp() > 0 ? "," : "") << "\"" << name
        << "\":" << Number(value);
  }
  std::ostringstream setups;
  for (const double v : setup_s.values()) {
    setups << (setups.tellp() > 0 ? "," : "") << Number(v);
  }
  std::ostringstream errs;
  for (const double v : errors.values()) {
    errs << (errs.tellp() > 0 ? "," : "") << Number(v);
  }
  out << "],\"samples\":{\"wall_s\":[" << walls.str()
      << "],\"ingest_meps\":[" << rates.str() << "],\"host_factor\":["
      << factors.str() << "],\"setup_s\":["
      << setups.str() << "],\"answer_error\":[" << errs.str() << "]}";
  out << ",\"notes\":{\"answer_samples\":" << answer_samples
      << ",\"answer_tail_percentile\":" << Number(tail_pct)
      << ",\"repetitions\":" << reps.size()
      << ",\"host_probe_ms\":"
      << Number(probe_ns.empty() ? 0.0 : probe_ns.Median() / 1e6)
      << ",\"uncorrected\":{" << raw.str() << "},\"first_error\":\""
      << JsonEscape(first_error_) << "\"}"
      << ",\"context\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"simd\":\""
      << skimjoin::hashing::SimdLevelName(skimjoin::hashing::DetectSimdLevel())
      << "\",\"force_scalar\":"
      << ((force_scalar != nullptr && force_scalar[0] != '\0' &&
           std::strcmp(force_scalar, "0") != 0)
              ? "true"
              : "false")
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"ndebug\":"
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Shared workload pieces.

/// Default skimmed join spec (4096 counters, 7 tables, domain-scan skim).
skimjoin::query::JoinQuerySpec JoinSpec(bool dyadic) {
  skimjoin::query::JoinQuerySpec spec;
  spec.left_stream = "f";
  spec.right_stream = "g";
  spec.estimator.kind = skimjoin::core::EstimatorKind::kSkimmedSketch;
  spec.estimator.skimmed_use_dyadic = dyadic;
  return spec;
}

/// The SkimmedSketchConfig the engine builds for JoinSpec (mirrors
/// CreateJoinEstimatorPair), so shadow sketches have the engine's shape.
skimjoin::core::SkimmedSketchConfig ShadowJoinConfig(bool dyadic) {
  const skimjoin::core::EstimatorSpec spec = JoinSpec(dyadic).estimator;
  skimjoin::core::SkimmedSketchConfig config;
  config.domain_size = kDomain;
  config.num_tables = spec.num_tables;
  config.threshold_scale = spec.threshold_scale;
  config.recurse_slack = spec.recurse_slack;
  config.skim_margin = spec.skim_margin;
  config.use_dyadic_skim = dyadic;
  if (dyadic) {
    config.num_buckets = spec.space_counters / (2 * spec.num_tables);
    config.dyadic_num_buckets = std::max<uint64_t>(
        1, spec.space_counters / (2 * spec.num_tables * kDyadicLevels));
  } else {
    config.num_buckets = spec.space_counters / spec.num_tables;
  }
  return config;
}

skimjoin::query::FrequencyQuerySpec PointSpec() {
  skimjoin::query::FrequencyQuerySpec spec;
  spec.stream = "f";
  spec.num_tables = 21;
  spec.space_counters = 8192;
  spec.use_dyadic = true;
  return spec;
}

/// The SkimmedSketchConfig the engine builds for PointSpec (mirrors
/// Engine::AddFrequencyQuery).
skimjoin::core::SkimmedSketchConfig ShadowPointConfig() {
  const skimjoin::query::FrequencyQuerySpec spec = PointSpec();
  skimjoin::core::SkimmedSketchConfig config;
  config.domain_size = kDomain;
  config.num_tables = spec.num_tables;
  config.use_dyadic_skim = true;
  config.num_buckets = spec.space_counters / (2 * spec.num_tables);
  config.dyadic_num_buckets = std::max<uint64_t>(
      1, spec.space_counters / (2 * spec.num_tables * kDyadicLevels));
  return config;
}

double SumGauges(const skimjoin::metrics::Snapshot& snapshot,
                 const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : snapshot.gauges) {
    std::string base = name;
    std::string shard;
    skimjoin::metrics::SplitShardLabel(name, &base, &shard);
    if (base.rfind("query.", 0) == 0 && base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

uint64_t SumCounters(const skimjoin::metrics::Snapshot& snapshot,
                     const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [name, value] : snapshot.counters) {
    std::string base = name;
    std::string shard;
    skimjoin::metrics::SplitShardLabel(name, &base, &shard);
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

/// Runs `rep(index, traced)` while another repetition as long as the last
/// one fits in --seconds, and at least the scale's minimum count. With
/// --trace 1 even repetitions run untraced and odd ones traced, so the
/// tracing overhead compares like with like.
void Repeat(Run* run, const std::function<void(size_t, bool)>& rep) {
  const uint64_t start = NowNs();
  const size_t min_reps = run->options().trace
                              ? std::max<size_t>(2, run->scale().min_reps)
                              : run->scale().min_reps;
  const bool corrected = run->scale().probe.elements > 0;
  if (corrected) run->probe_ns.Add(run->host_probe().Ns());
  uint64_t rep_start = NowNs();
  for (size_t index = 0;; ++index) {
    const bool traced = run->options().trace && index % 2 == 1;
    run->answer_ns.reserve(size_t{1} << 16);
    run->tracer().set_enabled(traced);
    run->tracer().Open("workload.repetition", index);
    rep(index, traced);
    run->tracer().Close();
    run->tracer().set_enabled(false);
    if (corrected) {
      run->probe_ns.Add(run->host_probe().Ns());
      const std::vector<double>& probes = run->probe_ns.values();
      run->reps.back().host_factor =
          run->host_probe().Factor(probes[index], probes[index + 1]);
    }
    // When one more repetition as long as this one would end.
    const uint64_t now = NowNs();
    const double next_end =
        static_cast<double>(2 * now - rep_start - start) * 1e-9;
    rep_start = now;
    if (index + 1 >= min_reps && next_end > run->options().seconds) break;
  }
}

/// Closes one repetition: its set-up, wall and ingest figures plus the
/// Answer* latencies collected in run->answer_ns since the last call.
void RecordRep(Run* run, bool traced, double setup_ns, double wall_ns,
               double ingest_ns, double elements) {
  run->setup_s.Add(setup_ns * 1e-9);
  Run::Rep rep;
  rep.wall_s = wall_ns * 1e-9;
  rep.ingest_meps = elements / (ingest_ns * 1e-9) / 1e6;
  rep.traced = traced;
  rep.answer_ns = std::move(run->answer_ns);
  run->answer_ns.clear();
  run->reps.push_back(std::move(rep));
}

/// Adds set-up-only trials, `trial(i)` returning one set-up's ns, until the
/// run holds the scale's minimum number of set-up samples.
void TopUpSetupTrials(Run* run, const std::function<uint64_t(size_t)>& trial) {
  for (size_t i = run->setup_s.size(); i < run->scale().setup_trials; ++i) {
    malloc_trim(0);
    run->setup_s.Add(static_cast<double>(trial(i)) * 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Shadow replay: standalone layer objects fed the workload's batches.

/// Feeds `batches` to `fn(batch)` and returns ns per element. Each batch
/// is copied into the sketches' element type before its timer starts.
double TimePerElement(
    Run* run, const char* span, const Batches& batches,
    const std::function<void(std::span<const StreamElement>)>& fn) {
  std::vector<StreamElement> elements;
  double total_ns = 0.0;
  double count = 0.0;
  for (const auto& batch : batches) {
    elements.clear();
    for (const StreamUpdate& u : batch) elements.push_back({u.value, u.count});
    total_ns += static_cast<double>(run->Time(span, [&] { fn(elements); }));
    count += static_cast<double>(batch.size());
  }
  return count == 0.0 ? 0.0 : total_ns / count;
}

/// Shadow replay of one stream (or a join pair's two streams) through the
/// sketch, core, hashing and util layers. `f_batches`/`g_batches` are the
/// engine's batches per side (g empty for a single-stream workload, which
/// then skims and self-joins f). Fills the sketch/core/hashing/util layer
/// metrics and returns the shadow synopses' ingest ns per element (the
/// part of engine UpdateBatch time that is not routing).
double ShadowReplay(Run* run, const skimjoin::core::SkimmedSketchConfig& config,
                    uint64_t seed,
                    const Batches& f_batches, const Batches& g_batches,
                    const std::vector<uint64_t>& probes) {
  using skimjoin::core::SkimmedSketch;
  Tracer& tracer = run->tracer();
  tracer.set_enabled(true);
  tracer.Open("shadow.replay", 1'000'000);

  StatusOr<SkimmedSketch> f = SkimmedSketch::Create(config, seed);
  StatusOr<SkimmedSketch> g = SkimmedSketch::Create(config, seed);
  run->Count(f.status(), "shadow SkimmedSketch::Create");
  run->Count(g.status(), "shadow SkimmedSketch::Create");
  if (!f.ok() || !g.ok()) {
    tracer.Close();
    return 0.0;
  }
  Batches both = f_batches;
  both.insert(both.end(), g_batches.begin(), g_batches.end());
  const double skimmed_ns = TimePerElement(
      run, "core.skimmed_update", both,
      [&, split = f_batches.size(), seen = size_t{0}](
          std::span<const StreamElement> b) mutable {
        (seen++ < split ? *f : *g).UpdateBatch(b);
      });
  run->layer["core.skimmed_update.ns_per_elem"].Add(skimmed_ns);
  const uint64_t hits = f->hash_cache_hits() + g->hash_cache_hits();
  const uint64_t misses = f->hash_cache_misses() + g->hash_cache_misses();
  run->layer["hashing.plan_cache.hit_ratio"].Add(
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses));

  // Level-0 hash sketch alone.
  skimjoin::sketch::HashSketchConfig level0{config.num_tables,
                                            config.num_buckets};
  StatusOr<skimjoin::sketch::HashSketch> hash =
      skimjoin::sketch::HashSketch::Create(level0, seed);
  if (run->Count(hash.status(), "shadow HashSketch::Create")) {
    double ns = TimePerElement(
        run, "sketch.hash_update", f_batches,
        [&](std::span<const StreamElement> b) { hash->UpdateBatch(b); });
    run->layer["sketch.hash_update.ns_per_elem"].Add(ns);
    // Point estimates over the workload's read values.
    Samples point;
    for (int trial = 0; trial < 5; ++trial) {
      uint64_t sink = 0;
      const uint64_t start = NowNs();
      for (const uint64_t v : probes) {
        sink += static_cast<uint64_t>(hash->PointEstimate(v));
      }
      const uint64_t end = NowNs();
      tracer.Record("sketch.point_estimate", start, end);
      point.Add(static_cast<double>(end - start) /
                static_cast<double>(std::max<size_t>(1, probes.size())));
      if (sink == 42) std::fputc(' ', stderr);  // keep the loop alive
    }
    run->layer["sketch.point_estimate.ns"].Add(point.Median());
  }

  // Dyadic levels alone (only where the engine's synopsis keeps them).
  if (config.use_dyadic_skim) {
    skimjoin::sketch::HashSketchConfig upper{config.num_tables,
                                             config.dyadic_num_buckets};
    StatusOr<skimjoin::core::DyadicSkimmer> dyadic =
        skimjoin::core::DyadicSkimmer::Create(kDomain, upper, seed);
    if (run->Count(dyadic.status(), "shadow DyadicSkimmer::Create")) {
      const double ns = TimePerElement(
          run, "core.dyadic_update", f_batches,
          [&](std::span<const StreamElement> b) { dyadic->UpdateBatch(b); });
      run->layer["core.dyadic_update.ns_per_elem"].Add(ns);
    }
  } else {
    run->layer["core.dyadic_update.ns_per_elem"].Add(0.0);
  }

  // Stream profiler alone.
  {
    skimjoin::util::StreamProfiler profiler;
    const double ns = TimePerElement(
        run, "util.profiler", f_batches, [&](std::span<const StreamElement> b) {
          for (const StreamElement& e : b) profiler.Observe(e.value, e.weight);
        });
    run->layer["util.profiler.ns_per_elem"].Add(ns);
  }

  // Skim, sub-joins and the report remainder on the final synopses.
  const SkimmedSketch& right = g_batches.empty() ? *f : *g;
  for (int trial = 0; trial < 3; ++trial) {
    std::optional<SkimmedSketch::SkimOutput> skim_f;
    std::optional<SkimmedSketch::SkimOutput> skim_g;
    const uint64_t skim_ns =
        run->Time("core.skim", [&] { skim_f = f->Skim(); }) +
        run->Time("core.skim", [&] { skim_g = right.Skim(); });
    StatusOr<double> subjoin = 0.0;
    const uint64_t subjoin_ns = run->Time("core.subjoin", [&] {
      subjoin = SkimmedSketch::EstimateJoinSizeFromSkims(*skim_f, *skim_g);
    });
    run->Count(subjoin.status(), "shadow EstimateJoinSizeFromSkims");
    StatusOr<skimjoin::EstimateReport> report = skimjoin::EstimateReport{};
    const uint64_t report_ns = run->Time("core.report", [&] {
      report = SkimmedSketch::EstimateJoinSizeWithReport(*f, right);
    });
    run->Count(report.status(), "shadow EstimateJoinSizeWithReport");
    run->layer["core.skim.us"].Add(static_cast<double>(skim_ns) / 2e3);
    run->layer["core.subjoin.us"].Add(static_cast<double>(subjoin_ns) / 1e3);
    run->layer["core.report.us"].Add(
        (static_cast<double>(report_ns) - static_cast<double>(skim_ns) -
         static_cast<double>(subjoin_ns)) /
        1e3);
    run->layer["core.dense_count"].Add(
        static_cast<double>(skim_f->dense.size() + skim_g->dense.size()));
  }

  // Codec and merge: the per-synopsis work a fleet refresh repeats.
  for (int trial = 0; trial < 3; ++trial) {
    std::string text;
    run->layer["sketch.serialize.ms"].Add(
        static_cast<double>(run->Time("sketch.serialize", [&] {
          std::ostringstream out;
          run->Count(f->SerializeTo(out), "shadow SerializeTo");
          text = std::move(out).str();
        })) /
        1e6);
    run->layer["sketch.serialized_kb"].Add(static_cast<double>(text.size()) /
                                           1024.0);
    std::optional<SkimmedSketch> decoded;
    run->layer["sketch.deserialize.ms"].Add(
        static_cast<double>(run->Time("sketch.deserialize", [&] {
          std::istringstream in(text);
          StatusOr<SkimmedSketch> d = SkimmedSketch::DeserializeFrom(in);
          if (run->Count(d.status(), "shadow DeserializeFrom")) {
            decoded = *std::move(d);
          }
        })) /
        1e6);
    if (decoded.has_value()) {
      run->layer["sketch.merge.ms"].Add(
          static_cast<double>(
              run->Time("sketch.merge", [&] { decoded->Merge(*f); })) /
          1e6);
    }
  }
  run->layer["sketch.memory_overhead_ratio"].Add(
      static_cast<double>(f->MemoryBytes()) /
      (static_cast<double>(f->TotalCounters()) * 8.0));

  tracer.Close();
  tracer.set_enabled(false);
  return skimmed_ns + run->layer["util.profiler.ns_per_elem"].Median();
}

// ---------------------------------------------------------------------------
// join_ingest and join_answer: one skimmed join F ⋈ G on a local engine.

struct JoinInputs {
  std::vector<StreamUpdate> f_pool;
  std::vector<StreamUpdate> g_pool;
  Batches f_batches;
  Batches g_batches;
  FrequencyVector f_exact{kDomain};
  FrequencyVector g_exact{kDomain};
  double exact_join = 0.0;
};

JoinInputs MakeJoinInputs(const Run& run, size_t batch) {
  JoinInputs in;
  Rng rng(Mix(run.options().seed, 1));
  in.f_pool = MakeStream(run.scale().pool, 0, &rng);
  in.g_pool = MakeStream(run.scale().pool, kShiftG, &rng);
  in.f_batches = Schedule(in.f_pool, run.scale().elements, batch);
  in.g_batches = Schedule(in.g_pool, run.scale().elements, batch);
  in.f_exact = Exact(in.f_batches);
  in.g_exact = Exact(in.g_batches);
  in.exact_join = static_cast<double>(
      skimjoin::stream::JoinSize(in.f_exact, in.g_exact));
  return in;
}

/// Ceilings on the symmetric join error. Per answer: a correct estimator
/// at these shapes measured at most 0.30 (domain-scan skim, 4096 counters)
/// and 0.93 (dyadic skim, half the counters on level 0) over hundreds of
/// hash families, so only a broken one crosses them. Averaged over a run's
/// 32 hash families (measured 0.04–0.05 and 0.13–0.15), the ceiling is
/// tight enough to catch a systematic bias such as lost deletes.
constexpr double kJoinErrorCeiling = 1.0;
constexpr double kJoinMeanErrorCeiling = 0.15;
constexpr double kDyadicJoinErrorCeiling = 2.0;
constexpr double kDyadicJoinMeanErrorCeiling = 0.3;

/// The expected join answer the checks compare against; --perturb moves it
/// past twice the ceiling so the self-test can prove the check rejects it.
double ExpectedJoin(const Run& run, double exact, double ceiling) {
  return run.options().perturb ? exact * (1.0 + 2.0 * ceiling) : exact;
}

/// Extends answer_error past the timed repetitions' final answers to
/// `error_families` hash families: the join pair of each further family
/// absorbs the exact frequency vectors (by linearity, the counters
/// streaming builds) and estimates once, untimed. The first family re-runs
/// repetition 0's query, and must reproduce its answer bit for bit.
void FillErrorFamilies(Run* run, const JoinInputs& in, bool dyadic,
                       double first_answer) {
  skimjoin::core::EstimatorSpec spec = JoinSpec(dyadic).estimator;
  spec.domain_size = kDomain;
  const auto estimate = [&](size_t family) -> double {
    StatusOr<std::unique_ptr<skimjoin::core::JoinEstimatorPair>> pair =
        skimjoin::core::CreateJoinEstimatorPair(spec, QuerySeed(family));
    if (!run->Count(pair.status(), "CreateJoinEstimatorPair")) return 0.0;
    (*pair)->AbsorbF(in.f_exact);
    (*pair)->AbsorbG(in.g_exact);
    StatusOr<double> answer = (*pair)->Estimate();
    return run->Count(answer.status(), "Estimate") ? *answer : 0.0;
  };
  const double replay = estimate(0);
  run->Check("absorbed pair reproduces repetition 0", replay == first_answer,
             Number(replay) + " vs " + Number(first_answer));
  for (size_t family = run->errors.size();
       family < run->scale().error_families; ++family) {
    run->errors.Add(RatioError(estimate(family), in.exact_join));
  }
}

void CheckMeanError(Run* run, double ceiling) {
  run->Check("mean join error", run->errors.Mean() <= ceiling,
             "mean " + Number(run->errors.Mean()) + " over " +
                 std::to_string(run->errors.size()) +
                 " hash families, ceiling " + Number(ceiling));
}

struct EngineJoin {
  std::unique_ptr<Engine> engine;
  QueryId query = 0;
};

/// Set-up: engine construction plus registration.
EngineJoin SetUpJoin(Run* run, uint64_t seed, bool cache, bool dyadic) {
  EngineJoin e;
  e.engine = std::make_unique<Engine>();
  run->Count(e.engine->RegisterStream({"f", kDomain}).status(),
             "RegisterStream");
  run->Count(e.engine->RegisterStream({"g", kDomain}).status(),
             "RegisterStream");
  StatusOr<QueryId> id = e.engine->AddJoinQuery(JoinSpec(dyadic), seed);
  if (run->Count(id.status(), "AddJoinQuery")) e.query = *id;
  if (cache) e.engine->SetReadPathOptions({.use_query_cache = true});
  return e;
}

/// Untimed per-repetition bookkeeping shared by the local workloads.
void AfterLocalRep(Run* run, const Engine& engine, QueryId query,
                   size_t index, double rss_before) {
  if (index == 0) {
    run->rss_mb = RssMb() - rss_before;
    const skimjoin::metrics::Snapshot snapshot = engine.MetricsSnapshot();
    run->synopsis_mb = SumGauges(snapshot, ".memory_bytes") / (1024.0 * 1024.0);
    std::string synopsis;
    if (run->Count(engine.SerializeQuerySynopsis(query, &synopsis),
                   "SerializeQuerySynopsis")) {
      run->refresh_kb = static_cast<double>(synopsis.size()) / 1024.0;
    }
  }
  for (const std::string& stream : engine.StreamNames()) {
    StatusOr<skimjoin::ingest::IngestStats> stats =
        engine.StreamIngestStats(stream);
    if (run->Count(stats.status(), "StreamIngestStats")) {
      run->CountDropped(stats->elements_dropped);
    }
  }
}

/// Registry-side layer figures of one traced repetition: the estimator
/// latency histogram's mean (its exact sum over its count; its quantiles
/// only resolve powers of two) and the query-cache tallies.
void QueryLayerRegistry(Run* run, const Engine& engine, QueryId query) {
  const skimjoin::metrics::Snapshot snapshot = engine.MetricsSnapshot();
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name == "query." + std::to_string(query) + ".estimate_ns" &&
        histogram.count > 0) {
      run->layer["query.estimate_ns.mean"].Add(histogram.Mean());
    }
  }
  StatusOr<Engine::QueryCacheStats> cache = engine.QueryCacheStatsFor(query);
  if (run->Count(cache.status(), "QueryCacheStatsFor")) {
    const double lookups = static_cast<double>(cache->hits + cache->misses);
    if (lookups > 0) {
      run->layer["query.cache.hit_ratio"].Add(
          static_cast<double>(cache->hits) / lookups);
    }
    run->layer["query.cache.invalidations"].Add(
        static_cast<double>(cache->invalidations));
  }
}

void RunJoin(Run* run, bool answer_heavy) {
  const Scale& s = run->scale();
  const JoinInputs in = MakeJoinInputs(*run, s.batch);
  const size_t rounds = in.f_batches.size();
  const double expected = ExpectedJoin(*run, in.exact_join, kJoinErrorCeiling);
  double first_answer = 0.0;

  Repeat(run, [&](size_t index, bool traced) {
    const uint64_t seed = QuerySeed(index);
    const double rss_before = TrimmedRssMb();
    EngineJoin e;
    const uint64_t setup_ns = run->Time("query.setup", [&] {
      e = SetUpJoin(run, seed, /*cache=*/answer_heavy, /*dyadic=*/false);
    });
    Engine& engine = *e.engine;
    double ingest_ns = 0.0;
    double update_ns = 0.0;
    double answer = 0.0;
    const uint64_t wall_start = NowNs();
    for (size_t r = 0; r < rounds; ++r) {
      const auto f = in.f_batches[r];
      const auto g = in.g_batches[r];
      update_ns += static_cast<double>(run->Time("query.update_batch", [&] {
        run->Count(engine.UpdateBatch("f", f), "UpdateBatch");
      }));
      update_ns += static_cast<double>(run->Time("query.update_batch", [&] {
        run->Count(engine.UpdateBatch("g", g), "UpdateBatch");
      }));
      if (!answer_heavy) continue;
      for (size_t p = 0; p < s.polls; ++p) {
        const bool cold = p == 0;
        const uint64_t ns = run->Time(
            cold ? "query.answer_join.cold" : "query.answer_join.hit", [&] {
              StatusOr<double> a = engine.AnswerJoin(e.query);
              if (run->Count(a.status(), "AnswerJoin")) answer = *a;
            });
        run->answer_ns.push_back(ns);
        if (traced) {
          run->layer[cold ? "query.answer_join.cold_us"
                          : "query.answer_join.hit_us"]
              .Add(static_cast<double>(ns) / 1e3);
        }
      }
    }
    ingest_ns = update_ns + static_cast<double>(run->Time(
                                "ingest.flush", [&] { engine.FlushIngest(); }));
    const uint64_t final_ns = run->Time(
        answer_heavy ? "query.answer_join.hit" : "query.answer_join.cold",
        [&] {
          StatusOr<double> a = engine.AnswerJoin(e.query);
          if (run->Count(a.status(), "AnswerJoin")) answer = *a;
        });
    const uint64_t wall_end = NowNs();
    run->answer_ns.push_back(final_ns);
    if (traced) {
      run->layer[answer_heavy ? "query.answer_join.hit_us"
                              : "query.answer_join.cold_us"]
          .Add(static_cast<double>(final_ns) / 1e3);
    }

    const double elements = 2.0 * static_cast<double>(s.elements);
    RecordRep(run, traced, static_cast<double>(setup_ns),
              static_cast<double>(wall_end - wall_start), ingest_ns, elements);
    const double error = RatioError(answer, in.exact_join);
    if (index < s.error_reps) run->errors.Add(error);
    if (index == 0) first_answer = answer;
    run->Check("join error ceiling rep " + std::to_string(index),
               RatioError(answer, expected) <= kJoinErrorCeiling,
               "estimate " + Number(answer) + " expected " + Number(expected));
    AfterLocalRep(run, engine, e.query, index, rss_before);
    if (traced) {
      run->layer["query.update_batch.ns_per_elem"].Add(update_ns / elements);
      QueryLayerRegistry(run, engine, e.query);
    }
  });

  FillErrorFamilies(run, in, /*dyadic=*/false, first_answer);
  CheckMeanError(run, kJoinMeanErrorCeiling);

  TopUpSetupTrials(run, [&](size_t i) {
    EngineJoin e;
    return run->Time("query.setup", [&] {
      e = SetUpJoin(run, QuerySeed(i), answer_heavy, /*dyadic=*/false);
    });
  });

  if (run->options().trace) {
    std::vector<uint64_t> probes;
    for (size_t i = 0; i < 4096; ++i) probes.push_back(in.f_pool[i].value);
    const double shadow_ns =
        ShadowReplay(run, ShadowJoinConfig(false), QuerySeed(0),
                     in.f_batches, in.g_batches, probes);
    run->layer["query.route.ns_per_elem"].Add(
        run->layer["query.update_batch.ns_per_elem"].Median() - shadow_ns);
  }
}

// ---------------------------------------------------------------------------
// point_serving: one frequency query with the query cache on; reads
// interleave with small ingest batches.

/// Set-up: engine construction, registration, read-path and ingest
/// options. Ingest is synchronous and sharded two ways: each UpdateBatch
/// returns once its elements are in the synopsis, and a batch large enough
/// is split between the calling thread and one WorkerPool thread.
EngineJoin SetUpPoint(Run* run, uint64_t seed) {
  EngineJoin e;
  e.engine = std::make_unique<Engine>();
  run->Count(e.engine->RegisterStream({"f", kDomain}).status(),
             "RegisterStream");
  StatusOr<QueryId> id = e.engine->AddFrequencyQuery(PointSpec(), seed);
  if (run->Count(id.status(), "AddFrequencyQuery")) e.query = *id;
  e.engine->SetReadPathOptions({.use_query_cache = true});
  Engine::IngestOptions ingest;
  ingest.shards = 2;
  run->Count(e.engine->SetIngestOptions(ingest), "SetIngestOptions");
  return e;
}

/// How far a point answer may sit from the exact count: 1.5 standard
/// deviations of the median of the query's 21 COUNTSKETCH tables, taken as
/// one table's sqrt((F2 - f_v^2) / b) times sqrt(pi / (2 * 21)). Over 600
/// hash families on three Zipf samples of this workload's size, no top-100
/// answer was off by more than 0.56 of that deviation (1.04 at the
/// self-test's tiny scale).
double PointEnvelope(double f2, double truth) {
  const double buckets = static_cast<double>(ShadowPointConfig().num_buckets);
  const double tables = static_cast<double>(PointSpec().num_tables);
  return 1.5 * std::sqrt((f2 - truth * truth) / buckets) *
         std::sqrt(M_PI / (2.0 * tables));
}

/// Ceiling on the mean relative error of the top-100 answers, averaged over
/// a run's repetitions. One hash family measured at most 0.16 (0.18 at the
/// tiny scale) over the same 600 families; answering the values below the
/// envelope's reach with 0 would push it past 0.6.
constexpr double kPointMeanErrorCeiling = 0.2;

void RunPointServing(Run* run) {
  const Scale& s = run->scale();
  Rng rng(Mix(run->options().seed, 2));
  const std::vector<StreamUpdate> pool =
      MakeStream(s.bulk + s.elements, 0, &rng);
  const std::span<const StreamUpdate> all(pool);
  const Batches bulk_batches = Slices(all.first(s.bulk), s.bulk_batch);
  const Batches batches = Slices(all.subspan(s.bulk), s.batch);
  const FrequencyVector exact = Exact({all});
  // Read values drawn from the same Zipf as the stream.
  const skimjoin::stream::ZipfDistribution zipf(kDomain, kZipf);
  std::vector<uint64_t> probes(batches.size() * s.polls);
  for (uint64_t& v : probes) v = zipf.Sample(&rng);
  // The 100 values with the highest true frequency (ties by value).
  std::vector<uint64_t> top(kDomain);
  for (uint64_t v = 0; v < kDomain; ++v) top[v] = v;
  std::partial_sort(top.begin(), top.begin() + 100, top.end(),
                    [&](uint64_t a, uint64_t b) {
                      return exact.Get(a) != exact.Get(b)
                                 ? exact.Get(a) > exact.Get(b)
                                 : a < b;
                    });
  top.resize(100);
  const double f2 = static_cast<double>(exact.SelfJoinSize());
  const int64_t hh_threshold =
      std::max<int64_t>(1, exact.TotalCount() / 1000);
  Samples checked_errors;  // mean relative error against the expected answers

  Repeat(run, [&](size_t index, bool traced) {
    const uint64_t seed = QuerySeed(index);
    const double rss_before = TrimmedRssMb();
    EngineJoin e;
    const uint64_t setup_ns =
        run->Time("query.setup", [&] { e = SetUpPoint(run, seed); });
    Engine* engine = e.engine.get();
    const QueryId query = e.query;
    double bulk_ns = 0.0;
    double update_ns = 0.0;
    Samples point_ns;
    size_t probe = 0;
    const uint64_t wall_start = NowNs();
    for (const auto& batch : bulk_batches) {
      bulk_ns += static_cast<double>(run->Time("query.update_batch.bulk", [&] {
        run->Count(engine->UpdateBatch("f", batch), "UpdateBatch");
      }));
    }
    for (size_t r = 0; r < batches.size(); ++r) {
      update_ns += static_cast<double>(run->Time("query.update_batch", [&] {
        run->Count(engine->UpdateBatch("f", batches[r]), "UpdateBatch");
      }));
      const uint64_t burst_start = NowNs();
      for (size_t p = 0; p < s.polls; ++p) {
        const uint64_t value = probes[probe++];
        const uint64_t start = NowNs();
        StatusOr<int64_t> a = engine->AnswerPointFrequency(query, value);
        const uint64_t ns = NowNs() - start;
        run->Count(a.status(), "AnswerPointFrequency");
        run->answer_ns.push_back(ns);
        if (traced && p % 16 == 0) point_ns.Add(static_cast<double>(ns));
      }
      run->tracer().Record("query.answer_point.burst", burst_start, NowNs());
      if ((r + 1) % s.hh_every == 0) {
        const uint64_t ns = run->Time("query.answer_heavy_hitters", [&] {
          run->Count(engine->AnswerHeavyHitters(query, hh_threshold).status(),
                     "AnswerHeavyHitters");
        });
        run->answer_ns.push_back(ns);
      }
    }
    const uint64_t flush_ns =
        run->Time("ingest.flush", [&] { engine->FlushIngest(); });
    const double ingest_ns =
        bulk_ns + update_ns + static_cast<double>(flush_ns);
    // The exact check: every top-100 value, answered after the flush.
    // --perturb moves each expected answer just past the envelope, on the
    // side away from the answer, so every value must be rejected.
    double rel_error_sum = 0.0;
    double checked_error_sum = 0.0;
    int outside = 0;
    std::string worst;
    for (const uint64_t value : top) {
      int64_t answer = 0;
      const uint64_t ns = run->Time("query.answer_point", [&] {
        StatusOr<int64_t> a = engine->AnswerPointFrequency(query, value);
        if (run->Count(a.status(), "AnswerPointFrequency")) answer = *a;
      });
      run->answer_ns.push_back(ns);
      const double truth = static_cast<double>(exact.Get(value));
      const double envelope = PointEnvelope(f2, truth);
      const double got = static_cast<double>(answer);
      const double expected =
          run->options().perturb
              ? truth + (got > truth ? -1.01 : 1.01) * envelope
              : truth;
      rel_error_sum += std::abs(got - truth) / truth;
      checked_error_sum += std::abs(got - expected) / truth;
      if (std::abs(got - expected) > envelope) {
        ++outside;
        worst = "value " + std::to_string(value) + " answer " +
                std::to_string(answer) + " expected " + Number(expected) +
                " envelope " + Number(envelope);
      }
    }
    const uint64_t wall_end = NowNs();
    run->Check("point envelope rep " + std::to_string(index), outside == 0,
               std::to_string(outside) + " of 100 outside. " + worst);
    checked_errors.Add(checked_error_sum / 100.0);

    const double elements = static_cast<double>(s.bulk + s.elements);
    RecordRep(run, traced, static_cast<double>(setup_ns),
              static_cast<double>(wall_end - wall_start), ingest_ns, elements);
    if (index < s.error_reps) run->errors.Add(rel_error_sum / 100.0);
    AfterLocalRep(run, *engine, query, index, rss_before);
    if (traced) {
      run->layer["query.update_batch.ns_per_elem"].Add(
          update_ns / static_cast<double>(s.elements));
      run->layer["ingest.bulk_update.ns_per_elem"].Add(
          bulk_ns / static_cast<double>(s.bulk));
      run->layer["query.answer_point.ns"].Add(point_ns.Median());
      run->layer["ingest.flush.us"].Add(static_cast<double>(flush_ns) / 1e3);
      StatusOr<skimjoin::ingest::IngestStats> stats =
          engine->StreamIngestStats("f");
      if (run->Count(stats.status(), "StreamIngestStats")) {
        run->layer["ingest.absorb_ns"].Add(
            static_cast<double>(stats->absorb_nanos));
        run->layer["ingest.merge_ns"].Add(
            static_cast<double>(stats->merge_nanos));
      }
      QueryLayerRegistry(run, *engine, query);
    }
  });
  run->Check("point mean relative error",
             checked_errors.Mean() <= kPointMeanErrorCeiling,
             "mean " + Number(checked_errors.Mean()) + " over " +
                 std::to_string(checked_errors.size()) +
                 " repetitions, ceiling " + Number(kPointMeanErrorCeiling));

  TopUpSetupTrials(run, [&](size_t i) {
    EngineJoin e;
    return run->Time("query.setup",
                     [&] { e = SetUpPoint(run, QuerySeed(i)); });
  });

  if (run->options().trace) {
    const std::vector<uint64_t> point_probes(
        probes.begin(),
        probes.begin() + std::min<size_t>(probes.size(), 4096));
    const double shadow_ns = ShadowReplay(run, ShadowPointConfig(),
                                          QuerySeed(0), batches, {},
                                          point_probes);
    run->layer["query.route.ns_per_elem"].Add(
        run->layer["query.update_batch.ns_per_elem"].Median() - shadow_ns);
  }
}

// ---------------------------------------------------------------------------
// fleet: a coordinator plus two in-process workers on Unix sockets.

/// One worker serving on its own thread; stopped and joined on destruction.
class ServingWorker {
 public:
  explicit ServingWorker(std::unique_ptr<skimjoin::dist::Worker> worker)
      : worker_(std::move(worker)),
        thread_([this] { status_ = worker_->Serve(); }) {}
  ~ServingWorker() { Stop(); }
  ServingWorker(const ServingWorker&) = delete;
  ServingWorker& operator=(const ServingWorker&) = delete;

  /// Stops serving and returns what Serve() returned.
  Status Stop() {
    if (thread_.joinable()) {
      worker_->RequestStop();
      thread_.join();
    }
    return status_;
  }

 private:
  std::unique_ptr<skimjoin::dist::Worker> worker_;
  Status status_;
  std::thread thread_;  // last: starts once the members it uses exist
};

void RunFleet(Run* run) {
  // The coordinator calls its shards one after another and waits on each,
  // so one of the three threads runs at a time. Pinned to one CPU (the
  // worker threads inherit the mask), each hand-off is a context switch
  // rather than a cross-CPU wake-up, whose cost on a VM follows the host's
  // scheduler.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(sched_getcpu(), &one_cpu);
  sched_setaffinity(0, sizeof(one_cpu), &one_cpu);
  const Scale& s = run->scale();
  const JoinInputs in = MakeJoinInputs(*run, s.batch);
  const size_t rounds = in.f_batches.size();
  const size_t answer_rounds = std::max<size_t>(1, s.answer_every / s.batch);
  const std::string sock_dir = run->options().work_dir;
  const double expected_join =
      ExpectedJoin(*run, in.exact_join, kDyadicJoinErrorCeiling);
  double first_answer = 0.0;

  struct Fleet {
    std::vector<std::unique_ptr<ServingWorker>> workers;
    std::unique_ptr<skimjoin::dist::Coordinator> coordinator;
    QueryId query = 0;
    std::vector<std::string> sockets;
  };
  const auto set_up = [&](size_t index, uint64_t seed) {
    Fleet fleet;
    std::vector<skimjoin::dist::ShardAddress> shards;
    for (int k = 0; k < 2; ++k) {
      const std::string path = sock_dir + "/w" + std::to_string(getpid()) +
                               "-" + std::to_string(index) + "-" +
                               std::to_string(k) + ".sock";
      ::unlink(path.c_str());
      skimjoin::dist::WorkerOptions options;
      options.socket_path = path;
      options.shard_name = "s" + std::to_string(k);
      StatusOr<std::unique_ptr<skimjoin::dist::Worker>> worker =
          skimjoin::dist::Worker::Create(options);
      if (!run->Count(worker.status(), "Worker::Create")) continue;
      fleet.workers.push_back(
          std::make_unique<ServingWorker>(*std::move(worker)));
      fleet.sockets.push_back(path);
      shards.push_back({options.shard_name, path});
    }
    skimjoin::dist::CoordinatorOptions options;
    options.backoff_base = std::chrono::milliseconds(1);
    options.backoff_cap = std::chrono::milliseconds(10);
    fleet.coordinator = std::make_unique<skimjoin::dist::Coordinator>(
        shards, options);
    run->Count(fleet.coordinator->RegisterStream({"f", kDomain}),
               "Coordinator::RegisterStream");
    run->Count(fleet.coordinator->RegisterStream({"g", kDomain}),
               "Coordinator::RegisterStream");
    StatusOr<QueryId> id =
        fleet.coordinator->AddJoinQuery(JoinSpec(/*dyadic=*/true), seed);
    if (run->Count(id.status(), "Coordinator::AddJoinQuery")) {
      fleet.query = *id;
    }
    return fleet;
  };
  const auto tear_down = [&](Fleet* fleet) {
    fleet->coordinator.reset();
    for (const auto& worker : fleet->workers) {
      run->Count(worker->Stop(), "Worker::Serve");
    }
    fleet->workers.clear();
    for (const std::string& path : fleet->sockets) ::unlink(path.c_str());
  };

  Repeat(run, [&](size_t index, bool traced) {
    const uint64_t seed = QuerySeed(index);
    const double rss_before = TrimmedRssMb();
    Fleet fleet;
    const uint64_t setup_ns =
        run->Time("dist.setup", [&] { fleet = set_up(index, seed); });
    skimjoin::dist::Coordinator& coordinator = *fleet.coordinator;
    const uint64_t bytes_before =
        SumCounters(coordinator.metrics_registry().TakeSnapshot(),
                    ".delta_bytes");
    double ingest_ns = 0.0;
    std::vector<double> answers;
    bool partial = false;
    Samples update_us;
    Samples refresh_us;
    const auto answer = [&] {
      const uint64_t ns = run->Time("dist.answer_join", [&] {
        StatusOr<skimjoin::EstimateReport> report =
            coordinator.AnswerJoinWithReport(fleet.query);
        if (run->Count(report.status(), "Coordinator::AnswerJoinWithReport")) {
          answers.push_back(report->estimate);
          partial = partial || report->partial;
        } else {
          answers.push_back(std::nan(""));
        }
      });
      run->answer_ns.push_back(ns);
      if (traced) refresh_us.Add(static_cast<double>(ns) / 1e3);
    };
    const uint64_t wall_start = NowNs();
    for (size_t r = 0; r < rounds; ++r) {
      for (const bool left : {true, false}) {
        const auto batch = left ? in.f_batches[r] : in.g_batches[r];
        const uint64_t ns = run->Time("dist.update_batch", [&] {
          run->Count(coordinator.UpdateBatch(left ? "f" : "g", batch),
                     "Coordinator::UpdateBatch");
        });
        ingest_ns += static_cast<double>(ns);
        if (traced) update_us.Add(static_cast<double>(ns) / 1e3);
      }
      if ((r + 1) % answer_rounds == 0 && r + 1 < rounds) answer();
    }
    answer();
    const uint64_t wall_end = NowNs();

    const double elements = 2.0 * static_cast<double>(s.elements);
    RecordRep(run, traced, static_cast<double>(setup_ns),
              static_cast<double>(wall_end - wall_start), ingest_ns, elements);
    const double error = RatioError(answers.back(), in.exact_join);
    if (index < s.error_reps) run->errors.Add(error);
    if (index == 0) first_answer = answers.back();
    run->Check("fleet join error ceiling rep " + std::to_string(index),
               RatioError(answers.back(), expected_join) <=
                   kDyadicJoinErrorCeiling,
               "estimate " + Number(answers.back()) + " expected " +
                   Number(expected_join));
    run->Check("fleet answers complete rep " + std::to_string(index), !partial,
               partial ? "a shard contribution was stale" : "all fresh");

    // Untimed: fleet-wide gauges and counters.
    StatusOr<skimjoin::metrics::Snapshot> fleet_snapshot =
        coordinator.FleetMetricsSnapshot();
    const skimjoin::metrics::Snapshot own =
        coordinator.metrics_registry().TakeSnapshot();
    if (run->Count(fleet_snapshot.status(), "FleetMetricsSnapshot")) {
      run->CountDropped(SumCounters(*fleet_snapshot, ".elements_dropped"));
      if (index == 0) {
        run->synopsis_mb = SumGauges(*fleet_snapshot, ".memory_bytes") /
                           (1024.0 * 1024.0);
      }
    }
    if (index == 0) {
      run->rss_mb = RssMb() - rss_before;
      run->refresh_kb =
          static_cast<double>(SumCounters(own, ".delta_bytes") -
                              bytes_before) /
          static_cast<double>(answers.size()) / 1024.0;
    }
    if (traced) {
      run->layer["dist.update_batch.us"].Append(update_us);
      run->layer["dist.refresh.us"].Append(refresh_us);
      run->layer["dist.rpc_retries"].Add(
          static_cast<double>(SumCounters(own, ".rpc_retries")));
      run->layer["dist.rpc_failures"].Add(
          static_cast<double>(SumCounters(own, ".rpc_failures")));
    }

    // The coordinator's contract: answers bit-identical to one engine fed
    // the same elements. Checked on the first repetition (untimed).
    if (index == 0 || traced) {
      EngineJoin local = SetUpJoin(run, seed, false, /*dyadic=*/true);
      std::vector<double> expected;
      double local_update_ns = 0.0;
      for (size_t r = 0; r < rounds; ++r) {
        for (const bool left : {true, false}) {
          local_update_ns +=
              static_cast<double>(run->Time("query.update_batch", [&] {
                run->Count(local.engine->UpdateBatch(
                               left ? "f" : "g",
                               left ? in.f_batches[r] : in.g_batches[r]),
                           "UpdateBatch");
              }));
        }
        if (((r + 1) % answer_rounds == 0 && r + 1 < rounds) ||
            r + 1 == rounds) {
          StatusOr<double> a = local.engine->AnswerJoin(local.query);
          if (run->Count(a.status(), "AnswerJoin")) expected.push_back(*a);
        }
      }
      if (run->options().perturb && !expected.empty()) {
        expected.back() = std::nextafter(expected.back(), 0.0);
      }
      size_t same = 0;
      while (same < std::min(answers.size(), expected.size()) &&
             answers[same] == expected[same]) {
        ++same;
      }
      const bool identical =
          same == answers.size() && same == expected.size();
      run->Check(
          "fleet bit-identical to local engine rep " + std::to_string(index),
          identical,
          identical ? std::to_string(same) + " answers identical"
                    : "first difference at answer " + std::to_string(same) +
                          " of " + std::to_string(answers.size()));
      if (traced) {
        run->layer["query.update_batch.ns_per_elem"].Add(local_update_ns /
                                                         elements);
        // Wire time per refresh: each shard's pull RPC (the coordinator's
        // mean latency) minus the worker's serialize, which the local
        // engine's same-shaped synopsis stands in for.
        Samples serialize_ns;
        for (int trial = 0; trial < 5; ++trial) {
          std::string text;
          const uint64_t ns = run->Time("sketch.serialize", [&] {
            run->Count(local.engine->SerializeQuerySynopsis(local.query, &text),
                       "SerializeQuerySynopsis");
          });
          serialize_ns.Add(static_cast<double>(ns));
        }
        for (const auto& [name, histogram] : own.histograms) {
          if (name == "dist.rpc.pull_delta.latency_ns") {
            run->layer["dist.wire.ms"].Add(
                static_cast<double>(fleet.workers.size()) *
                (histogram.Mean() - serialize_ns.Median()) / 1e6);
          }
        }
      }
    }
    tear_down(&fleet);
  });

  FillErrorFamilies(run, in, /*dyadic=*/true, first_answer);
  CheckMeanError(run, kDyadicJoinMeanErrorCeiling);

  TopUpSetupTrials(run, [&](size_t i) {
    Fleet fleet;
    const uint64_t ns = run->Time(
        "dist.setup", [&] { fleet = set_up(1000 + i, QuerySeed(i)); });
    tear_down(&fleet);
    return ns;
  });

  if (run->options().trace) {
    std::vector<uint64_t> probes;
    for (size_t i = 0; i < std::min<size_t>(4096, in.f_pool.size()); ++i) {
      probes.push_back(in.f_pool[i].value);
    }
    const double shadow_ns =
        ShadowReplay(run, ShadowJoinConfig(true), QuerySeed(0), in.f_batches,
                     in.g_batches, probes);
    run->layer["query.route.ns_per_elem"].Add(
        run->layer["query.update_batch.ns_per_elem"].Median() - shadow_ns);
  }
}

// ---------------------------------------------------------------------------
// Metric emission.

/// With --trace 0 the end-to-end metrics; with --trace 1 the median of each
/// per-layer figure the workload measured. run.py reports the per-layer
/// names BENCHMARK.json declares that a workload does not measure.
void Emit(Run* run) {
  if (!run->options().trace) {
    const std::vector<const Run::Rep*> reps = run->Select(false);
    // Host-corrected timings are the metrics; the notes keep them as
    // measured. Set-up time is as measured: it is mostly page faults,
    // which the probe does not track.
    for (const bool corrected : {false, true}) {
      if (!corrected && run->scale().probe.elements == 0) continue;
      const LatencyHistogram answers = Run::Answers(reps, corrected);
      double tail_pct = 0.0;
      const double tail_ns = answers.Tail(&tail_pct);
      const std::map<std::string, double> timings = {
          {"ingest_meps", Run::MedianRate(reps, corrected)},
          {"answer_p50_us", answers.Median() / 1e3},
          {"answer_tail_us", tail_ns / 1e3},
          {"wall_s", Run::MedianTime(reps, &Run::Rep::wall_s, corrected)}};
      for (const auto& [name, value] : timings) {
        if (corrected) {
          run->AddMetric(name, value);
        } else {
          run->uncorrected[name] = value;
        }
      }
      run->answer_samples = answers.count();
      run->tail_pct = tail_pct;
    }
    run->AddMetric("setup_s", run->setup_s.Median());
    run->AddMetric("answer_error", run->errors.Mean());
    run->AddMetric("synopsis_mb", run->synopsis_mb);
    run->AddMetric("rss_mb", run->rss_mb);
    run->AddMetric("refresh_kb", run->refresh_kb);
    run->AddMetric("ok_ratio", run->ok_ratio());
    return;
  }
  run->layer["trace.overhead_s"].Add(
      Run::MedianTime(run->Select(true), &Run::Rep::wall_s, true) -
      Run::MedianTime(run->Select(false), &Run::Rep::wall_s, true));
  for (const auto& [name, samples] : run->layer) {
    if (!samples.empty()) run->AddMetric(name, samples.Median());
  }
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--perturb") {
      options.perturb = true;
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  Run run(options);
  if (options.workload == "join_ingest") {
    RunJoin(&run, /*answer_heavy=*/false);
  } else if (options.workload == "join_answer") {
    RunJoin(&run, /*answer_heavy=*/true);
  } else if (options.workload == "point_serving") {
    RunPointServing(&run);
  } else if (options.workload == "fleet") {
    RunFleet(&run);
  } else {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  Emit(&run);
  if (options.trace && !options.trace_file.empty() &&
      !run.tracer().WriteJsonLines(options.trace_file)) {
    std::cerr << "cannot write " << options.trace_file << "\n";
    return 1;
  }
  std::cout << run.ToJson() << std::endl;
  return run.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
