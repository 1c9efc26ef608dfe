// The query-spec text codec shared by checkpoint manifests and the fleet's
// registration message (query.h).

#include "query/query.h"

#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

namespace skimjoin {
namespace query {
namespace {

// The record's spelling of each enum value.
constexpr std::pair<core::EstimatorKind, const char*> kEstimatorKinds[] = {
    {core::EstimatorKind::kAgms, "agms"},
    {core::EstimatorKind::kHashSketch, "hashsketch"},
    {core::EstimatorKind::kSkimmedSketch, "skimmed"},
    {core::EstimatorKind::kCountMin, "countmin"},
    {core::EstimatorKind::kSampling, "sampling"},
    {core::EstimatorKind::kPartitionedAgms, "partitionedagms"}};
constexpr std::pair<ChainJoinQuerySpec::Method, const char*> kChainMethods[] = {
    {ChainJoinQuerySpec::Method::kAgmsGrid, "agmsgrid"},
    {ChainJoinQuerySpec::Method::kHashSketch, "hashsketch"}};

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

// The fields of each spec kind, in record order. Each field type has one
// writer and one reader below; records separate fields by single spaces.
template <typename S>
auto Fields(S& s) {
  using Spec = std::remove_const_t<S>;
  if constexpr (std::is_same_v<Spec, JoinQuerySpec>) {
    auto& est = s.estimator;
    return std::tie(s.left_stream, s.right_stream, est.kind,
                    est.space_counters, est.agms_num_medians, est.num_tables,
                    est.threshold_scale, est.recurse_slack, est.skim_margin,
                    est.skimmed_use_dyadic, s.left_input, s.right_input,
                    s.left_predicate, s.right_predicate);
  } else if constexpr (std::is_same_v<Spec, FrequencyQuerySpec>) {
    return std::tie(s.stream, s.space_counters, s.num_tables, s.use_dyadic,
                    s.predicate);
  } else if constexpr (std::is_same_v<Spec, DistinctCountQuerySpec>) {
    return std::tie(s.stream, s.num_maps, s.predicate);
  } else if constexpr (std::is_same_v<Spec, TopKQuerySpec>) {
    return std::tie(s.stream, s.k, s.space_counters, s.num_tables,
                    s.predicate);
  } else if constexpr (std::is_same_v<Spec, QuantileQuerySpec>) {
    return std::tie(s.stream, s.epsilon, s.predicate);
  } else if constexpr (std::is_same_v<Spec, RangeSumQuerySpec>) {
    return std::tie(s.stream, s.coefficient_budget, s.predicate);
  } else {
    static_assert(std::is_same_v<Spec, ChainJoinQuerySpec>);
    return std::tie(s.relations, s.method, s.num_means, s.num_medians,
                    s.num_tables, s.num_buckets);
  }
}

void WriteField(std::ostream& out, const std::string& name) {
  out << PercentEncode(name);
}
void WriteField(std::ostream& out, uint64_t value) { out << value; }
void WriteField(std::ostream& out, double value) { out << value; }
void WriteField(std::ostream& out, bool value) { out << (value ? 1 : 0); }
void WriteField(std::ostream& out, AggregateInput input) {
  out << (input == AggregateInput::kCount ? 0 : 1);
}
template <typename Enum, size_t N>
void WriteField(std::ostream& out, Enum value,
                const std::pair<Enum, const char*> (&tokens)[N]) {
  for (const auto& [candidate, token] : tokens) {
    if (candidate == value) out << token;
  }
}
void WriteField(std::ostream& out, core::EstimatorKind kind) {
  WriteField(out, kind, kEstimatorKinds);
}
void WriteField(std::ostream& out, ChainJoinQuerySpec::Method method) {
  WriteField(out, method, kChainMethods);
}
void WriteField(std::ostream& out,
                const std::optional<RangePredicate>& predicate) {
  if (predicate.has_value()) {
    out << "pred " << predicate->lo << ' ' << predicate->hi;
  } else {
    out << "nopred";
  }
}
void WriteField(std::ostream& out, const std::vector<std::string>& names) {
  out << names.size();
  for (const std::string& name : names) out << ' ' << PercentEncode(name);
}

Status Malformed(const char* what) {
  return InvalidArgumentError(std::string("malformed ") + what +
                              " in query spec");
}

Status ReadField(std::istream& in, std::string* name) {
  std::string encoded;
  if (!(in >> encoded)) return Malformed("name");
  SKIMJOIN_ASSIGN_OR_RETURN(*name, PercentDecode(encoded));
  return OkStatus();
}
Status ReadField(std::istream& in, uint64_t* value) {
  return in >> *value ? OkStatus() : Malformed("integer");
}
Status ReadField(std::istream& in, double* value) {
  return in >> *value ? OkStatus() : Malformed("number");
}
Status ReadField(std::istream& in, bool* value) {
  int flag = 0;
  if (!(in >> flag)) return Malformed("flag");
  *value = flag != 0;
  return OkStatus();
}
Status ReadField(std::istream& in, AggregateInput* input) {
  int flag = 0;
  if (!(in >> flag)) return Malformed("aggregate input");
  *input = flag == 0 ? AggregateInput::kCount : AggregateInput::kMeasure;
  return OkStatus();
}
template <typename Enum, size_t N>
Status ReadField(std::istream& in, Enum* value,
                 const std::pair<Enum, const char*> (&tokens)[N]) {
  std::string token;
  if (!(in >> token)) return Malformed("token");
  for (const auto& [candidate, spelling] : tokens) {
    if (token == spelling) {
      *value = candidate;
      return OkStatus();
    }
  }
  return InvalidArgumentError("unknown token in query spec: " + token);
}
Status ReadField(std::istream& in, core::EstimatorKind* kind) {
  return ReadField(in, kind, kEstimatorKinds);
}
Status ReadField(std::istream& in, ChainJoinQuerySpec::Method* method) {
  return ReadField(in, method, kChainMethods);
}
Status ReadField(std::istream& in, std::optional<RangePredicate>* predicate) {
  std::string token;
  if (!(in >> token)) return Malformed("predicate");
  if (token == "nopred") {
    predicate->reset();
    return OkStatus();
  }
  RangePredicate range;
  if (token != "pred" || !(in >> range.lo >> range.hi) ||
      range.lo > range.hi) {
    return Malformed("predicate");
  }
  *predicate = range;
  return OkStatus();
}
Status ReadField(std::istream& in, std::vector<std::string>* names) {
  uint64_t count = 0;
  if (!(in >> count) || count < 2) return Malformed("chain relation count");
  // No reserve: the count is untrusted, and every name must arrive as a
  // token before it costs any memory.
  for (uint64_t i = 0; i < count; ++i) {
    SKIMJOIN_RETURN_IF_ERROR(ReadField(in, &names->emplace_back()));
  }
  return OkStatus();
}

// The spec alternative whose QueryKindName is `kind`, default-constructed;
// false when no alternative has that name.
template <size_t I = 0>
bool EmplaceKind(const std::string& kind, QuerySpec* spec) {
  if constexpr (I == std::variant_size_v<QuerySpec>) {
    return false;
  } else {
    spec->emplace<I>();
    if (kind == QueryKindName(*spec)) return true;
    return EmplaceKind<I + 1>(kind, spec);
  }
}

}  // namespace

std::string PercentEncode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte <= 0x20 || byte >= 0x7f || byte == '%') {
      out.push_back('%');
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

StatusOr<std::string> PercentDecode(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out.push_back(encoded[i]);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return InvalidArgumentError("truncated percent escape in name");
    }
    const int hi = HexValue(encoded[i + 1]);
    const int lo = HexValue(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("bad percent escape in name");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

void WriteQuerySpec(std::ostream& out, const QuerySpec& spec) {
  const std::streamsize precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  std::visit(
      [&](const auto& s) {
        std::apply(
            [&](const auto&... field) {
              const char* separator = "";
              ((out << separator, WriteField(out, field), separator = " "),
               ...);
            },
            Fields(s));
      },
      spec);
  out.precision(precision);
}

StatusOr<QuerySpec> ReadQuerySpec(std::istream& in, const std::string& kind) {
  QuerySpec spec;
  if (!EmplaceKind(kind, &spec)) {
    return InvalidArgumentError("unknown query kind: " + kind);
  }
  SKIMJOIN_RETURN_IF_ERROR(std::visit(
      [&](auto& s) {
        return std::apply(
            [&](auto&... field) {
              Status status = OkStatus();
              ((status = status.ok() ? ReadField(in, &field) : status), ...);
              return status;
            },
            Fields(s));
      },
      spec));
  return spec;
}

}  // namespace query
}  // namespace skimjoin
