#include "service/job_spec.hpp"

#include <sstream>
#include <stdexcept>

namespace hinet {

namespace {

/// Bump when the canonical field set changes; decode refuses other
/// versions so a hash can never silently mean two different field sets.
constexpr std::uint16_t kSpecEncodingVersion = 1;

std::uint8_t assignment_code(AssignmentMode m) {
  switch (m) {
    case AssignmentMode::kDistinctRandom: return 0;
    case AssignmentMode::kSingleSource: return 1;
    case AssignmentMode::kRoundRobin: return 2;
  }
  throw IoError("job spec holds an AssignmentMode this build cannot encode");
}

AssignmentMode assignment_from_code(std::uint8_t code,
                                    const std::string& what) {
  switch (code) {
    case 0: return AssignmentMode::kDistinctRandom;
    case 1: return AssignmentMode::kSingleSource;
    case 2: return AssignmentMode::kRoundRobin;
    default: break;
  }
  std::ostringstream os;
  os << what << " corrupt: unknown assignment-mode code "
     << static_cast<unsigned>(code);
  throw IoError(os.str());
}

std::uint8_t scenario_code(Scenario s) {
  switch (s) {
    case Scenario::kKloInterval: return 0;
    case Scenario::kHiNetInterval: return 1;
    case Scenario::kHiNetIntervalStable: return 2;
    case Scenario::kKloOne: return 3;
    case Scenario::kHiNetOne: return 4;
  }
  throw IoError("job spec holds a Scenario this build cannot encode");
}

Scenario scenario_from_code(std::uint8_t code, const std::string& what) {
  switch (code) {
    case 0: return Scenario::kKloInterval;
    case 1: return Scenario::kHiNetInterval;
    case 2: return Scenario::kHiNetIntervalStable;
    case 3: return Scenario::kKloOne;
    case 4: return Scenario::kHiNetOne;
    default: break;
  }
  std::ostringstream os;
  os << what << " corrupt: unknown scenario code "
     << static_cast<unsigned>(code);
  throw IoError(os.str());
}

}  // namespace

void encode_job_spec(ByteWriter& w, const JobSpec& spec) {
  w.u16(kSpecEncodingVersion);
  w.u8(scenario_code(spec.scenario));
  w.u64(spec.config.nodes);
  w.u64(spec.config.heads);
  w.u64(spec.config.k);
  w.u64(spec.config.alpha);
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(spec.config.hop_l)));
  w.f64(spec.config.reaffiliation_prob);
  w.u64(spec.config.churn_edges);
  w.u8(assignment_code(spec.config.assignment));
  w.u8(spec.config.run_full_schedule ? 1 : 0);
  w.u64(spec.base_seed);
  w.u64(spec.repetitions);
}

JobSpec decode_job_spec(ByteReader& r) {
  const std::uint16_t version = r.u16();
  if (version != kSpecEncodingVersion) {
    std::ostringstream os;
    os << r.what() << " has job-spec encoding version " << version
       << " but this build reads version " << kSpecEncodingVersion;
    throw IoError(os.str());
  }
  JobSpec spec;
  spec.scenario = scenario_from_code(r.u8(), r.what());
  spec.config.nodes = r.u64();
  spec.config.heads = r.u64();
  spec.config.k = r.u64();
  spec.config.alpha = r.u64();
  spec.config.hop_l = static_cast<int>(static_cast<std::int64_t>(r.u64()));
  spec.config.reaffiliation_prob = r.f64();
  spec.config.churn_edges = r.u64();
  spec.config.assignment = assignment_from_code(r.u8(), r.what());
  spec.config.run_full_schedule = r.u8() != 0;
  spec.base_seed = r.u64();
  spec.repetitions = r.u64();
  return spec;
}

std::vector<std::uint8_t> JobSpec::canonical_bytes() const {
  ByteWriter w;
  encode_job_spec(w, *this);
  return w.take();
}

std::uint64_t JobSpec::content_hash() const {
  const std::vector<std::uint8_t> bytes = canonical_bytes();
  return fnv1a64(bytes);
}

std::string JobSpec::hash_hex() const {
  return hinet::hash_hex(content_hash());
}

std::string JobSpec::describe() const {
  std::ostringstream os;
  os << "scenario=" << scenario_cli_name(scenario)
     << " nodes=" << config.nodes << " heads=" << config.heads
     << " k=" << config.k << " alpha=" << config.alpha
     << " hop-l=" << config.hop_l
     << " reaffil=" << config.reaffiliation_prob
     << " churn-edges=" << config.churn_edges
     << " assignment=" << static_cast<unsigned>(assignment_code(config.assignment))
     << " full-schedule=" << (config.run_full_schedule ? 1 : 0)
     << " seed=" << base_seed << " reps=" << repetitions;
  return os.str();
}

std::string hash_hex(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = out.size(); i-- > 0; value >>= 4) {
    out[i] = kDigits[value & 0xFu];
  }
  return out;
}

std::uint64_t parse_hash_hex(const std::string& hex) {
  if (hex.size() != 16) {
    throw std::invalid_argument("content hash must be exactly 16 hex digits, "
                                "got '" + hex + "'");
  }
  std::uint64_t value = 0;
  for (const char c : hex) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      throw std::invalid_argument("content hash contains non-hex character '" +
                                  std::string(1, c) + "' in '" + hex + "'");
    }
    value = (value << 4) | digit;
  }
  return value;
}

}  // namespace hinet
