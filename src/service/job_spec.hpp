// JobSpec: the content-addressed unit of work the experiment service
// executes, caches and serves.
//
// A simulation run is a pure function of (scenario parameters, seed), so a
// job — `repetitions` replicates of one scenario at seeds base_seed +
// 0..reps-1 — is a pure function of this struct.  The service therefore
// dedupes and caches by a *canonical content hash*: every JobSpec encodes
// to one fixed byte sequence (versioned field order, little-endian,
// doubles as IEEE-754 bit patterns), and the 64-bit FNV-1a hash of those
// bytes is the job's identity everywhere — the queue, the segment and
// journal filenames, the ledger, the `hinetd query --hash=` lookups.
//
// Hash collisions are detected, not assumed away: the store keeps the full
// canonical bytes next to each hash and refuses a publish whose hash
// matches an entry with different bytes (IoError) — a collision can
// surface as a refusal, never as serving the wrong job's results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenarios.hpp"
#include "util/binary_io.hpp"

namespace hinet {

struct JobSpec {
  Scenario scenario = Scenario::kHiNetInterval;
  ScenarioConfig config;
  std::uint64_t base_seed = 1;
  std::uint64_t repetitions = 20;

  /// The canonical encoding: one byte sequence per distinct job, stable
  /// across platforms and releases of the same encoding version.
  std::vector<std::uint8_t> canonical_bytes() const;

  /// FNV-1a 64 of canonical_bytes(): the job's content address.
  std::uint64_t content_hash() const;

  /// hash_hex(content_hash()).
  std::string hash_hex() const;

  /// Human-readable one-liner ("scenario=hinet-one nodes=24 ... reps=4").
  std::string describe() const;

  /// Two specs are the same job iff their canonical bytes match.
  friend bool operator==(const JobSpec& a, const JobSpec& b) {
    return a.canonical_bytes() == b.canonical_bytes();
  }
};

/// Appends the canonical encoding to `w` (the framing callers embed in
/// records and segments).
void encode_job_spec(ByteWriter& w, const JobSpec& spec);

/// Decodes an encoding produced by encode_job_spec.  Throws IoError on a
/// truncated or version-skewed encoding, or enum values this build does
/// not know.
JobSpec decode_job_spec(ByteReader& r);

/// `value` as 16 lowercase hex digits ("04c11db7deadbeef") — the one
/// spelling of content hashes and digests in file names, ledger names, and
/// CLI output.
std::string hash_hex(std::uint64_t value);

/// Parses a 16-digit hex content hash ("04c11db7deadbeef"); throws
/// std::invalid_argument naming the defect otherwise.  Inverts hash_hex.
std::uint64_t parse_hash_hex(const std::string& hex);

}  // namespace hinet
