// JobSpec canonical encoding and content addressing.
//
// The content hash is the identity of a job everywhere — queue dedupe,
// store segments, journal file names, `hinetd query --hash=` — so the
// canonical byte encoding must be stable across processes and versions
// (golden hash test), injective over every spec field (sensitivity tests),
// and strict on decode (version skew and unknown enum codes are refused,
// never guessed).
#include "service/job_spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "service/service.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

JobSpec tiny_spec() {
  JobSpec spec;
  spec.scenario = Scenario::kHiNetOne;
  spec.config.nodes = 24;
  spec.config.heads = 4;
  spec.config.k = 3;
  spec.config.alpha = 2;
  spec.config.hop_l = 2;
  spec.base_seed = 7;
  spec.repetitions = 3;
  return spec;
}

TEST(JobSpec, CanonicalBytesRoundTrip) {
  const JobSpec spec = tiny_spec();
  const std::vector<std::uint8_t> bytes = spec.canonical_bytes();
  ByteReader r(bytes, "test spec");
  const JobSpec back = decode_job_spec(r);
  r.expect_done();
  EXPECT_TRUE(back == spec);
  EXPECT_EQ(back.canonical_bytes(), bytes);
  EXPECT_EQ(back.content_hash(), spec.content_hash());
}

// Pins the canonical encoding across builds: if this golden moves, every
// existing store and queue file silently stops matching its contents.
// Bump kSpecEncodingVersion instead of updating the constant casually.
TEST(JobSpec, GoldenContentHashIsStable) {
  EXPECT_EQ(tiny_spec().hash_hex(), "75eb5eada5c37819");
}

TEST(JobSpec, EveryFieldChangesTheHash) {
  const JobSpec base = tiny_spec();
  const auto differs = [&base](JobSpec changed) {
    EXPECT_NE(changed.content_hash(), base.content_hash());
    EXPECT_FALSE(changed == base);
  };
  JobSpec s;

  s = base; s.scenario = Scenario::kKloOne;            differs(s);
  s = base; s.config.nodes = 25;                       differs(s);
  s = base; s.config.heads = 5;                        differs(s);
  s = base; s.config.k = 4;                            differs(s);
  s = base; s.config.alpha = 3;                        differs(s);
  s = base; s.config.hop_l = 3;                        differs(s);
  s = base; s.config.reaffiliation_prob = 0.25;        differs(s);
  s = base; s.config.churn_edges = 9;                  differs(s);
  s = base; s.config.assignment = AssignmentMode::kRoundRobin; differs(s);
  s = base; s.config.run_full_schedule = false;        differs(s);
  s = base; s.base_seed = 8;                           differs(s);
  s = base; s.repetitions = 4;                         differs(s);
}

TEST(JobSpec, DecodeRefusesVersionSkew) {
  std::vector<std::uint8_t> bytes = tiny_spec().canonical_bytes();
  bytes[0] ^= 0xff;  // the leading u16 is the encoding version
  ByteReader r(bytes, "skewed spec");
  EXPECT_THROW(decode_job_spec(r), IoError);
}

TEST(JobSpec, DecodeRefusesUnknownScenarioCode) {
  std::vector<std::uint8_t> bytes = tiny_spec().canonical_bytes();
  bytes[2] = 0x7f;  // scenario code follows the version
  ByteReader r(bytes, "bad scenario");
  EXPECT_THROW(decode_job_spec(r), IoError);
}

TEST(JobSpec, ParseHashHex) {
  EXPECT_EQ(parse_hash_hex("75eb5eada5c37819"), tiny_spec().content_hash());
  EXPECT_EQ(parse_hash_hex("0000000000000000"), 0u);
  EXPECT_THROW(parse_hash_hex(""), std::invalid_argument);
  EXPECT_THROW(parse_hash_hex("75eb"), std::invalid_argument);
  EXPECT_THROW(parse_hash_hex("75eb5eada5c3781x"), std::invalid_argument);
  EXPECT_THROW(parse_hash_hex("75eb5eada5c378190"), std::invalid_argument);
}

TEST(JobSpec, HashHexIsSixteenLowercaseDigitsAndRoundTrips) {
  EXPECT_EQ(hash_hex(0), "0000000000000000");
  EXPECT_EQ(hash_hex(std::numeric_limits<std::uint64_t>::max()),
            "ffffffffffffffff");
  for (const std::uint64_t x :
       {std::uint64_t{1}, std::uint64_t{0xa0}, tiny_spec().content_hash(),
        std::uint64_t{0x8000000000000000}, std::uint64_t{0x0123456789abcdef}}) {
    EXPECT_EQ(parse_hash_hex(hash_hex(x)), x) << hash_hex(x);
  }
  // Journal and ledger names use the same spelling.
  EXPECT_EQ(ExperimentService::job_resource(1), "job-0000000000000001");
}

TEST(JobSpec, DescribeNamesTheScenario) {
  EXPECT_NE(tiny_spec().describe().find("hinet-one"), std::string::npos);
}

TEST(JobSpec, ScenarioCliNamesRoundTrip) {
  for (const Scenario s : all_scenarios()) {
    EXPECT_EQ(parse_scenario(scenario_cli_name(s)), s);
  }
  EXPECT_THROW(parse_scenario("not-a-scenario"), std::invalid_argument);
}

}  // namespace
}  // namespace hinet
