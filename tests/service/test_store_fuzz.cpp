// Corruption fuzz for the results-store on-disk formats.
//
// Two policies, applied to the service formats: the index and the
// segments are all-or-nothing (any truncation, bit flip, version skew or
// foreign header is a typed IoError — a torn result must never be
// served), while the job queue is salvage-the-prefix
// (per-record CRC framing; corruption is treated as a crash tail, the
// intact prefix survives).  Every mutation must produce a typed exception
// or a clean salvage — never UB; the CI ASan job runs this suite (label:
// service) to enforce that byte by byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/scenarios.hpp"
#include "service/job_queue.hpp"
#include "service/results_store.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

JobSpec tiny_spec() {
  JobSpec spec;
  spec.scenario = Scenario::kHiNetOne;
  spec.config.nodes = 12;
  spec.config.heads = 3;
  spec.config.k = 3;
  spec.config.alpha = 2;
  spec.config.hop_l = 2;
  spec.base_seed = 7;
  spec.repetitions = 1;
  return spec;
}

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "hinet_storefuzz_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A store directory holding one published tiny job.
std::string make_populated_store(const char* tag) {
  const std::string dir = fresh_dir(tag);
  ResultsStore store(dir);
  const JobSpec spec = tiny_spec();
  store.publish(spec,
                run_replicates(scenario_factory(spec.scenario, spec.config),
                               spec.repetitions, spec.base_seed, 1));
  return dir;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Opening the store (or loading the job) with a corrupt all-or-nothing
/// artifact must throw IoError — from the constructor (index) or from
/// load (segment) — and must never serve a partial result.
void expect_rejected(const std::string& dir) {
  try {
    ResultsStore store(dir);
    const std::optional<StoredResult> got = store.load(tiny_spec());
    if (got.has_value()) {
      // Serving is only acceptable if the bytes are fully intact, which
      // the callers below rule out by construction.
      FAIL() << "corrupt artifact was served as a full result";
    } else {
      FAIL() << "corrupt artifact degraded to a silent miss";
    }
  } catch (const IoError&) {
    // expected: typed refusal
  }
}

// ── Segments: all-or-nothing ────────────────────────────────────────────

TEST(StoreFuzz, EveryTruncationOfTheSegmentIsRejected) {
  const std::string dir = make_populated_store("seg_trunc");
  ResultsStore probe(dir);
  const std::string seg = probe.segment_path(tiny_spec().content_hash());
  const std::vector<std::uint8_t> good = read_file(seg);
  ASSERT_GT(good.size(), 18u);

  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(seg, {good.begin(),
                     good.begin() + static_cast<std::ptrdiff_t>(len)});
    expect_rejected(dir);
  }
  write_file(seg, good);
  ResultsStore healed(dir);
  EXPECT_TRUE(healed.load(tiny_spec()).has_value());
}

TEST(StoreFuzz, EveryBitFlipInTheSegmentIsRejected) {
  const std::string dir = make_populated_store("seg_flip");
  ResultsStore probe(dir);
  const std::string seg = probe.segment_path(tiny_spec().content_hash());
  const std::vector<std::uint8_t> good = read_file(seg);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    std::vector<std::uint8_t> bad = good;
    bad[byte] ^= 0x01;
    write_file(seg, bad);
    expect_rejected(dir);
  }
}

TEST(StoreFuzz, SegmentVersionSkewAndForeignHeaderAreRefused) {
  const std::string dir = make_populated_store("seg_ver");
  ResultsStore probe(dir);
  const std::string seg = probe.segment_path(tiny_spec().content_hash());
  const std::vector<std::uint8_t> good = read_file(seg);

  // A file that is wholesale something else (a journal, say) is refused.
  std::vector<std::uint8_t> foreign = good;
  foreign[0] ^= 0xff;
  write_file(seg, foreign);
  expect_rejected(dir);

  // The version field lives after the magic; CRC or the version check
  // catches the skew either way — what matters is the typed refusal.
  std::vector<std::uint8_t> skew = good;
  skew[4] ^= 0xff;
  write_file(seg, skew);
  expect_rejected(dir);
}

// ── Index: all-or-nothing ───────────────────────────────────────────────

TEST(StoreFuzz, EveryTruncationOfTheIndexIsRejected) {
  const std::string dir = make_populated_store("idx_trunc");
  const std::string index = dir + "/index.hix";
  const std::vector<std::uint8_t> good = read_file(index);
  ASSERT_GT(good.size(), 18u);

  // Truncating to zero bytes is the one shape rename-atomicity can never
  // produce, and an absent/empty index simply means "no jobs yet" — start
  // at 1.
  for (std::size_t len = 1; len < good.size(); ++len) {
    write_file(index, {good.begin(),
                       good.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW(ResultsStore{dir}, IoError) << "truncated to " << len;
  }
  write_file(index, good);
  ResultsStore healed(dir);
  EXPECT_TRUE(healed.contains(tiny_spec()));
}

TEST(StoreFuzz, EveryBitFlipInTheIndexIsRejected) {
  const std::string dir = make_populated_store("idx_flip");
  const std::string index = dir + "/index.hix";
  const std::vector<std::uint8_t> good = read_file(index);

  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    std::vector<std::uint8_t> bad = good;
    bad[byte] ^= 0x01;
    write_file(index, bad);
    EXPECT_THROW(ResultsStore{dir}, IoError) << "flip at byte " << byte;
  }
}

// ── Job queue: salvage-the-prefix ───────────────────────────────────────

TEST(StoreFuzz, TornQueueTailIsSalvaged) {
  const std::string dir = fresh_dir("queue_tear");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/queue.hjq";
  {
    JobQueue queue(path, 8);
    JobSpec a = tiny_spec();
    JobSpec b = tiny_spec();
    b.base_seed = 100;
    queue.submit(a);
    queue.submit(b);
    EXPECT_EQ(queue.pending(), 2u);
  }
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 8u);

  for (std::size_t len = 8; len < good.size(); ++len) {
    write_file(path, {good.begin(),
                      good.begin() + static_cast<std::ptrdiff_t>(len)});
    JobQueue salvaged(path, 8);
    EXPECT_LE(salvaged.pending(), 2u);
    // The queue auto-compacts at open, so re-tear from the original.
  }

  write_file(path, good);
  JobQueue intact(path, 8);
  EXPECT_EQ(intact.pending(), 2u);
}

TEST(StoreFuzz, QueueVersionSkewAndForeignHeaderAreRefused) {
  const std::string dir = fresh_dir("queue_foreign");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/queue.hjq";
  {
    JobQueue queue(path, 8);
    queue.submit(tiny_spec());
  }
  const std::vector<std::uint8_t> good = read_file(path);

  std::vector<std::uint8_t> foreign = good;
  foreign[0] ^= 0xff;  // file magic
  write_file(path, foreign);
  EXPECT_THROW((JobQueue{path, 8}), IoError);

  std::vector<std::uint8_t> skew = good;
  skew[4] ^= 0xff;  // version
  write_file(path, skew);
  EXPECT_THROW((JobQueue{path, 8}), IoError);

  // A version-2 queue of an earlier build may hold claim records.
  std::vector<std::uint8_t> v2 = good;
  v2[4] = 2;  // version, u16 little-endian
  v2[5] = 0;
  write_file(path, v2);
  EXPECT_THROW((JobQueue{path, 8}), IoError);
}

}  // namespace
}  // namespace hinet
