// Corruption fuzz for snapshot files, plus the journal-specific half of
// the experiment-journal fuzz (the framing half lives with FramedLog in
// tests/util/test_framed_log.cpp).
//
// Policy under test: a snapshot file is all-or-nothing (any truncation,
// bit flip or version skew is rejected with an IoError diagnostic — a
// checkpoint is only useful if it is exactly right), while a journal is
// salvage-the-prefix (records are individually CRC-framed and fsynced, so
// corruption anywhere is treated as a torn tail: the intact prefix
// survives, the rest is dropped and accounted for).  Every mutation in
// here must produce a typed exception or a clean salvage — never UB; the
// CI ASan job runs this suite (label: robustness) to enforce the "never"
// part byte by byte.
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/scenarios.hpp"
#include "sim/engine.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig cfg;
  cfg.nodes = 12;
  cfg.heads = 3;
  cfg.k = 3;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  return cfg;
}

SimulationSpec tiny_spec(std::uint64_t seed) {
  return scenario_factory(Scenario::kHiNetOne, tiny_config())(seed);
}

/// A valid mid-run snapshot of the tiny spec.
SimSnapshot make_valid_snapshot() {
  SimulationSpec spec = tiny_spec(5);
  const EngineConfig cfg = spec.engine;
  Engine eng(std::move(spec));
  eng.start(cfg);
  for (int i = 0; i < 3; ++i) eng.step();
  return eng.snapshot();
}

std::string fuzz_path(const char* tag) {
  return ::testing::TempDir() + "hinet_fuzz_" + tag + ".bin";
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

TEST(SnapshotFuzz, EveryTruncationOfTheFileIsRejected) {
  const SimSnapshot snap = make_valid_snapshot();
  const std::string path = fuzz_path("trunc");
  save_snapshot_file(snap, path);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 18u);

  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(path, {good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len)});
    try {
      load_snapshot_file(path);
      FAIL() << "truncation to " << len << " bytes was accepted";
    } catch (const IoError& e) {
      EXPECT_STRNE(e.what(), "") << "empty diagnostic at length " << len;
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzz, EverySingleBitFlipInTheFileIsRejected) {
  const SimSnapshot snap = make_valid_snapshot();
  const std::string path = fuzz_path("flip");
  save_snapshot_file(snap, path);
  const std::vector<std::uint8_t> good = read_file(path);

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    write_file(path, bad);
    try {
      load_snapshot_file(path);
      FAIL() << "bit flip at byte " << i << " was accepted";
    } catch (const IoError& e) {
      EXPECT_STRNE(e.what(), "") << "empty diagnostic at byte " << i;
    }
  }
  // The pristine bytes still load: the harness flips, not the container.
  write_file(path, good);
  EXPECT_EQ(load_snapshot_file(path).payload, snap.payload);
  std::remove(path.c_str());
}

TEST(SnapshotFuzz, VersionSkewIsRejectedWithAVersionDiagnostic) {
  const SimSnapshot snap = make_valid_snapshot();
  const std::string path = fuzz_path("version");
  save_snapshot_file(snap, path);
  const std::vector<std::uint8_t> good = read_file(path);
  // Version 2 payloads carried a trace section this layout does not have:
  // an old file must be refused, not misread.  A future one likewise.
  for (const int version : {2, SimSnapshot::kVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::vector<std::uint8_t> bytes = good;
    // Container layout: u32 magic · u16 version · ...
    bytes[4] = static_cast<std::uint8_t>(version);
    bytes[5] = 0;
    write_file(path, bytes);
    try {
      load_snapshot_file(path);
      ADD_FAILURE() << "version " << version << " was accepted";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << "diagnostic does not mention the version: " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzz, MissingFileIsAnIoErrorNamingThePath) {
  const std::string path = fuzz_path("does_not_exist");
  std::remove(path.c_str());
  try {
    load_snapshot_file(path);
    FAIL() << "missing file was accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "diagnostic does not name the path: " << e.what();
  }
}

TEST(SnapshotFuzz, EveryPayloadTruncationIsRejectedByRestore) {
  // Bypasses the container CRC and attacks Engine::restore directly with
  // structurally short payloads; the bounds-checked ByteReader must turn
  // every missing byte into an IoError, and a failed restore must leave
  // the engine restorable again.
  const SimSnapshot snap = make_valid_snapshot();
  Engine eng(tiny_spec(5));
  for (std::size_t len = 0; len < snap.payload.size(); ++len) {
    SimSnapshot cut;
    cut.payload.assign(snap.payload.begin(), snap.payload.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(eng.restore(cut), IoError) << "payload cut to " << len;
  }
  // The same engine object accepts the intact snapshot afterwards.
  eng.restore(snap);
  while (eng.step()) {
  }
  const SimMetrics resumed = eng.finish();

  Engine golden(tiny_spec(5));
  EXPECT_EQ(resumed, golden.run());
}

TEST(SnapshotFuzz, MutatedPayloadsNeverCrashRestore) {
  // Without the container CRC some flips are undetectable in principle
  // (e.g. a flipped phase counter is just a different valid state), so the
  // contract is weaker than rejection: restore either throws a typed
  // exception or produces an engine that can run to completion — it never
  // corrupts memory.  ASan turns "never" into a hard check.
  const SimSnapshot snap = make_valid_snapshot();
  for (std::size_t i = 0; i < snap.payload.size(); ++i) {
    SimSnapshot bad = snap;
    bad.payload[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    Engine eng(tiny_spec(5));
    try {
      eng.restore(bad);
      // A flip can land in the stored max_rounds, so the run length is no
      // longer trusted; the guard bounds the walk without weakening the
      // no-UB property under test.
      std::size_t guard = 0;
      while (eng.step() && ++guard < 10000) {
      }
      eng.finish();
    } catch (const std::exception&) {
      // Typed rejection is fine; silent memory corruption is what ASan
      // would flag.
    }
  }
}

// The journal's framing (torn tails, monotone salvage, foreign headers,
// writer locks) is fuzzed once, in tests/util/test_framed_log.cpp; what is
// journal-specific is that every record it salvages decodes to the
// replicate that was appended.

/// Journals three real replicates, seeds 1..3, in a fresh file at `path`.
std::vector<ReplicateResult> write_journal(const std::string& path) {
  std::remove(path.c_str());
  std::vector<ReplicateResult> results(3);
  ExperimentJournal j(path);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Engine eng(tiny_spec(seed));
    results[seed - 1].metrics = eng.run();
    results[seed - 1].wall_ms = 1.0;
    j.append(seed, results[seed - 1]);
  }
  return results;
}

/// Reopens a mutated journal: it holds a prefix of seeds 1..3, each
/// decoding to the replicate that was appended.
void expect_salvaged_prefix(const std::string& path,
                            const std::vector<ReplicateResult>& results,
                            const std::string& where) {
  const ExperimentJournal j(path);
  const std::vector<std::uint64_t> seeds = j.seeds();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(seeds[i], i + 1) << where;
    const auto got = j.lookup(seeds[i]);
    ASSERT_TRUE(got.has_value()) << where;
    EXPECT_EQ(got->metrics, results[i].metrics) << where << " seed " << i + 1;
    EXPECT_DOUBLE_EQ(got->wall_ms, results[i].wall_ms) << where;
  }
}

TEST(JournalFuzz, EveryCorruptionBeyondTheHeaderSalvagesAPrefix) {
  const std::string path = fuzz_path("journal_flip");
  const std::vector<ReplicateResult> results = write_journal(path);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 8u);

  for (std::size_t i = 8; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    write_file(path, bad);
    expect_salvaged_prefix(path, results, "byte " + std::to_string(i));
  }
  std::remove(path.c_str());
}

TEST(JournalFuzz, EveryTruncationBeyondTheHeaderSalvagesAPrefix) {
  const std::string path = fuzz_path("journal_trunc");
  const std::vector<ReplicateResult> results = write_journal(path);
  const std::vector<std::uint8_t> good = read_file(path);

  for (std::size_t len = 8; len < good.size(); ++len) {
    write_file(path, {good.begin(),
                      good.begin() + static_cast<std::ptrdiff_t>(len)});
    expect_salvaged_prefix(path, results, "length " + std::to_string(len));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hinet
