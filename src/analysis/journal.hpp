// Experiment journal: crash-safe record of completed replicates.
//
// A sweep that dies — OOM kill, node preemption, ctrl-C — should not cost
// the replicates it already finished.  The journal is an append-only file
// of (replicate_seed, ReplicateResult) records; the supervised runner
// appends each replicate the moment it completes (fsynced, CRC-per-record)
// and, on restart, skips every seed the journal already holds.  Because
// replicate statistics are a deterministic function of the seed, a resumed
// sweep aggregates byte-identically to an uninterrupted one — pinned by
// tests/analysis/test_journal.cpp and the CI kill-and-resume smoke step.
//
// The journal is a FramedLog (util/framed_log.hpp) with file magic 'HJNL'
// and record magic 'HJRD', whose record payload is
// { u64 seed · f64 wall_ms · SimMetrics }.  It inherits that log's
// guarantees: an append is fdatasync'd before it returns, a torn tail is
// truncated at open and counted in dropped_bytes(), and a foreign header
// or another format version throws IoError.  Like every FramedLog writer
// it is single-writer: a second handle on a live path throws
// ConcurrentWriterError.  A record that passes its CRC but does not
// decode throws IoError — a torn write cannot pass the CRC, so such a
// record means a format mismatch, and truncating it would destroy data.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "util/framed_log.hpp"

namespace hinet {

class ExperimentJournal {
 public:
  static constexpr std::uint32_t kMagic = 0x4c'4e'4a'48u;       // "HJNL"
  static constexpr std::uint16_t kVersion = 1;
  static constexpr std::uint32_t kRecordMagic = 0x44'52'4a'48u;  // "HJRD"

  /// Opens (creating if absent) and replays the journal at `path`.
  /// Throws IoError when the file exists but is not a journal of this
  /// version, when a record does not decode, or on I/O failure; throws
  /// ConcurrentWriterError while another handle holds the journal.  A
  /// corrupt tail is truncated and counted in dropped_bytes().
  explicit ExperimentJournal(std::string path);

  const std::string& path() const { return log_.path(); }

  /// Number of completed replicates on record.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  bool contains(std::uint64_t seed) const;

  /// The recorded result for `seed`, if any.
  std::optional<ReplicateResult> lookup(std::uint64_t seed) const;

  /// Recorded seeds in ascending order (deterministic).
  std::vector<std::uint64_t> seeds() const;

  /// Durably appends one completed replicate: the record is written and
  /// fdatasync'd before this returns, so a crash immediately after cannot
  /// lose it.  Thread-safe.  Re-appending a recorded seed is a
  /// PreconditionError (the supervised runner checks contains() first).
  void append(std::uint64_t seed, const ReplicateResult& result);

  /// Bytes of torn/corrupt tail dropped when the journal was opened
  /// (0 for a cleanly written file).
  std::size_t dropped_bytes() const { return log_.dropped_bytes(); }

 private:
  mutable std::mutex mutex_;  ///< guards log_ and entries_
  FramedLog log_;
  /// Seed → index of its record in log_.records().
  std::map<std::uint64_t, std::size_t> entries_;
};

}  // namespace hinet
