// ResultsStore: a durable, content-addressed store of experiment results.
//
// Runs are pure functions of (spec, seed), so a job's results are
// infinitely cacheable: simulate once, serve many.  The store holds one
// *segment* per published job — every replicate's full SimMetrics (the
// per-round series the completion-curve and crossover queries need) plus
// its wall time — indexed by the job's canonical content hash.
//
// ## On-disk layout (all little-endian, all CRC-guarded)
//
//   <dir>/index.hix       index: the set of published jobs.  A checksummed
//                         container (util/binary_io) rewritten atomically
//                         (write + fsync + rename + directory fsync) on
//                         every publish — it is either the old index or
//                         the new one, never a blend.
//   <dir>/store.lock      flock-based critical section around the index
//                         merge, so concurrent publishers cannot lose each
//                         other's entries.  Released by the kernel if the
//                         holder dies.
//   <dir>/seg-<hash>.hseg one segment per job, named by content hash.
//                         A checksummed container whose payload embeds the
//                         canonical job spec (collision/aliasing check on
//                         read) and versioned column sections: replicate
//                         seeds, wall times, per-replicate SimMetrics.
//
// ## Crash safety
//
// publish() walks two durable stages
//
//   1. segment written (atomic checksummed file, directory fsync)
//   2. index published (atomic checksummed file, directory fsync)
//
// and the index rename is the commit point.  The index names a job only
// after its segment is durable, so a kill -9 leaves one of three states:
// no segment; an unindexed segment, which reads as a clean miss (the job
// is still pending and its journal holds every replicate, so the next
// drain re-publishes it without simulating and overwrites the segment);
// or the full result.  There is nothing to roll back and nothing to roll
// forward, so the store keeps no log.  Kill -9 after each stage is
// exercised in tests/service/test_results_store.cpp and the CI
// kill-and-recover smoke; the drain that next wins the job's journal
// resolves what is left (see service.hpp).
//
// A publish that throws poisons the handle: the caller cannot tell which
// stage landed, so every later call throws until the store is reopened
// and reads the index back from disk.  The index and segments are
// all-or-nothing: any corruption there is a typed IoError, never a
// partial answer.
//
// ## Multi-process safety
//
// N drainers share one store.  The index is *merged*, never
// blind-rewritten: stage 2 re-reads index.hix from disk under store.lock,
// adds this publish's entry, and renames the merged file into place, so
// concurrent publishers of different jobs cannot lose each other's
// entries.  Two publishers never race on one job: a drain publishes only
// the job whose journal lock it holds (see service.hpp).
//
// Readers open the store with StoreOptions::read_only: no directory
// creation, no locks, no temp-file cleanup — publishes never block or
// perturb them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "service/job_spec.hpp"

namespace hinet {

/// One fully published job read back from the store.
struct StoredResult {
  JobSpec spec;
  /// Replicate results in index order (replicate i ran at seed
  /// spec.base_seed + i).
  std::vector<ReplicateResult> replicates;
};

/// How a store handle is opened.
struct StoreOptions {
  /// Observe only: no locks, no temp-file cleanup, publish refused.  A
  /// missing directory reads as an empty store.
  bool read_only = false;
};

class ResultsStore {
 public:
  static constexpr std::uint32_t kIndexMagic = 0x58'49'53'48u;    // "HSIX"
  static constexpr std::uint16_t kIndexVersion = 1;
  static constexpr std::uint32_t kSegmentMagic = 0x47'45'53'48u;  // "HSEG"
  static constexpr std::uint16_t kSegmentVersion = 1;

  /// The two durable stages of publish(), in order.  The commit hook
  /// fires after each stage completes — the fault-injection tests abort at
  /// each boundary and assert a reopen yields full-or-miss.
  enum class CommitStage {
    kSegmentWritten,
    kIndexPublished,
  };
  using CommitHook = std::function<void(CommitStage)>;

  /// Observability for the "simulate once, serve many" contract.
  struct Counters {
    std::size_t hits = 0;    ///< load() served a stored result
    std::size_t misses = 0;  ///< load() found nothing
    /// Dead publishers' in-flight temp files removed at open.
    std::size_t orphan_temps_removed = 0;
  };

  /// Opens the store at `dir` (creating the directory if absent), removes
  /// dead publishers' temp files and reads the index.  Throws IoError when
  /// the index is corrupt (all-or-nothing policy).  With
  /// options.read_only the directory is not created, nothing is removed,
  /// and a missing store reads as empty.
  explicit ResultsStore(std::string dir, StoreOptions options = {});

  ResultsStore(const ResultsStore&) = delete;
  ResultsStore& operator=(const ResultsStore&) = delete;

  std::size_t size() const { return entries_.size(); }
  bool contains(const JobSpec& spec) const;

  /// Published specs in ascending content-hash order (deterministic).
  std::vector<JobSpec> entries() const;

  /// The stored result for `spec`, or nullopt (counted as hit/miss).
  /// Throws IoError when the entry exists but its segment fails any check
  /// — a torn result is never returned.
  std::optional<StoredResult> load(const JobSpec& spec);

  /// Lookup by bare content hash (`hinetd query --hash=`).
  std::optional<StoredResult> load_hash(std::uint64_t hash);

  /// Durably publishes a completed job through the staged commit protocol.
  /// `replicates` must hold exactly spec.repetitions results in index
  /// order.  Re-publishing a stored job is a PreconditionError (callers
  /// check contains() — that is the cache-hit path); publishing a spec
  /// whose hash collides with a *different* stored spec is an IoError.
  /// If any stage throws, the handle is poisoned: reopen it.
  void publish(const JobSpec& spec,
               const std::vector<ReplicateResult>& replicates);

  /// Re-reads the index from disk, picking up entries other processes
  /// published since this handle opened (the index file is rename-atomic,
  /// so no lock is needed).  Cheap; call before contains() when other
  /// drainers share the store.
  void refresh();

  /// Installs the stage-boundary hook (fault injection in tests and the
  /// CI crash lever); pass nullptr to clear.
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  const Counters& counters() const { return counters_; }

  /// Path of the segment file for `hash` (exposed for tests and tooling).
  std::string segment_path(std::uint64_t hash) const;

 private:
  struct Entry {
    std::vector<std::uint8_t> spec_bytes;
  };

  void check_not_poisoned() const;
  void require_writable(const char* action) const;
  std::string lock_path() const { return dir_ + "/store.lock"; }
  std::map<std::uint64_t, Entry> read_index_from_disk() const;
  void write_index(const std::map<std::uint64_t, Entry>& entries) const;
  StoredResult load_segment(std::uint64_t hash,
                            const std::vector<std::uint8_t>& expect_spec) const;

  std::string dir_;
  StoreOptions options_;
  std::map<std::uint64_t, Entry> entries_;
  Counters counters_;
  CommitHook commit_hook_;
  bool poisoned_ = false;
};

}  // namespace hinet
