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
//   <dir>/wal.hwl         write-ahead intent log (FramedLog): records
//                         {intent | commit | rollback, job hash, fencing
//                         token}.  An intent is durably logged before any
//                         segment or index write; a commit is logged only
//                         after the index rewrite landed.  Torn tails are
//                         salvaged.
//   <dir>/store.lock      flock-based critical section serializing every
//                         compound read-modify-write (WAL append, index
//                         merge, recovery, compaction) across processes.
//                         Held only for those short sections — never
//                         across a simulation — and released by the
//                         kernel if the holder dies.
//   <dir>/seg-<hash>.hseg one segment per job, named by content hash.
//                         A checksummed container whose payload embeds the
//                         canonical job spec (collision/aliasing check on
//                         read) and versioned column sections: replicate
//                         seeds, wall times, per-replicate SimMetrics.
//
// ## Crash safety
//
// publish() walks the four durable stages
//
//   1. intent logged   (WAL append, fdatasync)
//   2. segment written (atomic checksummed file, directory fsync)
//   3. index published (atomic checksummed file, directory fsync)
//   4. commit logged   (WAL append, fdatasync)
//
// and recovery at open resolves any intent without a commit: if the
// segment exists and passes every check the publish is *rolled forward*
// (index entry completed, commit logged — the result was fully durable, so
// it is served, not discarded); otherwise it is *rolled back* (partial
// segment deleted, index entry removed, rollback logged — a clean miss).
// Either way a reader sees the full result or no result, never a torn
// one.  Kill -9 between any two stages is exercised stage by stage in
// tests/service/test_results_store.cpp and the CI kill-and-recover smoke.
//
// A checked-but-failed publish poisons the handle (the in-memory view may
// be ahead of disk); reopen the store to recover.  The same all-or-nothing
// policy as SimSnapshot applies to the index and segments: any corruption
// there is a typed IoError, never a partial answer.  Only the WAL — whose
// corruption can legitimately be a crash tail — is salvaged.
//
// ## Multi-process safety
//
// N drainers share one store.  Three mechanisms compose:
//
//   * store.lock (ScopedFlock) makes each compound step atomic across
//     processes; the WAL itself is opened transiently (wait-mode
//     FramedLog: lock, append, close) inside those sections, so no
//     process monopolizes the single-writer log between publishes.
//   * The index is *merged*, never blind-rewritten: stage 3 re-reads
//     index.hix from disk under the lock, adds this publish's entry, and
//     renames the merged file into place — concurrent publishers of
//     different jobs cannot lose each other's entries.
//   * Fencing: when publish() is given a Fencing binding, every stage
//     first re-validates that the job's lease file still carries the
//     writer's token.  A zombie drainer (paused past expiry, taken over)
//     gets a StaleLeaseError instead of clobbering its successor —
//     see lease_lock.hpp for why expiry alone cannot provide this.
//
// Recovery resolves an unresolved intent only after winning that job's
// lease (StoreOptions::try_lease); an intent whose holder is alive is
// left for the holder (or a later recovery) to finish.  Readers open the
// store with StoreOptions::read_only: no locks, no WAL, no recovery —
// compaction and publishes never block or perturb them.
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
#include "service/lease_lock.hpp"
#include "util/framed_log.hpp"

namespace hinet {

/// One fully published job read back from the store.
struct StoredResult {
  JobSpec spec;
  /// Replicate results in index order (replicate i ran at seed
  /// spec.base_seed + i).
  std::vector<ReplicateResult> replicates;
};

/// How a store handle participates in multi-process coordination.
struct StoreOptions {
  /// Observe only: no locks, no WAL open, no recovery, publish refused.
  /// A missing directory reads as an empty store.
  bool read_only = false;

  /// Recovery's lease hook: try to win the lease guarding `hash` (the
  /// service wires this to its LeaseManager).  Recovery resolves an
  /// unresolved WAL intent only while holding the job's lease — winning
  /// it fences out the (possibly still-running) original publisher, and
  /// failing to win it means the publisher is alive and will finish the
  /// job itself.  Unset: resolve unconditionally (single-process use).
  std::function<std::optional<LeaseLock>(std::uint64_t hash)> try_lease;
};

/// Binds a publish to a held lease for commit-time fencing: before every
/// durable stage the store re-checks that the lease file named `resource`
/// still carries `token`, and throws StaleLeaseError otherwise.
struct Fencing {
  const LeaseManager* leases = nullptr;
  std::string resource;
  std::uint64_t token = 0;
};

class ResultsStore {
 public:
  static constexpr std::uint32_t kIndexMagic = 0x58'49'53'48u;    // "HSIX"
  static constexpr std::uint16_t kIndexVersion = 1;
  static constexpr std::uint32_t kWalMagic = 0x4c'57'53'48u;      // "HSWL"
  /// v2: records carry the publisher's fencing token.
  static constexpr std::uint16_t kWalVersion = 2;
  static constexpr std::uint32_t kWalRecordMagic = 0x52'57'53'48u;  // "HSWR"
  static constexpr std::uint32_t kSegmentMagic = 0x47'45'53'48u;  // "HSEG"
  static constexpr std::uint16_t kSegmentVersion = 1;

  /// The four durable stages of publish(), in order.  The commit hook
  /// fires after each stage completes — the fault-injection tests abort at
  /// every boundary and assert recovery yields full-or-miss.
  enum class CommitStage {
    kIntentLogged,
    kSegmentWritten,
    kIndexPublished,
    kCommitLogged,
  };
  using CommitHook = std::function<void(CommitStage)>;

  /// Observability for the "simulate once, serve many" contract.
  struct Counters {
    std::size_t hits = 0;    ///< load() served a stored result
    std::size_t misses = 0;  ///< load() found nothing
    /// Intents resolved at open by completing the publish (the segment was
    /// fully durable when the process died).
    std::size_t recovered_commits = 0;
    /// Intents resolved at open by rolling back (no durable segment —
    /// a clean miss, the job will simply re-execute).
    std::size_t rolled_back_intents = 0;
    /// Torn WAL tail bytes dropped at open.
    std::size_t salvaged_wal_bytes = 0;
    /// Dead publishers' in-flight temp files removed at open.
    std::size_t orphan_temps_removed = 0;
  };

  /// Opens the store at `dir` (creating the directory if absent) and runs
  /// recovery.  Throws IoError when the index or a referenced segment is
  /// corrupt (all-or-nothing policy), or when the WAL header is foreign.
  /// With options.read_only the directory is not created, nothing is
  /// locked or recovered, and a missing store reads as empty.
  explicit ResultsStore(std::string dir, StoreOptions options = {});

  ResultsStore(const ResultsStore&) = delete;
  ResultsStore& operator=(const ResultsStore&) = delete;

  const std::string& directory() const { return dir_; }

  std::size_t size() const { return entries_.size(); }
  bool contains(const JobSpec& spec) const;
  bool contains_hash(std::uint64_t hash) const;

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
  /// If any stage throws, the handle is poisoned: reopen to recover.
  void publish(const JobSpec& spec,
               const std::vector<ReplicateResult>& replicates);

  /// As above, with commit-time fencing: every stage first re-validates
  /// `fencing` against the lease file and throws StaleLeaseError when the
  /// token was superseded (the successor owns the job now; this writer
  /// must stop).  Pass nullptr for unfenced publishing.
  void publish(const JobSpec& spec,
               const std::vector<ReplicateResult>& replicates,
               const Fencing* fencing);

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

  void recover();
  void check_not_poisoned() const;
  void require_writable(const char* action) const;
  std::string lock_path() const { return dir_ + "/store.lock"; }
  std::string wal_path() const { return dir_ + "/wal.hwl"; }
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
