// Lease-based job locks for multi-process drains sharing one store.
//
// N `hinetd` processes pointed at one directory coordinate through small
// on-disk artifacts, never through shared memory:
//
//   <dir>/<name>.lease  the lock file.  Created with O_CREAT|O_EXCL — the
//                       POSIX primitive that makes exactly one creator
//                       win — and carrying {owner id, fencing token,
//                       expiry} as a CRC-guarded record.  The parent
//                       directory is fsynced after creation and after
//                       release, so lock existence survives power loss
//                       (detlint's durability rule enforces both).
//   <dir>/<name>.fence  the fencing counter: a checksummed u64 that only
//                       ever increases.  Every successful acquisition
//                       persists counter+1 *before* using it, so a token
//                       observed anywhere is never reissued.
//
// ## Lifecycle
//
//   acquire ── renew ── renew ── ... ── release
//      │ (O_EXCL create, bump fence, write record)
//      └─ on EEXIST: read the record.  Unexpired → busy (caller skips the
//         job).  Expired past the takeover grace → *takeover*: rename the
//         dead owner's lock aside (rename is atomic, exactly one
//         contender wins), unlink the tombstone, fsync the directory, and
//         retry the O_EXCL create.
//
// renew() rewrites the record with a fresh expiry via write-then-rename
// and fails (returns false) if the file no longer carries our token —
// that is how a paused-and-resumed drainer discovers it was taken over.
//
// ## Why fencing tokens
//
// Expiry alone cannot make leases safe: a drainer can be SIGSTOPped (or
// stuck in swap) past its expiry, lose the lease to a successor, and wake
// up believing it still holds it.  The monotone fencing token closes the
// hole at the *resource*: every ResultsStore commit stage re-validates
// that the lease file still carries the writer's token, so the zombie's
// late writes are refused (StaleLeaseError) while the successor — holding
// a strictly larger token — proceeds.  Safety lives at the commit check;
// the lease is only an optimization that keeps drainers out of each
// other's way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binary_io.hpp"

namespace hinet {

/// A lease-guarded write lost its lease: the lock file no longer carries
/// the writer's fencing token (a successor took over, or the lease was
/// released).  Transient by nature — the successor owns the job now and
/// the work is *not* lost (results are content-addressed) — mapped to the
/// shared transient exit code by the tools.
class StaleLeaseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Millisecond clock used for expiry decisions.  Injectable so the
/// torture tests advance time deterministically; the default reads the
/// wall clock (leases are compared *across processes*, so a steady clock
/// would not do).
using LeaseClock = std::function<std::uint64_t()>;

/// What a lease file currently says (peeked without acquiring).
struct LeaseInfo {
  std::string owner;
  std::uint64_t token = 0;
  std::uint64_t expiry_ms = 0;  ///< absolute, on the manager's clock
};

class LeaseManager;

/// A held lease.  Movable, non-copyable; releasing (or destruction)
/// unlinks the lock file.  renew() is safe to call from worker threads
/// (the supervisor's progress callback) concurrently with the owner
/// thread — an internal mutex serializes the file rewrite.
class LeaseLock {
 public:
  LeaseLock(LeaseLock&&) noexcept;
  LeaseLock& operator=(LeaseLock&&) noexcept;
  LeaseLock(const LeaseLock&) = delete;
  LeaseLock& operator=(const LeaseLock&) = delete;
  ~LeaseLock();

  const std::string& name() const;
  std::uint64_t token() const;

  /// Extends the lease by the manager's lease_ms from *now*.  Returns
  /// false — permanently — once the lock file no longer carries this
  /// lease's token: the holder must stop writing and abandon the job.
  bool renew();

  /// True until renew() or release() observes a takeover.
  bool held() const;

  /// Unlinks the lock file (if still ours) and fsyncs the directory so
  /// the release survives power loss.  Idempotent.
  void release();

 private:
  friend class LeaseManager;
  struct State;
  explicit LeaseLock(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// Creates, renews, inspects and takes over leases inside one directory.
/// One manager per drainer process; managers are cheap and hold no file
/// descriptors between calls.
class LeaseManager {
 public:
  static constexpr std::uint32_t kLeaseMagic = 0x53'4c'53'48u;  // "HSLS"
  static constexpr std::uint16_t kLeaseVersion = 1;
  static constexpr std::uint32_t kFenceMagic = 0x43'46'53'48u;  // "HSFC"
  static constexpr std::uint16_t kFenceVersion = 1;

  struct Options {
    std::uint64_t lease_ms = 30000;        ///< validity per acquire/renew
    std::uint64_t takeover_grace_ms = 1000;  ///< slack past expiry
    std::string owner;   ///< drainer id; default "pid-<pid>"
    LeaseClock now_ms;   ///< default: wall clock (epoch milliseconds)
  };

  LeaseManager(std::string dir, Options options);

  const std::string& directory() const { return dir_; }
  const std::string& owner() const { return options_.owner; }
  std::uint64_t lease_ms() const { return options_.lease_ms; }
  std::uint64_t now_ms() const { return options_.now_ms(); }

  /// Tries to acquire the lease `name`.  Returns the held lease, or
  /// nullopt when another owner holds an unexpired lease (or the create
  /// raced and lost).  An expired lease is taken over: the successor's
  /// fencing token is strictly larger than every token the dead (or
  /// zombie) owner ever held.
  std::optional<LeaseLock> try_acquire(const std::string& name);

  /// What the lock file for `name` currently says, or nullopt when no
  /// lease exists (or the file is unreadable mid-creation).
  std::optional<LeaseInfo> peek(const std::string& name) const;

  /// The fencing check: does the lock file for `name` still carry
  /// `token`?  This is what every ResultsStore commit stage asks before
  /// touching durable state.
  bool validate(const std::string& name, std::uint64_t token) const;

  /// Every lease file in the directory, lexicographic by name.
  std::vector<std::pair<std::string, LeaseInfo>> list() const;

  /// Expired-lease takeovers this manager performed — an in-process
  /// count that nothing persists.  (`hinetd status` prints the ledger's
  /// stale-detected count instead: the fenced drain records that.)
  std::size_t takeovers() const { return takeovers_; }

  std::string lease_path(const std::string& name) const;
  std::string fence_path(const std::string& name) const;

 private:
  std::uint64_t bump_fence(const std::string& name);

  std::string dir_;
  Options options_;
  std::size_t takeovers_ = 0;
};

/// A process-wide advisory critical section over `path` (flock LOCK_EX on
/// a dedicated lock file, blocking).  Serializes the store's one compound
/// read-modify-write step, the index merge, across processes.  Released
/// on destruction (and automatically by the kernel if the holder dies,
/// which is why this is flock and not a lease: no stale-state cleanup
/// exists to get wrong).
class ScopedFlock {
 public:
  explicit ScopedFlock(const std::string& path);
  ~ScopedFlock();
  ScopedFlock(const ScopedFlock&) = delete;
  ScopedFlock& operator=(const ScopedFlock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace hinet
