#include "service/lease_lock.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "util/require.hpp"

namespace hinet {

namespace {

std::uint64_t wall_clock_ms() {
  // Leases are compared across processes, so this must be the wall clock,
  // not a per-process steady clock.  Tests inject a fake clock instead.
  // detlint-allow(banned-time): lease expiry is inherently wall-clock state
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
}

std::vector<std::uint8_t> encode_lease(const LeaseInfo& info) {
  ByteWriter w;
  const std::span<const std::uint8_t> owner_bytes(
      reinterpret_cast<const std::uint8_t*>(info.owner.data()),
      info.owner.size());
  w.blob(owner_bytes);
  w.u64(info.token);
  w.u64(info.expiry_ms);
  return w.take();
}

LeaseInfo decode_lease(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "lease record");
  const auto owner_bytes = r.blob();
  LeaseInfo info;
  info.owner.assign(owner_bytes.begin(), owner_bytes.end());
  info.token = r.u64();
  info.expiry_ms = r.u64();
  r.expect_done();
  return info;
}

enum class LeaseRead { kOk, kMissing, kUnreadable };

/// Reads the lease file, distinguishing "no lease" (kMissing) from "a
/// file exists but does not parse" (kUnreadable — the window between a
/// winner's O_EXCL create and its record write, or real corruption).
LeaseRead read_lease_file(const std::string& path, LeaseInfo& out) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return LeaseRead::kMissing;
    throw IoError(errno_message("cannot stat lease file", path));
  }
  try {
    const std::vector<std::uint8_t> payload = read_checksummed_file(
        path, LeaseManager::kLeaseMagic, LeaseManager::kLeaseVersion,
        "lease");
    out = decode_lease(payload);
    return LeaseRead::kOk;
  } catch (const IoError&) {
    return LeaseRead::kUnreadable;
  }
}

std::uint64_t file_mtime_ms(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000u +
         static_cast<std::uint64_t>(st.st_mtim.tv_nsec) / 1000000u;
}

}  // namespace

// ── LeaseLock ───────────────────────────────────────────────────────────

struct LeaseLock::State {
  std::string path;       ///< the .lease file
  std::string name;
  std::string owner;
  std::uint64_t token = 0;
  std::uint64_t lease_ms = 0;
  LeaseClock now_ms;
  std::mutex mu;          ///< renew() is called from worker threads
  bool held = false;
};

LeaseLock::LeaseLock(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

LeaseLock::LeaseLock(LeaseLock&&) noexcept = default;

LeaseLock& LeaseLock::operator=(LeaseLock&& other) noexcept {
  if (this != &other && state_ != nullptr && state_->held) {
    try {
      release();  // don't leak a held lease when assigned over
    } catch (...) {
    }
  }
  state_ = std::move(other.state_);
  return *this;
}

LeaseLock::~LeaseLock() {
  if (state_ == nullptr || !state_->held) return;
  try {
    release();
  } catch (...) {
    // Destructor cleanup is best-effort; an unreleased lease simply
    // expires and is taken over.
  }
}

const std::string& LeaseLock::name() const { return state_->name; }
std::uint64_t LeaseLock::token() const { return state_->token; }

bool LeaseLock::held() const {
  const std::lock_guard<std::mutex> lock(state_->mu);
  return state_->held;
}

bool LeaseLock::renew() {
  const std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->held) return false;
  LeaseInfo info;
  if (read_lease_file(state_->path, info) != LeaseRead::kOk ||
      info.token != state_->token || info.owner != state_->owner) {
    // Taken over (or released behind our back): the token in the file is
    // not ours anymore.  Ownership loss is permanent by design.
    state_->held = false;
    return false;
  }
  info.expiry_ms = state_->now_ms() + state_->lease_ms;
  write_checksummed_file(state_->path, LeaseManager::kLeaseMagic,
                         LeaseManager::kLeaseVersion, encode_lease(info));
  return true;
}

void LeaseLock::release() {
  const std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->held) return;
  state_->held = false;
  LeaseInfo info;
  if (read_lease_file(state_->path, info) != LeaseRead::kOk ||
      info.token != state_->token) {
    return;  // taken over already — the successor owns the file now
  }
  if (::unlink(state_->path.c_str()) != 0 && errno != ENOENT) {
    throw IoError(errno_message("cannot release lease", state_->path));
  }
  fsync_parent_directory(state_->path);
}

// ── LeaseManager ────────────────────────────────────────────────────────

LeaseManager::LeaseManager(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  HINET_REQUIRE(!dir_.empty(), "lease manager needs a directory path");
  HINET_REQUIRE(options_.lease_ms > 0,
                "a zero-length lease would expire before its first renew");
  if (options_.owner.empty()) {
    options_.owner = "pid-" + std::to_string(::getpid());
  }
  if (!options_.now_ms) options_.now_ms = wall_clock_ms;
}

std::string LeaseManager::lease_path(const std::string& name) const {
  return dir_ + "/" + name + ".lease";
}

std::string LeaseManager::fence_path(const std::string& name) const {
  return dir_ + "/" + name + ".fence";
}

std::uint64_t LeaseManager::bump_fence(const std::string& name) {
  // Only the O_EXCL winner runs this, so read-increment-write is not
  // racy.  The new value is durable *before* it is used as a token —
  // the invariant "the fence file is >= every token ever issued" is what
  // makes tokens strictly monotone across crashes and takeovers.
  const std::string path = fence_path(name);
  std::uint64_t current = 0;
  struct ::stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    const std::vector<std::uint8_t> payload = read_checksummed_file(
        path, kFenceMagic, kFenceVersion, "fencing counter");
    ByteReader r(payload, "fencing counter payload");
    current = r.u64();
    r.expect_done();
  }
  const std::uint64_t next = current + 1;
  ByteWriter w;
  w.u64(next);
  write_checksummed_file(path, kFenceMagic, kFenceVersion, w.buffer());
  return next;
}

std::optional<LeaseLock> LeaseManager::try_acquire(const std::string& name) {
  const std::string path = lease_path(name);
  static std::atomic<std::uint64_t> tombstone_seq{0};

  for (int attempt = 0; attempt < 4; ++attempt) {
    const int fd =
        ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (fd >= 0) {
      // Won exclusivity.  Between here and the record write the file is
      // empty; contenders see "unreadable + fresh mtime" and treat it as
      // held.  Bump the fence first so the token is durable before use.
      std::uint64_t token = 0;
      try {
        token = bump_fence(name);
        LeaseInfo info;
        info.owner = options_.owner;
        info.token = token;
        info.expiry_ms = options_.now_ms() + options_.lease_ms;
        if (!write_all(fd, encode_checksummed(kLeaseMagic, kLeaseVersion,
                                              encode_lease(info)))) {
          throw IoError(errno_message("cannot write lease record", path));
        }
        if (::fdatasync(fd) != 0) {
          throw IoError(errno_message("fdatasync failed on lease", path));
        }
      } catch (...) {
        ::close(fd);
        ::unlink(path.c_str());
        throw;
      }
      ::close(fd);
      // O_EXCL creation lives in the directory inode: sync it so the
      // lock's existence survives power failure.
      fsync_parent_directory(path);

      auto state = std::make_unique<LeaseLock::State>();
      state->path = path;
      state->name = name;
      state->owner = options_.owner;
      state->token = token;
      state->lease_ms = options_.lease_ms;
      state->now_ms = options_.now_ms;
      state->held = true;
      return LeaseLock(std::move(state));
    }
    if (errno != EEXIST) {
      throw IoError(errno_message("cannot create lease file", path));
    }

    // Someone holds (or held) the lease.  Decide liveness.
    const std::uint64_t now = options_.now_ms();
    LeaseInfo info;
    const LeaseRead read = read_lease_file(path, info);
    if (read == LeaseRead::kMissing) continue;  // released under us; retry
    if (read == LeaseRead::kOk) {
      if (now < info.expiry_ms + options_.takeover_grace_ms) {
        return std::nullopt;  // live lease — busy
      }
    } else {
      // Unreadable: either a winner mid-creation (fresh) or a crash
      // between O_EXCL and the record write (stale).  Gate on file age.
      const std::uint64_t mtime = file_mtime_ms(path);
      if (now < mtime + options_.lease_ms + options_.takeover_grace_ms) {
        return std::nullopt;
      }
    }

    // Expired: take over.  rename() is atomic, so exactly one contender
    // moves the dead owner's lock aside; the losers see ENOENT and retry
    // the create (where at most one of them wins O_EXCL).
    std::ostringstream tomb;
    tomb << path << ".stale." << ::getpid() << "."
         << tombstone_seq.fetch_add(1, std::memory_order_relaxed);
    const std::string tomb_path = tomb.str();
    // detlint-allow(durability-ordering): moving a dead lease aside needs no content fsync — the tombstone is unlinked on the next line
    if (std::rename(path.c_str(), tomb_path.c_str()) != 0) {
      if (errno == ENOENT) continue;  // lost the takeover race; retry
      throw IoError(errno_message("cannot take over stale lease", path));
    }
    if (::unlink(tomb_path.c_str()) != 0 && errno != ENOENT) {
      throw IoError(errno_message("cannot remove lease tombstone", tomb_path));
    }
    fsync_parent_directory(path);
    ++takeovers_;
    // Loop back to the O_EXCL create with the path now clear.
  }
  return std::nullopt;  // heavy contention; caller treats as busy
}

std::optional<LeaseInfo> LeaseManager::peek(const std::string& name) const {
  LeaseInfo info;
  if (read_lease_file(lease_path(name), info) != LeaseRead::kOk) {
    return std::nullopt;
  }
  return info;
}

bool LeaseManager::validate(const std::string& name,
                            std::uint64_t token) const {
  LeaseInfo info;
  if (read_lease_file(lease_path(name), info) != LeaseRead::kOk) {
    return false;
  }
  // Expiry is deliberately NOT checked here: an expired-but-untaken
  // lease still carries the only issued token, and refusing the holder
  // would discard finished work nobody else is doing.  The moment a
  // successor takes over, the file carries a larger token and this
  // returns false for the old holder.
  return info.token == token;
}

std::vector<std::pair<std::string, LeaseInfo>> LeaseManager::list() const {
  std::vector<std::pair<std::string, LeaseInfo>> out;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return out;
    throw IoError(errno_message("cannot open lease directory", dir_));
  }
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    const std::string file = e->d_name;
    constexpr std::string_view kSuffix = ".lease";
    if (file.size() <= kSuffix.size() ||
        file.compare(file.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string name = file.substr(0, file.size() - kSuffix.size());
    const std::optional<LeaseInfo> info = peek(name);
    if (info.has_value()) out.emplace_back(name, *info);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

// ── ScopedFlock ─────────────────────────────────────────────────────────

ScopedFlock::ScopedFlock(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw IoError(errno_message("cannot open lock file", path));
  }
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    const IoError err(errno_message("cannot lock", path));
    ::close(fd_);
    fd_ = -1;
    throw err;
  }
}

ScopedFlock::~ScopedFlock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

}  // namespace hinet
