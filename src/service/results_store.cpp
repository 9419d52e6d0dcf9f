#include "service/results_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>

#include "sim/metrics.hpp"
#include "util/require.hpp"

namespace hinet {

namespace {

bool file_exists(const std::string& path) {
  struct ::stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// A process-wide critical section over `path`: a blocking flock(LOCK_EX)
/// on a dedicated lock file, released on destruction, and by the kernel
/// if the holder dies, so no stale state exists to clean up.
class ScopedFlock {
 public:
  explicit ScopedFlock(const std::string& path)
      : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)) {
    if (fd_ < 0) throw IoError(errno_message("cannot open lock file", path));
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno == EINTR) continue;
      const IoError err(errno_message("cannot lock", path));
      ::close(fd_);
      throw err;
    }
  }
  ~ScopedFlock() { ::close(fd_); }
  ScopedFlock(const ScopedFlock&) = delete;
  ScopedFlock& operator=(const ScopedFlock&) = delete;

 private:
  int fd_;
};

}  // namespace

ResultsStore::ResultsStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  HINET_REQUIRE(!dir_.empty(), "results store needs a directory path");
  if (!options_.read_only) {
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
      throw IoError(
          errno_message("cannot create results-store directory", dir_));
    }
    // Dead publishers' in-flight temp files (unique-named, pid-tagged)
    // are litter now; live publishers' temps are left strictly alone.
    counters_.orphan_temps_removed = remove_orphan_temp_files(dir_);
  }
  entries_ = read_index_from_disk();
}

std::map<std::uint64_t, ResultsStore::Entry>
ResultsStore::read_index_from_disk() const {
  // All-or-nothing: the index is rename-atomic, so corruption is real
  // corruption, not a crash artifact — refuse loudly.
  std::map<std::uint64_t, Entry> entries;
  const std::string index_path = dir_ + "/index.hix";
  if (!file_exists(index_path)) return entries;
  const std::vector<std::uint8_t> payload = read_checksummed_file(
      index_path, kIndexMagic, kIndexVersion, "results-store index");
  ByteReader r(payload, "results-store index payload");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t hash = r.u64();
    const auto spec_bytes = r.blob();
    entries.insert_or_assign(hash,
                             Entry{{spec_bytes.begin(), spec_bytes.end()}});
  }
  r.expect_done();
  return entries;
}

void ResultsStore::write_index(
    const std::map<std::uint64_t, Entry>& entries) const {
  ByteWriter payload;
  payload.u64(entries.size());
  for (const auto& [hash, entry] : entries) {
    payload.u64(hash);
    payload.blob(entry.spec_bytes);
  }
  write_checksummed_file(dir_ + "/index.hix", kIndexMagic, kIndexVersion,
                         payload.buffer());
}

void ResultsStore::refresh() {
  check_not_poisoned();
  entries_ = read_index_from_disk();
}

void ResultsStore::require_writable(const char* action) const {
  if (options_.read_only) {
    throw PreconditionError(std::string("cannot ") + action +
                            ": the results store at " + dir_ +
                            " was opened read-only");
  }
}

void ResultsStore::check_not_poisoned() const {
  if (poisoned_) {
    throw IoError("results store at " + dir_ +
                  " is poisoned: a publish through this handle was cut "
                  "short — reopen the store to read what reached disk");
  }
}

std::string ResultsStore::segment_path(std::uint64_t hash) const {
  return dir_ + "/seg-" + hash_hex(hash) + ".hseg";
}

bool ResultsStore::contains(const JobSpec& spec) const {
  const auto it = entries_.find(spec.content_hash());
  return it != entries_.end() &&
         it->second.spec_bytes == spec.canonical_bytes();
}

std::vector<JobSpec> ResultsStore::entries() const {
  std::vector<JobSpec> out;
  out.reserve(entries_.size());
  for (const auto& [hash, entry] : entries_) {
    ByteReader r(entry.spec_bytes, "results-store index entry");
    out.push_back(decode_job_spec(r));
  }
  return out;
}

StoredResult ResultsStore::load_segment(
    std::uint64_t hash, const std::vector<std::uint8_t>& expect_spec) const {
  const std::string path = segment_path(hash);
  const std::vector<std::uint8_t> payload = read_checksummed_file(
      path, kSegmentMagic, kSegmentVersion, "results-store segment");
  ByteReader r(payload, "results-store segment payload (" + path + ")");

  const auto spec_bytes = r.blob();
  StoredResult result;
  {
    ByteReader sr(spec_bytes, "results-store segment spec");
    result.spec = decode_job_spec(sr);
    sr.expect_done();
  }
  if (result.spec.content_hash() != hash) {
    throw IoError("results-store segment " + path +
                  " embeds a spec whose content hash differs from its "
                  "filename — the segment is corrupt or misplaced");
  }
  if (!expect_spec.empty() &&
      !std::equal(spec_bytes.begin(), spec_bytes.end(), expect_spec.begin(),
                  expect_spec.end())) {
    throw IoError("results-store segment " + path +
                  " embeds a different job spec than the index records for "
                  "this hash — refusing to serve a mismatched result");
  }

  // Column sections: seeds, wall times, per-replicate metrics.
  const std::vector<std::uint64_t> seeds = r.vec_u64();
  const std::uint64_t reps = r.u64();
  if (reps != result.spec.repetitions || seeds.size() != reps) {
    std::ostringstream os;
    os << "results-store segment " << path << " declares " << reps
       << " replicate(s) and " << seeds.size() << " seed(s) but its spec "
       << "asks for " << result.spec.repetitions
       << " — the segment is torn or mismatched";
    throw IoError(os.str());
  }
  result.replicates.reserve(reps);
  for (std::uint64_t i = 0; i < reps; ++i) {
    const std::uint64_t expect_seed =
        replicate_seed(result.spec.base_seed, i);
    if (seeds[i] != expect_seed) {
      std::ostringstream os;
      os << "results-store segment " << path << " stores seed " << seeds[i]
         << " for replicate " << i << " (expected " << expect_seed << ")";
      throw IoError(os.str());
    }
    ReplicateResult rep;
    rep.wall_ms = r.f64();
    const auto metrics_bytes = r.blob();
    ByteReader mr(metrics_bytes, "results-store segment metrics");
    rep.metrics = load_metrics(mr);
    mr.expect_done();
    result.replicates.push_back(std::move(rep));
  }
  r.expect_done();
  return result;
}

std::optional<StoredResult> ResultsStore::load(const JobSpec& spec) {
  check_not_poisoned();
  const std::uint64_t hash = spec.content_hash();
  const auto it = entries_.find(hash);
  if (it == entries_.end() ||
      it->second.spec_bytes != spec.canonical_bytes()) {
    ++counters_.misses;
    return std::nullopt;
  }
  StoredResult result = load_segment(hash, it->second.spec_bytes);
  ++counters_.hits;
  return result;
}

std::optional<StoredResult> ResultsStore::load_hash(std::uint64_t hash) {
  check_not_poisoned();
  const auto it = entries_.find(hash);
  if (it == entries_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  StoredResult result = load_segment(hash, it->second.spec_bytes);
  ++counters_.hits;
  return result;
}

void ResultsStore::publish(const JobSpec& spec,
                           const std::vector<ReplicateResult>& replicates) {
  check_not_poisoned();
  require_writable("publish");
  HINET_REQUIRE(replicates.size() == spec.repetitions,
                "publish needs exactly spec.repetitions replicate results "
                "in index order — partial batches are journaled for resume, "
                "never published");
  const std::uint64_t hash = spec.content_hash();
  const std::vector<std::uint8_t> spec_bytes = spec.canonical_bytes();
  // Check against *fresh* disk state: another drainer may have published
  // since this handle last read the index.
  entries_ = read_index_from_disk();
  const auto it = entries_.find(hash);
  if (it != entries_.end()) {
    if (it->second.spec_bytes == spec_bytes) {
      throw PreconditionError(
          "job is already published — check contains() first; a stored job "
          "is a cache hit, never re-executed or re-published");
    }
    throw IoError("content-hash collision: a different job spec is already "
                  "stored under hash " + hash_hex(hash) +
                  " — refusing to alias two jobs onto one result");
  }

  poisoned_ = true;  // cleared only when every stage lands

  // Every commit hook fires *outside* the store's critical section so a
  // fault-injection hook (or the in-process torture harness re-entering
  // another drainer) can never deadlock against the flock.

  // Stage 1: segment (atomic write + directory fsync via
  // write_checksummed_file; the temp name is per-process-unique, so no
  // lock is needed — the final rename targets a content-addressed name,
  // and overwrites the unindexed segment of an earlier, cut publish).
  ByteWriter payload;
  payload.blob(spec_bytes);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(replicates.size());
  for (std::size_t i = 0; i < replicates.size(); ++i) {
    seeds.push_back(replicate_seed(spec.base_seed, i));
  }
  payload.vec_u64(seeds);
  payload.u64(replicates.size());
  for (const ReplicateResult& rep : replicates) {
    payload.f64(rep.wall_ms);
    ByteWriter metrics;
    save_metrics(metrics, rep.metrics);
    payload.blob(metrics.buffer());
  }
  write_checksummed_file(segment_path(hash), kSegmentMagic, kSegmentVersion,
                         payload.buffer());
  if (commit_hook_) commit_hook_(CommitStage::kSegmentWritten);

  // Stage 2, the commit point: index.  Merged, not blind-rewritten:
  // re-read the on-disk index under the lock, add this entry, rename the
  // merged file into place — a concurrent publisher of a different job
  // cannot be lost.
  {
    const ScopedFlock section(lock_path());
    std::map<std::uint64_t, Entry> disk = read_index_from_disk();
    const auto existing = disk.find(hash);
    if (existing != disk.end() &&
        existing->second.spec_bytes != spec_bytes) {
      throw IoError("content-hash collision: a different job spec landed "
                    "under hash " + hash_hex(hash) +
                    " while this publish was in flight");
    }
    disk.insert_or_assign(hash, Entry{spec_bytes});
    write_index(disk);
    entries_ = std::move(disk);
  }
  if (commit_hook_) commit_hook_(CommitStage::kIndexPublished);

  poisoned_ = false;
}

}  // namespace hinet
