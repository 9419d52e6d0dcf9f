#include "service/job_queue.hpp"

#include <algorithm>
#include <sstream>

#include "util/require.hpp"

namespace hinet {

namespace {

constexpr std::uint8_t kRecSubmit = 1;
constexpr std::uint8_t kRecDone = 2;
constexpr std::uint8_t kRecFailed = 3;

}  // namespace

JobQueue::JobQueue(std::string path, std::size_t max_pending,
                   FramedLog::Access access)
    : log_(std::move(path), kMagic, kVersion, kRecordMagic, "job queue",
           access),
      max_pending_(max_pending) {
  HINET_REQUIRE(max_pending_ > 0,
                "a zero-capacity queue would reject every submission");
  replay();
  maybe_compact();
}

void JobQueue::maybe_compact() {
  // Compact history down to the live backlog — replaying the pending
  // submits reproduces exactly this state — but only when history has
  // meaningfully outgrown the backlog: concurrent drains reopen the queue
  // for every short mutation, and compacting on each of those opens would
  // turn O(1) appends into O(backlog) rewrites.
  if (log_.access() == FramedLog::Access::kReadOnly) return;
  if (log_.records().size() <= 2 * order_.size() + 8) return;
  std::vector<std::vector<std::uint8_t>> keep;
  keep.reserve(order_.size());
  for (const std::uint64_t hash : order_) {
    ByteWriter w;
    w.u8(kRecSubmit);
    w.blob(pending_.at(hash));
    keep.push_back(w.take());
  }
  log_.compact(keep);
}

const std::string& JobQueue::path() const { return log_.path(); }

void JobQueue::replay() {
  for (const std::vector<std::uint8_t>& rec : log_.records()) {
    ByteReader r(rec, "job-queue record");
    const std::uint8_t kind = r.u8();
    if (kind == kRecSubmit) {
      const auto spec_bytes = r.blob();
      r.expect_done();
      ByteReader sr(spec_bytes, "job-queue record spec");
      const JobSpec spec = decode_job_spec(sr);
      sr.expect_done();
      const std::uint64_t hash = spec.content_hash();
      if (pending_.find(hash) == pending_.end()) {
        pending_.emplace(hash, std::vector<std::uint8_t>(spec_bytes.begin(),
                                                         spec_bytes.end()));
        order_.push_back(hash);
      }
    } else if (kind == kRecDone || kind == kRecFailed) {
      const std::uint64_t hash = r.u64();
      if (kind == kRecFailed) r.blob();  // reason, informational
      r.expect_done();
      const auto it = pending_.find(hash);
      if (it != pending_.end()) {
        pending_.erase(it);
        order_.erase(std::find(order_.begin(), order_.end(), hash));
      }
    } else {
      std::ostringstream os;
      os << "job-queue record has unknown kind " << static_cast<unsigned>(kind)
         << " — the queue file is corrupt";
      throw IoError(os.str());
    }
  }
}

bool JobQueue::is_pending(std::uint64_t hash) const {
  return pending_.find(hash) != pending_.end();
}

std::vector<JobSpec> JobQueue::pending_jobs() const {
  std::vector<JobSpec> out;
  out.reserve(order_.size());
  for (const std::uint64_t hash : order_) {
    ByteReader r(pending_.at(hash), "job-queue pending spec");
    out.push_back(decode_job_spec(r));
  }
  return out;
}

JobQueue::Submit JobQueue::submit(const JobSpec& spec) {
  const std::uint64_t hash = spec.content_hash();
  const std::vector<std::uint8_t> spec_bytes = spec.canonical_bytes();
  const auto it = pending_.find(hash);
  if (it != pending_.end()) {
    if (it->second != spec_bytes) {
      throw IoError("content-hash collision: a different job spec is "
                    "already pending under this hash — refusing to alias "
                    "two jobs");
    }
    return Submit::kAlreadyPending;
  }
  if (order_.size() >= max_pending_) {
    std::ostringstream os;
    os << "job queue is full (" << order_.size() << "/" << max_pending_
       << " pending) — admission rejected; drain with `hinetd run` and "
       << "resubmit";
    throw QueueFullError(os.str());
  }

  ByteWriter w;
  w.u8(kRecSubmit);
  w.blob(spec_bytes);
  log_.append(w.buffer());
  pending_.emplace(hash, spec_bytes);
  order_.push_back(hash);
  return Submit::kEnqueued;
}

void JobQueue::remove_pending(std::uint64_t hash, const char* verb) {
  const auto it = pending_.find(hash);
  if (it == pending_.end()) {
    std::ostringstream os;
    os << "cannot mark job " << std::hex << hash << " " << verb
       << ": it is not pending";
    throw PreconditionError(os.str());
  }
  pending_.erase(it);
  order_.erase(std::find(order_.begin(), order_.end(), hash));
}

void JobQueue::mark_done(std::uint64_t hash) {
  HINET_REQUIRE(is_pending(hash),
                "only a pending job can be marked done — check is_pending()");
  ByteWriter w;
  w.u8(kRecDone);
  w.u64(hash);
  log_.append(w.buffer());
  remove_pending(hash, "done");
}

void JobQueue::mark_failed(std::uint64_t hash, const std::string& reason) {
  HINET_REQUIRE(is_pending(hash),
                "only a pending job can be marked failed");
  ByteWriter w;
  w.u8(kRecFailed);
  w.u64(hash);
  const std::span<const std::uint8_t> reason_bytes(
      reinterpret_cast<const std::uint8_t*>(reason.data()), reason.size());
  w.blob(reason_bytes);
  log_.append(w.buffer());
  remove_pending(hash, "failed");
}

}  // namespace hinet
