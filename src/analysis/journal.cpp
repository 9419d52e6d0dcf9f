#include "analysis/journal.hpp"

#include "sim/metrics.hpp"

namespace hinet {

namespace {

struct Record {
  std::uint64_t seed = 0;
  ReplicateResult result;
};

Record decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "journal record");
  Record rec;
  rec.seed = r.u64();
  rec.result.wall_ms = r.f64();
  rec.result.metrics = load_metrics(r);
  r.expect_done();
  return rec;
}

}  // namespace

ExperimentJournal::ExperimentJournal(std::string path)
    : log_(std::move(path), kMagic, kVersion, kRecordMagic,
           "replicate journal") {
  const auto& records = log_.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    try {
      entries_.insert_or_assign(decode_record(records[i]).seed, i);
    } catch (const IoError& e) {
      throw IoError("replicate journal " + log_.path() + " record " +
                    std::to_string(i) + " passed its CRC but does not "
                    "decode (" + e.what() + ") — a format mismatch, not a "
                    "torn write; refusing to truncate it");
    }
  }
}

std::size_t ExperimentJournal::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

bool ExperimentJournal::contains(std::uint64_t seed) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(seed) != entries_.end();
}

std::optional<ReplicateResult> ExperimentJournal::lookup(
    std::uint64_t seed) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(seed);
  if (it == entries_.end()) return std::nullopt;
  return decode_record(log_.records()[it->second]).result;
}

std::vector<std::uint64_t> ExperimentJournal::seeds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(entries_.size());
  for (const auto& [seed, index] : entries_) out.push_back(seed);
  return out;
}

void ExperimentJournal::append(std::uint64_t seed,
                               const ReplicateResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  HINET_REQUIRE(entries_.find(seed) == entries_.end(),
                "journal already holds this replicate seed — the supervised "
                "runner must skip recorded seeds instead of re-running them");

  ByteWriter payload;
  payload.u64(seed);
  payload.f64(result.wall_ms);
  save_metrics(payload, result.metrics);
  log_.append(payload.buffer());
  entries_.emplace(seed, log_.records().size() - 1);
}

}  // namespace hinet
