// Checksummed binary serialization primitives.
//
// The crash-safety layer (the experiment journal, the results store, the
// job queue and the execution ledger) stores binary state on disk, where
// torn writes, truncation and bit rot are facts of life.  Everything here
// is therefore defensive by construction:
//
//   ByteWriter — append-only little-endian encoder into a growable buffer;
//   ByteReader — bounds-checked decoder over a byte span: every read
//                validates remaining length first and throws IoError on
//                truncation, so corrupt input can never walk past the end
//                of a buffer (the fuzz suite flips and truncates bytes at
//                every offset and expects a diagnostic, never UB);
//   crc32      — CRC-32 (IEEE 802.3) over a byte span;
//   fnv1a64    — 64-bit FNV-1a over a byte span, for digests;
//   encode_checksummed / write_checksummed_file / read_checksummed_file —
//                a tiny container format (magic, version, payload length,
//                CRC, payload) shared by every binary artifact so
//                corruption checks and error messages are implemented
//                exactly once;
//   write_all / errno_message — the raw-fd write loop and the syscall
//                diagnostic every durable writer shares.
//
// Fixed-width little-endian encoding keeps files byte-identical across
// platforms; std::size_t values travel as u64.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace hinet {

/// Thrown on any I/O or (de)serialization failure: truncated input, CRC
/// mismatch, unknown magic, unsupported version, failed syscalls.  The
/// message always names what was expected and what was found.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`, starting from
/// `seed` (pass a previous result to checksum incrementally).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

/// 64-bit FNV-1a of `data`, starting from `seed` (pass a previous result
/// to hash incrementally): the digest behind job content addressing and
/// the stats and query digests.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Little-endian append-only encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern, so values round-trip
  /// bit-for-bit (the aggregate-identity guarantee needs exactness).
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);

  /// Length-prefixed byte blob (u64 length + raw bytes); the framing lets
  /// readers skip or bound a section they cannot interpret.
  void blob(std::span<const std::uint8_t> data);

  /// u64 length followed by each element as u64.
  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_size(const std::vector<std::size_t>& v);
  /// u64 length followed by raw bytes (for flag vectors).
  void vec_u8(const std::vector<std::uint8_t>& v);

  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
class ByteReader {
 public:
  /// `what` names the artifact being decoded; it prefixes every error
  /// message ("results-store segment metrics truncated: ...").
  explicit ByteReader(std::span<const std::uint8_t> data,
                      std::string what = "payload");

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::span<const std::uint8_t> bytes(std::size_t n);

  /// Reads a blob written by ByteWriter::blob.
  std::span<const std::uint8_t> blob();

  std::vector<std::uint64_t> vec_u64();
  std::vector<std::size_t> vec_size();
  std::vector<std::uint8_t> vec_u8();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  const std::string& what() const { return what_; }

  /// Throws IoError unless every byte has been consumed — catches blobs
  /// decoded by a reader of the wrong type (too-short state is caught by
  /// the bounds checks; this catches too-long).
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string what_;
};

/// "<what> <path>: <strerror(errno)>" — the diagnostic for a failed
/// syscall.  Call it before anything else can overwrite errno.
std::string errno_message(const std::string& what, const std::string& path);

/// Writes every byte of `data` to `fd`, resuming after short writes and
/// EINTR.  Returns false, with errno set, when a write fails.
[[nodiscard]] bool write_all(int fd, std::span<const std::uint8_t> data);

/// Durably records a directory-level change (a rename into the directory,
/// a freshly created file) by fsyncing `path`'s parent directory.  POSIX
/// write-then-rename makes the *file contents* atomic, but the rename
/// itself lives in the directory, and a power failure can forget it unless
/// the directory inode is synced too.  Every atomic-publish step in the
/// tree (journals, the results store, the queue) funnels through this.
/// Throws IoError when the directory cannot be opened or synced.
void fsync_parent_directory(const std::string& path);

/// A temporary-sibling name for `path` that is unique *across processes*:
/// `<path>.tmp.<pid>.<n>` with a per-process monotonically increasing
/// counter.  Two drainers publishing into one directory can therefore
/// never clobber each other's in-flight temp files — a fixed ".tmp"
/// suffix would let process B truncate the bytes process A is about to
/// rename into place.  (The pid is also what lets recovery tell a dead
/// publisher's orphan temp from a live publisher's in-flight one.)
std::string unique_temp_path(const std::string& path);

/// Deletes leftover `<name>.tmp.<pid>.<n>` siblings in `dir` whose owning
/// process is gone (pid no longer exists).  Temps belonging to live
/// processes are in-flight writes and are left alone.  Returns the number
/// of orphans removed.  Errors reading the directory are an IoError;
/// unlink races (someone else cleaned first) are ignored.
std::size_t remove_orphan_temp_files(const std::string& dir);

/// The shared container format, encoded in memory:
///
///   u32 magic · u16 version · u64 payload length · u32 crc32(payload) ·
///   payload bytes
std::vector<std::uint8_t> encode_checksummed(
    std::uint32_t magic, std::uint16_t version,
    std::span<const std::uint8_t> payload);

/// Writes `payload` to `path` inside the shared container format
/// (encode_checksummed).
///
/// The file is written to a temporary sibling (fsync), renamed
/// into place, and the parent directory is fsynced, so a crash — or a
/// power failure — mid-write can never leave a half-written artifact under
/// `path`, and the rename itself survives the power loss.
void write_checksummed_file(const std::string& path, std::uint32_t magic,
                            std::uint16_t version,
                            std::span<const std::uint8_t> payload);

/// Reads a container written by write_checksummed_file, validating magic,
/// version, declared length against the file size, and the payload CRC.
/// Throws IoError naming the artifact (`what`) and the precise mismatch.
std::vector<std::uint8_t> read_checksummed_file(const std::string& path,
                                                std::uint32_t magic,
                                                std::uint16_t expect_version,
                                                const std::string& what);

}  // namespace hinet
