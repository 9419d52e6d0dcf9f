#include "util/binary_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace hinet {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::blob(std::span<const std::uint8_t> data) {
  u64(data.size());
  bytes(data);
}

void ByteWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

void ByteWriter::vec_size(const std::vector<std::size_t>& v) {
  u64(v.size());
  for (std::size_t x : v) u64(x);
}

void ByteWriter::vec_u8(const std::vector<std::uint8_t>& v) {
  u64(v.size());
  bytes(v);
}

ByteReader::ByteReader(std::span<const std::uint8_t> data, std::string what)
    : data_(data), what_(std::move(what)) {}

void ByteReader::need(std::size_t n) const {
  if (n > remaining()) {
    std::ostringstream os;
    os << what_ << " truncated: need " << n << " more byte(s) at offset "
       << pos_ << " but only " << remaining() << " remain";
    throw IoError(os.str());
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v |
                                   static_cast<std::uint16_t>(data_[pos_ + static_cast<std::size_t>(i)])
                                       << (8 * i));
  }
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::blob() {
  const std::uint64_t len = u64();
  // The length itself came from (possibly corrupt) input: bound it against
  // what is actually present before any allocation or subspan.
  if (len > remaining()) {
    std::ostringstream os;
    os << what_ << " corrupt: blob declares " << len << " byte(s) at offset "
       << pos_ << " but only " << remaining() << " remain";
    throw IoError(os.str());
  }
  return bytes(static_cast<std::size_t>(len));
}

std::vector<std::uint64_t> ByteReader::vec_u64() {
  const std::uint64_t len = u64();
  if (len > remaining() / 8) {
    std::ostringstream os;
    os << what_ << " corrupt: vector declares " << len
       << " element(s) at offset " << pos_ << " but only " << remaining()
       << " byte(s) remain";
    throw IoError(os.str());
  }
  std::vector<std::uint64_t> out(static_cast<std::size_t>(len));
  for (auto& x : out) x = u64();
  return out;
}

std::vector<std::size_t> ByteReader::vec_size() {
  const std::vector<std::uint64_t> raw = vec_u64();
  std::vector<std::size_t> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = static_cast<std::size_t>(raw[i]);
  }
  return out;
}

std::vector<std::uint8_t> ByteReader::vec_u8() {
  const auto data = blob();
  return {data.begin(), data.end()};
}

void ByteReader::expect_done() const {
  if (!done()) {
    std::ostringstream os;
    os << what_ << " corrupt: " << remaining()
       << " unexpected trailing byte(s) after offset " << pos_
       << " (state decoded by a reader of the wrong type?)";
    throw IoError(os.str());
  }
}

namespace {

constexpr std::size_t kHeaderBytes = 4 + 2 + 8 + 4;  // magic·version·len·crc

}  // namespace

std::string errno_message(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

bool write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t wrote = ::write(fd, data.data() + done, data.size() - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(wrote);
  }
  return true;
}

void fsync_parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError("cannot open directory " + dir + " to sync it: " +
                  std::strerror(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  const int saved_errno = errno;
  ::close(fd);
  if (!synced) {
    throw IoError("fsync failed on directory " + dir + ": " +
                  std::strerror(saved_errno));
  }
}

std::string unique_temp_path(const std::string& path) {
  // pid + counter is unique among *live* processes; a recycled pid can at
  // worst collide with a temp whose owner is dead, and overwriting a dead
  // process's orphan is harmless.  Deliberately no clock and no RNG: temp
  // naming must not perturb deterministic replay (detlint bans both).
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream os;
  os << path << ".tmp." << ::getpid() << "."
     << counter.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

std::size_t remove_orphan_temp_files(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw IoError("cannot open directory " + dir +
                  " to sweep orphan temp files: " + std::strerror(errno));
  }
  std::size_t removed = 0;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    const std::string name = e->d_name;
    const std::size_t tag = name.rfind(".tmp.");
    if (tag == std::string::npos) continue;
    // Parse "<pid>.<n>" after the tag; anything else is not ours.
    const std::string rest = name.substr(tag + 5);
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
      continue;
    }
    const std::string pid_part = rest.substr(0, dot);
    const std::string seq_part = rest.substr(dot + 1);
    auto all_digits = [](const std::string& s) {
      for (const char c : s) {
        if (c < '0' || c > '9') return false;
      }
      return !s.empty();
    };
    if (!all_digits(pid_part) || !all_digits(seq_part)) continue;
    const long pid = std::strtol(pid_part.c_str(), nullptr, 10);
    // kill(pid, 0) probes existence without signalling.  EPERM means the
    // pid exists but belongs to someone else — treat as live either way.
    if (pid > 0 && (::kill(static_cast<pid_t>(pid), 0) == 0 ||
                    errno != ESRCH)) {
      continue;
    }
    if (::unlinkat(::dirfd(d), e->d_name, 0) == 0) ++removed;
  }
  ::closedir(d);
  if (removed > 0) fsync_parent_directory(dir + "/.");
  return removed;
}

std::vector<std::uint8_t> encode_checksummed(
    std::uint32_t magic, std::uint16_t version,
    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u32(magic);
  w.u16(version);
  w.u64(payload.size());
  w.u32(crc32(payload));
  w.bytes(payload);
  return w.take();
}

void write_checksummed_file(const std::string& path, std::uint32_t magic,
                            std::uint16_t version,
                            std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> file =
      encode_checksummed(magic, version, payload);

  // Write-then-rename: `path` only ever names a complete, checksummed
  // file.  The temp name is per-process-unique so concurrent publishers
  // into one directory cannot truncate each other's in-flight temps.
  const std::string tmp = unique_temp_path(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) throw IoError("cannot open " + tmp + " for writing");
  // fsync before the rename: renaming a file whose *contents* are still
  // in flight would let the crash-ordered disk publish an empty file.
  const bool ok = write_all(fd, file) && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    throw IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename " + tmp + " to " + path);
  }
  // The rename lives in the parent directory's inode; sync it so a power
  // failure after this return cannot un-publish the file.
  fsync_parent_directory(path);
}

std::vector<std::uint8_t> read_checksummed_file(const std::string& path,
                                                std::uint32_t magic,
                                                std::uint16_t expect_version,
                                                const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open " + what + " file " + path);
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    raw.insert(raw.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw IoError("read error on " + what + " file " + path);

  ByteReader header(raw, what + " header (" + path + ")");
  if (raw.size() < kHeaderBytes) {
    std::ostringstream os;
    os << what << " file " << path << " truncated: " << raw.size()
       << " byte(s) is shorter than the " << kHeaderBytes << "-byte header";
    throw IoError(os.str());
  }
  const std::uint32_t got_magic = header.u32();
  if (got_magic != magic) {
    std::ostringstream os;
    os << what << " file " << path << " has wrong magic 0x" << std::hex
       << got_magic << " (expected 0x" << magic
       << ") — not a " << what << " file, or the header is corrupt";
    throw IoError(os.str());
  }
  const std::uint16_t got_version = header.u16();
  if (got_version != expect_version) {
    std::ostringstream os;
    os << what << " file " << path << " has format version " << got_version
       << " but this build reads version " << expect_version
       << " — regenerate the file with the matching build";
    throw IoError(os.str());
  }
  const std::uint64_t len = header.u64();
  const std::uint32_t stored_crc = header.u32();
  if (len != raw.size() - kHeaderBytes) {
    std::ostringstream os;
    os << what << " file " << path << " truncated or padded: header declares "
       << len << " payload byte(s) but the file carries "
       << raw.size() - kHeaderBytes;
    throw IoError(os.str());
  }
  std::vector<std::uint8_t> payload(raw.begin() + kHeaderBytes, raw.end());
  const std::uint32_t computed = crc32(payload);
  if (computed != stored_crc) {
    std::ostringstream os;
    os << what << " file " << path << " failed its integrity check: stored "
       << "CRC 0x" << std::hex << stored_crc << ", computed 0x" << computed
       << " — the payload is corrupt";
    throw IoError(os.str());
  }
  return payload;
}

}  // namespace hinet
