// Torn-tail fuzz and writer discipline for FramedLog, the framing under
// the experiment journal, the job queue and the execution ledger.  Policy
// under test: corruption past the file header is a crash tail — the
// intact prefix survives and the rest is counted in dropped_bytes() —
// while a foreign or version-skewed header is refused with IoError.
// Every mutation must produce a typed exception or a clean salvage, never
// UB; the sanitizer CI jobs run this suite (label: robustness) to enforce
// that byte by byte.  The whole-file container under the results store
// (read_checksummed_file) is all-or-nothing instead; its missing-file
// diagnostic is pinned here too.
#include "util/framed_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace hinet {
namespace {

constexpr std::uint32_t kFileMagic = 0x31'31'31'31u;
constexpr std::uint16_t kVersion = 1;
constexpr std::uint32_t kRecordMagic = 0x32'32'32'32u;
constexpr std::size_t kHeaderBytes = 8;

std::string fresh_path(const char* tag) {
  const std::string dir = ::testing::TempDir() + "hinet_framed_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/log.bin";
}

FramedLog open_log(const std::string& path,
                   FramedLog::Access access = FramedLog::Access::kExclusive) {
  return FramedLog(path, kFileMagic, kVersion, kRecordMagic, "fuzz log",
                   access);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

/// Four records of distinct lengths and contents.
std::vector<std::vector<std::uint8_t>> sample_records() {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint8_t i = 0; i < 4; ++i) {
    out.emplace_back(static_cast<std::size_t>(8 + 4 * i),
                     static_cast<std::uint8_t>(0xa0 + i));
  }
  return out;
}

std::vector<std::uint8_t> write_sample(const std::string& path) {
  {
    FramedLog log = open_log(path);
    for (const auto& payload : sample_records()) log.append(payload);
  }
  return read_file(path);
}

/// The salvaged records are exactly a prefix of what was appended.
void expect_prefix(const FramedLog& log, const std::string& where) {
  const auto original = sample_records();
  ASSERT_LE(log.records().size(), original.size()) << where;
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    EXPECT_EQ(log.records()[i], original[i]) << where << " record " << i;
  }
}

TEST(FramedLog, BitFlipsSalvageThePrefix) {
  const std::string path = fresh_path("flip");
  const std::vector<std::uint8_t> good = write_sample(path);
  ASSERT_GT(good.size(), kHeaderBytes);

  for (std::size_t byte = kHeaderBytes; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = good;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      write_file(path, bad);
      const std::string where =
          "flip at byte " + std::to_string(byte) + " bit " +
          std::to_string(bit);
      const FramedLog salvaged = open_log(path);
      EXPECT_LT(salvaged.records().size(), 4u) << where;
      EXPECT_GT(salvaged.dropped_bytes(), 0u) << where;
      expect_prefix(salvaged, where);
    }
  }
}

TEST(FramedLog, TruncationsSalvageAPrefixThatNeverShrinks) {
  const std::string path = fresh_path("truncate");
  const std::vector<std::uint8_t> good = write_sample(path);

  std::size_t previous = 0;
  for (std::size_t len = kHeaderBytes; len <= good.size(); ++len) {
    write_file(path, {good.begin(),
                      good.begin() + static_cast<std::ptrdiff_t>(len)});
    const std::string where = "length " + std::to_string(len);
    const FramedLog salvaged = open_log(path);
    expect_prefix(salvaged, where);
    EXPECT_GE(salvaged.records().size(), previous) << where;
    previous = salvaged.records().size();
    // The writer truncated the torn tail: the file is the intact prefix.
    EXPECT_EQ(read_file(path).size(), len - salvaged.dropped_bytes())
        << where;
  }
  EXPECT_EQ(previous, 4u);
}

TEST(FramedLog, ForeignMagicAndVersionSkewAreRefused) {
  const std::string path = fresh_path("foreign");
  const std::vector<std::uint8_t> good = write_sample(path);

  std::vector<std::uint8_t> foreign = good;
  foreign[0] ^= 0xff;  // file magic
  write_file(path, foreign);
  EXPECT_THROW(open_log(path), IoError);
  EXPECT_EQ(read_file(path), foreign) << "a refused file is left untouched";

  std::vector<std::uint8_t> skew = good;
  skew[4] ^= 0xff;  // version
  write_file(path, skew);
  EXPECT_THROW(open_log(path), IoError);

  const std::string text = "this is not a log";
  write_file(path, {text.begin(), text.end()});
  EXPECT_THROW(open_log(path), IoError);

  write_file(path, {good.begin(), good.begin() + 5});  // short header
  EXPECT_THROW(open_log(path), IoError);
}

TEST(FramedLog, ExclusiveModeRefusesSecondWriterWithTypedError) {
  const std::string path = fresh_path("two_writers");
  FramedLog first = open_log(path);
  try {
    const FramedLog second = open_log(path);
    FAIL() << "second exclusive writer must be refused";
  } catch (const ConcurrentWriterError& e) {
    EXPECT_NE(std::string(e.what()).find("another writer"), std::string::npos);
  }
  // The refused writer left the holder's log intact and appendable.
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  first.append(payload);
  const FramedLog reader = open_log(path, FramedLog::Access::kReadOnly);
  ASSERT_EQ(reader.records().size(), 1u);
  EXPECT_EQ(reader.records()[0], payload);
}

TEST(FramedLog, ReadOnlyObserverIsNeverRefused) {
  const std::string path = fresh_path("observer");

  // A log never written reads as empty and is not created.
  EXPECT_TRUE(open_log(path, FramedLog::Access::kReadOnly).records().empty());
  EXPECT_FALSE(std::filesystem::exists(path));

  // A held log is still observable, and observing it never repairs it.
  const std::vector<std::uint8_t> good = write_sample(path);
  std::vector<std::uint8_t> torn = good;
  torn.pop_back();
  write_file(path, torn);
  {
    FramedLog writer = open_log(path);  // truncates the torn tail
    const FramedLog observer = open_log(path, FramedLog::Access::kReadOnly);
    EXPECT_EQ(observer.records().size(), 3u);
  }
  write_file(path, torn);
  const FramedLog observer = open_log(path, FramedLog::Access::kReadOnly);
  EXPECT_EQ(observer.records().size(), 3u);
  EXPECT_GT(observer.dropped_bytes(), 0u);
  EXPECT_EQ(read_file(path), torn) << "a reader must not truncate";
}

TEST(ChecksummedFile, MissingFileIsAnIoErrorNamingThePath) {
  const std::string path = fresh_path("missing");
  try {
    read_checksummed_file(path, kFileMagic, kVersion, "fuzz file");
    FAIL() << "missing file was accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "diagnostic does not name the path: " << e.what();
  }
}

}  // namespace
}  // namespace hinet
