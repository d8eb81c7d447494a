#include "swifi/resultlog.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/bitops.hpp"
#include "hauberk/checkpoint.hpp"

#ifdef _WIN32
#error "resultlog truncation uses POSIX ftruncate"
#else
#include <unistd.h>
#endif

namespace hauberk::swifi {

namespace {

constexpr std::size_t kHeaderBytes = 32;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// The on-disk header, field for field: naturally aligned, so no padding.
struct RawHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint16_t record_bytes;
  ResultLogHeader h;
};
static_assert(sizeof(RawHeader) == kHeaderBytes, "header layout is part of the file format");

void write_header(std::FILE* f, const ResultLogHeader& h) {
  const RawHeader raw{kResultLogMagic, kResultLogVersion, sizeof(ResultRecord), h};
  if (std::fwrite(&raw, sizeof(raw), 1, f) != 1)
    throw std::runtime_error("resultlog: short header write");
}

bool read_header(std::FILE* f, RawHeader& out) { return std::fread(&out, sizeof(out), 1, f) == 1; }

}  // namespace

ResultLogWriter::~ResultLogWriter() {
  if (file_) std::fclose(file_);
}

void ResultLogWriter::create(const std::string& path, const ResultLogHeader& header) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) throw std::runtime_error("resultlog: cannot create '" + path + "'");
  path_ = path;
  payload_bytes_ = 0;
  payload_crc_ = 0;
  write_header(file_, header);
}

void ResultLogWriter::reopen(const std::string& path, const ResultLogHeader& header,
                             std::uint64_t payload_bytes, std::uint32_t payload_crc) {
  close();
  File file(std::fopen(path.c_str(), "rb+"));
  std::FILE* f = file.get();
  if (!f)
    throw core::CheckpointError("resultlog: cannot reopen '" + path + "' for resume");
  RawHeader raw{};
  const bool header_ok = read_header(f, raw) && raw.magic == kResultLogMagic &&
                         raw.version == kResultLogVersion &&
                         raw.record_bytes == sizeof(ResultRecord) &&
                         raw.h.shards == header.shards &&
                         raw.h.shard_index == header.shard_index &&
                         raw.h.config_digest == header.config_digest &&
                         raw.h.total_trials == header.total_trials;
  if (!header_ok)
    throw core::CheckpointError("resultlog: '" + path +
                                "' header does not match the resumed campaign");
  // Truncate away anything the checkpoint does not vouch for (appends and
  // torn writes after the last checkpoint), then verify what is left.
  if (ftruncate(fileno(f), static_cast<off_t>(kHeaderBytes + payload_bytes)) != 0)
    throw core::CheckpointError("resultlog: truncate of '" + path + "' failed");
  std::uint32_t crc = 0;
  std::uint64_t remaining = payload_bytes;
  std::fseek(f, static_cast<long>(kHeaderBytes), SEEK_SET);
  char buf[1 << 16];
  while (remaining > 0) {
    const std::size_t want =
        remaining < sizeof(buf) ? static_cast<std::size_t>(remaining) : sizeof(buf);
    if (std::fread(buf, 1, want, f) != want)
      throw core::CheckpointError("resultlog: '" + path +
                                  "' is shorter than its checkpoint claims");
    crc = common::crc32(buf, want, crc);
    remaining -= want;
  }
  if (crc != payload_crc)
    throw core::CheckpointError("resultlog: '" + path +
                                "' record stream fails the checkpointed CRC");
  std::fseek(f, 0, SEEK_END);
  file_ = file.release();
  path_ = path;
  payload_bytes_ = payload_bytes;
  payload_crc_ = payload_crc;
}

void ResultLogWriter::append(const ResultRecord& rec) {
  if (!file_) return;
  if (std::fwrite(&rec, sizeof(rec), 1, file_) != 1)
    throw std::runtime_error("resultlog: short record write to '" + path_ + "'");
  payload_crc_ = common::crc32(&rec, sizeof(rec), payload_crc_);
  payload_bytes_ += sizeof(rec);
}

void ResultLogWriter::flush() {
  if (file_ && std::fflush(file_) != 0)
    throw std::runtime_error("resultlog: flush of '" + path_ + "' failed");
}

void ResultLogWriter::close() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

OutcomeCounts ResultLogData::counts() const {
  OutcomeCounts c;
  for (const auto& r : records) c.add(static_cast<Outcome>(r.outcome));
  return c;
}

ResultLogData read_result_log(const std::string& path) {
  const File file(std::fopen(path.c_str(), "rb"));
  std::FILE* f = file.get();
  if (!f) throw std::runtime_error("resultlog: cannot open '" + path + "'");
  RawHeader raw{};
  if (!read_header(f, raw))
    throw std::runtime_error("resultlog: '" + path + "' is too short for a header");
  if (raw.magic != kResultLogMagic)
    throw std::runtime_error("resultlog: '" + path + "' has wrong magic");
  if (raw.version != kResultLogVersion || raw.record_bytes != sizeof(ResultRecord))
    throw std::runtime_error("resultlog: '" + path + "' has unsupported version " +
                             std::to_string(raw.version) + " / record size " +
                             std::to_string(raw.record_bytes));
  ResultLogData data;
  data.header = raw.h;
  ResultRecord rec;
  for (;;) {
    const std::size_t got = std::fread(&rec, 1, sizeof(rec), f);
    if (got < sizeof(rec)) {
      data.torn_tail_bytes = got;
      break;
    }
    data.records.push_back(rec);
  }
  return data;
}

ResultLogData merge_result_logs(const std::vector<ResultLogData>& shards) {
  if (shards.empty()) throw std::runtime_error("resultlog merge: no inputs");
  ResultLogData merged;
  merged.header = shards[0].header;
  merged.header.shards = 1;
  merged.header.shard_index = 0;
  std::size_t total_records = 0;
  for (const auto& s : shards) {
    if (s.header.config_digest != merged.header.config_digest ||
        s.header.total_trials != merged.header.total_trials)
      throw std::runtime_error("resultlog merge: shards come from different campaigns");
    total_records += s.records.size();
  }
  merged.records.reserve(total_records);
  for (const auto& s : shards)
    merged.records.insert(merged.records.end(), s.records.begin(), s.records.end());
  std::sort(merged.records.begin(), merged.records.end(),
            [](const ResultRecord& a, const ResultRecord& b) { return a.trial < b.trial; });
  for (std::size_t i = 0; i < merged.records.size(); ++i) {
    if (i > 0 && merged.records[i].trial == merged.records[i - 1].trial)
      throw std::runtime_error("resultlog merge: trial " +
                               std::to_string(merged.records[i].trial) + " duplicated");
  }
  return merged;
}

}  // namespace hauberk::swifi
