#include "chain/block_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "common/codec.h"
#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {

namespace {

// "HBCL" + the record codec version (kLogVersion, chain/block.h).
constexpr uint32_t kLogMagic = 0x4C434248u;
constexpr uint64_t kLogHeaderBytes = 8;

/// Reads one record (length, payload, CRC) at `off`. Returns false on a
/// short read or CRC mismatch — a torn or corrupt tail from the scanner's
/// point of view. `*rec_len` is the full on-disk record size.
bool ReadRecordAt(int fd, off_t off, std::string* payload, size_t* rec_len) {
  uint32_t len = 0;
  if (::pread(fd, &len, 4, off) != 4) return false;
  // An absurd length (flipped bits) must fail the read, not size a
  // multi-gigabyte allocation.
  if (len > (256u << 20)) return false;
  payload->assign(len, '\0');
  if (::pread(fd, payload->data(), len, off + 4) != static_cast<ssize_t>(len)) {
    return false;
  }
  uint32_t crc = 0;
  if (::pread(fd, &crc, 4, off + 4 + len) != 4) return false;
  if (Crc32(*payload) != crc) return false;
  *rec_len = 8 + static_cast<size_t>(len);
  return true;
}

}  // namespace

BlockStore::BlockStore(std::string path, uint64_t sync_latency_us,
                       Compression compression)
    : path_(std::move(path)),
      sync_latency_us_(sync_latency_us),
      compression_(compression) {}

BlockStore::~BlockStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status BlockStore::Open() {
  // A crash between TruncateBefore's temp write and its rename leaves the
  // temp behind; the original log survives and the next checkpoint simply
  // truncates again, so the temp is debris.
  ::unlink((path_ + ".truncate").c_str());
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return Status::IOError("open block log");

  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < static_cast<off_t>(kLogHeaderBytes)) {
    // Fresh log (or a crash tore the header before any record could ever
    // have been written): stamp the current format.
    if (::ftruncate(fd_, 0) != 0) return Status::IOError("truncate block log");
    uint32_t header[2] = {kLogMagic, kLogVersion};
    if (::pwrite(fd_, header, kLogHeaderBytes, 0) !=
        static_cast<ssize_t>(kLogHeaderBytes)) {
      return Status::IOError("write block log header");
    }
  } else {
    uint32_t header[2] = {0, 0};
    if (::pread(fd_, header, kLogHeaderBytes, 0) !=
        static_cast<ssize_t>(kLogHeaderBytes)) {
      return Status::IOError("read block log header");
    }
    if (header[0] != kLogMagic) {
      return Status::NotSupported("not a block log (bad magic): " + path_);
    }
    if (header[1] != kLogVersion) {
      return Status::NotSupported("block log format v" +
                                  std::to_string(header[1]) +
                                  " (this build reads only v" +
                                  std::to_string(kLogVersion) + "): " + path_);
    }
  }
  return ScanAndRepair();
}

Status BlockStore::ScanAndRepair() {
  append_offset_ = kLogHeaderBytes;
  last_block_id_ = 0;
  first_block_id_ = 0;
  num_blocks_ = 0;
  off_t off = kLogHeaderBytes;
  std::string payload;
  size_t rec_len = 0;
  while (ReadRecordAt(fd_, off, &payload, &rec_len)) {
    Block b;
    if (!BlockCodec::DecodeRecordV4(payload, &b).ok()) break;
    if (num_blocks_ == 0) first_block_id_ = b.header.block_id;
    last_block_id_ = b.header.block_id;
    last_record_offset_ = static_cast<uint64_t>(off);
    num_blocks_++;
    off += static_cast<off_t>(rec_len);
  }
  append_offset_ = static_cast<uint64_t>(off);
  // Drop any torn tail so future appends start from a clean record boundary.
  if (::ftruncate(fd_, off) != 0) return Status::IOError("truncate block log");
  return Status::OK();
}

Status BlockStore::Append(const Block& b) {
  size_t raw_section = 0;
  Compression used = Compression::kNone;
  const std::string payload =
      BlockCodec::EncodeRecordV4(b, compression_, &raw_section, &used);
  std::string rec;
  rec.reserve(payload.size() + 8);
  codec::AppendU32(&rec, static_cast<uint32_t>(payload.size()));
  rec.append(payload);
  codec::AppendU32(&rec, Crc32(payload));
  raw_bytes_.fetch_add(raw_section, std::memory_order_relaxed);
  disk_bytes_.fetch_add(rec.size(), std::memory_order_relaxed);
  if (used != Compression::kNone) {
    compressed_blocks_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t off;
  {
    // Strict ordering: block n appends only after block n-1 (fresh stores
    // have last_block_id_ == 0 and block ids start at 1).
    std::unique_lock<std::mutex> lk(mu_);
    order_cv_.wait(lk,
                   [&] { return last_block_id_ + 1 == b.header.block_id; });
    off = append_offset_;
    append_offset_ += rec.size();
    last_record_offset_ = off;
    if (num_blocks_ == 0) first_block_id_ = b.header.block_id;
    last_block_id_ = b.header.block_id;
    num_blocks_++;
    writes_in_flight_++;
  }
  HARMONY_CRASH_POINT("chain.append.before_write");
  if (testing::g_crash_points_armed.load(std::memory_order_relaxed)) {
    double frac = 1.0;
    if (testing::CrashPointTorn("chain.append.torn_write", &frac)) {
      // Persist a prefix of the record, then die: the torn tail the open
      // scan must detect and truncate.
      const size_t n = static_cast<size_t>(frac * rec.size());
      (void)::pwrite(fd_, rec.data(), n, static_cast<off_t>(off));
      testing::CrashNow();
    }
  }
  const bool wrote =
      ::pwrite(fd_, rec.data(), rec.size(), static_cast<off_t>(off)) ==
      static_cast<ssize_t>(rec.size());
  HARMONY_CRASH_POINT("chain.append.after_write");
  {
    std::lock_guard<std::mutex> lk(mu_);
    writes_in_flight_--;
  }
  if (!wrote) {
    order_cv_.notify_all();
    return Status::IOError("append block");
  }
  SimulateDelayMicros(sync_latency_us_);  // modelled group-commit flush
  // One wake-up for both waiter kinds (successor appends, ReadLast); kept
  // after the delay so consecutive flushes stay serialized as modelled.
  order_cv_.notify_all();
  return Status::OK();
}

Status BlockStore::ResetTail(BlockId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (num_blocks_ != 0) {
    if (last_block_id_ >= id) return Status::OK();
    return Status::InvalidArgument(
        "ResetTail(" + std::to_string(id) + ") over a log ending at " +
        std::to_string(last_block_id_));
  }
  // An empty log can still be positioned past `id` (everything through the
  // old tip was truncated away); never rewind.
  last_block_id_ = std::max(last_block_id_, id);
  order_cv_.notify_all();
  return Status::OK();
}

Status BlockStore::TruncateBefore(BlockId keep_from) {
  std::unique_lock<std::mutex> lk(mu_);
  // The rewrite reads the live file and swaps fd_; wait out reserved
  // records so every scanned offset is fully on disk. New appends queue on
  // mu_ for the duration.
  order_cv_.wait(lk, [&] { return writes_in_flight_ == 0; });
  if (num_blocks_ == 0 || keep_from <= first_block_id_) return Status::OK();

  const std::string tmp = path_ + ".truncate";
  int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) return Status::IOError("open truncation temp");
  uint32_t header[2] = {kLogMagic, kLogVersion};
  bool ok = ::pwrite(tfd, header, kLogHeaderBytes, 0) ==
            static_cast<ssize_t>(kLogHeaderBytes);

  // Dropped records go to the archive *before* the rename commits the
  // rewrite: a crash in between redoes the truncation and re-archives the
  // same records, which the archive reader dedups — duplicates are
  // recoverable, silently lost records are not.
  int afd = -1;
  off_t aoff = 0;
  if (archive_truncated_) {
    afd = ::open((path_ + ".archive").c_str(), O_RDWR | O_CREAT, 0644);
    if (afd < 0) {
      ::close(tfd);
      ::unlink(tmp.c_str());
      return Status::IOError("open truncation archive");
    }
    const off_t asz = ::lseek(afd, 0, SEEK_END);
    aoff = static_cast<off_t>(kLogHeaderBytes);
    if (asz < static_cast<off_t>(kLogHeaderBytes)) {
      ok = ok && ::ftruncate(afd, 0) == 0 &&
           ::pwrite(afd, header, kLogHeaderBytes, 0) ==
               static_cast<ssize_t>(kLogHeaderBytes);
    } else {
      // A crash mid-archive-append can leave a torn tail; appending after
      // it would strand everything behind the tear. Scan to the last whole
      // record and drop the rest (read-side dedup absorbs the re-archive).
      std::string apayload;
      size_t arec_len = 0;
      while (ReadRecordAt(afd, aoff, &apayload, &arec_len)) {
        aoff += static_cast<off_t>(arec_len);
      }
      ok = ok && ::ftruncate(afd, aoff) == 0;
    }
  }

  uint64_t woff = kLogHeaderBytes;
  uint64_t tip_off = 0;
  BlockId first_kept = 0;
  size_t kept = 0, dropped = 0;
  off_t off = static_cast<off_t>(kLogHeaderBytes);
  std::string payload;
  size_t rec_len = 0;
  while (ok && static_cast<uint64_t>(off) < append_offset_) {
    if (!ReadRecordAt(fd_, off, &payload, &rec_len)) {
      ok = false;
      break;
    }
    Block b;
    if (!BlockCodec::DecodeRecordV4(payload, &b).ok()) {
      ok = false;
      break;
    }
    // Re-frame the verified payload verbatim (no re-encode): the record is
    // byte-identical in its new home.
    std::string rec;
    rec.reserve(payload.size() + 8);
    codec::AppendU32(&rec, static_cast<uint32_t>(payload.size()));
    rec.append(payload);
    codec::AppendU32(&rec, Crc32(payload));
    if (b.header.block_id < keep_from) {
      if (afd >= 0) {
        ok = ::pwrite(afd, rec.data(), rec.size(), aoff) ==
             static_cast<ssize_t>(rec.size());
        aoff += static_cast<off_t>(rec.size());
      }
      dropped++;
    } else {
      if (kept == 0) first_kept = b.header.block_id;
      tip_off = woff;
      ok = ::pwrite(tfd, rec.data(), rec.size(), static_cast<off_t>(woff)) ==
           static_cast<ssize_t>(rec.size());
      woff += rec.size();
      kept++;
    }
    off += static_cast<off_t>(rec_len);
  }
  if (ok && afd >= 0) ok = ::fsync(afd) == 0;
  if (afd >= 0) ::close(afd);
  if (ok) ok = ::fsync(tfd) == 0;
  ::close(tfd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return Status::IOError("write truncated block log");
  }
  ::close(fd_);
  fd_ = -1;
  HARMONY_CRASH_POINT("chain.truncate.before_rename");
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename truncated block log");
  }
  HARMONY_CRASH_POINT("chain.truncate.after_rename");
  fd_ = ::open(path_.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return Status::IOError("reopen truncated block log");
  append_offset_ = woff;
  last_record_offset_ = tip_off;
  first_block_id_ = first_kept;  // 0 when everything was dropped
  num_blocks_ = kept;
  // last_block_id_ is untouched: the tip (and the strict-append ordering
  // anchored on it) is unaffected by retiring the prefix.
  truncated_blocks_.fetch_add(dropped, std::memory_order_relaxed);
  truncations_.fetch_add(1, std::memory_order_relaxed);
  if (events_ != nullptr) {
    events_->Emit(obs::EventSeverity::kInfo, obs::EventCode::kLogTruncate,
                  "dropped " + std::to_string(dropped) + " blocks below " +
                      std::to_string(keep_from) + ", kept " +
                      std::to_string(kept) + ": " + path_);
  }
  return Status::OK();
}

Status BlockStore::ReadArchivedBlocks(std::vector<Block>* out) {
  out->clear();
  int fd = ::open((path_ + ".archive").c_str(), O_RDONLY);
  if (fd < 0) return Status::OK();  // never archived anything
  off_t off = static_cast<off_t>(kLogHeaderBytes);
  std::string payload;
  size_t rec_len = 0;
  BlockId last_seen = 0;
  while (ReadRecordAt(fd, off, &payload, &rec_len)) {
    Block b;
    if (!BlockCodec::DecodeRecordV4(payload, &b).ok()) break;
    off += static_cast<off_t>(rec_len);
    // Crash-redo duplicates re-archive a prefix already present; the block
    // ids run monotonically within each truncation batch, so a non-
    // increasing id is a replayed record.
    if (b.header.block_id <= last_seen) continue;
    last_seen = b.header.block_id;
    out->push_back(std::move(b));
  }
  ::close(fd);
  return Status::OK();
}

Status BlockStore::ForEach(const std::function<Status(Block&&)>& fn) {
  // Snapshot (fd, end) under the lock and read through a dup: TruncateBefore
  // swaps fd_ for the rewritten file, but the dup keeps the pre-truncation
  // inode alive, so an overlapping scan sees a consistent (old) log instead
  // of a reused descriptor number.
  int fd = -1;
  uint64_t end = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    end = append_offset_;
    fd = fd_ >= 0 ? ::dup(fd_) : -1;
  }
  if (fd < 0) return Status::IOError("block log not open");
  off_t off = kLogHeaderBytes;
  std::string payload;
  size_t rec_len = 0;
  Status result;
  while (static_cast<uint64_t>(off) < end) {
    if (!ReadRecordAt(fd, off, &payload, &rec_len)) {
      result = Status::Corruption("block log record at offset " +
                                  std::to_string(off));
      break;
    }
    Block b;
    result = BlockCodec::DecodeRecordV4(payload, &b);
    if (result.ok()) result = fn(std::move(b));
    if (!result.ok()) break;
    off += static_cast<off_t>(rec_len);
  }
  ::close(fd);
  return result;
}

Status BlockStore::ReadBlocksAfter(BlockId after_block,
                                   std::vector<Block>* out) {
  out->clear();
  return ForEach([&](Block&& b) {
    if (b.header.block_id > after_block) out->push_back(std::move(b));
    return Status::OK();
  });
}

Status BlockStore::ReadLast(Block* out) {
  uint64_t off;
  int fd = -1;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (num_blocks_ == 0) return Status::NotFound("empty block log");
    // An Append publishes its offset before its pwrite lands; wait until no
    // record write is in flight so the tip we read is fully on disk.
    order_cv_.wait(lk, [&] { return writes_in_flight_ == 0; });
    off = last_record_offset_;
    fd = fd_ >= 0 ? ::dup(fd_) : -1;  // see ForEach: truncation-safe
  }
  if (fd < 0) return Status::IOError("block log not open");
  std::string payload;
  size_t rec_len = 0;
  const bool ok = ReadRecordAt(fd, static_cast<off_t>(off), &payload, &rec_len);
  ::close(fd);
  if (!ok) return Status::Corruption("block log tip record");
  return BlockCodec::DecodeRecordV4(payload, out);
}

BlockId CheckpointManifest::Read() const {
  FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return 0;
  uint64_t block_id = 0;
  uint32_t crc = 0;
  const bool ok = std::fread(&block_id, 8, 1, f) == 1 &&
                  std::fread(&crc, 4, 1, f) == 1 &&
                  Crc32(&block_id, 8) == crc;
  std::fclose(f);
  return ok ? block_id : 0;
}

Status CheckpointManifest::Write(BlockId block_id) const {
  const std::string tmp = path_ + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open manifest tmp");
  const uint32_t crc = Crc32(&block_id, 8);
  const bool ok = std::fwrite(&block_id, 8, 1, f) == 1 &&
                  std::fwrite(&crc, 4, 1, f) == 1;
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  if (!ok) return Status::IOError("write manifest");
  HARMONY_CRASH_POINT("chain.manifest.before_rename");
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename manifest");
  }
  return Status::OK();
}

bool CheckpointManifest::Exists() const {
  return ::access(path_.c_str(), F_OK) == 0;
}

void CheckpointManifest::RemoveStaleTemp() const {
  ::unlink((path_ + ".tmp").c_str());
}

}  // namespace harmony
