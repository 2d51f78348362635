#include "storage/state_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/events.h"
#include "testing/crash_point.h"

namespace harmony {

namespace {
// Rollback journal: magic | epoch | count | entries | magic. The epoch
// (checkpointed block id + 1, so always >= 1) ties the journal to the
// caller's commit record; rollback happens iff the epoch never committed.
// The trailing magic marks the journal complete. "HARMONY2" is the
// format's version marker.
constexpr uint64_t kJournalMagic = 0x4841524d4f4e5932ULL;  // "HARMONY2"
constexpr off_t kJournalBody = 24;  ///< entries start after the header
}  // namespace

DiskBackend::DiskBackend(const std::string& dir, const std::string& name,
                         DiskModel model, size_t pool_pages,
                         size_t pool_stripes, size_t flush_threads)
    : journal_path_(dir + "/" + name + ".journal"),
      disk_(std::make_unique<DiskManager>(dir + "/" + name + ".tbl", model)),
      pool_(std::make_unique<BufferPool>(disk_.get(), pool_pages, pool_stripes,
                                         flush_threads)),
      table_(std::make_unique<KvTable>(disk_.get(), pool_.get())) {}

Status DiskBackend::Open(uint64_t committed_epoch) {
  HARMONY_RETURN_NOT_OK(RollbackJournalIfNeeded(committed_epoch));
  return table_->RebuildIndex();
}

Status DiskBackend::Get(Key key, std::string* out) {
  return table_->Get(key, out);
}

Status DiskBackend::Put(Key key, std::string_view value,
                        std::optional<std::string>* old_value) {
  return table_->Put(key, value, old_value);
}

Status DiskBackend::Erase(Key key, std::optional<std::string>* old_value) {
  return table_->Erase(key, old_value);
}

Status DiskBackend::WriteJournal(const FlushSet& pages,
                                 uint64_t commit_epoch) {
  // Journal the on-disk pre-image of every captured page, read before the
  // flush overwrites it: count * (page_id, page image).
  if (pages.empty()) return Status::OK();
  int fd = ::open(journal_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("open journal");
  // Every write is checked: a journal cut short (ENOSPC, EFBIG) has no
  // trailer, which rollback reads as "checkpoint never started" — so the
  // checkpoint must fail here, before the flush touches a single page.
  off_t off = 0;
  auto put = [&](const void* data, size_t n) {
    if (::pwrite(fd, data, n, off) != static_cast<ssize_t>(n)) return false;
    off += static_cast<off_t>(n);
    return true;
  };
  const Status s = [&]() -> Status {
    const uint64_t count = pages.size();
    if (!put(&kJournalMagic, 8) || !put(&commit_epoch, 8) || !put(&count, 8)) {
      return Status::IOError("journal header write failed");
    }
    Page img;
    for (const CapturedPage& c : pages.pages) {
      const PageId pid = c.page_id;
      // Pre-image straight from disk, bypassing the pool and the device
      // latency model (see DiskManager::ReadPageRaw).
      HARMONY_RETURN_NOT_OK(disk_->ReadPageRaw(pid, &img));
      const uint64_t pid64 = pid;
      if (!put(&pid64, 8) || !put(img.data, kPageSize)) {
        return Status::IOError("journal write failed at page " +
                               std::to_string(pid));
      }
    }
    // Trailing magic marks the journal complete (modelled flush; see
    // DiskManager::Sync).
    if (!put(&kJournalMagic, 8)) {
      return Status::IOError("journal trailer write failed");
    }
    return Status::OK();
  }();
  ::close(fd);
  return s;
}

Status DiskBackend::RollbackJournalIfNeeded(uint64_t committed_epoch) {
  int fd = ::open(journal_path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::OK();  // no journal, nothing to do
  auto drop = [&] {
    ::close(fd);
    ::unlink(journal_path_.c_str());
    return Status::OK();
  };
  uint64_t magic = 0, epoch = 0, count = 0;
  if (::pread(fd, &magic, 8, 0) != 8 || magic != kJournalMagic ||
      ::pread(fd, &epoch, 8, 8) != 8 || ::pread(fd, &count, 8, 16) != 8) {
    return drop();  // torn/empty journal: previous checkpoint completed
  }
  const off_t tail =
      kJournalBody + static_cast<off_t>(count) * (8 + kPageSize);
  uint64_t trailer = 0;
  if (::pread(fd, &trailer, 8, tail) != 8 || trailer != kJournalMagic) {
    return drop();  // incomplete journal: checkpoint never started
  }
  // Complete journal. One whose epoch the caller's commit record covers
  // belongs to a *committed* checkpoint (the crash hit between the flush
  // and the journal's lazy retirement): keep the pages, drop the journal.
  // Only an uncommitted epoch rolls back.
  if (epoch <= committed_epoch) return drop();
  off_t off = kJournalBody;
  Page img;
  for (uint64_t i = 0; i < count; i++) {
    uint64_t pid64 = 0;
    if (::pread(fd, &pid64, 8, off) != 8 ||
        ::pread(fd, img.data, kPageSize, off + 8) !=
            static_cast<ssize_t>(kPageSize)) {
      ::close(fd);
      return Status::Corruption("journal body truncated");
    }
    if (Status s = disk_->WritePage(static_cast<PageId>(pid64), img);
        !s.ok()) {
      ::close(fd);
      return s;
    }
    off += 8 + static_cast<off_t>(kPageSize);
  }
  ::close(fd);
  HARMONY_RETURN_NOT_OK(disk_->Sync());
  ::unlink(journal_path_.c_str());
  if (events_ != nullptr) {
    events_->Emit(obs::EventSeverity::kWarn, obs::EventCode::kJournalRecover,
                  "rolled back " + std::to_string(count) +
                      " pages (epoch " + std::to_string(epoch) + ")");
  }
  return Status::OK();
}

Status DiskBackend::PersistCheckpoint(const FlushSet& pages,
                                      uint64_t commit_epoch) {
  // The journal's pre-images are the disk's current pages: only this
  // path writes table pages (no-steal), and the previous checkpoint has
  // finished, so they are the previous checkpoint's images.
  HARMONY_RETURN_NOT_OK(WriteJournal(pages, commit_epoch));
  HARMONY_CRASH_POINT("storage.checkpoint.after_journal");
  HARMONY_RETURN_NOT_OK(pool_->WriteCaptured(pages));
  HARMONY_RETURN_NOT_OK(disk_->Sync());
  if (commit_epoch == 0) {
    // Standalone mode: no external commit record to coordinate with — the
    // completed flush is the commit point, retire the journal now.
    ::unlink(journal_path_.c_str());
  }
  // Coordinated mode (commit_epoch > 0): the journal stays until the
  // caller's commit record (the replica's manifest) advances past the
  // epoch. It is retired lazily — overwritten by the next checkpoint's
  // journal, or unlinked by the next Open() once the epoch proves
  // committed. A crash anywhere in between rolls back to the pre-images,
  // which is exactly the state the commit record describes.
  return Status::OK();
}

Status MemoryBackend::Get(Key key, std::string* out) {
  Shard& s = ShardFor(key);
  std::lock_guard<SpinLock> lk(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) return Status::NotFound();
  *out = it->second;
  return Status::OK();
}

Status MemoryBackend::Put(Key key, std::string_view value,
                          std::optional<std::string>* old_value) {
  Shard& s = ShardFor(key);
  std::lock_guard<SpinLock> lk(s.mu);
  auto it = s.map.find(key);
  if (old_value != nullptr) {
    if (it != s.map.end()) {
      old_value->emplace(it->second);
    } else {
      old_value->reset();
    }
  }
  if (it != s.map.end()) {
    it->second.assign(value.data(), value.size());
  } else {
    s.map.emplace(key, std::string(value));
  }
  return Status::OK();
}

Status MemoryBackend::Erase(Key key, std::optional<std::string>* old_value) {
  Shard& s = ShardFor(key);
  std::lock_guard<SpinLock> lk(s.mu);
  auto it = s.map.find(key);
  if (old_value != nullptr) {
    if (it != s.map.end()) {
      old_value->emplace(it->second);
    } else {
      old_value->reset();
    }
  }
  if (it != s.map.end()) s.map.erase(it);
  return Status::OK();
}

size_t MemoryBackend::size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<SpinLock> lk(s.mu);
    n += s.map.size();
  }
  return n;
}

Status MemoryBackend::ScanAll(
    const std::function<void(Key, std::string_view)>& fn) {
  for (auto& s : shards_) {
    std::lock_guard<SpinLock> lk(s.mu);
    for (const auto& [k, v] : s.map) fn(k, v);
  }
  return Status::OK();
}

}  // namespace harmony
