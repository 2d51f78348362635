#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace harmony {

class BufferPool;

/// RAII pin on a buffer frame. While alive, the page stays in memory and can
/// be read; call MarkDirty() after mutating.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t stripe, size_t frame, Page* page)
      : pool_(pool), stripe_(stripe), frame_(frame), page_(page) {}
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  char* data() { return page_->data; }
  const char* data() const { return page_->data; }

  void MarkDirty();
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t stripe_ = 0;
  size_t frame_ = 0;
  Page* page_ = nullptr;
};

/// Point-in-time aggregate of the per-stripe counters (Snap()). A snapshot
/// taken after an operation completed is guaranteed to include it; snapshots
/// never under-report.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t dirty_evictions = 0;  ///< emergency grows (no-steal)
  uint64_t flushed_pages = 0;    ///< pages written back by WriteCaptured
  uint64_t flushes = 0;          ///< completed WriteCaptured calls
};

/// One dirty page captured by BufferPool::CaptureDirty: the image to write
/// back and the dirty generation it was captured at.
struct CapturedPage {
  PageId page_id = kInvalidPageId;
  uint64_t gen = 0;
  const Page* image = nullptr;  ///< into FlushSet::copies, or the frame's own
};

/// A checkpoint's captured dirty set.
struct FlushSet {
  std::vector<CapturedPage> pages;
  /// The copied images, one array per stripe; empty for an in-place capture.
  std::vector<std::unique_ptr<Page[]>> copies;

  size_t size() const { return pages.size(); }
  bool empty() const { return pages.empty(); }
};

/// DRAM page cache, sharded into cache-line-padded stripes. Each stripe owns
/// a disjoint slice of the page-id space (page_id % stripes) with its own
/// latch, page table, and CLOCK hand, so fetches on different stripes never
/// contend. Eviction runs per stripe.
///
/// Recovery contract (no-steal): dirty pages are never written back outside
/// a checkpoint flush. If every unpinned frame of a stripe is dirty, that
/// stripe grows temporarily instead of stealing, so the on-disk image always
/// equals the last checkpoint — the precondition for deterministic
/// logical-log replay (Section 4, "Recovery"). The flush shrinks the stripes
/// back.
///
/// The checkpoint flush has two phases. CaptureDirty() records every dirty
/// frame (id, image, dirty generation) under the stripe latches, at a point
/// where no page bytes are being mutated — the replica calls it between two
/// blocks' commits. WriteCaptured() then writes the images and clears a
/// frame's dirty bit only if its generation is unchanged since the capture.
/// A copying capture lets the write run on another thread while later
/// blocks fetch, evict and mutate pages: a page re-dirtied after the
/// capture stays dirty, unevictable, and out of the disk file until the
/// next checkpoint captures it, so no-steal holds under the concurrent
/// flush. FlushAll() runs both phases inline with an in-place capture
/// (pointers to the frames, which stay put while dirty), so a bulk load's
/// checkpoint does not need a second copy of its pages.
///
/// The write phase is a parallel group flush: the set is partitioned across
/// `flush_threads` writers over the DiskManager, turning the checkpoint
/// stall from O(dirty) serial writes into O(dirty / flush_threads).
class BufferPool {
 public:
  static constexpr size_t kDefaultStripes = 8;
  static constexpr size_t kDefaultFlushThreads = 4;
  /// Stripes below this many frames degenerate to contention without
  /// capacity; small pools collapse to fewer stripes.
  static constexpr size_t kMinPagesPerStripe = 8;

  BufferPool(DiskManager* disk, size_t capacity,
             size_t stripes = kDefaultStripes,
             size_t flush_threads = kDefaultFlushThreads);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId page_id);

  /// Pins a brand-new zeroed page (no disk read).
  Result<PageGuard> NewPage(PageId page_id);

  /// Captures every dirty frame. Fetches and evictions may race it; page
  /// bytes must not be mutated until it returns (with `copy`), or until
  /// the set has been written (without: the set points at the frames).
  FlushSet CaptureDirty(bool copy) const;

  /// Writes a captured set back, then shrinks emergency growth. Fetches
  /// and evictions may race it, and mutations too if the set is a copy.
  /// Sets must be written one at a time, in capture order: a set written
  /// after a later-captured one would put an older image on disk under a
  /// clean frame.
  Status WriteCaptured(const FlushSet& set);

  /// CaptureDirty + WriteCaptured, inline. Pages stay cached.
  Status FlushAll();

  /// Page ids currently dirty in the pool.
  std::vector<PageId> DirtyPageIds() const;

  /// Aggregates the per-stripe lock-free counters into a value snapshot.
  BufferPoolStats Snap() const;
  BufferPoolStats stats() const { return Snap(); }

  size_t capacity() const { return capacity_; }
  size_t num_stripes() const { return stripes_.size(); }
  size_t flush_threads() const { return flush_threads_; }
  size_t num_frames() const;

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool loading = false;
    bool referenced = false;
    /// Set from the stripe's generation clock by every MarkDirty (unique
    /// within the stripe, and a page never changes stripe). WriteCaptured
    /// clears `dirty` only when the generation still matches the capture,
    /// so a page re-dirtied after it was captured stays dirty for the next
    /// flush.
    uint64_t dirty_gen = 0;
  };

  /// One shard of the pool. alignas keeps the hot latch + counters of
  /// neighbouring stripes on distinct cache lines.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::condition_variable load_cv;
    std::vector<Frame*> frames;
    std::unordered_map<PageId, size_t> page_table;
    size_t clock_hand = 0;
    size_t capacity = 0;
    uint64_t gen_clock = 0;  ///< source of Frame::dirty_gen
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> dirty_evictions{0};
  };

  Stripe& StripeFor(PageId page_id) {
    return *stripes_[page_id % stripes_.size()];
  }

  Status WriteCapturedLocked(const FlushSet& set);
  void Unpin(size_t stripe, size_t frame);
  void MarkDirtyFrame(size_t stripe, size_t frame);

  /// Picks a victim frame (clean + unpinned) inside `s`, growing the stripe
  /// if all candidates are dirty. Caller holds s.mu.
  size_t PickVictimLocked(Stripe& s);

  DiskManager* disk_;
  size_t capacity_;
  size_t flush_threads_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// Writer pool for the parallel group flush (null when flush_threads<=1).
  std::unique_ptr<ThreadPool> flush_pool_;
  /// Serializes FlushAll calls, and WriteCaptured calls.
  std::mutex flush_mu_;
  std::atomic<uint64_t> flushed_pages_{0};
  std::atomic<uint64_t> flushes_{0};
};

}  // namespace harmony
