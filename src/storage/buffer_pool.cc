#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "testing/crash_point.h"

namespace harmony {

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    stripe_ = o.stripe_;
    frame_ = o.frame_;
    page_ = o.page_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) pool_->MarkDirtyFrame(stripe_, frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(stripe_, frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity, size_t stripes,
                       size_t flush_threads)
    : disk_(disk),
      capacity_(capacity == 0 ? 1 : capacity),
      flush_threads_(flush_threads == 0 ? 1 : flush_threads) {
  // Small pools collapse to fewer stripes so each shard keeps enough frames
  // for CLOCK to have real choices (and the seed tests' exact capacity
  // semantics survive: a 2-page pool is still one stripe of 2 frames).
  size_t n = std::max<size_t>(1, std::min(stripes == 0 ? 1 : stripes,
                                          capacity_ / kMinPagesPerStripe));
  stripes_.reserve(n);
  const size_t base = capacity_ / n;
  size_t rem = capacity_ % n;
  for (size_t i = 0; i < n; i++) {
    auto s = std::make_unique<Stripe>();
    s->capacity = base + (rem > 0 ? 1 : 0);
    if (rem > 0) rem--;
    s->frames.reserve(s->capacity);
    stripes_.push_back(std::move(s));
  }
  if (flush_threads_ > 1) {
    flush_pool_ = std::make_unique<ThreadPool>(flush_threads_);
  }
}

BufferPool::~BufferPool() {
  // Deliberately no flush: durability is the checkpoint's job (no-steal
  // contract). Tearing down with dirty pages == losing un-checkpointed
  // work, exactly like a crash; recovery replays the logical log.
  for (auto& s : stripes_) {
    for (Frame* f : s->frames) delete f;
  }
}

size_t BufferPool::num_frames() const {
  size_t total = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->frames.size();
  }
  return total;
}

BufferPoolStats BufferPool::Snap() const {
  BufferPoolStats out;
  for (const auto& s : stripes_) {
    out.hits += s->hits.load(std::memory_order_relaxed);
    out.misses += s->misses.load(std::memory_order_relaxed);
    out.dirty_evictions += s->dirty_evictions.load(std::memory_order_relaxed);
  }
  out.flushed_pages = flushed_pages_.load(std::memory_order_relaxed);
  out.flushes = flushes_.load(std::memory_order_relaxed);
  return out;
}

size_t BufferPool::PickVictimLocked(Stripe& s) {
  // Room to allocate a fresh frame.
  if (s.frames.size() < s.capacity) {
    s.frames.push_back(new Frame());
    return s.frames.size() - 1;
  }
  // CLOCK sweep over clean, unpinned, non-loading frames. Two full sweeps:
  // the first clears reference bits, the second takes the first candidate.
  const size_t n = s.frames.size();
  for (size_t step = 0; step < 2 * n; step++) {
    Frame& f = *s.frames[s.clock_hand];
    const size_t idx = s.clock_hand;
    s.clock_hand = (s.clock_hand + 1) % n;
    if (f.pin_count > 0 || f.loading) continue;
    if (f.dirty) continue;  // no-steal: only a checkpoint writes it back
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.page_id != kInvalidPageId) s.page_table.erase(f.page_id);
    f.page_id = kInvalidPageId;
    return idx;
  }
  // Every unpinned frame of this stripe is dirty: grow instead of stealing.
  s.dirty_evictions.fetch_add(1, std::memory_order_relaxed);
  s.frames.push_back(new Frame());
  return s.frames.size() - 1;
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  const size_t si = page_id % stripes_.size();
  Stripe& s = *stripes_[si];
  std::unique_lock<std::mutex> lk(s.mu);
  while (true) {
    auto it = s.page_table.find(page_id);
    if (it != s.page_table.end()) {
      Frame& f = *s.frames[it->second];
      if (f.loading) {
        // Another thread is reading this page from disk; wait for it.
        s.load_cv.wait(lk);
        continue;
      }
      f.pin_count++;
      f.referenced = true;
      s.hits.fetch_add(1, std::memory_order_relaxed);
      return PageGuard(this, si, it->second, &f.page);
    }
    break;
  }
  const size_t victim = PickVictimLocked(s);
  Frame& f = *s.frames[victim];
  f.page_id = page_id;
  f.pin_count = 1;
  f.loading = true;
  f.dirty = false;
  f.referenced = true;
  s.page_table[page_id] = victim;
  s.misses.fetch_add(1, std::memory_order_relaxed);
  lk.unlock();

  Status st = disk_->ReadPage(page_id, &f.page);

  lk.lock();
  f.loading = false;
  s.load_cv.notify_all();
  if (!st.ok()) {
    f.pin_count--;
    s.page_table.erase(page_id);
    f.page_id = kInvalidPageId;
    return st;
  }
  return PageGuard(this, si, victim, &f.page);
}

Result<PageGuard> BufferPool::NewPage(PageId page_id) {
  const size_t si = page_id % stripes_.size();
  Stripe& s = *stripes_[si];
  std::unique_lock<std::mutex> lk(s.mu);
  assert(s.page_table.find(page_id) == s.page_table.end());
  const size_t victim = PickVictimLocked(s);
  Frame& f = *s.frames[victim];
  f.page_id = page_id;
  f.pin_count = 1;
  f.loading = false;
  f.dirty = true;  // a new page must reach disk eventually
  f.dirty_gen = ++s.gen_clock;
  f.referenced = true;
  f.page.Zero();
  s.page_table[page_id] = victim;
  return PageGuard(this, si, victim, &f.page);
}

FlushSet BufferPool::CaptureDirty(bool copy) const {
  FlushSet set;
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    Page* images = nullptr;
    if (copy) {
      size_t n = 0;
      for (const Frame* f : sp->frames) {
        n += f->page_id != kInvalidPageId && f->dirty;
      }
      if (n == 0) continue;
      // Default-initialised: every image is overwritten below.
      set.copies.emplace_back(new Page[n]);
      images = set.copies.back().get();
    }
    for (const Frame* f : sp->frames) {
      if (f->page_id == kInvalidPageId || !f->dirty) continue;
      const Page* image = &f->page;
      if (copy) {
        std::memcpy(images->data, f->page.data, kPageSize);
        image = images++;
      }
      set.pages.push_back(CapturedPage{f->page_id, f->dirty_gen, image});
    }
  }
  return set;
}

Status BufferPool::WriteCaptured(const FlushSet& set) {
  std::lock_guard<std::mutex> flush_lk(flush_mu_);
  return WriteCapturedLocked(set);
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> flush_lk(flush_mu_);
  return WriteCapturedLocked(CaptureDirty(/*copy=*/false));
}

Status BufferPool::WriteCapturedLocked(const FlushSet& set) {
  Status first_error;
  std::mutex err_mu;
  auto flush_range = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; i++) {
      const CapturedPage& c = set.pages[i];
      Status st = disk_->WritePage(c.page_id, *c.image);
      // Between any two page write-backs the on-disk image mixes two
      // checkpoints — the window the rollback journal exists for.
      HARMONY_CRASH_POINT("storage.flush.mid");
      if (!st.ok()) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (first_error.ok()) first_error = st;
        return;
      }
      // A dirty frame is never evicted, so the page is still resident; a
      // changed generation means it was re-dirtied after the capture.
      Stripe& s = StripeFor(c.page_id);
      std::lock_guard<std::mutex> lk(s.mu);
      auto it = s.page_table.find(c.page_id);
      if (it == s.page_table.end()) continue;
      Frame& f = *s.frames[it->second];
      if (f.dirty && f.dirty_gen == c.gen) f.dirty = false;
    }
  };

  const size_t workers =
      flush_pool_ == nullptr ? 1 : std::min(flush_threads_, set.size());
  if (workers <= 1) {
    flush_range(0, set.size());
  } else {
    const size_t per = (set.size() + workers - 1) / workers;
    flush_pool_->ParallelShards(workers, [&](size_t w) {
      const size_t lo = w * per;
      flush_range(lo, std::min(set.size(), lo + per));
    });
  }
  HARMONY_RETURN_NOT_OK(first_error);
  flushed_pages_.fetch_add(set.size(), std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);

  // Shrink emergency growth: drop clean unpinned frames beyond each
  // stripe's capacity. A pinned, loading or dirty frame stops the shrink.
  for (auto& sp : stripes_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    while (sp->frames.size() > sp->capacity) {
      Frame* f = sp->frames.back();
      if (f->pin_count > 0 || f->dirty || f->loading) break;
      if (f->page_id != kInvalidPageId) sp->page_table.erase(f->page_id);
      delete f;
      sp->frames.pop_back();
    }
    if (sp->clock_hand >= sp->frames.size()) sp->clock_hand = 0;
  }
  return Status::OK();
}

std::vector<PageId> BufferPool::DirtyPageIds() const {
  std::vector<PageId> out;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lk(s->mu);
    for (const Frame* f : s->frames) {
      if (f->page_id != kInvalidPageId && f->dirty) out.push_back(f->page_id);
    }
  }
  return out;
}

void BufferPool::Unpin(size_t stripe, size_t frame) {
  Stripe& s = *stripes_[stripe];
  std::lock_guard<std::mutex> lk(s.mu);
  Frame& f = *s.frames[frame];
  assert(f.pin_count > 0);
  f.pin_count--;
}

void BufferPool::MarkDirtyFrame(size_t stripe, size_t frame) {
  Stripe& s = *stripes_[stripe];
  std::lock_guard<std::mutex> lk(s.mu);
  s.frames[frame]->dirty = true;
  s.frames[frame]->dirty_gen = ++s.gen_clock;
}

}  // namespace harmony
