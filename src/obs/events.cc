#include "obs/events.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "obs/metrics.h"

namespace harmony {
namespace obs {

std::string EventCodeName(uint16_t code) {
  switch (static_cast<EventCode>(code)) {
    case EventCode::kNone:
      return "none";
    case EventCode::kFollowerJoin:
      return "follower_join";
    case EventCode::kFollowerLeave:
      return "follower_leave";
    case EventCode::kSnapshotSent:
      return "snapshot_sent";
    case EventCode::kReconnect:
      return "reconnect";
    case EventCode::kSnapshotInstall:
      return "snapshot_install";
    case EventCode::kGapReject:
      return "gap_reject";
    case EventCode::kRedirect:
      return "redirect";
    case EventCode::kJournalRecover:
      return "journal_recover";
    case EventCode::kOverloadSeal:
      return "overload_seal";
    case EventCode::kCrashPointArm:
      return "crash_point_arm";
    case EventCode::kLogTruncate:
      return "log_truncate";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "code_%u", code);
  return buf;
}

const char* EventSeverityName(uint8_t severity) {
  switch (static_cast<EventSeverity>(severity)) {
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "sev?";
}

std::string RenderEventsText(const std::vector<EventRecord>& events) {
  std::string out;
  char line[256];
  for (const EventRecord& e : events) {
    std::snprintf(line, sizeof(line), "%6" PRIu64 "  %14" PRIu64 "  %-5s  %-16s  %s\n",
                  e.seq, e.time_us, EventSeverityName(e.severity),
                  EventCodeName(e.code).c_str(), e.detail.c_str());
    out += line;
  }
  return out;
}

std::string RenderEventsJson(const std::vector<EventRecord>& events) {
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < events.size(); i++) {
    const EventRecord& e = events[i];
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"seq\":%" PRIu64 ",\"time_us\":%" PRIu64
                  ",\"severity\":\"%s\",\"code\":\"%s\",\"detail\":\"",
                  e.seq, e.time_us, EventSeverityName(e.severity),
                  EventCodeName(e.code).c_str());
    out += buf;
    out += JsonEscape(e.detail);
    out += "\"}";
  }
  out += "]";
  return out;
}

EventLog::EventLog(size_t capacity)
    : cap_(capacity == 0 ? 1 : capacity), slots_(new Slot[cap_]) {}

void EventLog::Emit(EventSeverity severity, EventCode code,
                    std::string_view detail) {
  if (detail.size() > kMaxDetail) detail = detail.substr(0, kMaxDetail);
  const uint64_t seq = next_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[seq % cap_];
  // Seqlock write: flip start first so a concurrent reader of the old
  // occupant sees the slot change under it, then publish with done.
  s.start.store(seq, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.time_us.store(NowMicros(), std::memory_order_relaxed);
  s.meta.store(static_cast<uint32_t>(severity) |
                   (static_cast<uint32_t>(code) << 8) |
                   (static_cast<uint32_t>(detail.size()) << 24),
               std::memory_order_relaxed);
  uint64_t words[kDetailWords] = {};
  if (!detail.empty()) std::memcpy(words, detail.data(), detail.size());
  for (size_t i = 0; i < kDetailWords; i++) {
    s.detail[i].store(words[i], std::memory_order_relaxed);
  }
  s.done.store(seq, std::memory_order_release);
}

uint64_t EventLog::Since(uint64_t cursor, size_t max_entries,
                         std::vector<EventRecord>* out) const {
  out->clear();
  const uint64_t head = next_.load(std::memory_order_acquire);
  uint64_t lo = cursor;
  // Past-eviction cursors fast-forward to the oldest seq that can still
  // be in the ring. (head - cap_ may still be mid-overwrite; the seqlock
  // check below handles it in that case.)
  if (head > cap_ && lo < head - cap_) lo = head - cap_;
  for (uint64_t k = lo; k < head; k++) {
    if (out->size() >= max_entries) return k;
    const Slot& s = slots_[k % cap_];
    const uint64_t done = s.done.load(std::memory_order_acquire);
    if (done == ~uint64_t{0} || done < k) {
      return k;  // claimed but not yet published: resume here next poll
    }
    if (done > k) continue;  // evicted by wrap before we got to it
    EventRecord e;
    e.seq = k;
    e.time_us = s.time_us.load(std::memory_order_relaxed);
    const uint32_t meta = s.meta.load(std::memory_order_relaxed);
    uint64_t words[kDetailWords];
    for (size_t i = 0; i < kDetailWords; i++) {
      words[i] = s.detail[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.start.load(std::memory_order_relaxed) != k) {
      continue;  // torn: an overwrite raced the copy, the event is gone
    }
    e.severity = static_cast<uint8_t>(meta & 0xff);
    e.code = static_cast<uint16_t>((meta >> 8) & 0xffff);
    const size_t len = (meta >> 24) & 0xff;
    e.detail.assign(reinterpret_cast<const char*>(words),
                    len <= kMaxDetail ? len : kMaxDetail);
    out->push_back(std::move(e));
  }
  return head;
}

}  // namespace obs
}  // namespace harmony
