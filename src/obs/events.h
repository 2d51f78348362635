#pragma once

// Structured event log: a fixed-capacity lock-free ring of typed events
// for the discrete transitions metrics cannot express — a follower
// joining, a reconnect with backoff, a snapshot install, a log
// truncation, a rollback-journal recovery. Counters tell you *how many*;
// the event log tells you *when and which one*.
//
// Write side: Emit is wait-free — one fetch_add to claim a sequence
// number, then relaxed stores into the claimed slot behind a per-slot
// seqlock (start/done markers). No allocation, no mutex, bounded memory;
// detail strings are truncated to kMaxDetail bytes. Events are rare
// (discrete transitions, not per-txn), so the ring is sized in hundreds.
//
// Read side: Since(cursor) snapshots every retained event with
// seq >= cursor in sequence order, skipping slots that are mid-overwrite
// (the seqlock detects torn reads). A cursor older than the ring's
// capacity silently fast-forwards to the oldest retained event — readers
// that poll slowly lose the middle, never get garbage.
//
// Each HarmonyBC instance owns one EventLog (next to its
// MetricsRegistry); the kOpEvents wire opcode (net/wire.h) and
// `harmonyd events` surface it remotely. docs/OBSERVABILITY.md is the
// human-facing catalogue of the event codes; tools/check_docs.sh
// cross-checks the metric names below against that catalogue.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace harmony {
namespace obs {

// ---------------------------------------------------------------------------
// Replication-plane instrument names (registered by src/repl/ and
// src/net/, catalogued in docs/OBSERVABILITY.md). Defined here — in
// src/obs/, next to the txn-lifecycle names in obs/trace.h — so the
// documented catalogue and the registered instruments share one literal.

// Leader side, per peer (suffixed ".<node>" in the registry).
inline constexpr char kGaugePeerAckWatermark[] = "repl.peer.ack_watermark";
inline constexpr char kGaugePeerLagBlocks[] = "repl.peer.lag_blocks";
inline constexpr char kGaugePeerWindowInflight[] = "repl.peer.window_inflight";
// Leader side, per instance.
inline constexpr char kCounterSnapshotsSent[] = "repl.snapshots_sent";
inline constexpr char kGaugePeersConnected[] = "repl.peers_connected";
inline constexpr char kHistAckRtt[] = "repl.ack_rtt_us";
// Follower side.
inline constexpr char kHistReplApply[] = "repl.apply_us";
inline constexpr char kGaugeDurableTip[] = "repl.durable_tip";
inline constexpr char kCounterReconnects[] = "repl.reconnects";
inline constexpr char kCounterGapRejects[] = "repl.gap_rejects";
// Frontend (either role): submits bounced with a not-leader redirect.
inline constexpr char kCounterRedirects[] = "net.redirects";

// Storage plane (striped buffer pool + block-log retention; refreshed from
// the pool/store counters by HarmonyBC::CollectMetrics).
inline constexpr char kGaugePoolHitRate[] = "storage.pool.hit_rate";
inline constexpr char kGaugePoolFrames[] = "storage.pool.frames";
inline constexpr char kCounterPoolDirtyEvictions[] =
    "storage.pool.dirty_evictions";
inline constexpr char kCounterFlushPages[] = "storage.flush.pages";
inline constexpr char kCounterFlushBatches[] = "storage.flush.batches";
inline constexpr char kCounterLogTruncatedBlocks[] =
    "storage.log.truncated_blocks";
inline constexpr char kGaugeLogLiveBytes[] = "storage.log.live_bytes";
// Periodic checkpoints (recorded by the replica's checkpoint worker): time
// from the capture on the commit path to the manifest write, and the times
// a capture had to wait for the previous checkpoint to finish.
inline constexpr char kHistCheckpointUs[] = "storage.checkpoint.duration_us";
inline constexpr char kCounterCheckpointWaits[] = "storage.checkpoint.waits";

// DCC plane (ProtocolStats, refreshed by HarmonyBC::CollectMetrics).
// Every simulated transaction ends committed, CC-aborted or logic-aborted;
// repaired ones (re-simulated at commit, inter-block parallelism) are
// counted once among those three as well.
inline constexpr char kCounterDccSimulated[] = "dcc.simulated";
inline constexpr char kCounterDccCommitted[] = "dcc.committed";
inline constexpr char kCounterDccCcAborted[] = "dcc.cc_aborted";
inline constexpr char kCounterDccLogicAborted[] = "dcc.logic_aborted";
inline constexpr char kCounterDccRepaired[] = "dcc.repaired";
// Not outcomes: transactions that hit a backward dangerous structure, and
// aborts the serializability oracle proves unnecessary (counted only with
// DccConfig::enable_false_abort_oracle).
inline constexpr char kCounterDccDangerousHits[] = "dcc.dangerous_hits";
inline constexpr char kCounterDccFalseAborts[] = "dcc.false_aborts";

// Ingress plane (IngestStats, refreshed by HarmonyBC::CollectMetrics): one
// counter per IngestStats field, under the field's name.
inline constexpr char kCounterIngestSubmitted[] = "ingest.submitted";
inline constexpr char kCounterIngestAdmitted[] = "ingest.admitted";
inline constexpr char kCounterIngestDuplicates[] = "ingest.duplicates";
inline constexpr char kCounterIngestRejected[] = "ingest.rejected";
inline constexpr char kCounterIngestRateLimited[] = "ingest.rate_limited";
inline constexpr char kCounterIngestDemoted[] = "ingest.demoted";
inline constexpr char kCounterIngestBackpressured[] = "ingest.backpressured";
inline constexpr char kCounterIngestRetriesEnqueued[] =
    "ingest.retries_enqueued";
inline constexpr char kCounterIngestRetriesDropped[] = "ingest.retries_dropped";
inline constexpr char kCounterIngestSealedBlocks[] = "ingest.sealed_blocks";
inline constexpr char kCounterIngestSealedTxns[] = "ingest.sealed_txns";
inline constexpr char kCounterIngestSizeSeals[] = "ingest.size_seals";
inline constexpr char kCounterIngestDeadlineSeals[] = "ingest.deadline_seals";
inline constexpr char kCounterIngestFlushSeals[] = "ingest.flush_seals";
// sealed_lane_txns, indexed by IngestLane ({high, normal, low}).
inline constexpr const char* kCounterIngestSealedLaneTxns[] = {
    "ingest.sealed_lane_txns.high", "ingest.sealed_lane_txns.normal",
    "ingest.sealed_lane_txns.low"};
inline constexpr char kCounterIngestSealedRetryTxns[] =
    "ingest.sealed_retry_txns";

// ---------------------------------------------------------------------------

enum class EventSeverity : uint8_t {
  kInfo = 0,
  kWarn = 1,
  kError = 2,
};

/// Typed event codes. Stable numeric values: they cross the wire
/// (kOpEvents) and land in logs; renumbering is a protocol change.
enum class EventCode : uint16_t {
  kNone = 0,
  kFollowerJoin = 1,     ///< leader: peer joined (info)
  kFollowerLeave = 2,    ///< leader: peer disconnected (warn)
  kSnapshotSent = 3,     ///< leader: state snapshot shipped (info)
  kReconnect = 4,        ///< follower: dialing again after backoff (warn)
  kSnapshotInstall = 5,  ///< follower: leader snapshot installed (info)
  kGapReject = 6,        ///< follower: non-contiguous block refused (error)
  kRedirect = 7,         ///< frontend: submit bounced to the leader (info)
  // 8 was log_migrate; the value stays unassigned.
  kJournalRecover = 9,   ///< storage: rollback journal replayed (warn)
  kOverloadSeal = 10,    ///< net server: write queue overflow seal (warn)
  kCrashPointArm = 11,   ///< testing: a crash point was armed (warn)
  kLogTruncate = 12,     ///< block store: prefix retired by retention (info)
};

/// Human-readable name of an event code ("follower_join", ...). Unknown
/// codes (a newer peer's events) render as "code_<n>".
std::string EventCodeName(uint16_t code);

const char* EventSeverityName(uint8_t severity);

/// One event as read back out of the ring (and as decoded off the wire).
struct EventRecord {
  uint64_t seq = 0;      ///< monotonic per instance, starts at 0
  uint64_t time_us = 0;  ///< NowMicros() at Emit (same clock as TraceClock)
  uint8_t severity = 0;  ///< EventSeverity
  uint16_t code = 0;     ///< EventCode
  std::string detail;    ///< short free text, <= kMaxDetail bytes
};

/// Render `events` as aligned text lines / a JSON array. `base_us`
/// subtracts a reference clock (0 = absolute microseconds).
std::string RenderEventsText(const std::vector<EventRecord>& events);
std::string RenderEventsJson(const std::vector<EventRecord>& events);

/// The ring. Emit from any thread; Since from any thread.
class EventLog {
 public:
  static constexpr size_t kMaxDetail = 120;
  static constexpr size_t kDefaultCapacity = 256;

  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// Appends one event. Wait-free; detail is truncated to kMaxDetail.
  void Emit(EventSeverity severity, EventCode code, std::string_view detail);

  /// Copies every retained event with seq >= cursor (at most max_entries,
  /// oldest first) into *out and returns the cursor to pass next time
  /// (one past the last returned event; head() when nothing qualified).
  /// A cursor past-eviction fast-forwards to the oldest retained seq.
  uint64_t Since(uint64_t cursor, size_t max_entries,
                 std::vector<EventRecord>* out) const;

  /// One past the newest seq emitted so far.
  uint64_t head() const { return next_.load(std::memory_order_acquire); }

  size_t capacity() const { return cap_; }

 private:
  static constexpr size_t kDetailWords = kMaxDetail / 8;
  static_assert(kMaxDetail % 8 == 0, "detail copies in 8-byte words");

  /// Per-slot seqlock: a writer claims seq, stores start=seq, writes the
  /// payload as relaxed word stores, then publishes done=seq (release). A
  /// reader accepts a slot only when done == start == wanted seq around
  /// its payload copy — a concurrent overwrite flips start first, so a
  /// torn copy never escapes.
  struct alignas(64) Slot {
    std::atomic<uint64_t> start{~uint64_t{0}};
    std::atomic<uint64_t> done{~uint64_t{0}};
    std::atomic<uint64_t> time_us{0};
    std::atomic<uint32_t> meta{0};  ///< severity | code<<8 | detail_len<<24
    std::atomic<uint64_t> detail[kDetailWords] = {};
  };

  std::atomic<uint64_t> next_{0};
  size_t cap_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace obs
}  // namespace harmony
