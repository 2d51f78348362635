#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "core/session.h"
#include "net/wire.h"

namespace harmony {
namespace net {

struct NetClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t max_frame_payload = kMaxFramePayload;
  /// Submit coalescing: > 1 buffers Submit()s and ships them as one
  /// BATCH_SUBMIT frame once this many are pending (clamped to
  /// kMaxBatchTxns) — or once the oldest buffered submit has waited
  /// batch_max_delay_us. 1 sends one SUBMIT frame per Submit(). The
  /// Submit -> TxnTicket surface is unchanged either way.
  size_t batch_max_txns = 1;
  /// Latency bound on coalescing: a partial batch is flushed once its
  /// oldest submit is this old. 0 flushes on the next Submit or Sync only.
  uint64_t batch_max_delay_us = 200;
};

/// Blocking + callback client for the HarmonyBC wire protocol — the remote
/// mirror of Session::Submit/TxnTicket:
///
///   auto client = net::NetClient::Connect({.host = "...", .port = p});
///   TxnTicket t = (*client)->Submit({.proc_id = 1, .args = {{a, b, amt}}});
///   const TxnReceipt& r = t.Wait();       // same receipt type as in-process
///
/// One TCP connection, one server-side session. Submit stamps a
/// monotonically increasing client_seq (callers may pre-set one; a seq
/// already in flight on this connection is rejected locally), encodes the
/// request with the block codec, and frames it onto the socket. A
/// background reader thread resolves tickets from RECEIPT / ERROR frames.
///
/// Receipt fidelity: outcome/status/block_id/retries arrive exactly as the
/// server resolved them. `latency_us` is rewritten to the *wire* round trip
/// (local submit -> receipt decoded) so remote callers measure what they
/// actually experienced, clock skew excluded. Callbacks run on the reader
/// thread and must not block.
///
/// If the connection drops (server close, overload eviction, corrupt
/// stream), every in-flight ticket resolves as kDropped with the close
/// reason — receipts are never silently lost; "dropped" here means "fate
/// unknown to this client", exactly like the in-process Recover()/shutdown
/// contract.
///
/// Thread-safe: Submit/Sync/Metrics may be called from any thread.
class NetClient {
 public:
  static Result<std::unique_ptr<NetClient>> Connect(
      const NetClientOptions& opts);

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  TxnTicket Submit(TxnRequest req) { return Submit(std::move(req), nullptr); }
  TxnTicket Submit(TxnRequest req, ReceiptCallback cb);

  /// Waits until every receipt for Submits that returned before this call
  /// has been delivered to this client (server-side per-connection
  /// watermark + wire round trip). False on timeout or connection loss.
  bool Sync(uint64_t timeout_us);

  /// Fetches the server's metrics registry snapshot (per-stage histograms,
  /// mirrored ingest/storage/DCC counters, slow-txn ring —
  /// docs/OBSERVABILITY.md). A server that rejects the request closes the
  /// connection; that surfaces here as the connection-loss status, never
  /// as a hang.
  Result<obs::MetricsSnapshot> Metrics(uint64_t timeout_us);

  /// Fetches the node's HEALTH self-report (role, chain position, peer
  /// count — docs/OBSERVABILITY.md). Cheap on the server; poll freely.
  Result<WireHealth> Health(uint64_t timeout_us);

  /// One kOpEvents exchange: the retained events from `cursor` on plus the
  /// cursor to pass next time (tail -f loop: feed next_cursor back in).
  struct EventsBatch {
    uint64_t next_cursor = 0;
    std::vector<obs::EventRecord> events;
  };
  Result<EventsBatch> Events(uint64_t cursor, uint64_t timeout_us);

  /// Local aggregate receipt counters (inflight included), mirroring
  /// Session::stats() for the remote session.
  const SessionStats& stats() const { return *stats_; }

  bool connected() const { return !broken_.load(std::memory_order_acquire); }

 private:
  NetClient() : stats_(std::make_shared<SessionStats>()) {}

  void ReaderLoop();
  void FlusherLoop();
  /// Sends the buffered batch now (no-op when empty). Called by Submit at
  /// the size bound, by the flusher at the delay bound, and by Sync/
  /// Metrics/the destructor so nothing they promise is still sitting local.
  void FlushBatch();
  /// Fails every pending ticket and sync/snapshot waiter with `why`.
  void BreakConnection(const Status& why);
  Status WriteFrame(Opcode op, std::string_view payload);
  void ResolveSeq(uint64_t client_seq, const TxnReceipt& receipt);

  int fd_ = -1;
  size_t max_frame_payload_ = kMaxFramePayload;
  size_t batch_max_txns_ = 1;
  uint64_t batch_max_delay_us_ = 0;
  std::shared_ptr<SessionStats> stats_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> next_sync_token_{0};
  std::atomic<bool> broken_{false};
  std::thread reader_;

  /// Coalescing buffer: EncodeTxn bytes of Submit()s not yet framed. The
  /// flusher thread enforces the delay bound; Submit enforces the size
  /// bound inline. Buffered submits are already registered in pending_, so
  /// connection loss fails them like any other in-flight ticket.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::string batch_buf_;
  uint32_t batch_count_ = 0;
  uint64_t batch_oldest_us_ = 0;
  bool flusher_stop_ = false;
  std::thread flusher_;

  std::mutex write_mu_;         ///< serializes whole-frame socket writes
  std::mutex metrics_call_mu_;  ///< one METRICS exchange at a time (no
                                ///< correlation id)
  std::mutex health_call_mu_;   ///< likewise for HEALTH
  std::mutex events_call_mu_;   ///< likewise for EVENTS

  std::mutex mu_;  ///< pending map + sync/snapshot rendezvous
  std::condition_variable cv_;
  struct PendingEntry {
    std::shared_ptr<PendingTxn> entry;
    uint64_t send_time_us = 0;
  };
  std::unordered_map<uint64_t, PendingEntry> pending_;  ///< by client_seq
  std::unordered_set<uint64_t> acked_syncs_;
  bool metrics_ready_ = false;
  bool health_ready_ = false;
  bool events_ready_ = false;
  /// Requests whose caller gave up (timeout): replies arrive in request
  /// order on the one TCP stream, so the reader discards this many before
  /// delivering one — a retry after a timeout cannot be satisfied by the
  /// previous request's stale snapshot. Tracked *per opcode*: METRICS,
  /// HEALTH, and EVENTS replies interleave in their own per-opcode request
  /// order, so an abandoned request of one opcode must never eat a fresh
  /// reply of another — one shared counter would do exactly that when a
  /// caller mixes them on one connection.
  uint32_t metrics_abandoned_ = 0;
  uint32_t health_abandoned_ = 0;
  uint32_t events_abandoned_ = 0;
  obs::MetricsSnapshot metrics_reply_;
  WireHealth health_reply_;
  EventsBatch events_reply_;
  Status broken_why_;
};

}  // namespace net
}  // namespace harmony
