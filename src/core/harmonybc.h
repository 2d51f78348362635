#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "consensus/orderer.h"
#include "core/completion.h"
#include "core/session.h"
#include "ingest/admission.h"
#include "ingest/mempool.h"
#include "ingest/sealer.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replica/replica.h"

namespace harmony {

/// Embedded single-node HarmonyBC: the public entry point for applications.
///
/// Wraps the ingress subsystem (admission -> mempool -> sealer), an ordering
/// service, a replica, and a per-transaction completion router into one
/// handle:
///
///   HarmonyBC::Options opt;
///   opt.dir = "/tmp/mychain";
///   auto db = HarmonyBC::Open(opt);
///   db->RegisterProcedure(1, "transfer", TransferFn);
///   db->Load(key, value);              // genesis state
///   db->Recover();                     // replay the chain if one exists
///
///   auto session = db->OpenSession();  // per-client handle
///   TxnTicket t = session->Submit({.proc_id = 1, .args = {{a, b, amt}}});
///   const TxnReceipt& r = t.Wait();    // committed | logic_abort |
///                                      // dropped | rejected (+ block_id,
///                                      // retries, latency_us)
///   db->Query(key, &v);
///   db->AuditChain();                  // tamper check, end to end
///
/// Sessions (core/session.h) are the production surface: every submitted
/// transaction gets an authoritative per-txn receipt, resolved from the
/// replica's commit results in block order. The legacy fire-and-forget
/// Submit/Sync pair below is kept source-compatible as a thin wrapper over
/// a default pass-through session.
///
/// Submit is thread-safe and non-blocking: transactions pass admission
/// control (procedure validation, optional per-client rate limiting), land
/// in a shard-striped bounded mempool (duplicate (client_id, client_seq)
/// pairs rejected, Status::Busy backpressure when full), and a background
/// sealer cuts blocks on size *or* deadline and pipelines them into the
/// replica. CC-aborted transactions re-enter through the mempool's retry
/// lane automatically; exhausting Options::max_txn_retries resolves the
/// receipt as dropped.
///
/// The paper-figure benches (bench/harness.cc) and perfbench drive this same
/// session pipeline; multi-node deployments replicate it with src/repl/.
class HarmonyBC {
 public:
  struct Options {
    std::string dir;
    DccKind protocol = DccKind::kHarmony;
    DccConfig dcc;
    bool in_memory = false;
    DiskModel disk = DiskModel::Ssd();
    size_t pool_pages = 4096;
    /// Buffer-pool stripes (page-table / latch shards; small pools collapse
    /// to fewer — see BufferPool).
    size_t pool_stripes = BufferPool::kDefaultStripes;
    /// Writer threads for the checkpoint's parallel group flush (1 = serial).
    size_t flush_threads = BufferPool::kDefaultFlushThreads;
    size_t threads = 8;
    size_t block_size = 25;        ///< transactions per sealed block
    size_t checkpoint_every = 10;  ///< blocks between checkpoints
    std::string orderer_secret = "orderer-secret";
    /// Block log (v4) compression for sealed-txn sections. Per-block raw
    /// fallback keeps incompressible blocks from growing; kNone stores
    /// every section raw (still a v4 log).
    Compression block_compression = Compression::kHlz;
    /// Block-log retention (docs/FORMATS.md): each checkpoint at block B
    /// truncates log records below B - log_retain_blocks + 1, bounding disk
    /// at O(retention + checkpoint period). 0 keeps the full chain.
    uint64_t log_retain_blocks = 0;
    /// Archive truncated records to <name>.chain.archive (torture / audit
    /// tooling ground truth; production leaves this off).
    bool archive_truncated = false;

    // --- ingress subsystem ---
    /// Seal a partial block once the oldest pending txn has waited this
    /// long. 0 = seal only when block_size txns are pending or on Sync().
    /// (The background sealer thread always runs; this only sets whether
    /// it enforces a deadline in addition to size-triggered seals.)
    /// Receipt-waiting clients should set a deadline: without one, a
    /// sub-block_size tail (e.g. the last few retries) seals only on Sync.
    uint64_t max_block_delay_us = 0;
    size_t mempool_capacity = 1 << 16;  ///< Busy backpressure beyond this
    size_t mempool_shards = 16;
    /// Slots per shard-lane lock-free ring; 0 derives from capacity/shards.
    size_t mempool_ring_capacity = 0;
    /// Transactions with fee >= this ride the mempool's high-priority lane;
    /// 0 disables fee-based prioritization.
    uint64_t high_fee_threshold = 0;
    /// Weighted-drain shares for the {high, normal, low} mempool lanes.
    LaneWeights lane_weights = kDefaultLaneWeights;
    /// Per-client admission rate (txns/sec); 0 = unlimited.
    double admit_rate_per_client = 0;
    /// Over-budget clients are demoted to the low lane instead of bounced
    /// with Busy (soft rate limiting; needs admit_rate_per_client > 0).
    bool demote_over_rate = false;
    uint32_t max_txn_retries = 50;  ///< CC-abort resubmissions per txn
    uint32_t max_sync_rounds = 200; ///< seal+drain rounds before Sync gives up
    /// Session-level flow control: a Session::Submit past this many
    /// unresolved receipts on the same session resolves synchronously as a
    /// Busy rejection (the network frontend maps it to ERROR{busy}).
    /// 0 = unlimited. The slot frees when the receipt resolves.
    uint64_t max_inflight_per_session = 0;
    /// Follower mode (src/repl/follower.cc): this node's blocks arrive
    /// replicated from a leader rather than from a local sealer, so the
    /// commit callback must not resolve receipts or requeue CC aborts —
    /// the leader's retries arrive in later replicated blocks, and
    /// requeueing locally would seal a divergent chain. The committed-block
    /// hook (ack path) still fires.
    bool follower_mode = false;
    /// Txn-lifecycle tracing (docs/OBSERVABILITY.md): per-stage latency
    /// histograms (queue wait, seal, execute, commit, commit lag, resolve)
    /// plus a slowest-N txn ring, all readable via CollectMetrics(). Off by
    /// default; <2% ingest throughput overhead when on (see
    /// bench/ingest_bench.cc). The metrics registry itself always exists —
    /// this only gates the per-txn clock reads and histogram records.
    bool enable_tracing = false;
  };

  /// Opens (or creates) the chain directory. Call RegisterProcedure and
  /// (on first boot) Load before Recover/Submit.
  static Result<std::unique_ptr<HarmonyBC>> Open(const Options& options);

  ~HarmonyBC();

  /// Registers a stored procedure (smart contract). Procedures are
  /// registered before traffic: admission validates proc ids against the
  /// replica's registry, which is not locked against concurrent readers.
  void RegisterProcedure(uint32_t proc_id, std::string name, ProcedureFn fn) {
    replica_->RegisterProcedure(proc_id, std::move(name), std::move(fn));
  }

  /// Loads a genesis row (before the first block only).
  Status Load(Key key, const Value& v) { return replica_->LoadRow(key, v); }

  /// Replays the persisted chain after the last checkpoint. Returns the
  /// chain tip height (0 for a fresh chain). A boot-time (or otherwise
  /// ingress-quiesced) operation: it must not race Submit. Blocks already
  /// in the replica pipeline are drained first; tickets still pending
  /// after that (unsealed mempool remains) are resolved as kDropped (their
  /// fate is unknown to the recovered state) rather than left hanging.
  Result<BlockId> Recover();

  /// Opens a per-client submission session (see core/session.h). client_id
  /// 0 auto-assigns a fresh id; pass an explicit id to resume a client's
  /// identity (its dedup and rate-limiting key). The session must not
  /// outlive this HarmonyBC.
  std::unique_ptr<Session> OpenSession(uint64_t client_id = 0);

  /// Legacy fire-and-forget admission (thread-safe): the default session
  /// submits the request and the ticket is discarded. Assigns a client_seq
  /// if the caller left it 0; keeps the caller's client_id. Returns
  /// InvalidArgument for duplicates/validation failures and Busy under
  /// backpressure or rate limiting. Use OpenSession()->Submit for
  /// per-transaction receipts.
  Status Submit(TxnRequest req);

  /// Waits until every transaction admitted before this call has reached a
  /// terminal receipt (committed, logic-aborted, or dropped), sealing
  /// partial blocks as needed. Safe under concurrent Submits: transactions
  /// admitted *after* the call may or may not be covered, but cannot stall
  /// it (completion-watermark quiescence, not queue-emptiness).
  Status Sync();

  /// Latest committed value.
  Status Query(Key key, std::optional<Value>* out) {
    return replica_->Query(key, out);
  }

  /// Verifies the whole persisted chain (hashes + signatures).
  Status AuditChain() { return replica_->AuditChain(); }

  /// SHA-256 of the full latest state (replica-consistency fingerprint).
  Result<Digest> StateDigest() { return replica_->StateDigest(); }

  const ProtocolStats& stats() const { return replica_->protocol_stats(); }
  /// Ingress counters (admitted / duplicates / backpressured / seals...).
  const IngestStats& ingest_stats() const { return *admission_->stats(); }
  /// Aggregate receipt counters for the legacy Submit/Sync surface.
  const SessionStats& default_session_stats() const {
    return default_session_->stats();
  }
  /// Transactions dropped after exhausting max_txn_retries.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// In-flight transactions holding an unresolved receipt.
  size_t pending_receipts() const { return completion_->pending(); }
  /// Current mempool depth (fresh + retry lane).
  size_t queue_depth() const {
    return mempool_->size() + mempool_->retry_size();
  }
  BlockId height() const { return replica_->last_committed(); }
  const Options& options() const { return opts_; }
  Replica* replica() { return replica_.get(); }
  Mempool* mempool() { return mempool_.get(); }
  /// This instance's metrics registry (always non-null; see
  /// Options::enable_tracing for what feeds it).
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  obs::TxnTracer* tracer() { return tracer_.get(); }
  /// This instance's structured event log (always non-null): the discrete
  /// cluster transitions — follower join/leave, reconnects, snapshot
  /// installs, log truncations, journal recoveries — that metrics cannot
  /// express. Served remotely via the wire EVENTS frame.
  obs::EventLog* events() { return events_.get(); }
  /// Microseconds since Open() returned this instance (HEALTH frames).
  uint64_t uptime_us() const;
  /// Registry snapshot with the chain gauges refreshed and the slow-txn
  /// ring attached — what `harmonyd metrics` and the wire METRICS frame
  /// serve. Safe from any thread.
  obs::MetricsSnapshot CollectMetrics();

  // --- replication hooks (src/repl/; docs/REPLICATION.md) ---------------

  /// Invoked on the commit thread, in block order, after each non-replay
  /// block commits locally. Leaders fan the block out to followers from
  /// here (the block is durable locally before any follower sees it);
  /// followers ack from here (the block is applied before the ack leaves).
  /// Pass nullptr to clear. Clear before destroying whatever the hook
  /// captures, then drain — a copy taken by an in-flight commit may still
  /// run once after the clear.
  void SetCommittedBlockHook(std::function<void(const Block&)> hook);

  /// Durability gate for client receipts: when set, committed/logic-aborted
  /// resolutions for a block are handed to `gate(block_id, resolve)` instead
  /// of running inline, and fire when the gate invokes `resolve` (the
  /// leader's quorum-ack path; see repl::Replicator::GateCommit). CC-abort
  /// retries and drops are leader-local and always resolve inline. Pass
  /// nullptr to restore inline resolution (leader_only durability).
  void SetCommitGate(
      std::function<void(BlockId, std::function<void()>)> gate);

  /// Fails every unresolved receipt (teardown path: after clearing the
  /// commit gate and dropping the replicator's pending closures, tickets
  /// gated on acks that will never arrive must not hang client Wait()s).
  void FailPendingReceipts(const Status& why);

 private:
  friend class Session;

  HarmonyBC() = default;

  Status SealPending();

  /// The single submission path (sessions and the legacy wrapper both land
  /// here): register the receipt, run admission + mempool, resolve
  /// rejections synchronously. Always returns a non-null PendingTxn.
  std::shared_ptr<PendingTxn> SubmitWithReceipt(
      TxnRequest req, ReceiptCallback cb,
      std::shared_ptr<SessionStats> session);

  /// Batch twin of SubmitWithReceipt (Session::SubmitBatch): same
  /// per-transaction semantics, but one clock read and a single-reservation
  /// Mempool::AddBatch enqueue + one sealer wake for the whole batch.
  /// Returns one (always non-null) entry per request, in order.
  std::vector<std::shared_ptr<PendingTxn>> SubmitBatchWithReceipt(
      std::vector<TxnRequest> reqs, const ReceiptCallback& cb,
      const std::shared_ptr<SessionStats>& session);

  Options opts_;
  /// Declared before everything that records into them: the sealer thread
  /// and the replica's commit thread hold raw tracer/histogram pointers
  /// until they are destroyed below.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::EventLog> events_;
  std::unique_ptr<obs::TxnTracer> tracer_;
  uint64_t open_time_us_ = 0;
  /// Declared before the replica: the commit thread resolves receipts
  /// through it until the replica is destroyed.
  std::unique_ptr<CompletionRouter> completion_;
  std::unique_ptr<Replica> replica_;
  std::unique_ptr<KafkaOrderer> orderer_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<Mempool> mempool_;
  std::unique_ptr<BlockSealer> sealer_;
  std::unique_ptr<Session> default_session_;
  std::atomic<uint64_t> next_client_id_{0};
  std::atomic<uint64_t> dropped_{0};
  /// Guards the two replication hooks; the commit callback copies them
  /// under this lock per block (blocks are coarse — the cost is noise).
  mutable std::mutex repl_mu_;
  std::function<void(const Block&)> committed_hook_;
  std::function<void(BlockId, std::function<void()>)> commit_gate_;
  /// True while Recover() replays the chain: replayed blocks' outcomes were
  /// settled in a previous run, so the commit callback must not requeue
  /// their CC aborts (double-apply) or count their drops.
  std::atomic<bool> recovering_{false};
};

}  // namespace harmony
