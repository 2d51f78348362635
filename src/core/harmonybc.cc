#include "core/harmonybc.h"

#include <thread>

#include "common/clock.h"
#include "testing/crash_point.h"

namespace harmony {

Result<std::unique_ptr<HarmonyBC>> HarmonyBC::Open(const Options& options) {
  auto db = std::unique_ptr<HarmonyBC>(new HarmonyBC());
  db->opts_ = options;
  db->open_time_us_ = NowMicros();
  db->metrics_ = std::make_unique<obs::MetricsRegistry>();
  db->events_ = std::make_unique<obs::EventLog>();
  // Crash-point armings land in the most recently opened instance's event
  // stream (the torture child and harmonyd run one instance per process).
  testing::SetCrashPointEventLog(db->events_.get());
  db->tracer_ = std::make_unique<obs::TxnTracer>(db->metrics_.get(),
                                                 options.enable_tracing);
  db->completion_ = std::make_unique<CompletionRouter>();
  db->completion_->SetTracer(db->tracer_.get());

  ReplicaOptions ro;
  ro.dir = options.dir;
  ro.dcc = options.protocol;
  ro.dcc_cfg = options.dcc;
  ro.in_memory = options.in_memory;
  ro.disk = options.disk;
  ro.pool_pages = options.pool_pages;
  ro.pool_stripes = options.pool_stripes;
  ro.flush_threads = options.flush_threads;
  ro.log_retain_blocks = options.log_retain_blocks;
  ro.archive_truncated = options.archive_truncated;
  ro.threads = options.threads;
  ro.checkpoint_every = options.checkpoint_every;
  ro.orderer_secret = options.orderer_secret;
  ro.block_compression = options.block_compression;
  ro.tracer = db->tracer_.get();
  ro.events = db->events_.get();
  db->replica_ = std::make_unique<Replica>(ro);
  HARMONY_RETURN_NOT_OK(db->replica_->Open());

  NetworkModel net;
  db->orderer_ =
      std::make_unique<KafkaOrderer>(options.orderer_secret, net);

  AdmissionOptions ao;
  ao.rate_per_client_tps = options.admit_rate_per_client;
  ao.demote_over_rate = options.demote_over_rate;
  db->admission_ = std::make_unique<AdmissionController>(
      ao, &db->replica_->procedures());

  MempoolOptions mo;
  mo.capacity = options.mempool_capacity;
  mo.shards = options.mempool_shards;
  mo.ring_capacity = options.mempool_ring_capacity;
  mo.high_fee_threshold = options.high_fee_threshold;
  mo.lane_weights = options.lane_weights;
  db->mempool_ = std::make_unique<Mempool>(mo);

  // The commit callback (replica commit thread, block order) settles every
  // transaction's fate: committed / logic-aborted receipts resolve from
  // BlockResult::outcomes; CC aborts flow back through the mempool's retry
  // lane until max_txn_retries, then resolve as dropped. (AddRetry and the
  // completion router are thread-safe.)
  HarmonyBC* raw = db.get();
  db->replica_->SetCommitCallback(
      [raw](const Block& blk, const BlockResult& res) {
        // Replayed blocks (Recover) were settled in a previous run: their
        // receipts belong to clients of that run, and requeueing their CC
        // aborts would re-seal transactions whose retries are already in
        // the chain — a double apply.
        if (raw->recovering_.load(std::memory_order_acquire)) return;
        // Replication first (docs/REPLICATION.md): the leader fans the block
        // out to followers, a follower acks it back — in both cases the
        // block is already committed locally when the hook sees it.
        std::function<void(const Block&)> hook;
        std::function<void(BlockId, std::function<void()>)> gate;
        {
          std::lock_guard<std::mutex> lk(raw->repl_mu_);
          hook = raw->committed_hook_;
          gate = raw->commit_gate_;
        }
        if (hook) hook(blk);
        // A follower's transactions were settled by the leader: it holds no
        // client receipts for them, and requeueing its CC aborts would seal
        // a second, divergent chain — the leader's retries arrive as later
        // replicated blocks.
        if (raw->opts_.follower_mode) return;
        IngestStats* stats = raw->admission_->stats();
        const uint64_t now = NowMicros();
        bool enqueued = false;
        // Under a commit gate, committed/logic-aborted receipts wait for the
        // cluster durability decision; retries and drops are leader-local
        // and resolve inline either way.
        std::vector<std::pair<size_t, bool>> deferred;  // (txn idx, committed)
        for (size_t i = 0; i < res.outcomes.size(); i++) {
          const TxnRequest& t = blk.batch.txns[i];
          switch (res.outcomes[i]) {
            case TxnOutcome::kCommitted:
              if (gate) {
                deferred.emplace_back(i, true);
                break;
              }
              raw->completion_->Resolve(t, ReceiptOutcome::kCommitted,
                                        Status::OK(), blk.header.block_id,
                                        now);
              break;
            case TxnOutcome::kLogicAborted:
              if (gate) {
                deferred.emplace_back(i, false);
                break;
              }
              raw->completion_->Resolve(
                  t, ReceiptOutcome::kLogicAborted,
                  Status::Aborted("procedure aborted"), blk.header.block_id,
                  now);
              break;
            case TxnOutcome::kCcAborted:
              if (t.retries < raw->opts_.max_txn_retries) {
                TxnRequest retry = t;
                retry.retries++;
                // Re-entering the retry lane is a fresh admit for stage
                // attribution: queue_wait measures time *in queue* per
                // attempt, while the receipt's latency_us keeps covering
                // submit -> final resolution end to end.
                retry.trace.admit_us = now;
                retry.trace.dequeue_us = 0;
                raw->mempool_->AddRetry(std::move(retry));
                stats->retries_enqueued.fetch_add(1,
                                                  std::memory_order_relaxed);
                enqueued = true;
              } else {
                raw->dropped_.fetch_add(1, std::memory_order_relaxed);
                stats->retries_dropped.fetch_add(1,
                                                 std::memory_order_relaxed);
                raw->completion_->Resolve(
                    t, ReceiptOutcome::kDropped,
                    Status::Busy("dropped after " +
                                 std::to_string(t.retries) + " CC aborts"),
                    blk.header.block_id, now);
              }
              break;
          }
        }
        if (gate && !deferred.empty()) {
          // The closure must not capture blk (the commit pipeline recycles
          // it); copy the settled requests out. The gate may run `resolve`
          // inline (leader_only, or the watermark already covers this
          // block) or hold it until enough follower acks arrive.
          std::vector<std::pair<TxnRequest, bool>> settled;
          settled.reserve(deferred.size());
          for (const auto& [i, committed] : deferred) {
            settled.emplace_back(blk.batch.txns[i], committed);
          }
          const BlockId id = blk.header.block_id;
          gate(id, [raw, id, settled = std::move(settled)]() {
            const uint64_t rnow = NowMicros();
            for (const auto& [t, committed] : settled) {
              if (committed) {
                raw->completion_->Resolve(t, ReceiptOutcome::kCommitted,
                                          Status::OK(), id, rnow);
              } else {
                raw->completion_->Resolve(t, ReceiptOutcome::kLogicAborted,
                                          Status::Aborted("procedure aborted"),
                                          id, rnow);
              }
            }
          });
        }
        // Without this wake a retry landing in an otherwise idle pool would
        // sit until the next Submit or Sync instead of sealing on deadline.
        if (enqueued && raw->sealer_ != nullptr) raw->sealer_->Notify();
      });

  SealerOptions so;
  so.block_size = options.block_size;
  so.max_block_delay_us = options.max_block_delay_us;
  db->sealer_ = std::make_unique<BlockSealer>(
      so, db->mempool_.get(), db->orderer_.get(), db->admission_->stats(),
      [raw](Block block) { return raw->replica_->SubmitBlock(std::move(block)); },
      db->tracer_.get());
  db->sealer_->Start();
  // The legacy Submit/Sync surface rides a pass-through session (client_id
  // 0 keeps each request's own client identity).
  db->default_session_ =
      std::unique_ptr<Session>(new Session(raw, /*client_id=*/0));
  return db;
}

HarmonyBC::~HarmonyBC() {
  if (events_ != nullptr) testing::ClearCrashPointEventLog(events_.get());
  if (sealer_ != nullptr) sealer_->Stop();
  // The replica's commit thread invokes the retry/receipt callback, which
  // touches the mempool and completion router — join it (via destruction)
  // while both still exist.
  replica_.reset();
  // No commits can arrive anymore: whatever is still pending (unsealed
  // mempool remains, in-flight retries) will never resolve — fail the
  // tickets so no client Wait() outlives the database.
  if (completion_ != nullptr) {
    completion_->FailAll(Status::Aborted("HarmonyBC closed"), NowMicros());
  }
}

void HarmonyBC::SetCommittedBlockHook(std::function<void(const Block&)> hook) {
  std::lock_guard<std::mutex> lk(repl_mu_);
  committed_hook_ = std::move(hook);
}

void HarmonyBC::SetCommitGate(
    std::function<void(BlockId, std::function<void()>)> gate) {
  std::lock_guard<std::mutex> lk(repl_mu_);
  commit_gate_ = std::move(gate);
}

void HarmonyBC::FailPendingReceipts(const Status& why) {
  completion_->FailAll(why, NowMicros());
}

std::unique_ptr<Session> HarmonyBC::OpenSession(uint64_t client_id) {
  if (client_id == 0) {
    client_id = next_client_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return std::unique_ptr<Session>(new Session(this, client_id));
}

Result<BlockId> HarmonyBC::Recover() {
  // Let any block already handed to the replica settle *before* the replay
  // guard goes up: its outcomes belong to this run (receipts, retries,
  // drop accounting), not to the replay. Recover must not race Submit —
  // it is a boot-time / quiesced-ingress operation — but a deadline seal
  // from just before the call is drained here rather than dropped.
  HARMONY_RETURN_NOT_OK(replica_->Drain());
  recovering_.store(true, std::memory_order_release);
  auto tip = replica_->Recover();
  recovering_.store(false, std::memory_order_release);
  // Tickets that were in flight when Recover() was called cannot be settled
  // against the replayed state — fail them instead of letting Wait() hang.
  completion_->FailAll(Status::Aborted("interrupted by Recover()"),
                       NowMicros());
  HARMONY_RETURN_NOT_OK(tip.status());
  if (*tip == 0) {
    // First boot: make the genesis state durable before any block executes
    // (a crash before the first periodic checkpoint must not lose it).
    HARMONY_RETURN_NOT_OK(replica_->Checkpoint());
  }
  if (*tip != 0) {
    // Resume the embedded orderer from the recovered chain tip so future
    // blocks extend the same hash chain. Only the tip block matters — an
    // O(1) tail read, not an O(chain) scan.
    Block last;
    HARMONY_RETURN_NOT_OK(replica_->block_store()->ReadLast(&last));
    orderer_->ResumeFrom(last.header.block_id,
                         last.header.first_tid + last.header.txn_count,
                         last.header.block_hash);
  }
  return *tip;
}

Status HarmonyBC::SealPending() { return sealer_->Flush(); }

uint64_t HarmonyBC::uptime_us() const {
  const uint64_t now = NowMicros();
  return now > open_time_us_ ? now - open_time_us_ : 0;
}

obs::MetricsSnapshot HarmonyBC::CollectMetrics() {
  // Refresh the chain gauges at snapshot time — they are sampled state,
  // not event streams.
  tracer_->height->Set(static_cast<int64_t>(height()));
  tracer_->pending_receipts->Set(static_cast<int64_t>(pending_receipts()));
  tracer_->queue_depth->Set(static_cast<int64_t>(queue_depth()));
  // Storage engine, DCC and ingress instruments are sampled the same way:
  // the pool, the block log, the protocol and admission keep their own
  // relaxed counters; this mirrors them into the registry so one snapshot
  // carries everything. Counters advance by delta (registry counters are
  // monotonic), gauges overwrite.
  {
    auto sync = [this](const char* name, uint64_t v) {
      obs::Counter* c = metrics_->GetCounter(name);
      const uint64_t cur = c->Value();
      if (v > cur) c->Add(v - cur);
    };
    const BufferPoolStats ps = replica_->backend()->pool_stats();
    const uint64_t lookups = ps.hits + ps.misses;
    metrics_->GetGauge(obs::kGaugePoolHitRate)
        ->Set(lookups == 0
                  ? 0
                  : static_cast<int64_t>((ps.hits * 100) / lookups));
    metrics_->GetGauge(obs::kGaugePoolFrames)
        ->Set(static_cast<int64_t>(replica_->backend()->pool_frames()));
    sync(obs::kCounterPoolDirtyEvictions, ps.dirty_evictions);
    sync(obs::kCounterFlushPages, ps.flushed_pages);
    sync(obs::kCounterFlushBatches, ps.flushes);
    sync(obs::kCounterCheckpointWaits, replica_->checkpoint_waits());
    BlockStore* bs = replica_->block_store();
    sync(obs::kCounterLogTruncatedBlocks, bs->truncated_blocks());
    metrics_->GetGauge(obs::kGaugeLogLiveBytes)
        ->Set(static_cast<int64_t>(bs->live_log_bytes()));
    const ProtocolStats& dcc = stats();
    sync(obs::kCounterDccSimulated, dcc.simulated.load());
    sync(obs::kCounterDccCommitted, dcc.committed.load());
    sync(obs::kCounterDccCcAborted, dcc.cc_aborted.load());
    sync(obs::kCounterDccLogicAborted, dcc.logic_aborted.load());
    sync(obs::kCounterDccRepaired, dcc.repaired.load());
    sync(obs::kCounterDccDangerousHits, dcc.dangerous_hits.load());
    sync(obs::kCounterDccFalseAborts, dcc.false_aborts.load());
    const IngestStats& is = ingest_stats();
    sync(obs::kCounterIngestSubmitted, is.submitted.load());
    sync(obs::kCounterIngestAdmitted, is.admitted.load());
    sync(obs::kCounterIngestDuplicates, is.duplicates.load());
    sync(obs::kCounterIngestRejected, is.rejected.load());
    sync(obs::kCounterIngestRateLimited, is.rate_limited.load());
    sync(obs::kCounterIngestDemoted, is.demoted.load());
    sync(obs::kCounterIngestBackpressured, is.backpressured.load());
    sync(obs::kCounterIngestRetriesEnqueued, is.retries_enqueued.load());
    sync(obs::kCounterIngestRetriesDropped, is.retries_dropped.load());
    sync(obs::kCounterIngestSealedBlocks, is.sealed_blocks.load());
    sync(obs::kCounterIngestSealedTxns, is.sealed_txns.load());
    sync(obs::kCounterIngestSizeSeals, is.size_seals.load());
    sync(obs::kCounterIngestDeadlineSeals, is.deadline_seals.load());
    sync(obs::kCounterIngestFlushSeals, is.flush_seals.load());
    for (size_t lane = 0; lane < kNumLanes; lane++) {
      sync(obs::kCounterIngestSealedLaneTxns[lane],
           is.sealed_lane_txns[lane].load());
    }
    sync(obs::kCounterIngestSealedRetryTxns, is.sealed_retry_txns.load());
  }
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  snap.slow_txns = tracer_->SlowTxns();
  return snap;
}

std::shared_ptr<PendingTxn> HarmonyBC::SubmitWithReceipt(
    TxnRequest req, ReceiptCallback cb,
    std::shared_ptr<SessionStats> session) {
  IngestStats* stats = admission_->stats();
  stats->submitted.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now = NowMicros();
  if (req.submit_time_us == 0) req.submit_time_us = now;
  // Admit stamp for txn-lifecycle tracing: a plain store of a clock value
  // already read, so it is unconditional (see docs/OBSERVABILITY.md).
  req.trace.admit_us = now;

  // The request's identity, kept past the std::move into the mempool so
  // rejection receipts never read a moved-from req.
  TxnRequest identity;
  identity.client_id = req.client_id;
  identity.client_seq = req.client_seq;
  identity.retries = req.retries;

  // Resolves a not-(or no-longer-)registered entry as rejected.
  auto reject = [&](std::shared_ptr<PendingTxn> entry, Status why) {
    ResolvePending(entry.get(), identity, ReceiptOutcome::kRejected,
                   std::move(why), /*block_id=*/0, NowMicros());
    return entry;
  };

  // Register before the mempool sees the request: the commit path can only
  // resolve receipts it can find, and a sealed block can commit within
  // microseconds of Add().
  bool duplicate = false;
  std::shared_ptr<PendingTxn> entry = completion_->Register(
      req, std::move(cb), std::move(session), &duplicate);
  if (duplicate) {
    // The same (client_id, client_seq) is still in flight; its receipt
    // belongs to the original submission. `entry` is detached (never
    // routed) but still carries this call's callback and session stats.
    stats->duplicates.fetch_add(1, std::memory_order_relaxed);
    return reject(std::move(entry),
                  Status::InvalidArgument(
                      "duplicate transaction in flight (client " +
                      std::to_string(identity.client_id) + ", seq " +
                      std::to_string(identity.client_seq) + ")"));
  }

  // Rate limiting must run on the server's clock — submit_time_us is
  // caller-supplied, and a forged future timestamp would refill (or
  // permanently poison) the client's token bucket.
  bool demote = false;
  if (Status s = admission_->Admit(req, now, &demote); !s.ok()) {
    completion_->Discard(identity.client_id, identity.client_seq);
    return reject(std::move(entry), std::move(s));
  }

  // Demotion overrides the fee: an over-budget client cannot buy its way
  // back into the high lane mid-burst.
  Status s = demote ? mempool_->Add(std::move(req), IngestLane::kLow)
                    : mempool_->Add(std::move(req));
  if (!s.ok()) {
    if (s.IsBusy()) {
      stats->backpressured.fetch_add(1, std::memory_order_relaxed);
    } else if (s.IsInvalidArgument()) {
      // Duplicate within the mempool's dedup window (e.g. a replay of a
      // client_seq whose receipt already resolved).
      stats->duplicates.fetch_add(1, std::memory_order_relaxed);
    }
    completion_->Discard(identity.client_id, identity.client_seq);
    return reject(std::move(entry), std::move(s));
  }
  stats->admitted.fetch_add(1, std::memory_order_relaxed);
  sealer_->Notify();
  return entry;
}

std::vector<std::shared_ptr<PendingTxn>> HarmonyBC::SubmitBatchWithReceipt(
    std::vector<TxnRequest> reqs, const ReceiptCallback& cb,
    const std::shared_ptr<SessionStats>& session) {
  IngestStats* stats = admission_->stats();
  const size_t n = reqs.size();
  stats->submitted.fetch_add(n, std::memory_order_relaxed);
  const uint64_t now = NowMicros();

  std::vector<std::shared_ptr<PendingTxn>> entries(n);
  // Request identities, kept past the moves below so rejection receipts
  // never read a moved-from req (same discipline as SubmitWithReceipt).
  std::vector<TxnRequest> ids(n);
  auto reject = [&](size_t i, Status why) {
    ResolvePending(entries[i].get(), ids[i], ReceiptOutcome::kRejected,
                   std::move(why), /*block_id=*/0, NowMicros());
  };

  // Phase 1 — register + admit each request, collecting survivors (and the
  // lane admission chose for them) for the one-pass mempool enqueue.
  std::vector<size_t> live;
  std::vector<TxnRequest> to_enqueue;
  std::vector<IngestLane> lanes;
  live.reserve(n);
  to_enqueue.reserve(n);
  lanes.reserve(n);
  for (size_t i = 0; i < n; i++) {
    TxnRequest& req = reqs[i];
    if (req.submit_time_us == 0) req.submit_time_us = now;
    req.trace.admit_us = now;
    ids[i].client_id = req.client_id;
    ids[i].client_seq = req.client_seq;
    ids[i].retries = req.retries;

    bool duplicate = false;
    entries[i] = completion_->Register(req, cb, session, &duplicate);
    if (duplicate) {
      stats->duplicates.fetch_add(1, std::memory_order_relaxed);
      reject(i, Status::InvalidArgument(
                    "duplicate transaction in flight (client " +
                    std::to_string(ids[i].client_id) + ", seq " +
                    std::to_string(ids[i].client_seq) + ")"));
      continue;
    }
    bool demote = false;
    if (Status s = admission_->Admit(req, now, &demote); !s.ok()) {
      completion_->Discard(ids[i].client_id, ids[i].client_seq);
      reject(i, std::move(s));
      continue;
    }
    live.push_back(i);
    lanes.push_back(demote ? IngestLane::kLow : mempool_->LaneFor(req));
    to_enqueue.push_back(std::move(req));
  }

  // Phase 2 — single-reservation enqueue; per-request failures resolve
  // exactly like their SubmitWithReceipt equivalents.
  size_t enqueued = 0;
  if (!to_enqueue.empty()) {
    std::vector<Status> statuses;
    enqueued = mempool_->AddBatch(&to_enqueue, lanes, &statuses);
    for (size_t j = 0; j < live.size(); j++) {
      if (statuses[j].ok()) continue;
      const size_t i = live[j];
      if (statuses[j].IsBusy()) {
        stats->backpressured.fetch_add(1, std::memory_order_relaxed);
      } else if (statuses[j].IsInvalidArgument()) {
        stats->duplicates.fetch_add(1, std::memory_order_relaxed);
      }
      completion_->Discard(ids[i].client_id, ids[i].client_seq);
      reject(i, std::move(statuses[j]));
    }
  }
  if (enqueued > 0) {
    stats->admitted.fetch_add(enqueued, std::memory_order_relaxed);
    sealer_->Notify();
  }
  return entries;
}

Status HarmonyBC::Submit(TxnRequest req) {
  TxnTicket ticket = default_session_->Submit(std::move(req));
  // Rejections resolve synchronously: surface them as the admission Status
  // (source compatibility with the fire-and-forget contract). Any other
  // state — still in flight, or already terminal — means it was admitted.
  if (std::optional<TxnReceipt> r = ticket.TryGet();
      r.has_value() && r->outcome == ReceiptOutcome::kRejected) {
    return r->status;
  }
  return Status::OK();
}

Status HarmonyBC::Sync() {
  // Quiescence is completion-based, not queue-emptiness-based: every
  // admitted transaction holds a completion-router entry until its receipt
  // resolves, so "no entry older than the watermark" proves every Submit
  // that returned before this call is terminal — even while concurrent
  // Submits keep the mempool busy (the race the previous delivered-count
  // handshake could not cover).
  const uint64_t watermark = completion_->watermark();
  uint32_t round = 0;
  while (round < opts_.max_sync_rounds) {
    HARMONY_RETURN_NOT_OK(SealPending());
    HARMONY_RETURN_NOT_OK(replica_->Drain());
    if (!completion_->HasPendingBefore(watermark)) {
      return Status::OK();
    }
    // Pre-watermark work still pending with an empty pool means a racing
    // Submit holds a ticket but has not reached the mempool yet (anything
    // sealed was just drained and resolved). That gap contains no blocking
    // calls, so yield until it lands — without burning the round budget,
    // which exists to bound abort-retry cycles, not scheduler preemption.
    if (mempool_->empty()) {
      std::this_thread::yield();
      continue;
    }
    round++;
  }
  return Status::Busy(
      "transactions kept aborting after " +
      std::to_string(opts_.max_sync_rounds) + " rounds (" +
      std::to_string(dropped_.load(std::memory_order_relaxed)) +
      " dropped, " + std::to_string(queue_depth()) + " still pending)");
}

}  // namespace harmony
