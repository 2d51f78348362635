#include "replica/replica.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/clock.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "testing/crash_point.h"

namespace harmony {

Replica::Replica(ReplicaOptions opts) : opts_(std::move(opts)) {}

Replica::~Replica() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (commit_thread_.joinable()) commit_thread_.join();
  // The commit thread is gone, so no checkpoint can start; the worker
  // finishes the one in flight before it exits.
  {
    std::lock_guard<std::mutex> lk(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
}

Status Replica::Open() {
  // Checkpoint barriers and the checkpoint period must agree (see
  // DccConfig::barrier_every).
  opts_.dcc_cfg.barrier_every = opts_.checkpoint_every;

  // The manifest is read before storage opens: its block id is the proof of
  // which checkpoint epoch committed, which decides whether a surviving
  // rollback journal undoes a torn checkpoint (manifest behind the flush)
  // or is simply retired (crash after the flush, before the journal's lazy
  // retirement). See DiskBackend::Checkpoint.
  manifest_ = std::make_unique<CheckpointManifest>(opts_.dir + "/" +
                                                   opts_.name + ".ckpt");
  manifest_->RemoveStaleTemp();
  if (opts_.in_memory) {
    backend_ = std::make_unique<MemoryBackend>();
  } else {
    const uint64_t committed_epoch =
        manifest_->Exists() ? manifest_->Read() + 1 : 0;
    auto disk = std::make_unique<DiskBackend>(opts_.dir, opts_.name, opts_.disk,
                                              opts_.pool_pages,
                                              opts_.pool_stripes,
                                              opts_.flush_threads);
    disk->SetEventLog(opts_.events);
    HARMONY_RETURN_NOT_OK(disk->Open(committed_epoch));
    backend_ = std::move(disk);
  }
  store_ = std::make_unique<VersionedStore>(backend_.get());
  pool_ = std::make_unique<ThreadPool>(opts_.threads);
  protocol_ = MakeProtocol(opts_.dcc, store_.get(), &procs_, pool_.get(),
                           opts_.dcc_cfg);
  block_store_ = std::make_unique<BlockStore>(
      opts_.dir + "/" + opts_.name + ".chain", opts_.disk.fsync_latency_us,
      opts_.block_compression);
  block_store_->SetEventLog(opts_.events);
  block_store_->SetArchiveTruncated(opts_.archive_truncated);
  HARMONY_RETURN_NOT_OK(block_store_->Open());
  verifier_ = std::make_unique<ChainVerifier>(opts_.orderer_secret);

  if (opts_.tracer != nullptr) {
    checkpoint_us_ = opts_.tracer->registry()->GetHistogram(
        obs::kHistCheckpointUs);
  }
  ckpt_thread_ = std::thread([this] { CheckpointWorker(); });
  if (protocol_->supports_inter_block()) {
    commit_thread_ = std::thread([this] { CommitWorker(); });
  }
  return Status::OK();
}

Status Replica::LoadRow(Key key, const Value& v) {
  return backend_->Put(key, v.Encode(), nullptr);
}

void Replica::RegisterProcedure(uint32_t proc_id, std::string name,
                                ProcedureFn fn) {
  procs_.Register(proc_id, std::move(name), std::move(fn));
}

Result<BlockId> Replica::Recover() {
  WaitCheckpoint();
  const BlockId checkpointed = manifest_->Read();
  HARMONY_RETURN_NOT_OK(ReplayFrom(checkpointed));
  // A snapshot-installed follower can be checkpointed past its (possibly
  // empty) block log — the records below the snapshot base never existed
  // here. The recovered tip is whichever is further along.
  return std::max(block_store_->last_block_id(), checkpointed);
}

Status Replica::AuditLog(BlockId keep_after, std::vector<Block>* kept,
                         std::optional<Digest>* tip) {
  ChainVerifier v = ChainVerifier::ForStoredLog(opts_.orderer_secret);
  return block_store_->ForEach([&](Block&& b) -> Status {
    HARMONY_RETURN_NOT_OK(v.Verify(b));
    if (tip != nullptr) *tip = b.header.block_hash;
    if (kept != nullptr && b.header.block_id > keep_after) {
      kept->push_back(std::move(b));
    }
    return Status::OK();
  });
}

Status Replica::ReplayFrom(BlockId checkpointed) {
  // Audit the whole chain before trusting it, keeping only the blocks the
  // replay needs, then fast-forward the live verifier to the chain tip.
  std::vector<Block> blocks;
  std::optional<Digest> tip;
  HARMONY_RETURN_NOT_OK(AuditLog(checkpointed, &blocks, &tip));
  if (tip.has_value()) {
    verifier_->Reset(*tip);
  } else if (checkpointed != 0) {
    // Snapshot installed, no blocks appended since: the persisted anchor is
    // the only record of what the next block must chain from.
    Digest anchor{};
    if (ReadAnchor(&anchor)) verifier_->Reset(anchor);
  }
  if (checkpointed > block_store_->last_block_id()) {
    // Re-base the (empty) log so the next append at checkpointed+1 is legal.
    HARMONY_RETURN_NOT_OK(block_store_->ResetTail(checkpointed));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_committed_ = std::max(last_committed_, checkpointed);
    last_submitted_ = std::max(last_submitted_, checkpointed);
  }
  replaying_ = true;
  for (Block& b : blocks) {
    Status s = SubmitBlock(std::move(b));
    if (!s.ok()) {
      replaying_ = false;
      return s;
    }
  }
  Status s = Drain();
  replaying_ = false;
  return s;
}

std::string Replica::AnchorPath() const {
  return opts_.dir + "/" + opts_.name + ".anchor";
}

Status Replica::WriteAnchor(const Digest& d) const {
  const std::string tmp = AnchorPath() + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open anchor tmp");
  const uint32_t crc = Crc32(d.data(), d.size());
  const bool ok = std::fwrite(d.data(), d.size(), 1, f) == 1 &&
                  std::fwrite(&crc, 4, 1, f) == 1;
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  if (!ok) return Status::IOError("write anchor");
  if (std::rename(tmp.c_str(), AnchorPath().c_str()) != 0) {
    return Status::IOError("rename anchor");
  }
  return Status::OK();
}

bool Replica::ReadAnchor(Digest* out) const {
  FILE* f = std::fopen(AnchorPath().c_str(), "rb");
  if (f == nullptr) return false;
  uint32_t crc = 0;
  const bool ok = std::fread(out->data(), out->size(), 1, f) == 1 &&
                  std::fread(&crc, 4, 1, f) == 1 &&
                  Crc32(out->data(), out->size()) == crc;
  std::fclose(f);
  return ok;
}

Status Replica::InstallSnapshot(
    BlockId base, const Digest& tip_hash,
    const std::vector<std::pair<Key, std::string>>& rows) {
  WaitCheckpoint();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (last_submitted_ != last_committed_) {
      return Status::InvalidArgument("InstallSnapshot on a busy replica");
    }
    if (base <= last_committed_) {
      return Status::InvalidArgument(
          "InstallSnapshot base " + std::to_string(base) +
          " not ahead of local tip " + std::to_string(last_committed_));
    }
  }
  // The snapshot is the leader's *complete* state, superseding everything
  // local. A fresh follower may have loaded its genesis rows already (all
  // nodes boot from the same genesis config); a rejoining follower whose
  // leader truncated past its tip carries a whole recovered state. Either
  // way, drop it first so keys the leader has since erased don't survive
  // as stale residue and skew the state digest.
  std::vector<Key> existing;
  HARMONY_RETURN_NOT_OK(backend_->ScanAll(
      [&](Key k, std::string_view) { existing.push_back(k); }));
  for (Key k : existing) {
    HARMONY_RETURN_NOT_OK(backend_->Erase(k, nullptr));
  }
  // Retained version chains would shadow the installed rows on snapshot
  // reads; the replica is quiesced, so the chains carry nothing a future
  // simulation may still need.
  store_->Clear();
  for (const auto& [k, v] : rows) {
    HARMONY_RETURN_NOT_OK(backend_->Put(k, v, nullptr));
  }
  if (block_store_->last_block_id() < base && block_store_->num_blocks() > 0) {
    // Rejoin path: local records at or below `base` describe a history the
    // snapshot replaces. Empty the log so the rebase below is legal.
    HARMONY_RETURN_NOT_OK(block_store_->TruncateBefore(base + 1));
  }
  HARMONY_RETURN_NOT_OK(block_store_->ResetTail(base));
  verifier_->Reset(tip_hash);
  HARMONY_RETURN_NOT_OK(WriteAnchor(tip_hash));
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_committed_ = base;
    last_submitted_ = base;
  }
  // Make the installed state durable under a manifest at `base`: a restart
  // then replays only blocks after the snapshot, exactly like a checkpoint.
  HARMONY_RETURN_NOT_OK(backend_->Checkpoint(base + 1));
  return manifest_->Write(base);
}

Status Replica::ScanState(std::vector<std::pair<Key, std::string>>* out) {
  out->clear();
  return backend_->ScanAll([&](Key k, std::string_view v) {
    out->emplace_back(k, std::string(v));
  });
}

Status Replica::SubmitBlock(Block block) {
  const BlockId id = block.header.block_id;
  if (opts_.verify_blocks && !replaying_) {
    // Incremental verification against the replica's view of the chain head.
    HARMONY_RETURN_NOT_OK(verifier_->Verify(block));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!pipeline_error_.ok()) return pipeline_error_;
  }
  if (opts_.persist_blocks && !replaying_) {
    // Logical logging: persist the input block before execution (Section 4).
    // Blocks arrive in id order, so the log is in order too. On the
    // pipelined path the append runs here, before the wait for a pipeline
    // slot, so it overlaps the previous blocks' execution instead of
    // delaying this block's simulation.
    HARMONY_RETURN_NOT_OK(block_store_->Append(block));
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    last_submitted_ = id;
  }
  // Stage tracing: decided here, where replaying_ is stable (set and
  // cleared by the thread driving the replay).
  obs::TxnTracer* tracer =
      (opts_.tracer != nullptr && opts_.tracer->enabled() && !replaying_)
          ? opts_.tracer
          : nullptr;
  if (!protocol_->supports_inter_block()) {
    // Serial pipeline: simulate + commit inline, in block order.
    uint64_t t0 = tracer != nullptr ? NowMicros() : 0;
    HARMONY_RETURN_NOT_OK(protocol_->Simulate(block.batch));
    if (tracer != nullptr) {
      const uint64_t t1 = NowMicros();
      tracer->block_execute->Record(t1 - t0);
      t0 = t1;
    }
    BlockResult result;
    HARMONY_RETURN_NOT_OK(protocol_->Commit(block.batch, &result));
    if (tracer != nullptr) tracer->block_commit->Record(NowMicros() - t0);
    HARMONY_RETURN_NOT_OK(AfterCommit(block, result));
    {
      std::lock_guard<std::mutex> lk(mu_);
      last_committed_ = id;
    }
    // A Drain() may be parked on another thread (the ingest sealer commits
    // serial-protocol blocks on its own thread); wake it.
    cv_.notify_all();
    return Status::OK();
  }
  return ExecuteBlockPipelined(std::move(block));
}

Status Replica::ExecuteBlockPipelined(Block block) {
  const BlockId id = block.header.block_id;
  const BlockId lag = protocol_->snapshot_lag();
  // Barrier followers additionally need the previous block fully committed
  // (their snapshot is block id-1 and they carry no pipeline state). The
  // checkpoint at block id-1 is then captured, not necessarily durable: the
  // worker persists it while this block executes.
  const bool barrier_follower =
      opts_.checkpoint_every != 0 && id > 1 &&
      (id - 1) % opts_.checkpoint_every == 0;
  const BlockId need_committed =
      barrier_follower ? id - 1 : (id >= lag ? id - lag : 0);
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return !pipeline_error_.ok() || stop_ || last_committed_ >= need_committed;
    });
    if (!pipeline_error_.ok()) return pipeline_error_;
    if (stop_) return Status::Aborted("replica shutting down");
  }

  // Simulation runs on its own thread: consecutive blocks' simulations
  // overlap with each other and with the commit worker — a straggler in
  // block i does not detain block i+1 (Section 3.4).
  auto inflight = std::make_shared<InFlight>();
  inflight->block = std::move(block);
  inflight->tracer =
      (opts_.tracer != nullptr && opts_.tracer->enabled() && !replaying_)
          ? opts_.tracer
          : nullptr;
  inflight->sim_thread = std::thread([this, inflight] {
    const uint64_t t0 = inflight->tracer != nullptr ? NowMicros() : 0;
    inflight->sim_status = protocol_->Simulate(inflight->block.batch);
    if (inflight->tracer != nullptr) {
      inflight->tracer->block_execute->Record(NowMicros() - t0);
    }
  });
  {
    std::lock_guard<std::mutex> lk(mu_);
    commit_queue_.push(inflight);
  }
  cv_.notify_all();
  return Status::OK();
}

void Replica::CommitWorker() {
  while (true) {
    std::shared_ptr<InFlight> item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !commit_queue_.empty(); });
      if (commit_queue_.empty()) {
        if (stop_) return;
        continue;
      }
      item = commit_queue_.front();
      commit_queue_.pop();
    }
    if (item->sim_thread.joinable()) item->sim_thread.join();
    Status s = item->sim_status;
    BlockResult result;
    const uint64_t t0 = item->tracer != nullptr ? NowMicros() : 0;
    if (s.ok()) s = protocol_->Commit(item->block.batch, &result);
    if (s.ok() && item->tracer != nullptr) {
      item->tracer->block_commit->Record(NowMicros() - t0);
    }
    if (s.ok()) {
      // Callbacks and the checkpoint capture complete before the block
      // counts as committed: Drain() then implies every callback has fired,
      // and the barrier-follower wait covers the capture.
      s = AfterCommit(item->block, result);
      std::lock_guard<std::mutex> lk(mu_);
      if (s.ok()) last_committed_ = item->block.header.block_id;
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      pipeline_error_ = s;
    }
    cv_.notify_all();
  }
}

Status Replica::AfterCommit(const Block& block, const BlockResult& result) {
  const BlockId id = block.header.block_id;
  if (opts_.checkpoint_every != 0 && id % opts_.checkpoint_every == 0) {
    HARMONY_RETURN_NOT_OK(StartCheckpoint(id));
  }
  if (commit_cb_) commit_cb_(block, result);
  return Status::OK();
}

Status Replica::StartCheckpoint(BlockId id) {
  {
    std::unique_lock<std::mutex> lk(ckpt_mu_);
    if (ckpt_job_ != nullptr) {
      checkpoint_waits_.fetch_add(1, std::memory_order_relaxed);
      ckpt_cv_.wait(lk, [&] { return ckpt_job_ == nullptr; });
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    HARMONY_RETURN_NOT_OK(pipeline_error_);
  }
  // No page is mutated between this block's commit and the next one's, so
  // the copy is state@id exactly; the worker persists it from here.
  auto job = std::make_unique<CheckpointJob>();
  job->id = id;
  job->retain = opts_.log_retain_blocks > 0 && opts_.persist_blocks;
  job->start_us = NowMicros();
  job->pages = backend_->CaptureCheckpoint(/*copy=*/true);
  {
    std::lock_guard<std::mutex> lk(ckpt_mu_);
    ckpt_job_ = std::move(job);
  }
  ckpt_cv_.notify_all();
  return Status::OK();
}

Status Replica::PersistCheckpoint(const CheckpointJob& job) {
  const BlockId id = job.id;
  // Epoch id+1 keeps the journal alive until the manifest write below
  // lands; a crash between the two rolls the flush back instead of
  // leaving state@id under a manifest that says an older block — which
  // would double-apply the gap on replay.
  HARMONY_RETURN_NOT_OK(backend_->PersistCheckpoint(job.pages, id + 1));
  HARMONY_CRASH_POINT("replica.checkpoint.before_manifest");
  HARMONY_RETURN_NOT_OK(manifest_->Write(id));
  HARMONY_CRASH_POINT("replica.checkpoint.after_manifest");
  if (checkpoint_us_ != nullptr) {
    checkpoint_us_->Record(NowMicros() - job.start_us);
  }
  if (job.retain) {
    // The manifest just proved state through `id` durable; records below
    // the retention window no longer serve recovery. Keeping at least the
    // checkpoint block itself means the log is never left empty, so the
    // recovery audit can always anchor at the first retained record.
    const BlockId keep_from =
        id > opts_.log_retain_blocks ? id - opts_.log_retain_blocks + 1 : 1;
    if (keep_from > 1) {
      HARMONY_RETURN_NOT_OK(block_store_->TruncateBefore(keep_from));
    }
  }
  return Status::OK();
}

void Replica::CheckpointWorker() {
  std::unique_lock<std::mutex> lk(ckpt_mu_);
  while (true) {
    ckpt_cv_.wait(lk, [&] { return ckpt_stop_ || ckpt_job_ != nullptr; });
    if (ckpt_job_ == nullptr) return;  // stopping, nothing in flight
    const CheckpointJob& job = *ckpt_job_;
    lk.unlock();
    const Status s = PersistCheckpoint(job);
    if (!s.ok()) {
      std::lock_guard<std::mutex> elk(mu_);
      if (pipeline_error_.ok()) pipeline_error_ = s;
    }
    cv_.notify_all();
    lk.lock();
    ckpt_job_.reset();
    ckpt_cv_.notify_all();
  }
}

void Replica::WaitCheckpoint() {
  std::unique_lock<std::mutex> lk(ckpt_mu_);
  ckpt_cv_.wait(lk, [&] { return ckpt_job_ == nullptr; });
}

Status Replica::Drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return !pipeline_error_.ok() || last_committed_ >= last_submitted_;
    });
  }
  WaitCheckpoint();
  std::lock_guard<std::mutex> lk(mu_);
  return pipeline_error_;
}

Status Replica::Query(Key key, std::optional<Value>* out) {
  std::string raw;
  Status s = backend_->Get(key, &raw);
  if (s.IsNotFound()) {
    out->reset();
    return Status::OK();
  }
  HARMONY_RETURN_NOT_OK(s);
  out->emplace(Value::Decode(raw));
  return Status::OK();
}

Result<Digest> Replica::StateDigest() {
  std::vector<std::pair<Key, std::string>> rows;
  Status s = backend_->ScanAll([&](Key k, std::string_view v) {
    rows.emplace_back(k, std::string(v));
  });
  HARMONY_RETURN_NOT_OK(s);
  std::sort(rows.begin(), rows.end());
  Sha256 h;
  for (const auto& [k, v] : rows) {
    h.UpdateInt(k);
    h.Update(v);
  }
  return h.Finalize();
}

Status Replica::Checkpoint() {
  HARMONY_RETURN_NOT_OK(Drain());
  const BlockId id = last_committed();
  HARMONY_RETURN_NOT_OK(backend_->Checkpoint(id + 1));
  return manifest_->Write(id);
}

Status Replica::AuditChain() {
  return AuditLog(/*keep_after=*/0, /*kept=*/nullptr, /*tip=*/nullptr);
}

BlockId Replica::last_committed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_committed_;
}

}  // namespace harmony
