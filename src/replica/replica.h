#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/thread_pool.h"
#include "dcc/protocol.h"
#include "storage/state_backend.h"
#include "storage/versioned_store.h"

namespace harmony {

namespace obs {
class EventLog;
class LatencyHistogram;
class TxnTracer;
}

/// Node configuration.
struct ReplicaOptions {
  std::string dir;                ///< working directory (files live here)
  std::string name = "replica";   ///< file prefix
  DccKind dcc = DccKind::kHarmony;
  DccConfig dcc_cfg;

  bool in_memory = false;         ///< Section 5.8 memory engine
  DiskModel disk = DiskModel::Ssd();
  size_t pool_pages = 4096;       ///< buffer pool capacity (16 MiB default)
  /// Buffer-pool stripes (page table / latch shards; small pools collapse
  /// to fewer — see BufferPool).
  size_t pool_stripes = BufferPool::kDefaultStripes;
  /// Writer threads for the checkpoint's parallel group flush (1 = serial).
  size_t flush_threads = BufferPool::kDefaultFlushThreads;
  size_t threads = 8;             ///< execution worker threads

  /// Block-log retention: at each checkpoint at block B, drop log records
  /// below B - log_retain_blocks + 1 (BlockStore::TruncateBefore), bounding
  /// disk usage at O(retention + checkpoint period) instead of O(chain).
  /// Minimum effective retention is 1 block (recovery anchors the chain
  /// audit at the first retained record). 0 disables truncation.
  uint64_t log_retain_blocks = 0;
  /// Copy truncated records to <name>.chain.archive before dropping them
  /// (tooling/torture ground truth; production leaves this off).
  bool archive_truncated = false;

  size_t checkpoint_every = 10;   ///< checkpoint period p, in blocks
  std::string orderer_secret = "orderer-secret";
  bool verify_blocks = true;      ///< verify signature/hash chain on receipt
  bool persist_blocks = true;     ///< append input blocks to the logical log
  /// Codec for the block log's sealed-txn sections (log v4; per-block raw
  /// fallback when a section does not shrink).
  Compression block_compression = Compression::kHlz;
  /// Optional txn-lifecycle tracer: records per-block execute (Simulate)
  /// and commit durations. Replayed blocks (Recover) are not recorded.
  obs::TxnTracer* tracer = nullptr;
  /// Optional structured event log (obs/events.h): discrete transitions —
  /// rollback-journal recovery, block-log truncation — emit typed events
  /// here. Mirrors `tracer`; nullptr disables emission.
  obs::EventLog* events = nullptr;
};

/// Invoked (on the commit thread, in block order) after each block commits.
using CommitCallback =
    std::function<void(const Block& block, const BlockResult& result)>;

/// A HarmonyBC database node: disk-oriented storage engine + versioned
/// snapshot store + a deterministic concurrency control protocol + the
/// hash-chained logical log. Replicas receive blocks from the ordering
/// service and execute them independently; determinism guarantees replica
/// consistency without coordination.
class Replica {
 public:
  explicit Replica(ReplicaOptions opts);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Opens storage, rolls back interrupted checkpoints, and replays the
  /// logical log past the last checkpoint (crash recovery).
  Status Open();

  /// Loads initial data directly into the backend (the genesis state,
  /// "block 0"). Must precede any SubmitBlock. Call Checkpoint() after the
  /// last LoadRow to make genesis durable — recovery replays blocks on top
  /// of the latest checkpoint, so an uncheckpointed genesis is lost by a
  /// crash before the first periodic checkpoint.
  Status LoadRow(Key key, const Value& v);

  /// Crash recovery: loads the checkpoint manifest and deterministically
  /// re-executes every logged block after it. Call after Open() and
  /// procedure registration (and after genesis loading on first boot —
  /// replay is a no-op then). Returns the recovered chain tip.
  Result<BlockId> Recover();

  /// Registers a stored procedure (smart contract). All replicas of a chain
  /// must register the same set.
  void RegisterProcedure(uint32_t proc_id, std::string name, ProcedureFn fn);
  /// The registered procedures (admission validates proc ids against it).
  const ProcedureRegistry& procedures() const { return procs_; }

  /// Feeds the next block. With an inter-block-parallel protocol this
  /// returns once the block's simulation has been scheduled (the previous
  /// block may still be committing); otherwise it blocks until commit.
  /// Blocks must arrive in increasing block-id order.
  Status SubmitBlock(Block block);

  /// Waits until every submitted block has committed and the checkpoint in
  /// flight, if any, is durable.
  Status Drain();

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }

  /// Installs a leader state snapshot (src/repl/follower.cc): loads the raw
  /// backend rows, re-bases the block log and the chain verifier at block
  /// `base` (whose block hash is `tip_hash`), and checkpoints so a restart
  /// replays only blocks after the snapshot. Accepts a fresh replica or a
  /// quiesced one whose tip is behind `base` — the rejoin-after-leader-
  /// truncation path: existing state is dropped wholesale (rows, version
  /// chains, and any log records at or below `base`) before the install.
  /// InvalidArgument when blocks are mid-flight or `base` is not ahead of
  /// the local tip.
  Status InstallSnapshot(BlockId base, const Digest& tip_hash,
                         const std::vector<std::pair<Key, std::string>>& rows);

  /// Copies every backend row (key + encoded value bytes) — the snapshot
  /// source on the leader. Not a consistent cut by itself; see
  /// repl::Replicator::BuildSnapshot for the stability protocol.
  Status ScanState(std::vector<std::pair<Key, std::string>>* out);

  /// Latest committed value of a key (read-your-writes after Drain()).
  Status Query(Key key, std::optional<Value>* out);

  /// SHA-256 over the sorted latest state — the replica-consistency check.
  Result<Digest> StateDigest();

  /// Forces a checkpoint now (flush + manifest), inline.
  Status Checkpoint();

  /// Streams the whole chain back and verifies hashes + signatures.
  Status AuditChain();

  const ProtocolStats& protocol_stats() const { return protocol_->stats(); }
  StateBackend* backend() { return backend_.get(); }
  /// The logical block log (compression accounting lives here).
  BlockStore* block_store() { return block_store_.get(); }
  DccProtocol* protocol() { return protocol_.get(); }
  BlockId last_committed() const;
  const ReplicaOptions& options() const { return opts_; }
  /// Times a periodic checkpoint found the previous one still persisting
  /// and the commit path waited for it.
  uint64_t checkpoint_waits() const {
    return checkpoint_waits_.load(std::memory_order_relaxed);
  }

 private:
  /// A checkpoint captured at block `id` and not yet durable.
  struct CheckpointJob {
    BlockId id = 0;
    FlushSet pages;
    bool retain = false;    ///< apply log retention once the manifest lands
    uint64_t start_us = 0;  ///< capture start (checkpoint duration)
  };

  Status ExecuteBlockPipelined(Block block);
  void CommitWorker();
  Status AfterCommit(const Block& block, const BlockResult& result);
  /// Commit path of a periodic checkpoint: waits for the previous one,
  /// captures block `id`'s dirty pages and hands them to the worker.
  Status StartCheckpoint(BlockId id);
  /// Journal, flush, sync, manifest and log retention of a captured job.
  Status PersistCheckpoint(const CheckpointJob& job);
  void CheckpointWorker();
  /// Returns once no checkpoint is in flight.
  void WaitCheckpoint();
  Status ReplayFrom(BlockId checkpointed);
  /// One streaming pass over the block log: verifies every record (anchored
  /// by ChainVerifier::ForStoredLog), moves the blocks with id > keep_after
  /// into *kept and leaves the last record's hash in *tip (each if non-null;
  /// *tip stays unset for an empty log).
  Status AuditLog(BlockId keep_after, std::vector<Block>* kept,
                  std::optional<Digest>* tip);
  /// The chain-verifier anchor a snapshot install persists: with no block
  /// records below the snapshot base, the tip hash must survive restarts
  /// somewhere, or the next replicated block could not be chain-checked.
  std::string AnchorPath() const;
  Status WriteAnchor(const Digest& d) const;
  bool ReadAnchor(Digest* out) const;

  ReplicaOptions opts_;
  std::unique_ptr<StateBackend> backend_;
  std::unique_ptr<VersionedStore> store_;
  std::unique_ptr<ThreadPool> pool_;
  ProcedureRegistry procs_;
  std::unique_ptr<DccProtocol> protocol_;
  std::unique_ptr<BlockStore> block_store_;
  std::unique_ptr<CheckpointManifest> manifest_;
  std::unique_ptr<ChainVerifier> verifier_;
  CommitCallback commit_cb_;

  // Pipeline state (inter-block parallelism).
  struct InFlight {
    Block block;
    Status sim_status;
    std::thread sim_thread;  ///< joined by the commit worker
    /// Non-null when this block's stages should be recorded (tracing on and
    /// not a replay) — decided at submit time, where replaying_ is stable.
    obs::TxnTracer* tracer = nullptr;
  };
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::shared_ptr<InFlight>> commit_queue_;
  BlockId last_committed_ = 0;
  BlockId last_submitted_ = 0;
  Status pipeline_error_;
  bool stop_ = false;
  std::thread commit_thread_;
  bool replaying_ = false;

  // Checkpoint worker: persists at most one captured checkpoint while later
  // blocks execute. Its errors land in pipeline_error_.
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  std::unique_ptr<CheckpointJob> ckpt_job_;  ///< in flight (queued or running)
  bool ckpt_stop_ = false;
  std::thread ckpt_thread_;
  std::atomic<uint64_t> checkpoint_waits_{0};
  obs::LatencyHistogram* checkpoint_us_ = nullptr;  ///< capture -> manifest
};

}  // namespace harmony
