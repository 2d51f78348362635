#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "chain/block.h"
#include "common/status.h"

namespace harmony {

namespace obs {
class EventLog;
}

/// Append-only logical log of input blocks (Section 4, "Recovery"): because
/// execution is deterministic, persisting the *inputs* is sufficient for
/// recovery — no ARIES-style physical log.
///
/// ## File format (current: block log v4 — docs/FORMATS.md is the
/// authoritative byte-level reference)
///
/// ```
///   offset 0: u32 magic           = 0x4C434248 ("HBCL" read as bytes,
///                                   little-endian on disk)
///   offset 4: u32 format_version  = current kLogVersion (chain/block.h)
///   offset 8: records...
///
///   record:   u32 payload_len
///             payload             (BlockCodec::EncodeRecordV4 bytes:
///                                  header fields + compression envelope)
///             u32 crc32(payload)  — CRC of the payload *as stored*, i.e.
///                                   over the compressed bytes
/// ```
///
/// All integers are little-endian (the codec's native byte order).
///
/// ### Failure semantics
/// Torn tails (crash mid-append) are detected by CRC/length and truncated
/// on Open(). A file of at least 8 bytes whose header is not exactly
/// {kLogMagic, kLogV4} — an older log version, a newer one, or not a block
/// log at all — is an explicit NotSupported open error, and the file is
/// left untouched: treating an unknown log as one giant torn tail would
/// wipe the chain. A record whose CRC passes but whose compressed payload
/// fails to decompress or parse is Corruption on read (and a torn tail on
/// open).
class BlockStore {
 public:
  /// `sync_latency_us` is the modelled group-commit flush cost charged per
  /// append (the simulated device's fsync latency). The host-filesystem
  /// fsync is intentionally not issued on the hot path: the benchmarks
  /// model a device with a fixed sync latency, and a real fsync would add
  /// the host disk's uncontrolled latency to every block. A SIGKILL loses
  /// nothing the page cache already holds, which is what the torture runs
  /// check; durability across a power cut is an open item (ROADMAP.md).
  /// `compression` is the codec new blocks are stored with (per-block raw
  /// fallback; kNone writes v4 envelopes with every section raw).
  explicit BlockStore(std::string path, uint64_t sync_latency_us = 150,
                      Compression compression = Compression::kHlz);
  ~BlockStore();

  /// Optional structured event log: TruncateBefore emits a log_truncate
  /// event. nullptr disables.
  void SetEventLog(obs::EventLog* events) { events_ = events; }

  /// When enabled, TruncateBefore appends the records it drops to
  /// <path>.archive before committing the rewrite, so tooling (the torture
  /// harness, audits) can reconstruct the full chain. Crash-redo may append
  /// the same records twice; ReadArchivedBlocks dedups by block id.
  void SetArchiveTruncated(bool on) { archive_truncated_ = on; }

  /// Opens the log and scans it, truncating a torn tail if present.
  /// NotSupported for any header but the current one (see class comment).
  Status Open();

  /// Appends one block with the modelled group-commit flush. Thread-safe and
  /// strictly ordered: a call for block n+1 waits until block n is appended
  /// (pipelined replicas append from concurrent simulation threads).
  Status Append(const Block& b);

  /// Streams every record in log order to `fn`, one decoded block at a
  /// time, so memory stays at one block whatever the chain length. Stops at
  /// the first non-OK status — a bad record (Corruption) or `fn`'s own —
  /// and returns it.
  Status ForEach(const std::function<Status(Block&&)>& fn);

  /// Reads every block with id > after_block (recovery replay source).
  Status ReadBlocksAfter(BlockId after_block, std::vector<Block>* out);

  /// Re-bases an *empty* log so the next Append may be block id+1 — the
  /// snapshot-install path (src/repl/follower.cc): a follower that installs
  /// state as of block `id` has no records below it and never will. A log
  /// that already holds blocks through `id` is a no-op; a non-empty log
  /// behind `id` is InvalidArgument (appending past a gap would wedge the
  /// strict-ordering wait forever and hide missing records).
  Status ResetTail(BlockId id);

  /// Reads the whole chain (audit).
  Status ReadAll(std::vector<Block>* out) { return ReadBlocksAfter(0, out); }

  /// Drops every record with block_id < keep_from — the checkpoint-anchored
  /// retention path: once the manifest proves state through block B durable,
  /// records below the retention window are dead weight for recovery.
  /// Rewrites the log via write-temp (<path>.truncate) + rename: a SIGKILL
  /// anywhere yields either the old log or the new one, never a torn mix. Waits for in-flight
  /// appends; the chain tip and last_block_id() are unchanged. No-op when
  /// nothing falls below keep_from.
  Status TruncateBefore(BlockId keep_from);

  /// Reads <path>.archive (see SetArchiveTruncated): every record ever
  /// truncated out of the live log, deduped by block id and tolerant of a
  /// torn tail. OK with an empty vector when no archive exists.
  Status ReadArchivedBlocks(std::vector<Block>* out);

  /// Reads only the chain tip (the highest-id block) in O(1) I/O — the open
  /// scan remembers the last record's offset. NotFound on an empty log.
  /// Safe against concurrent Append: waits for in-flight record writes.
  Status ReadLast(Block* out);

  /// Read under the log's mutex: pipelined appends advance the tip from
  /// simulation threads while other threads (the net frontend) poll it.
  BlockId last_block_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_block_id_;
  }
  /// Lowest block id still present in the live log; 0 when the log is
  /// empty. A value > 1 means older records were truncated (or the log was
  /// rebased by a snapshot install) — a joiner behind first_block_id() - 1
  /// cannot be served by streaming and needs a snapshot.
  BlockId first_block_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_block_id_;
  }
  size_t num_blocks() const {
    std::lock_guard<std::mutex> lk(mu_);
    return num_blocks_;
  }

  // --- truncation accounting (relaxed, monotonic) -----------------------
  /// Records dropped from the live log across every TruncateBefore.
  uint64_t truncated_blocks() const {
    return truncated_blocks_.load(std::memory_order_relaxed);
  }
  /// Completed TruncateBefore rewrites (no-ops excluded).
  uint64_t truncations() const {
    return truncations_.load(std::memory_order_relaxed);
  }
  /// Current live-log size in bytes (header + retained records).
  uint64_t live_log_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return append_offset_;
  }

  // --- compression accounting (relaxed, monotonic; bench/ingest_bench.cc
  // reports compressed-vs-raw bytes per block from these) ---------------
  /// Uncompressed txn-section bytes across every Append on this handle.
  uint64_t appended_raw_bytes() const {
    return raw_bytes_.load(std::memory_order_relaxed);
  }
  /// Record bytes actually written (framing + envelope + stored section).
  uint64_t appended_disk_bytes() const {
    return disk_bytes_.load(std::memory_order_relaxed);
  }
  /// Appends whose section the codec actually shrank (vs raw fallback).
  uint64_t compressed_blocks() const {
    return compressed_blocks_.load(std::memory_order_relaxed);
  }

 private:
  Status ScanAndRepair();

  std::string path_;
  uint64_t sync_latency_us_;
  Compression compression_;
  obs::EventLog* events_ = nullptr;
  bool archive_truncated_ = false;
  std::atomic<uint64_t> raw_bytes_{0};
  std::atomic<uint64_t> disk_bytes_{0};
  std::atomic<uint64_t> compressed_blocks_{0};
  std::atomic<uint64_t> truncated_blocks_{0};
  std::atomic<uint64_t> truncations_{0};
  int fd_ = -1;
  mutable std::mutex mu_;
  std::condition_variable order_cv_;
  uint64_t append_offset_ = 0;
  uint64_t last_record_offset_ = 0;  ///< file offset of the tip's record
  size_t writes_in_flight_ = 0;      ///< records reserved but not yet written
  BlockId last_block_id_ = 0;
  BlockId first_block_id_ = 0;       ///< lowest id in the live log (0 = empty)
  size_t num_blocks_ = 0;
};

/// Tiny atomically-replaced manifest recording the latest checkpointed block
/// (the paper's block_checkpoint_log). Recovery loads the checkpointed state
/// and deterministically re-executes blocks after it.
class CheckpointManifest {
 public:
  explicit CheckpointManifest(std::string path) : path_(std::move(path)) {}

  /// Returns the checkpointed block id, or 0 if no checkpoint exists.
  BlockId Read() const;

  /// True when a manifest file exists. Distinguishes "checkpointed at
  /// block 0" (a durable genesis checkpoint) from "never checkpointed" —
  /// Read() returns 0 for both, but the storage layer's journal-epoch
  /// commit rule needs the difference (see DiskBackend::Open).
  bool Exists() const;

  /// Durably records a new checkpoint (write-temp + rename).
  Status Write(BlockId block_id) const;

  /// Removes a stale write-temp left by a crash between Write()'s fwrite
  /// and rename. Harmless litter (Write truncates it), but recovery paths
  /// call this so torn checkpoints leave no debris behind.
  void RemoveStaleTemp() const;

 private:
  std::string path_;
};

}  // namespace harmony
