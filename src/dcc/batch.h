#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "txn/procedure.h"

namespace harmony {

/// A block's worth of ordered transactions as delivered by the ordering
/// service. TIDs are dense: txns[i] has TID first_tid + i.
struct TxnBatch {
  BlockId block_id = 0;
  TxnId first_tid = 1;
  std::vector<TxnRequest> txns;

  TxnId tid_of(size_t i) const { return first_tid + i; }
  size_t size() const { return txns.size(); }
};

/// Per-transaction fate after a block executes.
enum class TxnOutcome : uint8_t {
  kCommitted = 0,
  kCcAborted,     ///< concurrency-control abort: deterministically requeued
  kLogicAborted,  ///< the procedure itself aborted (e.g. insufficient funds)
};

/// Result of executing one block.
struct BlockResult {
  BlockId block_id = 0;
  std::vector<TxnOutcome> outcomes;
  size_t committed = 0;
  size_t cc_aborted = 0;
  size_t logic_aborted = 0;
  /// Transactions re-simulated at commit because their snapshot went stale
  /// (Harmony with inter-block parallelism; counted in `outcomes` once).
  size_t repaired = 0;
  size_t dangerous_hits = 0;  ///< backward-dangerous-structure matches
  size_t false_aborts = 0;    ///< CC aborts outside any rw-cycle (oracle)
  uint64_t sim_micros = 0;
  uint64_t commit_micros = 0;

  /// Committed TIDs in an order the block's schedule is equivalent to
  /// (Harmony: ascending (min_out, TID), a topological order of
  /// the rw-subgraph per Theorem 2; serial protocols: commit order).
  /// Empty when the protocol does not expose one (Aria with reordering).
  std::vector<TxnId> equivalent_serial_order;
};

/// Cumulative protocol counters across all blocks.
struct ProtocolStats {
  std::atomic<uint64_t> blocks{0};
  std::atomic<uint64_t> simulated{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> cc_aborted{0};
  std::atomic<uint64_t> logic_aborted{0};
  std::atomic<uint64_t> repaired{0};
  std::atomic<uint64_t> dangerous_hits{0};
  std::atomic<uint64_t> false_aborts{0};
  std::atomic<uint64_t> sim_micros{0};
  std::atomic<uint64_t> commit_micros{0};

  void Accumulate(const BlockResult& r) {
    blocks.fetch_add(1, std::memory_order_relaxed);
    simulated.fetch_add(r.outcomes.size(), std::memory_order_relaxed);
    committed.fetch_add(r.committed, std::memory_order_relaxed);
    cc_aborted.fetch_add(r.cc_aborted, std::memory_order_relaxed);
    logic_aborted.fetch_add(r.logic_aborted, std::memory_order_relaxed);
    repaired.fetch_add(r.repaired, std::memory_order_relaxed);
    dangerous_hits.fetch_add(r.dangerous_hits, std::memory_order_relaxed);
    false_aborts.fetch_add(r.false_aborts, std::memory_order_relaxed);
    sim_micros.fetch_add(r.sim_micros, std::memory_order_relaxed);
    commit_micros.fetch_add(r.commit_micros, std::memory_order_relaxed);
  }

  double abort_rate() const {
    const uint64_t sim = simulated.load();
    return sim == 0 ? 0.0
                    : static_cast<double>(cc_aborted.load()) /
                          static_cast<double>(sim);
  }
  double false_abort_rate() const {
    const uint64_t sim = simulated.load();
    return sim == 0 ? 0.0
                    : static_cast<double>(false_aborts.load()) /
                          static_cast<double>(sim);
  }
  double dangerous_hit_rate() const {
    const uint64_t sim = simulated.load();
    return sim == 0 ? 0.0
                    : static_cast<double>(dangerous_hits.load()) /
                          static_cast<double>(sim);
  }
};

}  // namespace harmony
