#pragma once

#include <unordered_set>

#include "dcc/protocol.h"

namespace harmony {

/// Harmony (Section 3): optimistic DCC with
///  - abort-minimizing validation — Rule 1's backward dangerous structure
///    over the rw-subgraph, O(e) per transaction, fully parallel;
///  - update reordering (Rule 2) — ww/wr dependencies never abort; update
///    commands on a key are applied in ascending (min_out, tid) order, a
///    topological order of the acyclic rw-subgraph (Theorem 2);
///  - update coalescence — one transaction applies each key's commands,
///    merged into a single physical update (affine composition);
///  - inter-block parallelism — block i simulates against snapshot i-2 while
///    block i-1 commits. When block i commits, block i-1 has committed, so
///    every transaction that read a key block i-1 wrote is *repaired*:
///    re-simulated against snapshot i-1, in parallel. The paper's Figure 6
///    policy (Rule 3) instead keeps such a stale read as an inter-block
///    rw-edge and aborts the later transaction of a generalized dangerous
///    structure. After the repair every record holds exactly what a lag-1
///    simulation would have produced, so the block validates as an
///    ordinary single block (Rule 1, Rule 2, coalescence) and its outcomes
///    equal those of the same chain with inter-block parallelism off: the
///    pipeline overlaps work without adding aborts.
class HarmonyProtocol : public DccProtocol {
 public:
  using DccProtocol::DccProtocol;

  DccKind kind() const override { return DccKind::kHarmony; }
  BlockId snapshot_lag() const override {
    return cfg_.harmony_inter_block ? 2 : 1;
  }
  bool supports_inter_block() const override {
    return cfg_.harmony_inter_block;
  }

  Status Simulate(const TxnBatch& batch) override;
  Status Commit(const TxnBatch& batch, BlockResult* result) override;

 private:
  /// Re-simulates, against snapshot block_id-1, every record of `st` that
  /// read a key in prev_writes_, and rebuilds the reservation table when
  /// any was repaired. Sets *repaired to the number of records redone.
  Status RepairStaleReads(const TxnBatch& batch, SimState* st,
                          size_t* repaired);

  /// Keys written by the previous block's committed transactions (kept
  /// only with inter-block parallelism on; read and written only by the
  /// in-order commit step).
  std::unordered_set<Key> prev_writes_;
};

}  // namespace harmony
