#include "dcc/harmony.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/clock.h"

namespace harmony {

Status HarmonyProtocol::Simulate(const TxnBatch& batch) {
  const BlockId lag = snapshot_lag();
  const BlockId snapshot = ClampSnapshot(
      batch.block_id >= lag ? batch.block_id - lag : 0, batch.block_id);
  SimState st;
  HARMONY_RETURN_NOT_OK(SimulateBatch(batch, snapshot,
                                      /*register_reservations=*/true, &st));
  StashSimState(batch.block_id, std::move(st));
  return Status::OK();
}

Status HarmonyProtocol::RepairStaleReads(const TxnBatch& batch, SimState* st,
                                         size_t* repaired) {
  // A record whose reads miss every key block i-1 wrote saw exactly the
  // snapshot i-1 values, and a procedure is a function of what it reads:
  // its simulation at snapshot i-1 would be identical. Only the others are
  // redone.
  const BlockId snapshot = batch.block_id - 1;
  std::atomic<size_t> count{0};
  std::atomic<bool> failed{false};
  pool_->ParallelFor(st->records.size(), [&](size_t i) {
    const std::vector<Key>& reads = st->records[i].reads;
    const bool stale = std::any_of(reads.begin(), reads.end(), [&](Key k) {
      return prev_writes_.count(k) != 0;
    });
    if (!stale) return;
    if (!SimulateOne(batch, i, snapshot, &st->records[i]).ok()) {
      failed.store(true);
    }
    count.fetch_add(1, std::memory_order_relaxed);
  });
  if (failed.load()) return Status::IOError("repair simulation failed");
  *repaired = count.load();
  if (*repaired == 0) return Status::OK();
  // Repaired records changed their read/write sets: re-derive the
  // per-key aggregates from every record. Inline on the commit thread — a
  // few map updates per record cost less than a pool round trip while the
  // next block's simulation keeps the workers busy.
  st->reservations =
      std::make_unique<ReservationTable>(cfg_.reservation_shards);
  for (size_t i = 0; i < st->records.size(); i++) {
    const SimRecord& rec = st->records[i];
    if (!rec.logic_abort) {
      Reserve(rec, static_cast<uint32_t>(i), st->reservations.get());
    }
  }
  return Status::OK();
}

Status HarmonyProtocol::Commit(const TxnBatch& batch, BlockResult* result) {
  SimState st = TakeSimState(batch.block_id);
  Timer timer;
  // With inter-block parallelism the block was simulated at snapshot i-2
  // (barrier followers and block 1 already read snapshot i-1).
  size_t repaired = 0;
  if (st.snapshot + 1 < batch.block_id) {
    HARMONY_RETURN_NOT_OK(RepairStaleReads(batch, &st, &repaired));
  }
  auto& records = st.records;
  const ReservationTable& res = *st.reservations;
  const size_t n = records.size();
  std::vector<uint8_t> dangerous(n, 0);

  // ---- Validation: Algorithm 1. Fully parallel: each transaction derives
  // min_out / max_in from the read-only reservation aggregates, then checks
  // the backward dangerous structure locally.
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = records[i];
    if (rec.logic_abort) return;
    const TxnId tid = rec.tid;

    TxnId min_out = tid + 1;  // "no outgoing edge" sentinel (Algorithm 1)
    for (Key k : rec.reads) {
      const auto* e = res.Find(k);
      if (e == nullptr) continue;
      const TxnId w = e->MinWriterExcluding(tid);
      if (w != kInvalidTxnId) min_out = std::min(min_out, w);
    }
    TxnId max_in = kNoIncomingTid;
    for (const auto& [k, cmd] : rec.writes) {
      (void)cmd;
      const auto* e = res.Find(k);
      if (e == nullptr) continue;
      max_in = std::max(max_in, e->MaxReaderExcluding(tid));
    }
    rec.min_out = min_out;
    rec.max_in = max_in;

    // Rule 1 check (line #12 of Algorithm 1).
    if (min_out < tid && min_out <= max_in) {
      rec.cc_abort = true;
      dangerous[i] = 1;
      return;
    }

    // Ablation: with update reordering disabled, fall back to Aria's
    // first-writer-wins ww abort (Section 5.7).
    if (!cfg_.harmony_update_reordering) {
      for (const auto& [k, cmd] : rec.writes) {
        (void)cmd;
        const auto* e = res.Find(k);
        if (e != nullptr && e->MinWriterExcluding(tid) < tid) {
          rec.cc_abort = true;
          return;
        }
      }
    }
  });

  // ---- Apply: update reordering (Rule 2) + coalescence (Algorithm 2).
  // Parallel over transactions; exactly one transaction claims each key and
  // applies its whole (filtered, sorted, coalesced) command list.
  const BlockId base_snapshot = batch.block_id - 1;
  std::atomic<bool> apply_failed{false};
  pool_->ParallelFor(n, [&](size_t i) {
    SimRecord& rec = records[i];
    if (rec.logic_abort || rec.cc_abort) return;
    for (const auto& [key, own_cmd] : rec.writes) {
      (void)own_cmd;
      if (!st.reservations->ClaimHandled(key)) continue;
      const auto* e = res.Find(key);
      assert(e != nullptr);

      // Gather surviving writers of this key.
      struct Item {
        TxnId order;  // min_out
        TxnId tid;
        const UpdateCommand* cmd;
      };
      std::vector<Item> items;
      items.reserve(e->writer_idx.size());
      for (uint32_t idx : e->writer_idx) {
        const SimRecord& w = records[idx];
        if (w.cc_abort || w.logic_abort) continue;
        for (const auto& [wk, wcmd] : w.writes) {
          if (wk == key) {
            items.push_back(Item{w.min_out, w.tid, &wcmd});
            break;
          }
        }
      }
      if (items.empty()) continue;
      // Rule 2: ascending min_out, ties by TID — a topological order of the
      // acyclic rw-subgraph (Theorem 2).
      std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.order != b.order ? a.order < b.order : a.tid < b.tid;
      });

      Status s;
      std::optional<Value> slot;
      auto read_base = [&]() -> Status {
        std::optional<std::string> raw;
        HARMONY_RETURN_NOT_OK(store_->ReadAtSnapshot(key, base_snapshot, &raw));
        if (raw.has_value()) slot.emplace(Value::Decode(*raw));
        return Status::OK();
      };

      if (cfg_.harmony_update_coalescing) {
        UpdateCommand merged = *items[0].cmd;
        for (size_t j = 1; j < items.size(); j++) merged.Coalesce(*items[j].cmd);
        if (merged.kind() != UpdateCommand::Kind::kPut &&
            merged.kind() != UpdateCommand::Kind::kErase) {
          s = read_base();
          if (!s.ok()) {
            apply_failed.store(true);
            continue;
          }
        }
        merged.Apply(&slot);
      } else {
        // Ablation: apply each command separately — every command pays its
        // own record lookup (the duplicated physical work of Figure 5a).
        for (size_t j = 0; j < items.size(); j++) {
          std::optional<std::string> raw;
          s = store_->ReadAtSnapshot(key, base_snapshot, &raw);
          if (!s.ok()) {
            apply_failed.store(true);
            break;
          }
          if (j == 0 && raw.has_value()) slot.emplace(Value::Decode(*raw));
          items[j].cmd->Apply(&slot);
        }
      }

      std::optional<std::string> encoded;
      if (slot.has_value()) encoded.emplace(slot->Encode());
      s = store_->ApplyWrite(key, batch.block_id, encoded);
      if (!s.ok()) apply_failed.store(true);
    }
  });
  if (apply_failed.load()) return Status::IOError("apply failed");

  // ---- Bookkeeping for the next block's repair.
  if (cfg_.harmony_inter_block) {
    prev_writes_.clear();
    for (const SimRecord& rec : records) {
      if (rec.cc_abort || rec.logic_abort) continue;
      for (const auto& [k, cmd] : rec.writes) {
        (void)cmd;
        prev_writes_.insert(k);
      }
    }
  }

  // ---- Result assembly.
  result->block_id = batch.block_id;
  result->repaired = repaired;
  result->outcomes.resize(n);
  for (size_t i = 0; i < n; i++) {
    const SimRecord& rec = records[i];
    if (rec.logic_abort) {
      result->outcomes[i] = TxnOutcome::kLogicAborted;
      result->logic_aborted++;
    } else if (rec.cc_abort) {
      result->outcomes[i] = TxnOutcome::kCcAborted;
      result->cc_aborted++;
      if (dangerous[i]) result->dangerous_hits++;
    } else {
      result->outcomes[i] = TxnOutcome::kCommitted;
      result->committed++;
    }
  }
  if (cfg_.enable_false_abort_oracle) {
    result->false_aborts = CountFalseAborts(st);
  }
  // The schedule is equivalent to serial execution in ascending
  // (min_out, tid) — the order update reordering enforces (Theorem 2).
  {
    std::vector<std::pair<TxnId, TxnId>> order;
    for (const SimRecord& rec : records) {
      if (!rec.cc_abort && !rec.logic_abort) {
        order.emplace_back(rec.min_out, rec.tid);
      }
    }
    std::sort(order.begin(), order.end());
    result->equivalent_serial_order.reserve(order.size());
    for (const auto& [mo, tid] : order) {
      (void)mo;
      result->equivalent_serial_order.push_back(tid);
    }
  }
  result->sim_micros = st.sim_micros;
  result->commit_micros = timer.ElapsedMicros();
  stats_.Accumulate(*result);

  // Snapshots older than what the next simulations read can be collapsed.
  const BlockId lag = snapshot_lag();
  if (batch.block_id + 1 >= lag) store_->Prune(batch.block_id + 1 - lag);
  return Status::OK();
}

}  // namespace harmony
