#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dcc/false_abort_oracle.h"
#include "dcc/protocol.h"
#include "storage/state_backend.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"

namespace harmony {
namespace {

// ---- Test procedures --------------------------------------------------
// 1: reads(keys...)                      read-only
// 2: add(key, delta)                     pure command update
// 3: mul(key, factor)                    pure command update
// 4: set(key, v)                         blind write
// 5: read_then_set(rkey, wkey, v)        wkey.f0 = rkey.f0 + v
// 6: transfer(a, b, amt)                 branch on balance (logic abort)
// 7: rmw_split(key)                      read key, set key = read + 1
// 8: put(key, v)                         insert
// 9: erase(key)

void RegisterTestProcs(ProcedureRegistry* reg) {
  reg->Register(1, "reads", [](TxnContext& ctx, const ProcArgs& a) {
    for (int64_t k : a.ints) {
      std::optional<Value> v;
      HARMONY_RETURN_NOT_OK(ctx.Get(static_cast<Key>(k), &v));
    }
    return Status::OK();
  });
  reg->Register(2, "add", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
  reg->Register(3, "mul", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.MulField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
  reg->Register(4, "set", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.SetField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
  reg->Register(5, "read_then_set", [](TxnContext& ctx, const ProcArgs& a) {
    Value r;
    HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &r));
    ctx.SetField(static_cast<Key>(a.at(1)), 0, r.field(0) + a.at(2));
    return Status::OK();
  });
  reg->Register(6, "transfer", [](TxnContext& ctx, const ProcArgs& a) {
    Value src;
    HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
    if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
    ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
    ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
    return Status::OK();
  });
  reg->Register(7, "rmw_split", [](TxnContext& ctx, const ProcArgs& a) {
    Value r;
    HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &r));
    ctx.SetField(static_cast<Key>(a.at(0)), 0, r.field(0) + 1);
    return Status::OK();
  });
  reg->Register(8, "put", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.Put(static_cast<Key>(a.at(0)), Value({a.at(1)}));
    return Status::OK();
  });
  reg->Register(9, "erase", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.Erase(static_cast<Key>(a.at(0)));
    return Status::OK();
  });
}

TxnRequest Req(uint32_t proc, std::vector<int64_t> ints) {
  TxnRequest r;
  r.proc_id = proc;
  r.args.ints = std::move(ints);
  return r;
}

/// Serial reference engine: executes procedures one at a time against a
/// plain map, applying writes immediately — the definition of a serial
/// schedule.
class SerialEngine {
 public:
  explicit SerialEngine(const ProcedureRegistry* reg) : reg_(reg) {}

  std::map<Key, Value> state;

  /// Runs one transaction serially; returns false on logic abort.
  bool Run(const TxnRequest& req) {
    TxnContext ctx(0, 0, [this](Key k, std::optional<Value>* out) {
      auto it = state.find(k);
      if (it != state.end()) {
        out->emplace(it->second);
      } else {
        out->reset();
      }
      return Status::OK();
    });
    const ProcedureFn* fn = reg_->Find(req.proc_id);
    EXPECT_NE(fn, nullptr);
    if (!(*fn)(ctx, req.args).ok()) return false;
    for (const auto& [k, cmd] : ctx.write_set()) {
      std::optional<Value> slot;
      auto it = state.find(k);
      if (it != state.end()) slot = it->second;
      cmd.Apply(&slot);
      if (slot.has_value()) {
        state[k] = *slot;
      } else {
        state.erase(k);
      }
    }
    return true;
  }

 private:
  const ProcedureRegistry* reg_;
};

/// Harness around one protocol instance over a memory backend.
class Engine {
 public:
  /// DCC unit tests run without checkpoint barriers unless asked.
  Engine(DccKind kind, DccConfig cfg, size_t threads = 4,
         size_t barrier_every = 0) {
    RegisterTestProcs(&procs_);
    store_ = std::make_unique<VersionedStore>(&backend_);
    pool_ = std::make_unique<ThreadPool>(threads);
    cfg.barrier_every = barrier_every;
    proto_ = MakeProtocol(kind, store_.get(), &procs_, pool_.get(), cfg);
  }

  void Load(Key k, int64_t v) {
    ASSERT_OK(backend_.Put(k, Value({v}).Encode(), nullptr));
  }

  BlockResult Execute(std::vector<TxnRequest> txns) {
    TxnBatch b;
    b.block_id = ++last_block_;
    b.first_tid = next_tid_;
    next_tid_ += txns.size();
    b.txns = std::move(txns);
    BlockResult res;
    EXPECT_OK(proto_->ExecuteBlock(b, &res));
    last_batch_ = b;
    return res;
  }

  /// Pipelined execution of two batches (simulate i+1 during commit i).
  std::pair<BlockResult, BlockResult> ExecutePipelined(
      std::vector<TxnRequest> first, std::vector<TxnRequest> second) {
    auto r = ExecuteChain({std::move(first), std::move(second)});
    return {r[0].second, r[1].second};
  }

  /// Runs a chain of blocks in the replica's pipelined order: with an
  /// inter-block protocol Simulate(i+1) runs on another thread while
  /// Commit(i) runs, except that a barrier follower waits for the barrier
  /// block's commit (Replica::ExecuteBlockPipelined). Returns each block's
  /// batch and result.
  std::vector<std::pair<TxnBatch, BlockResult>> ExecuteChain(
      const std::vector<std::vector<TxnRequest>>& blocks) {
    const size_t barrier = proto_->config().barrier_every;
    std::vector<std::pair<TxnBatch, BlockResult>> out(blocks.size());
    for (size_t i = 0; i < blocks.size(); i++) {
      TxnBatch& b = out[i].first;
      b.block_id = ++last_block_;
      b.first_tid = next_tid_;
      b.txns = blocks[i];
      next_tid_ += b.txns.size();
    }
    auto overlaps = [&](const TxnBatch& next) {
      const BlockId id = next.block_id;
      return proto_->supports_inter_block() &&
             !(barrier != 0 && id > 1 && (id - 1) % barrier == 0);
    };
    if (!out.empty()) EXPECT_OK(proto_->Simulate(out[0].first));
    for (size_t i = 0; i < out.size(); i++) {
      const TxnBatch* next = i + 1 < out.size() ? &out[i + 1].first : nullptr;
      std::thread sim;
      if (next != nullptr && overlaps(*next)) {
        sim = std::thread([&] { EXPECT_OK(proto_->Simulate(*next)); });
      }
      EXPECT_OK(proto_->Commit(out[i].first, &out[i].second));
      if (sim.joinable()) {
        sim.join();
      } else if (next != nullptr) {
        EXPECT_OK(proto_->Simulate(*next));
      }
    }
    return out;
  }

  /// Encoded latest state, for byte-level comparisons.
  std::map<Key, std::string> RawState() {
    std::map<Key, std::string> out;
    EXPECT_OK(backend_.ScanAll(
        [&](Key k, std::string_view v) { out[k] = std::string(v); }));
    return out;
  }

  int64_t Field0(Key k) {
    std::string raw;
    Status s = backend_.Get(k, &raw);
    EXPECT_OK(s);
    return Value::Decode(raw).field(0);
  }

  bool Exists(Key k) {
    std::string raw;
    return backend_.Get(k, &raw).ok();
  }

  std::map<Key, Value> Snapshot() {
    std::map<Key, Value> out;
    EXPECT_OK(backend_.ScanAll([&](Key k, std::string_view v) {
      out[k] = Value::Decode(v);
    }));
    return out;
  }

  const TxnBatch& last_batch() const { return last_batch_; }
  DccProtocol* protocol() { return proto_.get(); }
  const ProcedureRegistry& procs() const { return procs_; }
  ProcedureRegistry* mutable_procs() { return &procs_; }

 private:
  MemoryBackend backend_;
  std::unique_ptr<VersionedStore> store_;
  ProcedureRegistry procs_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<DccProtocol> proto_;
  BlockId last_block_ = 0;
  TxnId next_tid_ = 1;
  TxnBatch last_batch_;
};

// ---- Harmony ----------------------------------------------------------

TEST(Harmony, NonConflictingAllCommit) {
  Engine e(DccKind::kHarmony, {});
  for (Key k = 1; k <= 20; k++) e.Load(k, 100);
  std::vector<TxnRequest> txns;
  for (int i = 1; i <= 20; i++) {
    txns.push_back(Req(2, {i, i}));  // add(k_i, i)
  }
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 20u);
  EXPECT_EQ(r.cc_aborted, 0u);
  for (Key k = 1; k <= 20; k++) EXPECT_EQ(e.Field0(k), 100 + static_cast<int64_t>(k));
}

TEST(Harmony, WwDependenciesNeverAbort) {
  // All concurrent updaters of one hot record commit (update reordering) —
  // the exact case where Aria aborts all but one (Figure 14's mechanism).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);
  std::vector<TxnRequest> txns;
  for (int i = 1; i <= 50; i++) txns.push_back(Req(2, {1, 1}));
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 50u);
  EXPECT_EQ(r.cc_aborted, 0u);
  EXPECT_EQ(e.Field0(1), 50);
}

TEST(Harmony, ReorderWithExplicitDependency) {
  // The Section 3.3.1 example: x = 10. T1: add(x,10) and writes y;
  // T2: reads y (T1's before-image => T1 rw<- T2), mul(x,3).
  // Order T2 before T1: x = (10 * 3) + 10 = 40, and both commit.
  Engine e(DccKind::kHarmony, {});
  // proc 10: T1 = { add(x, 10); set(y, 1); }
  // proc 11: T2 = { read(y); mul(x, 3); }
  e.mutable_procs()->Register(10, "t1", [](TxnContext& ctx, const ProcArgs&) {
        ctx.AddField(1, 0, 10);
        ctx.SetField(2, 0, 1);
        return Status::OK();
      });
  e.mutable_procs()->Register(11, "t2", [](TxnContext& ctx, const ProcArgs&) {
        Value y;
        HARMONY_RETURN_NOT_OK(ctx.GetExisting(2, &y));
        ctx.MulField(1, 0, 3);
        return Status::OK();
      });
  e.Load(1, 10);
  e.Load(2, 5);
  BlockResult r = e.Execute({Req(10, {}), Req(11, {})});
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(r.cc_aborted, 0u);
  EXPECT_EQ(e.Field0(1), 40);  // mul first (T2 precedes T1), then add
  EXPECT_EQ(e.Field0(2), 1);
  // Equivalent serial order puts T2 (tid 2) before T1 (tid 1).
  ASSERT_EQ(r.equivalent_serial_order.size(), 2u);
  EXPECT_EQ(r.equivalent_serial_order[0], 2u);
  EXPECT_EQ(r.equivalent_serial_order[1], 1u);
}

TEST(Harmony, BackwardDangerousStructureTwoTxns) {
  // Figure 3a: T1 reads a & writes b; T2 reads b & writes a.
  // Both rw edges close a 2-cycle; Rule 1 aborts T2 (the larger TID pivot).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);  // a
  e.Load(2, 0);  // b
  BlockResult r = e.Execute({
      Req(5, {1, 2, 7}),  // T1: read a, set b
      Req(5, {2, 1, 9}),  // T2: read b, set a
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.dangerous_hits, 1u);
  EXPECT_EQ(r.outcomes[0], TxnOutcome::kCommitted);
  EXPECT_EQ(r.outcomes[1], TxnOutcome::kCcAborted);
  EXPECT_EQ(e.Field0(2), 7);  // T1's write landed
  EXPECT_EQ(e.Field0(1), 0);  // T2 aborted
}

TEST(Harmony, SplitRmwOnHotKeySerializesByAbort) {
  // rmw_split reads AND writes the same key: concurrent instances form rw
  // cycles; exactly one survives per block (the paper's developer-practice
  // caveat at the end of Section 3.3.2).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(7, {1}), Req(7, {1}), Req(7, {1})});
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 2u);
  EXPECT_EQ(e.Field0(1), 1);
}

TEST(Harmony, ReadersDoNotAbortWriters) {
  // Plain readers + one writer: reader reads the before-image (snapshot);
  // serial order readers-then-writer; nobody aborts.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 42);
  BlockResult r = e.Execute({
      Req(1, {1}),      // reader
      Req(1, {1}),      // reader
      Req(4, {1, 99}),  // blind writer
  });
  EXPECT_EQ(r.committed, 3u);
  EXPECT_EQ(e.Field0(1), 99);
}

TEST(Harmony, LogicAbortLeavesNoTrace) {
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(2, 10);
  BlockResult r = e.Execute({
      Req(6, {1, 2, 1000}),  // insufficient funds -> logic abort
      Req(6, {1, 2, 5}),     // fine
  });
  EXPECT_EQ(r.logic_aborted, 1u);
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 0u);
  EXPECT_EQ(e.Field0(1), 5);
  EXPECT_EQ(e.Field0(2), 15);
}

TEST(Harmony, InsertAndEraseAcrossBlocks) {
  Engine e(DccKind::kHarmony, {});
  BlockResult r1 = e.Execute({Req(8, {100, 7})});
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_TRUE(e.Exists(100));
  BlockResult r2 = e.Execute({Req(9, {100})});
  EXPECT_EQ(r2.committed, 1u);
  // One more block so the erase is visible to a lag-2 snapshot read.
  e.Execute({Req(8, {101, 1})});
  EXPECT_FALSE(e.Exists(100));
}

TEST(Harmony, InterBlockStaleReadOfChainedWriteIsRepaired) {
  // Block i: T1 sets a, T2 reads a's before-image and sets b = a + 1
  // (T1 <-rw- T2 inside the block; both commit, b = 1).
  // Block i+1 (pipelined, snapshot i-1): T3 reads b and sets z = b + 1.
  // T3's read of b went stale when block i committed; the paper's Figure 6
  // policy aborts T3. The repair re-simulates it against snapshot i: z = 2.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);  // a
  e.Load(2, 0);  // b
  e.Load(3, 0);  // z
  auto [r1, r2] = e.ExecutePipelined(
      {
          Req(4, {1, 5}),     // T1: set a = 5
          Req(5, {1, 2, 1}),  // T2: read a, set b (reads before-image)
      },
      {
          Req(5, {2, 3, 1}),  // T3: read b, set z
      });
  EXPECT_EQ(r1.committed, 2u);  // T2's min_out=1 but max_in=0: commits
  EXPECT_EQ(r2.committed, 1u);
  EXPECT_EQ(r2.repaired, 1u);
  EXPECT_EQ(e.Field0(2), 1);
  EXPECT_EQ(e.Field0(3), 2);  // T3 saw b as block i left it
}

TEST(Harmony, InterBlockStaleReadSeesPreviousBlockWrite) {
  // T in block i+1 reads a key a writer W of block i wrote: after the
  // repair T reads W's value, not the before-image of snapshot i-1.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(5, 0);
  auto [r1, r2] = e.ExecutePipelined(
      {Req(4, {1, 99})},       // W: blind write a
      {Req(5, {1, 5, 0})});    // T: read a, set k5 = read + 0
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_EQ(r2.committed, 1u);
  EXPECT_EQ(r2.repaired, 1u);
  EXPECT_EQ(e.Field0(1), 99);
  EXPECT_EQ(e.Field0(5), 99);  // T serialized after W
}

TEST(Harmony, InterBlockStaleReadAndOverwriteCommitsRepaired) {
  // T in block i+1 reads a key W of block i wrote AND overwrites another
  // key W wrote. On the stale snapshot this is a 2-cycle (T -rw-> W -ww->
  // T) that the Figure 6 policy aborts; repaired, T simply follows W.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(2, 0);
  // W writes both a and b; T reads a and writes b.
  e.mutable_procs()->Register(12, "w_ab", [](TxnContext& ctx, const ProcArgs&) {
        ctx.SetField(1, 0, 99);
        ctx.SetField(2, 0, 50);
        return Status::OK();
      });
  auto [r1, r2] = e.ExecutePipelined(
      {Req(12, {})},
      {Req(5, {1, 2, 0})});  // T: read a, set b
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_EQ(r2.committed, 1u);
  EXPECT_EQ(r2.repaired, 1u);
  EXPECT_EQ(e.Field0(2), 99);  // T's b = a + 0, over W's 50
}

TEST(Harmony, InterBlockFreshReadIsNotRepaired) {
  // A read set disjoint from block i's writes is already exact.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(2, 20);
  e.Load(5, 0);
  auto [r1, r2] = e.ExecutePipelined({Req(4, {1, 99})},
                                     {Req(5, {2, 5, 1})});
  EXPECT_EQ(r2.committed, 1u);
  EXPECT_EQ(r2.repaired, 0u);
  EXPECT_EQ(e.Field0(5), 21);
}

TEST(Harmony, TableThreeHitRateCountsDangerousStructures) {
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);
  e.Execute({Req(7, {1}), Req(7, {1})});
  const ProtocolStats& s = e.protocol()->stats();
  EXPECT_EQ(s.dangerous_hits.load(), 1u);
  EXPECT_GT(s.dangerous_hit_rate(), 0.0);
}

// ---- Ablation flags ---------------------------------------------------

TEST(HarmonyAblation, NoReorderingFallsBackToWwAborts) {
  DccConfig cfg;
  cfg.harmony_update_reordering = false;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 0);
  std::vector<TxnRequest> txns;
  for (int i = 0; i < 10; i++) txns.push_back(Req(2, {1, 1}));
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 1u);  // Aria-style: first writer wins
  EXPECT_EQ(r.cc_aborted, 9u);
  EXPECT_EQ(e.Field0(1), 1);
}

TEST(HarmonyAblation, NoCoalescingStillCorrect) {
  DccConfig cfg;
  cfg.harmony_update_coalescing = false;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 10);
  std::vector<TxnRequest> txns;
  txns.push_back(Req(2, {1, 5}));   // +5
  txns.push_back(Req(3, {1, 2}));   // *2
  txns.push_back(Req(2, {1, 1}));   // +1
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 3u);
  // Order is (min_out, tid) = TID order here: ((10+5)*2)+1 = 31.
  EXPECT_EQ(e.Field0(1), 31);
}

TEST(HarmonyAblation, NoInterBlockUsesLagOneSnapshot) {
  DccConfig cfg;
  cfg.harmony_inter_block = false;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 1);
  e.Execute({Req(4, {1, 2})});
  // With lag 1 the next block reads the previous block's writes directly.
  e.mutable_procs()->Register(13, "assert_sees_2", [](TxnContext& ctx, const ProcArgs&) {
        Value v;
        HARMONY_RETURN_NOT_OK(ctx.GetExisting(1, &v));
        return v.field(0) == 2 ? Status::OK() : Status::Aborted("stale");
      });
  BlockResult r = e.Execute({Req(13, {})});
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.logic_aborted, 0u);
}

// ---- Randomized serializability oracle ---------------------------------

struct OracleParam {
  bool reorder;
  bool coalesce;
  bool inter_block;
};

class HarmonyOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(HarmonyOracleTest, SingleBlockMatchesSerialReplay) {
  const OracleParam p = GetParam();
  Rng rng(p.reorder * 4 + p.coalesce * 2 + p.inter_block + 17);
  for (int trial = 0; trial < 30; trial++) {
    DccConfig cfg;
    cfg.harmony_update_reordering = p.reorder;
    cfg.harmony_update_coalescing = p.coalesce;
    cfg.harmony_inter_block = p.inter_block;
    Engine e(DccKind::kHarmony, cfg);
    SerialEngine serial(&e.procs());
    for (Key k = 1; k <= 8; k++) {
      const int64_t v = rng.UniformRange(0, 100);
      e.Load(k, v);
      serial.state[k] = Value({v});
    }
    std::vector<TxnRequest> txns;
    const size_t n = 2 + rng.Uniform(18);
    for (size_t i = 0; i < n; i++) {
      const int64_t k1 = rng.UniformRange(1, 8), k2 = rng.UniformRange(1, 8);
      switch (rng.Uniform(7)) {
        case 0: txns.push_back(Req(1, {k1, k2})); break;
        case 1: txns.push_back(Req(2, {k1, rng.UniformRange(-9, 9)})); break;
        case 2: txns.push_back(Req(3, {k1, rng.UniformRange(-2, 3)})); break;
        case 3: txns.push_back(Req(4, {k1, rng.UniformRange(0, 99)})); break;
        case 4: txns.push_back(Req(5, {k1, k2, rng.UniformRange(0, 9)})); break;
        case 5: txns.push_back(Req(6, {k1, k2, rng.UniformRange(0, 60)})); break;
        default: txns.push_back(Req(7, {k1})); break;
      }
    }
    BlockResult r = e.Execute(std::move(txns));

    // Replay committed transactions serially in the protocol's equivalent
    // order; states must match byte for byte.
    const TxnBatch& batch = e.last_batch();
    for (TxnId tid : r.equivalent_serial_order) {
      const size_t idx = static_cast<size_t>(tid - batch.first_tid);
      EXPECT_TRUE(serial.Run(batch.txns[idx]))
          << "committed txn logic-aborted in serial replay (trial " << trial
          << ")";
    }
    const auto engine_state = e.Snapshot();
    ASSERT_EQ(engine_state.size(), serial.state.size()) << "trial " << trial;
    for (const auto& [k, v] : serial.state) {
      auto it = engine_state.find(k);
      ASSERT_NE(it, engine_state.end()) << "trial " << trial;
      ASSERT_EQ(it->second, v) << "key " << k << " trial " << trial;
    }
  }
}

TEST_P(HarmonyOracleTest, MultiBlockDeterminismAcrossThreadCounts) {
  const OracleParam p = GetParam();
  DccConfig cfg;
  cfg.harmony_update_reordering = p.reorder;
  cfg.harmony_update_coalescing = p.coalesce;
  cfg.harmony_inter_block = p.inter_block;
  DccConfig cfg_jitter = cfg;
  cfg_jitter.straggler_prob = 0.2;
  cfg_jitter.straggler_us = 300;

  Engine a(DccKind::kHarmony, cfg, /*threads=*/1);
  Engine b(DccKind::kHarmony, cfg_jitter, /*threads=*/8);
  Rng rng(555);
  for (Key k = 1; k <= 10; k++) {
    const int64_t v = rng.UniformRange(0, 100);
    a.Load(k, v);
    b.Load(k, v);
  }
  for (int block = 0; block < 8; block++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 12; i++) {
      const int64_t k1 = rng.UniformRange(1, 10), k2 = rng.UniformRange(1, 10);
      switch (rng.Uniform(5)) {
        case 0: txns.push_back(Req(2, {k1, rng.UniformRange(-9, 9)})); break;
        case 1: txns.push_back(Req(4, {k1, rng.UniformRange(0, 99)})); break;
        case 2: txns.push_back(Req(5, {k1, k2, rng.UniformRange(0, 9)})); break;
        case 3: txns.push_back(Req(6, {k1, k2, rng.UniformRange(0, 40)})); break;
        default: txns.push_back(Req(7, {k1})); break;
      }
    }
    BlockResult ra = a.Execute(txns);
    BlockResult rb = b.Execute(txns);
    // Identical commit decisions, transaction by transaction.
    ASSERT_EQ(ra.outcomes, rb.outcomes) << "block " << block;
  }
  EXPECT_EQ(a.Snapshot(), b.Snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    Flags, HarmonyOracleTest,
    ::testing::Values(OracleParam{true, true, true},
                      OracleParam{true, true, false},
                      OracleParam{true, false, true},
                      OracleParam{true, false, false},
                      OracleParam{false, true, false},
                      OracleParam{false, false, false}),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      std::string s;
      s += info.param.reorder ? "reorder" : "noreorder";
      s += info.param.coalesce ? "_coalesce" : "_nocoalesce";
      s += info.param.inter_block ? "_inter" : "_nointer";
      return s;
    });

// ---- Inter-block parallelism: repair equivalence ---------------------

/// A random contended chain over keys 1..keys (transfers, blind and
/// read-dependent writes, split RMWs, inserts and erases).
std::vector<std::vector<TxnRequest>> RandomChain(Rng* rng, int blocks,
                                                 int per_block, int64_t keys) {
  std::vector<std::vector<TxnRequest>> chain(blocks);
  for (auto& txns : chain) {
    for (int i = 0; i < per_block; i++) {
      const int64_t k1 = rng->UniformRange(1, keys);
      const int64_t k2 = rng->UniformRange(1, keys);
      switch (rng->Uniform(8)) {
        case 0: txns.push_back(Req(1, {k1, k2})); break;
        case 1: txns.push_back(Req(2, {k1, rng->UniformRange(-9, 9)})); break;
        case 2: txns.push_back(Req(4, {k1, rng->UniformRange(0, 99)})); break;
        case 3: txns.push_back(Req(5, {k1, k2, rng->UniformRange(0, 9)})); break;
        case 4: txns.push_back(Req(6, {k1, k2, rng->UniformRange(0, 40)})); break;
        case 5: txns.push_back(Req(8, {k1, rng->UniformRange(0, 99)})); break;
        case 6: txns.push_back(Req(9, {k2})); break;
        default: txns.push_back(Req(7, {k1})); break;
      }
    }
  }
  return chain;
}

TEST(HarmonyInterBlock, RepairedPipelineEqualsInterBlockOff) {
  // With the repair, inter-block parallelism only overlaps work: per-block
  // outcomes and the final state match the lag-1 chain exactly, for any
  // thread count and straggler timing, across checkpoint barriers.
  constexpr size_t kBarrier = 3;
  uint64_t repaired = 0;
  for (uint64_t seed = 1; seed <= 6; seed++) {
    Rng rng(seed * 7919);
    const auto chain = RandomChain(&rng, 14, 12, 10);
    DccConfig off;
    off.harmony_inter_block = false;
    DccConfig on;
    DccConfig on_jitter;
    on_jitter.straggler_prob = 0.2;
    on_jitter.straggler_us = 200;
    Engine ref(DccKind::kHarmony, off, 1, kBarrier);
    Engine a(DccKind::kHarmony, on, 1, kBarrier);
    Engine b(DccKind::kHarmony, on_jitter, 8, kBarrier);
    for (Key k = 1; k <= 10; k++) {
      const int64_t v = rng.UniformRange(0, 60);
      ref.Load(k, v);
      a.Load(k, v);
      b.Load(k, v);
    }
    const auto rr = ref.ExecuteChain(chain);
    const auto ra = a.ExecuteChain(chain);
    const auto rb = b.ExecuteChain(chain);
    for (size_t i = 0; i < chain.size(); i++) {
      ASSERT_EQ(rr[i].second.outcomes, ra[i].second.outcomes)
          << "seed " << seed << " block " << i + 1;
      ASSERT_EQ(rr[i].second.outcomes, rb[i].second.outcomes)
          << "seed " << seed << " block " << i + 1;
      EXPECT_EQ(rr[i].second.repaired, 0u);
      EXPECT_EQ(ra[i].second.repaired, rb[i].second.repaired);
      repaired += ra[i].second.repaired;
    }
    const auto state = ref.RawState();
    EXPECT_EQ(state, a.RawState()) << "seed " << seed;
    EXPECT_EQ(state, b.RawState()) << "seed " << seed;
  }
  EXPECT_GT(repaired, 0u) << "the chains never exercised the repair";
}

TEST(HarmonyInterBlock, MultiBlockChainMatchesSerialReplay) {
  // Replaying the committed transactions block by block, each block in its
  // equivalent_serial_order, reproduces the engine's state.
  for (bool inter : {true, false}) {
    for (uint64_t seed = 1; seed <= 4; seed++) {
      Rng rng(seed * 104729 + inter);
      const auto chain = RandomChain(&rng, 12, 10, 8);
      DccConfig cfg;
      cfg.harmony_inter_block = inter;
      cfg.straggler_prob = 0.2;
      cfg.straggler_us = 200;
      Engine e(DccKind::kHarmony, cfg, 8, /*barrier_every=*/4);
      SerialEngine serial(&e.procs());
      for (Key k = 1; k <= 8; k++) {
        const int64_t v = rng.UniformRange(0, 60);
        e.Load(k, v);
        serial.state[k] = Value({v});
      }
      for (const auto& [batch, res] : e.ExecuteChain(chain)) {
        ASSERT_EQ(res.equivalent_serial_order.size(), res.committed);
        for (TxnId tid : res.equivalent_serial_order) {
          EXPECT_TRUE(serial.Run(batch.txns[tid - batch.first_tid]))
              << "committed txn logic-aborted in serial replay (block "
              << batch.block_id << ", seed " << seed << ")";
        }
      }
      EXPECT_EQ(e.Snapshot(), serial.state)
          << (inter ? "inter" : "nointer") << " seed " << seed;
    }
  }
}

// ---- Baselines ---------------------------------------------------------

TEST(Aria, WwDependencyAborts) {
  Engine e(DccKind::kAria, {});
  e.Load(1, 0);
  std::vector<TxnRequest> txns;
  for (int i = 0; i < 10; i++) txns.push_back(Req(2, {1, 1}));
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 9u);
  EXPECT_EQ(e.Field0(1), 1);
}

TEST(Aria, ReorderingSavesRawOnlyTxn) {
  // T1 writes a; T2 reads a (raw) but nobody reads T2's writes (no war):
  // with deterministic reordering T2 commits (serialized before T1).
  DccConfig cfg;
  cfg.aria_deterministic_reordering = true;
  Engine e(DccKind::kAria, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(4, {1, 99}),    // T1: blind write a
      Req(5, {1, 2, 0}),  // T2: read a, set b = a + 0
  });
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(e.Field0(2), 10);  // T2 read the before-image

  DccConfig strict;
  strict.aria_deterministic_reordering = false;
  Engine e2(DccKind::kAria, strict);
  e2.Load(1, 10);
  e2.Load(2, 0);
  BlockResult r2 = e2.Execute({Req(4, {1, 99}), Req(5, {1, 2, 0})});
  EXPECT_EQ(r2.committed, 1u);  // without reordering, raw alone aborts
  EXPECT_EQ(r2.cc_aborted, 1u);
}

TEST(Rbc, SsiPivotAborts) {
  Engine e(DccKind::kRbc, {});
  e.Load(1, 0);
  e.Load(2, 0);
  e.Load(3, 0);
  // T1: reads b, writes c. T2: reads a... construct pivot T2:
  // T1 (tid1): read k2, write k3. T2 (tid2): read k3 (out-rw to T1? no —
  // out-rw = read a key a *committed* txn wrote: T1 wrote k3, T2 reads k3;
  // T2 also writes k2 which committed T1 read (in-rw). Pivot => abort.
  BlockResult r = e.Execute({
      Req(5, {2, 3, 1}),  // T1: read k2, set k3
      Req(5, {3, 2, 1}),  // T2: read k3, set k2 -> pivot
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.outcomes[1], TxnOutcome::kCcAborted);
}

TEST(Rbc, WwAborts) {
  Engine e(DccKind::kRbc, {});
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(4, {1, 5}), Req(4, {1, 9})});
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(e.Field0(1), 5);  // first committer wins
}

TEST(Rbc, PureReadersAndDisjointWritersCommit) {
  Engine e(DccKind::kRbc, {});
  e.Load(1, 0);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(1, {1, 2}),
      Req(4, {1, 5}),
      Req(4, {2, 6}),
  });
  EXPECT_EQ(r.committed, 3u);
}

TEST(Fabric, IntraBlockStaleReadAborts) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFabric, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(4, {1, 99}),     // T1 writes a
      Req(5, {1, 2, 0}),   // T2 read a at endorsement; T1 commits first
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.outcomes[1], TxnOutcome::kCcAborted);
}

TEST(Fabric, CrossBlockStaleReadWithEndorsementLag) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 2;
  Engine e(DccKind::kFabric, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  // Block 1 updates key 1. Blocks 2-3 pad the pipeline. The txn in block 4
  // endorsed against snapshot 1 (= 4 - 1 - 2)... endorsements at snapshot 1
  // already see block 1's write, so instead update key 1 again in block 3:
  e.Execute({Req(4, {1, 11})});  // block 1
  e.Execute({Req(2, {2, 1})});   // block 2 (unrelated)
  e.Execute({Req(4, {1, 12})});  // block 3 updates key 1
  // Block 4's txn endorses at snapshot 1 (version of key1 = block 1) but
  // validates against state 3 (version = block 3): stale => abort.
  BlockResult r = e.Execute({Req(5, {1, 2, 0})});
  EXPECT_EQ(r.cc_aborted, 1u);
}

TEST(FastFabric, OrderableConflictsCommit) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFastFabric, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  // Reader + writer of the same key: the graph orders reader first; both
  // commit (Fabric would abort the reader if validated after the writer).
  BlockResult r = e.Execute({
      Req(4, {1, 99}),     // writer (tid 1)
      Req(5, {1, 2, 0}),   // reader of key1 (tid 2) -> ordered before writer
  });
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(e.Field0(1), 99);
  EXPECT_EQ(e.Field0(2), 10);  // reader saw the pre-image consistently
}

TEST(FastFabric, CycleBrokenByAbort) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFastFabric, cfg);
  e.Load(1, 0);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(5, {1, 2, 1}),  // read a, write b
      Req(5, {2, 1, 1}),  // read b, write a -> 2-cycle
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
}

TEST(FastFabric, BlindWwBothCommitLastWins) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFastFabric, cfg);
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(4, {1, 5}), Req(4, {1, 9})});
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(e.Field0(1), 9);  // ww edge by TID: the later writer's value
}

// ---- Cross-protocol properties -----------------------------------------

class AllProtocolsTest : public ::testing::TestWithParam<DccKind> {};

TEST_P(AllProtocolsTest, DeterministicAcrossThreadCounts) {
  const DccKind kind = GetParam();
  DccConfig cfg;
  DccConfig cfg_jitter = cfg;
  cfg_jitter.straggler_prob = 0.3;
  cfg_jitter.straggler_us = 200;
  Engine a(kind, cfg, 1);
  Engine b(kind, cfg_jitter, 8);
  Rng rng(2024);
  for (Key k = 1; k <= 12; k++) {
    const int64_t v = rng.UniformRange(50, 150);
    a.Load(k, v);
    b.Load(k, v);
  }
  for (int block = 0; block < 10; block++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 15; i++) {
      const int64_t k1 = rng.UniformRange(1, 12), k2 = rng.UniformRange(1, 12);
      switch (rng.Uniform(5)) {
        case 0: txns.push_back(Req(1, {k1})); break;
        case 1: txns.push_back(Req(2, {k1, rng.UniformRange(-5, 5)})); break;
        case 2: txns.push_back(Req(4, {k1, rng.UniformRange(0, 99)})); break;
        case 3: txns.push_back(Req(5, {k1, k2, rng.UniformRange(0, 9)})); break;
        default: txns.push_back(Req(6, {k1, k2, rng.UniformRange(0, 30)})); break;
      }
    }
    BlockResult ra = a.Execute(txns);
    BlockResult rb = b.Execute(txns);
    ASSERT_EQ(ra.outcomes, rb.outcomes)
        << DccKindName(kind) << " diverged at block " << block;
  }
  EXPECT_EQ(a.Snapshot(), b.Snapshot()) << DccKindName(kind);
}

TEST_P(AllProtocolsTest, MoneyConservationUnderContention) {
  // Transfers only: every serializable execution conserves the total and
  // never overdraws (the overdraft check must see a consistent balance).
  const DccKind kind = GetParam();
  Engine e(kind, {});
  Rng rng(31337);
  const int kAccounts = 6;  // tight: heavy conflicts
  int64_t total = 0;
  for (Key k = 1; k <= kAccounts; k++) {
    e.Load(k, 100);
    total += 100;
  }
  for (int block = 0; block < 12; block++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 10; i++) {
      int64_t a = rng.UniformRange(1, kAccounts);
      int64_t b = rng.UniformRange(1, kAccounts);
      if (b == a) b = a % kAccounts + 1;
      txns.push_back(Req(6, {a, b, rng.UniformRange(1, 80)}));
    }
    e.Execute(std::move(txns));
  }
  int64_t sum = 0;
  for (Key k = 1; k <= kAccounts; k++) {
    const int64_t bal = e.Field0(k);
    EXPECT_GE(bal, 0) << DccKindName(kind) << " overdrew account " << k;
    sum += bal;
  }
  EXPECT_EQ(sum, total) << DccKindName(kind) << " lost money";
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocolsTest,
                         ::testing::Values(DccKind::kHarmony, DccKind::kAria,
                                           DccKind::kRbc, DccKind::kFabric,
                                           DccKind::kFastFabric),
                         [](const ::testing::TestParamInfo<DccKind>& info) {
                           std::string s(DccKindName(info.param));
                           for (char& c : s) {
                             if (c == '#') c = 'S';
                           }
                           return s;
                         });

// ---- False abort oracle -------------------------------------------------

TEST(FalseAbortOracle, SccOnHandGraph) {
  // 0 -> 1 -> 2 -> 0 (cycle), 3 isolated.
  std::vector<std::vector<int>> adj = {{1}, {2}, {0}, {}};
  std::vector<int> comp_size;
  const std::vector<int> comp = FalseAbortOracle::Scc(adj, &comp_size);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_NE(comp[3], comp[0]);
  EXPECT_EQ(comp_size[comp[0]], 3);
  EXPECT_EQ(comp_size[comp[3]], 1);
}

TEST(FalseAbortOracle, AriaWwAbortIsFalse) {
  // Two blind writers of one key: Aria aborts one, but there is no rw-cycle
  // — a false abort by definition.
  DccConfig cfg;
  cfg.enable_false_abort_oracle = true;
  Engine e(DccKind::kAria, cfg);
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(4, {1, 5}), Req(4, {1, 6})});
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.false_aborts, 1u);
}

TEST(FalseAbortOracle, HarmonyRealCycleAbortIsNotFalse) {
  DccConfig cfg;
  cfg.enable_false_abort_oracle = true;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 0);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(5, {1, 2, 7}),
      Req(5, {2, 1, 9}),
  });
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.false_aborts, 0u);  // genuine rw cycle
}

}  // namespace
}  // namespace harmony
