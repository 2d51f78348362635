#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "consensus/orderer.h"
#include "core/harmonybc.h"
#include "replica/replica.h"
#include "testing/crash_point.h"
#include "tests/test_util.h"
#include "workload/smallbank.h"

namespace harmony {
namespace {

ReplicaOptions FastOptions(const std::string& dir, DccKind dcc) {
  ReplicaOptions ro;
  ro.dir = dir;
  ro.dcc = dcc;
  ro.disk = DiskModel::RamDisk();
  ro.threads = 4;
  ro.pool_pages = 512;
  ro.checkpoint_every = 5;
  return ro;
}

void RegisterCounterProc(Replica& r) {
  r.RegisterProcedure(1, "incr", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
}

Block NextBlock(Orderer& ord, std::vector<TxnRequest> txns) {
  return ord.SealBlock(std::move(txns), 0);
}

TxnRequest Incr(Key k, int64_t d) {
  TxnRequest t;
  t.proc_id = 1;
  t.args.ints = {static_cast<int64_t>(k), d};
  return t;
}

TEST(Replica, EndToEndCommitAndQuery) {
  TempDir dir("rep1");
  Replica r(FastOptions(dir.path(), DccKind::kHarmony));
  ASSERT_OK(r.Open());
  RegisterCounterProc(r);
  ASSERT_OK(r.LoadRow(1, Value({100})));

  KafkaOrderer ord("orderer-secret", NetworkModel{});
  for (int b = 0; b < 12; b++) {
    ASSERT_OK(r.SubmitBlock(NextBlock(ord, {Incr(1, 1), Incr(1, 2)})));
  }
  ASSERT_OK(r.Drain());
  EXPECT_EQ(r.last_committed(), 12u);

  std::optional<Value> v;
  ASSERT_OK(r.Query(1, &v));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 100 + 12 * 3);
  ASSERT_OK(r.AuditChain());
}

TEST(Replica, RejectsTamperedBlock) {
  TempDir dir("rep2");
  Replica r(FastOptions(dir.path(), DccKind::kHarmony));
  ASSERT_OK(r.Open());
  RegisterCounterProc(r);
  ASSERT_OK(r.LoadRow(1, Value({0})));
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  Block b = NextBlock(ord, {Incr(1, 5)});
  b.batch.txns[0].args.ints[1] = 5000000;  // tamper
  EXPECT_TRUE(r.SubmitBlock(std::move(b)).IsCorruption());
}

TEST(Replica, RecoveryReplaysToIdenticalState) {
  TempDir dir_a("recov-a");
  TempDir dir_b("recov-b");
  // Twin A runs straight through. Twin B "crashes" (destructed without a
  // final checkpoint) and recovers by replaying its logical log.
  Digest digest_a, digest_b;
  KafkaOrderer ord_a("orderer-secret", NetworkModel{});
  KafkaOrderer ord_b("orderer-secret", NetworkModel{});
  std::vector<std::vector<TxnRequest>> blocks;
  Rng rng(5);
  for (int b = 0; b < 17; b++) {  // 17: not a checkpoint multiple
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 6; i++) {
      txns.push_back(Incr(rng.Uniform(10), rng.UniformRange(1, 9)));
    }
    blocks.push_back(std::move(txns));
  }
  {
    Replica a(FastOptions(dir_a.path(), DccKind::kHarmony));
    ASSERT_OK(a.Open());
    RegisterCounterProc(a);
    for (Key k = 0; k < 10; k++) ASSERT_OK(a.LoadRow(k, Value({0})));
    for (auto& t : blocks) ASSERT_OK(a.SubmitBlock(NextBlock(ord_a, t)));
    ASSERT_OK(a.Drain());
    auto d = a.StateDigest();
    ASSERT_TRUE(d.ok());
    digest_a = *d;
  }
  {
    Replica b(FastOptions(dir_b.path(), DccKind::kHarmony));
    ASSERT_OK(b.Open());
    RegisterCounterProc(b);
    for (Key k = 0; k < 10; k++) ASSERT_OK(b.LoadRow(k, Value({0})));
    for (auto& t : blocks) ASSERT_OK(b.SubmitBlock(NextBlock(ord_b, t)));
    ASSERT_OK(b.Drain());
    // Crash: destructor drops dirty pages; blocks after the checkpoint at
    // block 15 are un-checkpointed.
  }
  {
    Replica b(FastOptions(dir_b.path(), DccKind::kHarmony));
    ASSERT_OK(b.Open());
    RegisterCounterProc(b);
    auto tip = b.Recover();
    ASSERT_TRUE(tip.ok()) << tip.status().ToString();
    EXPECT_EQ(*tip, 17u);
    auto d = b.StateDigest();
    ASSERT_TRUE(d.ok());
    digest_b = *d;
  }
  EXPECT_EQ(DigestToHex(digest_a), DigestToHex(digest_b));
}

TEST(Replica, RecoveryIsIdempotent) {
  TempDir dir("recov2");
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  {
    Replica r(FastOptions(dir.path(), DccKind::kHarmony));
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    ASSERT_OK(r.LoadRow(1, Value({0})));
    for (int b = 0; b < 7; b++) {
      ASSERT_OK(r.SubmitBlock(NextBlock(ord, {Incr(1, 1)})));
    }
    ASSERT_OK(r.Drain());
  }
  for (int round = 0; round < 2; round++) {
    Replica r(FastOptions(dir.path(), DccKind::kHarmony));
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    auto tip = r.Recover();
    ASSERT_TRUE(tip.ok());
    std::optional<Value> v;
    ASSERT_OK(r.Query(1, &v));
    EXPECT_EQ(v->field(0), 7);
    ASSERT_OK(r.Checkpoint());
  }
}

TEST(Replica, RecoverFailsOnCorruptPreCheckpointRecordBeforeReplay) {
  TempDir dir("recov-corrupt");
  const ReplicaOptions opts = FastOptions(dir.path(), DccKind::kHarmony);
  KafkaOrderer ord("orderer-secret", NetworkModel{});
  {
    Replica r(opts);
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    ASSERT_OK(r.LoadRow(1, Value({0})));
    ASSERT_OK(r.Checkpoint());
    for (int b = 0; b < 8; b++) {
      ASSERT_OK(r.SubmitBlock(NextBlock(ord, {Incr(1, 1)})));
    }
    ASSERT_OK(r.Drain());
    // Crash: state through the checkpoint at block 5 is durable; blocks
    // 6..8 live only in the log.
  }
  // Rewrite the log with block 2 tampered after sealing. The records stay
  // CRC-valid, so the open scan keeps them and only the audit can object.
  const std::string chain = dir.path() + "/" + opts.name + ".chain";
  {
    std::vector<Block> blocks;
    {
      BlockStore store(chain);
      ASSERT_OK(store.Open());
      ASSERT_OK(store.ReadAll(&blocks));
    }
    ASSERT_EQ(blocks.size(), 8u);
    blocks[1].batch.txns[0].args.ints[1] = 1000;
    ASSERT_EQ(std::remove(chain.c_str()), 0);
    BlockStore store(chain);
    ASSERT_OK(store.Open());
    for (const Block& b : blocks) ASSERT_OK(store.Append(b));
  }
  Replica r(opts);
  ASSERT_OK(r.Open());
  RegisterCounterProc(r);
  size_t replayed = 0;
  r.SetCommitCallback([&](const Block&, const BlockResult&) { replayed++; });
  auto tip = r.Recover();
  EXPECT_TRUE(tip.status().IsCorruption()) << tip.status().ToString();
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ(r.last_committed(), 0u);
  std::optional<Value> v;
  ASSERT_OK(r.Query(1, &v));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->field(0), 5);  // the checkpointed state, nothing replayed
}

// A checkpoint persists on the replica's worker while later blocks commit.
// Crash at a point inside that worker after blocks past the checkpoint have
// committed: the on-disk image is then a torn or unmanifested checkpoint
// plus a block log running ahead of it, and recovery must still reach the
// state of a replica that never crashed.
class InFlightCheckpointCrashTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(InFlightCheckpointCrashTest, RecoversToReferenceDigest) {
  TempDir dir("ckpt-live");
  TempDir image("ckpt-image");
  TempDir ref_dir("ckpt-ref");
  ReplicaOptions opts = FastOptions(dir.path(), DccKind::kHarmony);
  // One flush writer: the crash point then stops the whole flush, and the
  // file copy below is a consistent crash image.
  opts.flush_threads = 1;
  constexpr BlockId kBlocks = 8;  // checkpoint at 5; 6..8 commit after it
  std::vector<std::vector<TxnRequest>> blocks;
  Rng rng(11);
  for (BlockId b = 0; b < kBlocks; b++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 6; i++) {
      txns.push_back(Incr(rng.Uniform(40), rng.UniformRange(1, 9)));
    }
    blocks.push_back(std::move(txns));
  }
  auto genesis = [](Replica& r) {
    for (Key k = 0; k < 40; k++) ASSERT_OK(r.LoadRow(k, Value({0})));
    ASSERT_OK(r.Checkpoint());
  };

  Digest want;
  {
    ReplicaOptions ro = opts;
    ro.dir = ref_dir.path();
    Replica ref(ro);
    ASSERT_OK(ref.Open());
    RegisterCounterProc(ref);
    genesis(ref);
    KafkaOrderer ord("orderer-secret", NetworkModel{});
    for (const auto& t : blocks) ASSERT_OK(ref.SubmitBlock(NextBlock(ord, t)));
    ASSERT_OK(ref.Drain());
    auto d = ref.StateDigest();
    ASSERT_TRUE(d.ok());
    want = *d;
  }

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  {
    Replica r(opts);
    ASSERT_OK(r.Open());
    RegisterCounterProc(r);
    genesis(r);
    // The handler parks the checkpoint worker at the point; the gate below
    // is declared after the replica, so it reopens before ~Replica waits
    // for the worker, whatever assertion returns early.
    testing::ArmCrashPointForTest(GetParam(), /*hit=*/1, [&] {
      entered.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    struct Gate {
      std::atomic<bool>* open;
      ~Gate() {
        open->store(true);
        testing::DisarmCrashPoints();
      }
    } gate{&release};
    KafkaOrderer ord("orderer-secret", NetworkModel{});
    for (const auto& t : blocks) ASSERT_OK(r.SubmitBlock(NextBlock(ord, t)));
    const uint64_t deadline = NowMicros() + 20'000'000;
    while ((r.last_committed() < kBlocks || !entered.load()) &&
           NowMicros() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(r.last_committed(), kBlocks);
    ASSERT_TRUE(entered.load()) << GetParam() << " never fired";
    // The crash image: every file as the worker left it at the point.
    for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
      std::filesystem::copy(e.path(), image.path() + "/" +
                                          e.path().filename().string());
    }
    release.store(true);
    ASSERT_OK(r.Drain());
  }

  ReplicaOptions ro = opts;
  ro.dir = image.path();
  Replica recovered(ro);
  ASSERT_OK(recovered.Open());
  RegisterCounterProc(recovered);
  auto tip = recovered.Recover();
  ASSERT_TRUE(tip.ok()) << tip.status().ToString();
  EXPECT_EQ(*tip, kBlocks);
  auto got = recovered.StateDigest();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(DigestToHex(*got), DigestToHex(want));
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, InFlightCheckpointCrashTest,
    ::testing::Values("replica.checkpoint.before_manifest",
                      "storage.flush.mid"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string s(info.param);
      for (char& c : s) {
        if (c == '.') c = '_';
      }
      return s;
    });

class SessionChainReplayTest : public ::testing::TestWithParam<DccKind> {};

TEST_P(SessionChainReplayTest, ReplayedChainReachesTheSameState) {
  // Contended Smallbank through the session pipeline (CC aborts requeued on
  // the retry lane), then the stored chain re-executed on a fresh replica
  // with the same procedures and genesis: both must reach the same state.
  TempDir dir("chain-replay");
  const ReplicaOptions ro = FastOptions(dir.path(), GetParam());
  SmallbankConfig sb;
  sb.num_accounts = 200;
  sb.skew = 0.9;  // contentious: aborts + retries exercised

  HarmonyBC::Options o;
  o.dir = dir.path() + "/live";
  o.protocol = ro.dcc;
  o.disk = ro.disk;
  o.threads = ro.threads;
  o.pool_pages = ro.pool_pages;
  o.checkpoint_every = ro.checkpoint_every;
  o.block_size = 10;
  o.max_txn_retries = 20;
  o.max_block_delay_us = 1000;
  std::filesystem::create_directories(o.dir);
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  SmallbankWorkload workload(sb);
  ASSERT_OK(workload.Setup(*(*db)->replica()));
  ASSERT_OK((*db)->Recover().status());

  auto session = (*db)->OpenSession();
  std::vector<TxnTicket> tickets;
  for (int i = 0; i < 300; i++) {
    tickets.push_back(session->Submit(workload.Next()));
  }
  size_t committed = 0;
  for (const TxnTicket& t : tickets) {
    if (t.Wait().outcome == ReceiptOutcome::kCommitted) committed++;
  }
  EXPECT_GT(committed, 250u);
  ASSERT_OK((*db)->Sync());
  auto live = (*db)->StateDigest();
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  std::vector<Block> chain;
  ASSERT_OK((*db)->replica()->block_store()->ReadAll(&chain));
  ASSERT_FALSE(chain.empty());

  ReplicaOptions replay_opts = ro;
  replay_opts.dir = dir.path() + "/replay";
  std::filesystem::create_directories(replay_opts.dir);
  Replica replay(replay_opts);
  ASSERT_OK(replay.Open());
  SmallbankWorkload genesis(sb);
  ASSERT_OK(genesis.Setup(replay));
  for (Block& b : chain) ASSERT_OK(replay.SubmitBlock(std::move(b)));
  ASSERT_OK(replay.Drain());
  auto replayed = replay.StateDigest();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, *live);
}

INSTANTIATE_TEST_SUITE_P(Protocols, SessionChainReplayTest,
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

}  // namespace
}  // namespace harmony
