#include <gtest/gtest.h>

#include "core/harmonybc.h"
#include "obs/events.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

HarmonyBC::Options FastOpts(const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.disk = DiskModel::RamDisk();
  o.block_size = 8;
  o.threads = 4;
  o.checkpoint_every = 4;
  return o;
}

TEST(HarmonyBC, QuickstartFlow) {
  TempDir dir("bc1");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 10; k++) {
    ASSERT_OK((*db)->Load(k, Value({1000})));
  }
  auto tip = (*db)->Recover();
  ASSERT_TRUE(tip.ok());
  EXPECT_EQ(*tip, 0u);

  for (int i = 0; i < 40; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {i % 10, (i + 1) % 10, 10};
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  ASSERT_OK((*db)->Sync());
  EXPECT_GE((*db)->height(), 5u);

  int64_t total = 0;
  for (Key k = 0; k < 10; k++) {
    std::optional<Value> v;
    ASSERT_OK((*db)->Query(k, &v));
    total += v->field(0);
  }
  EXPECT_EQ(total, 10000);  // transfers conserve money
  ASSERT_OK((*db)->AuditChain());
  EXPECT_GT((*db)->stats().committed.load(), 0u);
}

TEST(HarmonyBC, RestartRecoversAndExtendsChain) {
  TempDir dir("bc2");
  Digest before;
  {
    auto db = HarmonyBC::Open(FastOpts(dir.path()));
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({500})));
    ASSERT_OK((*db)->Recover().status());
    for (int i = 0; i < 20; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {i % 4, (i + 1) % 4, 5};
      ASSERT_OK((*db)->Submit(std::move(t)));
    }
    ASSERT_OK((*db)->Sync());
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    before = *d;
    // No clean shutdown: dirty pages beyond the last checkpoint are lost.
  }
  {
    auto db = HarmonyBC::Open(FastOpts(dir.path()));
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    auto tip = (*db)->Recover();
    ASSERT_TRUE(tip.ok()) << tip.status().ToString();
    EXPECT_GT(*tip, 0u);
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(DigestToHex(*d), DigestToHex(before));

    // The chain keeps extending after recovery.
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1, 1};
    ASSERT_OK((*db)->Submit(std::move(t)));
    ASSERT_OK((*db)->Sync());
    ASSERT_OK((*db)->AuditChain());
  }
}

TEST(HarmonyBC, AllProtocolsViaFacade) {
  for (DccKind kind : {DccKind::kHarmony, DccKind::kAria, DccKind::kRbc,
                       DccKind::kFabric, DccKind::kFastFabric}) {
    TempDir dir("bc3");
    HarmonyBC::Options o = FastOpts(dir.path());
    o.protocol = kind;
    auto db = HarmonyBC::Open(o);
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "transfer", Transfer);
    for (Key k = 0; k < 6; k++) ASSERT_OK((*db)->Load(k, Value({100})));
    for (int i = 0; i < 24; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {i % 6, (i + 2) % 6, 3};
      ASSERT_OK((*db)->Submit(std::move(t)));
    }
    ASSERT_OK((*db)->Sync());
    int64_t total = 0;
    for (Key k = 0; k < 6; k++) {
      std::optional<Value> v;
      ASSERT_OK((*db)->Query(k, &v));
      total += v->field(0);
    }
    EXPECT_EQ(total, 600) << DccKindName(kind);
  }
}

TEST(HarmonyBC, ContendedRunExportsDccCounters) {
  // Transfers over four hot accounts: Rule 1 aborts, insufficient-funds
  // logic aborts, and (inter-block parallelism on by default) stale reads
  // repaired at commit. The registry must carry all of it, and every
  // simulated transaction must land in exactly one outcome.
  TempDir dir("bc-dcc");
  HarmonyBC::Options opts = FastOpts(dir.path());
  opts.dcc.enable_false_abort_oracle = true;
  auto db = HarmonyBC::Open(opts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->options().dcc.harmony_inter_block);
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({100})));
  ASSERT_OK((*db)->Recover().status());
  for (int i = 0; i < 400; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {i % 4, (i * 7 + 1) % 4, 20 + (i * 13) % 50};
    if (t.args.ints[0] == t.args.ints[1]) t.args.ints[1] = (i + 1) % 4;
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  ASSERT_OK((*db)->Sync());

  const obs::MetricsSnapshot snap = (*db)->CollectMetrics();
  auto counter = [&](const char* name) -> uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << name << " not exported";
    return 0;
  };
  const uint64_t simulated = counter(obs::kCounterDccSimulated);
  const uint64_t committed = counter(obs::kCounterDccCommitted);
  const uint64_t cc_aborted = counter(obs::kCounterDccCcAborted);
  const uint64_t logic_aborted = counter(obs::kCounterDccLogicAborted);
  const uint64_t repaired = counter(obs::kCounterDccRepaired);
  const uint64_t dangerous = counter(obs::kCounterDccDangerousHits);
  const uint64_t false_aborts = counter(obs::kCounterDccFalseAborts);
  EXPECT_GE(simulated, 400u);
  EXPECT_GT(committed, 0u);
  EXPECT_GT(cc_aborted, 0u);
  EXPECT_GT(logic_aborted, 0u);
  EXPECT_GT(repaired, 0u);
  EXPECT_LE(repaired, simulated);
  EXPECT_EQ(committed + cc_aborted + logic_aborted, simulated);
  EXPECT_EQ(simulated, (*db)->stats().simulated.load());
  // Rule 1 aborts come from dangerous structures; the oracle's false
  // aborts are a subset of the CC aborts.
  EXPECT_GT(dangerous, 0u);
  EXPECT_LE(dangerous, simulated);
  EXPECT_EQ(dangerous, (*db)->stats().dangerous_hits.load());
  EXPECT_LE(false_aborts, cc_aborted);
  EXPECT_EQ(false_aborts, (*db)->stats().false_aborts.load());
}

TEST(HarmonyBC, IngestCountersMirrorIngestStats) {
  // CollectMetrics mirrors every IngestStats field into an ingest.*
  // counter, advancing by delta, so a later snapshot tracks new traffic.
  TempDir dir("bc-ingest");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({100})));
  ASSERT_OK((*db)->Recover().status());
  auto session = (*db)->OpenSession(/*client_id=*/7);
  // Contended transfers (CC aborts feed the retry lane) plus a replay of
  // an already-used client_seq (a duplicate).
  auto submit_round = [&](uint64_t seq0) {
    for (uint64_t i = 0; i < 100; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.client_seq = seq0 + i;
      t.args.ints = {static_cast<int64_t>(i % 4),
                     static_cast<int64_t>((i + 1) % 4), 1};
      session->Submit(std::move(t));
    }
    TxnRequest dup;
    dup.proc_id = 1;
    dup.client_seq = seq0;
    dup.args.ints = {0, 1, 1};
    session->Submit(std::move(dup));
    ASSERT_OK((*db)->Sync());
  };
  auto expect_mirrored = [&] {
    const obs::MetricsSnapshot snap = (*db)->CollectMetrics();
    auto counter = [&](const char* name) -> uint64_t {
      for (const auto& c : snap.counters) {
        if (c.name == name) return c.value;
      }
      ADD_FAILURE() << name << " not exported";
      return 0;
    };
    const IngestStats& is = (*db)->ingest_stats();
    const std::pair<const char*, uint64_t> fields[] = {
        {obs::kCounterIngestSubmitted, is.submitted.load()},
        {obs::kCounterIngestAdmitted, is.admitted.load()},
        {obs::kCounterIngestDuplicates, is.duplicates.load()},
        {obs::kCounterIngestRejected, is.rejected.load()},
        {obs::kCounterIngestRateLimited, is.rate_limited.load()},
        {obs::kCounterIngestDemoted, is.demoted.load()},
        {obs::kCounterIngestBackpressured, is.backpressured.load()},
        {obs::kCounterIngestRetriesEnqueued, is.retries_enqueued.load()},
        {obs::kCounterIngestRetriesDropped, is.retries_dropped.load()},
        {obs::kCounterIngestSealedBlocks, is.sealed_blocks.load()},
        {obs::kCounterIngestSealedTxns, is.sealed_txns.load()},
        {obs::kCounterIngestSizeSeals, is.size_seals.load()},
        {obs::kCounterIngestDeadlineSeals, is.deadline_seals.load()},
        {obs::kCounterIngestFlushSeals, is.flush_seals.load()},
        {obs::kCounterIngestSealedLaneTxns[0], is.sealed_lane_txns[0].load()},
        {obs::kCounterIngestSealedLaneTxns[1], is.sealed_lane_txns[1].load()},
        {obs::kCounterIngestSealedLaneTxns[2], is.sealed_lane_txns[2].load()},
        {obs::kCounterIngestSealedRetryTxns, is.sealed_retry_txns.load()},
    };
    for (const auto& [name, value] : fields) {
      EXPECT_EQ(counter(name), value) << name;
    }
    return counter(obs::kCounterIngestSubmitted);
  };
  submit_round(1);
  EXPECT_EQ(expect_mirrored(), 101u);
  const IngestStats& is = (*db)->ingest_stats();
  EXPECT_EQ(is.duplicates.load(), 1u);
  EXPECT_GT(is.retries_enqueued.load(), 0u);
  EXPECT_GT(is.sealed_retry_txns.load(), 0u);
  submit_round(1001);
  EXPECT_EQ(expect_mirrored(), 202u);
}

TEST(HarmonyBC, PeriodicCheckpointsExportDurationAndWaits) {
  // Page writes far slower than a block: each periodic checkpoint is still
  // persisting when the next one is captured, so the commit path waits.
  // Every periodic checkpoint lands in the duration histogram once Sync()
  // returns (Drain waits for the one in flight).
  TempDir dir("bc-ckpt");
  HarmonyBC::Options opts = FastOpts(dir.path());
  opts.checkpoint_every = 1;
  opts.disk.write_latency_us = 20000;
  auto db = HarmonyBC::Open(opts);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 64; k++) ASSERT_OK((*db)->Load(k, Value({100})));
  ASSERT_OK((*db)->Recover().status());
  for (int i = 0; i < 80; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {i % 64, (i + 1) % 64, 1};
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  ASSERT_OK((*db)->Sync());

  const obs::MetricsSnapshot snap = (*db)->CollectMetrics();
  uint64_t waits = 0;
  bool have_waits = false;
  for (const auto& c : snap.counters) {
    if (c.name == obs::kCounterCheckpointWaits) {
      waits = c.value;
      have_waits = true;
    }
  }
  const obs::HistogramSnapshot* duration = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == obs::kHistCheckpointUs) duration = &h;
  }
  ASSERT_TRUE(have_waits);
  ASSERT_NE(duration, nullptr);
  const uint64_t checkpoints = (*db)->height();  // one per block
  EXPECT_GE(checkpoints, 10u);
  EXPECT_EQ(duration->count, checkpoints);
  EXPECT_GE(duration->max, opts.disk.write_latency_us);
  EXPECT_GT(waits, 0u);
  EXPECT_LT(waits, checkpoints);
}

}  // namespace
}  // namespace harmony
