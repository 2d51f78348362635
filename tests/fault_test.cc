// Deterministic fault injection (src/testing/fault.h): the disk injector's
// failure modes, its plumbing through DiskManager and the checkpoint path,
// heal-and-recover, and the analytic network degradation plan.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include "consensus/network_model.h"
#include "core/harmonybc.h"
#include "storage/disk_manager.h"
#include "storage/state_backend.h"
#include "testing/fault.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"

namespace harmony {
namespace {

using testing::FaultInjector;
using testing::NetFaultPlan;

// ---------------------------------------------------------- injector ------

TEST(FaultInjectorTest, CertainFailureFailsEveryOp) {
  FaultInjector::Options o;
  o.seed = 3;
  o.fail_prob = 1.0;
  FaultInjector inj(o);
  size_t persist = 0;
  EXPECT_TRUE(inj.OnRead().IsIOError());
  EXPECT_TRUE(inj.OnWrite(4096, &persist).IsIOError());
  EXPECT_TRUE(inj.OnSync().IsIOError());
  EXPECT_EQ(inj.stats().failed_ops.load(), 3u);
}

TEST(FaultInjectorTest, ShortWriteReportsPrefixToPersist) {
  FaultInjector::Options o;
  o.seed = 5;
  o.short_write_prob = 1.0;
  FaultInjector inj(o);
  size_t persist = 4096;
  Status s = inj.OnWrite(4096, &persist);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_LT(persist, 4096u);  // strictly torn: some prefix, not the whole
  EXPECT_GE(inj.stats().short_writes.load(), 1u);
}

TEST(FaultInjectorTest, FailWritesAfterCountsSuccessfulWrites) {
  FaultInjector::Options o;
  o.fail_writes_after = 3;
  FaultInjector inj(o);
  size_t persist = 0;
  for (int i = 0; i < 3; i++) {
    EXPECT_OK(inj.OnWrite(64, &persist));
  }
  EXPECT_TRUE(inj.OnWrite(64, &persist).IsIOError());
  EXPECT_TRUE(inj.OnWrite(64, &persist).IsIOError());
  // Reads are unaffected by the write dropout.
  EXPECT_OK(inj.OnRead());
}

TEST(FaultInjectorTest, HealStopsInjectionAndKeepsCounters) {
  FaultInjector::Options o;
  o.fail_prob = 1.0;
  FaultInjector inj(o);
  EXPECT_TRUE(inj.OnRead().IsIOError());
  const uint64_t failed = inj.stats().failed_ops.load();
  inj.Heal();
  EXPECT_OK(inj.OnRead());
  size_t persist = 0;
  EXPECT_OK(inj.OnWrite(64, &persist));
  EXPECT_EQ(inj.stats().failed_ops.load(), failed);
}

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  // Same seed, same decision sequence — a failing run reproduces.
  FaultInjector::Options o;
  o.seed = 11;
  o.fail_prob = 0.5;
  FaultInjector a(o), b(o);
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(a.OnRead().ok(), b.OnRead().ok()) << "op " << i;
  }
}

// ---------------------------------------------- DiskManager plumbing ------

TEST(DiskFaultTest, WriteDropoutSurfacesThroughDiskManager) {
  TempDir dir("disk-fault");
  FaultInjector::Options o;
  o.fail_writes_after = 2;
  FaultInjector inj(o);
  DiskModel model = DiskModel::RamDisk();
  model.fault = &inj;
  DiskManager dm(dir.path() + "/pages", model);
  Page p;
  p.Zero();
  const PageId a = dm.AllocatePage();
  const PageId b = dm.AllocatePage();
  ASSERT_OK(dm.WritePage(a, p));
  ASSERT_OK(dm.WritePage(b, p));
  EXPECT_TRUE(dm.WritePage(a, p).IsIOError());  // device dropped out
  Page out;
  EXPECT_OK(dm.ReadPage(a, &out));  // reads still work
  inj.Heal();
  EXPECT_OK(dm.WritePage(a, p));
}

std::string BigValue(Key k, char tag) {
  // ~2KB values: 32 keys spread over ~16 pages, so a small
  // fail_writes_after budget always dies mid-flush, never after it.
  return std::string(2000, tag) + std::to_string(k);
}

TEST(DiskFaultTest, CheckpointFailsUnderDropoutThenRecoversAfterHeal) {
  // A checkpoint that dies mid-flush must surface the error; after the
  // device heals, a reopen (journal rollback) plus a fresh checkpoint
  // leaves consistent durable state.
  TempDir dir("ckpt-fault");
  std::optional<std::string> old;
  {
    DiskBackend b(dir.path(), "state", DiskModel::RamDisk(), 32);
    ASSERT_OK(b.Open());
    for (Key k = 0; k < 32; k++) {
      ASSERT_OK(b.Put(k, BigValue(k, 'v'), &old));
    }
    ASSERT_OK(b.Checkpoint());
  }
  FaultInjector::Options o;
  o.fail_writes_after = 4;
  FaultInjector inj(o);
  DiskModel model = DiskModel::RamDisk();
  model.fault = &inj;
  {
    DiskBackend b(dir.path(), "state", model, 32);
    ASSERT_OK(b.Open());
    // Same-size overwrites: updates in place, so the dirty set is exactly
    // the baseline pages and rollback restores them all.
    for (Key k = 0; k < 32; k++) {
      ASSERT_OK(b.Put(k, BigValue(k, 'w'), &old));
    }
    EXPECT_FALSE(b.Checkpoint(/*commit_epoch=*/2).ok());
  }
  inj.Heal();
  {
    // The interrupted checkpoint never committed; rollback restores the
    // baseline image exactly.
    DiskBackend b(dir.path(), "state", model, 32);
    ASSERT_OK(b.Open(/*committed_epoch=*/1));
    std::string v;
    for (Key k = 0; k < 32; k++) {
      SCOPED_TRACE(k);
      ASSERT_OK(b.Get(k, &v));
      EXPECT_EQ(v, BigValue(k, 'v'));
    }
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(DiskFaultTest, FailedJournalWriteFailsCheckpointBeforeAnyPageFlush) {
  // A journal write that comes up short (here EFBIG: the file-size limit
  // is below the journal's size) must fail the checkpoint before a single
  // table page is overwritten — a trailer-less journal cannot roll back.
  TempDir dir("journal-fault");
  std::optional<std::string> old;
  {
    DiskBackend b(dir.path(), "state", DiskModel::RamDisk(), 32);
    ASSERT_OK(b.Open());
    for (Key k = 0; k < 32; k++) {
      ASSERT_OK(b.Put(k, BigValue(k, 'v'), &old));
    }
    ASSERT_OK(b.Checkpoint());
  }
  const std::string table = dir.path() + "/state.tbl";
  const std::string baseline = ReadWholeFile(table);
  ASSERT_GT(baseline.size(), 4 * kPageSize);

  // The limit acts on the forked child alone; SIGXFSZ is ignored so the
  // oversized write fails with EFBIG instead of killing the child.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    DiskBackend b(dir.path(), "state", DiskModel::RamDisk(), 32);
    if (!b.Open().ok()) ::_exit(2);
    for (Key k = 0; k < 32; k++) {
      if (!b.Put(k, BigValue(k, 'w'), &old).ok()) ::_exit(2);
    }
    const rlim_t limit = 2 * kPageSize;  // the journal needs ~16 pages
    struct rlimit rl = {limit, limit};
    if (::setrlimit(RLIMIT_FSIZE, &rl) != 0) ::_exit(2);
    ::_exit(b.Checkpoint(/*commit_epoch=*/2).ok() ? 1 : 0);
  }
  int st = 0;
  ASSERT_EQ(::waitpid(pid, &st, 0), pid);
  ASSERT_TRUE(WIFEXITED(st)) << "child died with status " << st;
  EXPECT_EQ(WEXITSTATUS(st), 0) << "1 = checkpoint succeeded, 2 = setup";
  EXPECT_TRUE(ReadWholeFile(table) == baseline) << "a table page changed";

  // The partial journal is dropped at open; the baseline reads back.
  DiskBackend b(dir.path(), "state", DiskModel::RamDisk(), 32);
  ASSERT_OK(b.Open(/*committed_epoch=*/1));
  std::string v;
  for (Key k = 0; k < 32; k++) {
    SCOPED_TRACE(k);
    ASSERT_OK(b.Get(k, &v));
    EXPECT_EQ(v, BigValue(k, 'v'));
  }
}

// -------------------------------------------------- end-to-end delays -----

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

TEST(DiskFaultTest, DatabaseStaysCorrectUnderInjectedDelays) {
  // Delays reorder I/O completion without corrupting anything: the full
  // commit pipeline must stay correct, just slower.
  TempDir dir("delay-fault");
  FaultInjector::Options fo;
  fo.seed = 9;
  fo.delay_prob = 0.3;
  fo.delay_us = 200;
  FaultInjector inj(fo);
  HarmonyBC::Options o;
  o.dir = dir.path();
  o.disk = DiskModel::RamDisk();
  o.disk.fault = &inj;
  o.block_size = 4;
  o.threads = 2;
  o.checkpoint_every = 3;
  o.max_block_delay_us = 500;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  (*db)->RegisterProcedure(2, "increment", Increment);
  for (Key k = 0; k < 8; k++) {
    ASSERT_OK((*db)->Load(k, Value({0})));
  }
  ASSERT_OK((*db)->Recover().status());
  auto session = (*db)->OpenSession(1);
  for (size_t i = 0; i < 64; i++) {
    TxnRequest t;
    t.proc_id = 2;
    t.client_seq = i + 1;
    t.args.ints = {static_cast<int64_t>(i % 8), 1};
    session->Submit(std::move(t));
  }
  ASSERT_OK((*db)->Sync());
  ASSERT_OK((*db)->AuditChain());
  EXPECT_GT(inj.stats().delayed_ops.load(), 0u);  // genuinely degraded
}

// ---------------------------------------------------- network plan --------

TEST(NetFaultPlanTest, PartitionPenalizesOnlyCrossBoundaryLinks) {
  NetFaultPlan plan;
  plan.partition_boundary = 2;
  plan.partition_penalty_us = 1000;
  EXPECT_EQ(plan.AdjustOneWayUs(0, 0, 100), 100u);  // self link untouched
  EXPECT_EQ(plan.AdjustOneWayUs(0, 1, 100), 100u);  // same side
  EXPECT_EQ(plan.AdjustOneWayUs(2, 3, 100), 100u);  // same side
  EXPECT_EQ(plan.AdjustOneWayUs(1, 2, 100), 1100u);  // across
  EXPECT_EQ(plan.AdjustOneWayUs(3, 0, 100), 1100u);  // across, either way
}

TEST(NetFaultPlanTest, JitterIsBoundedAndDeterministic) {
  NetFaultPlan plan;
  plan.jitter_max_us = 50;
  plan.jitter_seed = 17;
  for (NodeId a = 0; a < 4; a++) {
    for (NodeId b = 0; b < 4; b++) {
      if (a == b) continue;
      const uint64_t us = plan.AdjustOneWayUs(a, b, 100);
      EXPECT_GE(us, 100u);
      EXPECT_LE(us, 150u);
      EXPECT_EQ(us, plan.AdjustOneWayUs(a, b, 100));  // pure function
    }
  }
}

TEST(NetFaultPlanTest, PlumbedThroughNetworkModel) {
  NetFaultPlan plan;
  plan.extra_delay_us = 250;
  NetworkModel net;
  net.nodes = 4;
  const uint64_t base = net.OneWayUs(0, 1);
  net.fault = &plan;
  EXPECT_EQ(net.OneWayUs(0, 1), base + 250);
  EXPECT_EQ(net.OneWayUs(1, 1), 0u);  // local stays local
  // Partition pushes the far side out of the near-quorum.
  plan.partition_boundary = 2;
  plan.partition_penalty_us = 500'000;
  EXPECT_GT(net.OneWayUs(0, 2), 500'000u);
  EXPECT_LT(net.QuorumOneWayUs(0, 1), 500'000u);  // nearest peer same side
}

}  // namespace
}  // namespace harmony
