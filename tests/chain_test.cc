#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/codec.h"
#include "testing/crash_point.h"
#include "testing/fuzz.h"
#include "tests/test_util.h"

#include <fcntl.h>
#include <unistd.h>

namespace harmony {
namespace {

TxnBatch MakeBatch(BlockId id, TxnId first_tid, size_t n) {
  TxnBatch b;
  b.block_id = id;
  b.first_tid = first_tid;
  for (size_t i = 0; i < n; i++) {
    TxnRequest t;
    t.proc_id = 7;
    t.client_seq = first_tid + i;
    t.fee = 10 * i;  // priority fee rides the wire format (log v3)
    t.args.ints = {static_cast<int64_t>(i), -5, 123456789};
    t.args.blob = "blob-" + std::to_string(i);
    b.txns.push_back(std::move(t));
  }
  return b;
}

TEST(BlockCodec, RoundTrip) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 5), 12345);
  const std::string bytes = BlockCodec::Encode(b);
  Block d;
  ASSERT_OK(BlockCodec::Decode(bytes, &d));
  EXPECT_EQ(d.header.block_id, 1u);
  EXPECT_EQ(d.header.txn_count, 5u);
  EXPECT_EQ(d.header.block_hash, b.header.block_hash);
  EXPECT_EQ(d.header.signature, b.header.signature);
  ASSERT_EQ(d.batch.txns.size(), 5u);
  EXPECT_EQ(d.batch.txns[3].args.blob, "blob-3");
  EXPECT_EQ(d.batch.txns[3].args.ints[2], 123456789);
  EXPECT_EQ(d.batch.txns[3].fee, 30u);
}

TEST(BlockCodec, DecodeRejectsTruncation) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 3), 0);
  std::string bytes = BlockCodec::Encode(b);
  Block d;
  EXPECT_FALSE(BlockCodec::Decode(bytes.substr(0, bytes.size() / 2), &d).ok());
  EXPECT_FALSE(BlockCodec::Decode("", &d).ok());
}

TEST(ChainVerifier, AcceptsHonestChain) {
  BlockBuilder builder("secret");
  ChainVerifier v("secret");
  TxnId tid = 1;
  for (BlockId i = 1; i <= 5; i++) {
    Block b = builder.Seal(MakeBatch(i, tid, 4), 0);
    tid += 4;
    ASSERT_OK(v.Verify(b));
  }
}

TEST(ChainVerifier, DetectsTamperedTransaction) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 4), 0);
  b.batch.txns[2].args.ints[0] = 9999;  // tamper after sealing
  ChainVerifier v("secret");
  EXPECT_TRUE(v.Verify(b).IsCorruption());
}

TEST(ChainVerifier, DetectsBrokenChainLink) {
  BlockBuilder builder("secret");
  Block b1 = builder.Seal(MakeBatch(1, 1, 2), 0);
  Block b2 = builder.Seal(MakeBatch(2, 3, 2), 0);
  b2.header.prev_hash.fill(0xAB);  // break the link (and the header hash)
  ChainVerifier v("secret");
  ASSERT_OK(v.Verify(b1));
  EXPECT_TRUE(v.Verify(b2).IsCorruption());
}

TEST(ChainVerifier, DetectsForgedSignature) {
  BlockBuilder builder("wrong-secret");
  Block b = builder.Seal(MakeBatch(1, 1, 2), 0);
  ChainVerifier v("secret");
  EXPECT_TRUE(v.Verify(b).IsCorruption());
}

TEST(ChainVerifier, WholeChainAudit) {
  BlockBuilder builder("secret");
  std::vector<Block> chain;
  TxnId tid = 1;
  for (BlockId i = 1; i <= 8; i++) {
    chain.push_back(builder.Seal(MakeBatch(i, tid, 3), 0));
    tid += 3;
  }
  ASSERT_OK(ChainVerifier::VerifyChain(chain, "secret"));
  // Tamper with a middle block: audit must fail.
  chain[4].batch.txns[0].proc_id = 42;
  EXPECT_TRUE(ChainVerifier::VerifyChain(chain, "secret").IsCorruption());
}

TEST(BlockStore, AppendAndReadBack) {
  TempDir dir("bs");
  BlockStore store(dir.path() + "/chain.log");
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  TxnId tid = 1;
  for (BlockId i = 1; i <= 6; i++) {
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, tid, 2), 0)));
    tid += 2;
  }
  EXPECT_EQ(store.last_block_id(), 6u);
  EXPECT_EQ(store.num_blocks(), 6u);

  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[5].header.block_id, 6u);

  std::vector<Block> after;
  ASSERT_OK(store.ReadBlocksAfter(4, &after));
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].header.block_id, 5u);
}

TEST(BlockStore, ForEachVisitsRecordsInOrder) {
  TempDir dir("bs-each");
  BlockStore store(dir.path() + "/chain.log");
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  for (BlockId i = 1; i <= 6; i++) {
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, 2 * i - 1, 2), 0)));
  }
  std::vector<BlockId> seen;
  ASSERT_OK(store.ForEach([&](Block&& b) {
    seen.push_back(b.header.block_id);
    EXPECT_EQ(b.batch.txns.size(), 2u);
    return Status::OK();
  }));
  EXPECT_EQ(seen, (std::vector<BlockId>{1, 2, 3, 4, 5, 6}));
}

TEST(BlockStore, ForEachStopsWhenCallbackFails) {
  TempDir dir("bs-stop");
  BlockStore store(dir.path() + "/chain.log");
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  for (BlockId i = 1; i <= 6; i++) {
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, 2 * i - 1, 2), 0)));
  }
  std::vector<BlockId> seen;
  Status s = store.ForEach([&](Block&& b) {
    seen.push_back(b.header.block_id);
    return b.header.block_id == 3 ? Status::Aborted("stop here")
                                  : Status::OK();
  });
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(seen, (std::vector<BlockId>{1, 2, 3}));
}

TEST(BlockStore, ForEachReportsCorruptMiddleRecord) {
  TempDir dir("bs-corrupt");
  const std::string path = dir.path() + "/chain.log";
  BlockStore store(path);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  for (BlockId i = 1; i <= 6; i++) {
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, 2 * i - 1, 2), 0)));
  }
  // Flip one byte in the middle of the file on the open handle (a fresh
  // Open would cut the damaged suffix off as a torn tail).
  {
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const off_t mid = ::lseek(fd, 0, SEEK_END) / 2;
    char c = 0;
    ASSERT_EQ(::pread(fd, &c, 1, mid), 1);
    c ^= 0x01;
    ASSERT_EQ(::pwrite(fd, &c, 1, mid), 1);
    ::close(fd);
  }
  size_t visited = 0;
  Status s = store.ForEach([&](Block&&) {
    visited++;
    return Status::OK();
  });
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GT(visited, 0u);
  EXPECT_LT(visited, 6u);
}

TEST(BlockStore, SurvivesReopenAndRepairsTornTail) {
  TempDir dir("bs2");
  const std::string path = dir.path() + "/chain.log";
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(1, 1, 2), 0)));
    ASSERT_OK(store.Append(builder.Seal(MakeBatch(2, 3, 2), 0)));
  }
  // Simulate a torn append: garbage partial record at the tail.
  {
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const uint32_t bogus_len = 100000;
    ASSERT_EQ(::write(fd, &bogus_len, 4), 4);
    ASSERT_EQ(::write(fd, "garbage", 7), 7);
    ::close(fd);
  }
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 2u);
  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.size(), 2u);
  // Appends continue cleanly after repair.
  BlockBuilder builder2("secret");
  builder2.ResumeFrom(all.back().header.block_hash);
  Block b3;
  {
    TxnBatch batch = MakeBatch(3, 5, 1);
    b3 = builder2.Seal(std::move(batch), 0);
  }
  ASSERT_OK(store.Append(b3));
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.size(), 3u);
  ASSERT_OK(ChainVerifier::VerifyChain(all, "secret"));
}

// ------------------------------------------------------------ truncation --

std::string SlurpFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

void SpillFile(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

bool PathExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Appends blocks first_id..last_id (2 txns each) to an open store.
void FillChain(BlockStore* store, BlockBuilder* builder, BlockId first_id,
               BlockId last_id) {
  for (BlockId i = first_id; i <= last_id; i++) {
    ASSERT_OK(store->Append(builder->Seal(MakeBatch(i, 1 + (i - 1) * 2, 2), 0)));
  }
}

TEST(BlockStoreTruncate, EveryBoundary) {
  // TruncateBefore at every keep_from in [0, tip+1]: the live log must hold
  // exactly the records >= keep_from, stay audit-clean, survive a reopen,
  // and keep accepting appends at the (unchanged) tip.
  constexpr BlockId kTip = 8;
  for (BlockId keep_from = 0; keep_from <= kTip + 1; keep_from++) {
    SCOPED_TRACE(keep_from);
    TempDir dir("trunc-bound");
    const std::string path = dir.path() + "/chain.log";
    BlockBuilder builder("secret");
    {
      BlockStore store(path);
      ASSERT_OK(store.Open());
      FillChain(&store, &builder, 1, kTip);
      ASSERT_OK(store.TruncateBefore(keep_from));
      const BlockId eff = keep_from == 0 ? 1 : keep_from;
      const size_t expect_kept = kTip + 1 >= eff ? kTip + 1 - eff : 0;
      EXPECT_EQ(store.num_blocks(), expect_kept);
      EXPECT_EQ(store.last_block_id(), kTip);
      EXPECT_EQ(store.first_block_id(), expect_kept > 0 ? eff : 0u);
      if (keep_from > 1) {
        EXPECT_EQ(store.truncations(), 1u);
        EXPECT_EQ(store.truncated_blocks(), static_cast<uint64_t>(eff - 1));
      } else {
        EXPECT_EQ(store.truncations(), 0u);  // no-op keeps the file alone
      }
      std::vector<Block> live;
      ASSERT_OK(store.ReadAll(&live));
      ASSERT_EQ(live.size(), expect_kept);
      for (size_t i = 0; i < live.size(); i++) {
        EXPECT_EQ(live[i].header.block_id, eff + i);
      }
      ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
    }
    // Reopen: the rewrite is the durable truth, not handle state.
    BlockStore store(path);
    ASSERT_OK(store.Open());
    const BlockId eff = keep_from == 0 ? 1 : keep_from;
    const size_t expect_kept = kTip + 1 >= eff ? kTip + 1 - eff : 0;
    EXPECT_EQ(store.num_blocks(), expect_kept);
    EXPECT_EQ(store.first_block_id(), expect_kept > 0 ? eff : 0u);
    if (expect_kept > 0) {
      // Appends continue at the durable tip.
      Block last;
      ASSERT_OK(store.ReadLast(&last));
      EXPECT_EQ(last.header.block_id, kTip);
      BlockBuilder more("secret");
      more.ResumeFrom(last.header.block_hash);
      ASSERT_OK(store.Append(more.Seal(MakeBatch(kTip + 1, 1000, 2), 0)));
      EXPECT_EQ(store.last_block_id(), kTip + 1);
      std::vector<Block> live;
      ASSERT_OK(store.ReadAll(&live));
      ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
    }
  }
}

TEST(BlockStoreTruncate, DiskBytesShrink) {
  TempDir dir("trunc-bytes");
  BlockStore store(dir.path() + "/chain.log");
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 32);
  const uint64_t before = store.live_log_bytes();
  ASSERT_OK(store.TruncateBefore(29));
  EXPECT_LT(store.live_log_bytes(), before / 4);  // 4 of 32 blocks remain
  EXPECT_EQ(store.num_blocks(), 4u);
}

TEST(BlockStoreTruncate, CrashPointsFireDuringRewrite) {
  TempDir dir("trunc-cp");
  BlockStore store(dir.path() + "/chain.log");
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 6);
  // Arm with hit counts the rewrite never reaches, so both points count
  // their hit without killing the test process.
  testing::ArmCrashPointForTest("chain.truncate.before_rename", 100, [] {});
  ASSERT_OK(store.TruncateBefore(4));
  EXPECT_EQ(testing::CrashPointHits("chain.truncate.before_rename"), 1u);
  testing::ArmCrashPointForTest("chain.truncate.after_rename", 100, [] {});
  ASSERT_OK(store.TruncateBefore(6));
  EXPECT_EQ(testing::CrashPointHits("chain.truncate.after_rename"), 1u);
  testing::DisarmCrashPoints();
  EXPECT_EQ(store.first_block_id(), 6u);
}

TEST(BlockStoreTruncate, CrashBeforeRenameKeepsOldLog) {
  // The temp is fully written but the rename never happened: reopening must
  // serve the *old* log and clear the stale temp.
  TempDir dir("trunc-before");
  const std::string path = dir.path() + "/chain.log";
  std::string truncated_bytes;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    ASSERT_OK(store.TruncateBefore(4));
    truncated_bytes = SlurpFile(path);  // what the temp would have held
  }
  {
    // Rebuild the full log, then plant the would-be temp beside it.
    ASSERT_EQ(::unlink(path.c_str()), 0);
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
  }
  SpillFile(path + ".truncate", truncated_bytes);
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 6u);
  EXPECT_EQ(store.first_block_id(), 1u);
  EXPECT_FALSE(PathExists(path + ".truncate"));
}

TEST(BlockStoreTruncate, CrashAfterRenameServesNewLog) {
  TempDir dir("trunc-after");
  const std::string path = dir.path() + "/chain.log";
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    ASSERT_OK(store.TruncateBefore(4));
    // A crash here (post-rename) loses only the handle, not the rewrite.
  }
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 3u);
  EXPECT_EQ(store.first_block_id(), 4u);
  std::vector<Block> live;
  ASSERT_OK(store.ReadAll(&live));
  ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
}

TEST(BlockStoreTruncate, TornTempSweepNeverCorruptsLiveLog) {
  // Byte-sweep the crash-before-rename window with the shared structure-
  // aware mutator: whatever half-written garbage the temp holds, Open()
  // must serve the intact live log and remove the temp.
  TempDir dir("trunc-torn");
  const std::string path = dir.path() + "/chain.log";
  std::string temp_base;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    ASSERT_OK(store.TruncateBefore(4));
    temp_base = SlurpFile(path);
  }
  ASSERT_EQ(::unlink(path.c_str()), 0);
  std::string live_bytes;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 6);
    live_bytes = SlurpFile(path);
  }
  const std::vector<std::string> corpus = {temp_base, live_bytes};
  const testing::Mutator mutator(&corpus);
  for (uint64_t iter = 0; iter < 60; iter++) {
    SCOPED_TRACE(iter);
    testing::FuzzRng rng(testing::CaseSeed(/*run_seed=*/77, iter));
    std::string mutant = temp_base;
    if (rng.Chance(0.5)) {
      mutant.resize(rng.Index(mutant.size() + 1));  // plain torn prefix
    } else {
      mutator.Mutate(rng, &mutant);
    }
    SpillFile(path, live_bytes);
    SpillFile(path + ".truncate", mutant);
    BlockStore store(path);
    ASSERT_OK(store.Open());
    EXPECT_EQ(store.num_blocks(), 6u);
    EXPECT_EQ(store.first_block_id(), 1u);
    EXPECT_FALSE(PathExists(path + ".truncate"));
    std::vector<Block> live;
    ASSERT_OK(store.ReadAll(&live));
    ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
  }
}

TEST(BlockStoreTruncate, StaleTempCleanupRegression) {
  // Pure-garbage temp (not even a log header) beside a healthy log.
  TempDir dir("trunc-stale");
  const std::string path = dir.path() + "/chain.log";
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    BlockBuilder builder("secret");
    FillChain(&store, &builder, 1, 3);
  }
  SpillFile(path + ".truncate", "not a block log at all");
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 3u);
  EXPECT_FALSE(PathExists(path + ".truncate"));
  ASSERT_OK(store.TruncateBefore(3));  // and truncation still works after
  EXPECT_EQ(store.first_block_id(), 3u);
}

TEST(BlockStoreTruncate, MixedVersionLogTruncatesEquivalently) {
  // A migrated v3 log with v4 appends on top must truncate to the same
  // chain an all-v4 log would: record origin is erased by migration.
  TempDir dir("trunc-mixed");
  const std::string path = dir.path() + "/chain.log";
  BlockBuilder builder("secret");
  std::string file;
  uint32_t header[2] = {0x4C434248u, 3u};  // kLogV3
  file.append(reinterpret_cast<const char*>(header), 8);
  std::vector<Digest> hashes;
  for (BlockId i = 1; i <= 4; i++) {
    Block b = builder.Seal(MakeBatch(i, 1 + (i - 1) * 2, 2), 0);
    hashes.push_back(b.header.block_hash);
    const std::string payload = BlockCodec::Encode(b);
    codec::AppendU32(&file, static_cast<uint32_t>(payload.size()));
    file.append(payload);
    codec::AppendU32(&file, Crc32(payload));
  }
  SpillFile(path, file);

  BlockStore store(path);
  ASSERT_OK(store.Open());  // migrates v3 -> v4
  ASSERT_EQ(store.num_blocks(), 4u);
  FillChain(&store, &builder, 5, 8);
  ASSERT_OK(store.TruncateBefore(3));  // boundary straddles both origins
  std::vector<Block> live;
  ASSERT_OK(store.ReadAll(&live));
  ASSERT_EQ(live.size(), 6u);
  EXPECT_EQ(live[0].header.block_id, 3u);
  EXPECT_EQ(live[0].header.block_hash, hashes[2]);
  EXPECT_EQ(live[1].header.block_hash, hashes[3]);
  ASSERT_OK(ChainVerifier::VerifyChain(live, "secret"));
  // Recovery equivalence across a reopen.
  BlockStore reopened(path);
  ASSERT_OK(reopened.Open());
  std::vector<Block> again;
  ASSERT_OK(reopened.ReadAll(&again));
  ASSERT_EQ(again.size(), live.size());
  for (size_t i = 0; i < live.size(); i++) {
    EXPECT_EQ(again[i].header.block_hash, live[i].header.block_hash);
  }
}

TEST(BlockStoreTruncate, ArchivePreservesDroppedRecords) {
  TempDir dir("trunc-arch");
  const std::string path = dir.path() + "/chain.log";
  BlockStore store(path);
  store.SetArchiveTruncated(true);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 10);
  ASSERT_OK(store.TruncateBefore(4));
  ASSERT_OK(store.TruncateBefore(8));
  std::vector<Block> archived;
  ASSERT_OK(store.ReadArchivedBlocks(&archived));
  ASSERT_EQ(archived.size(), 7u);  // 1..7, deduped, ascending
  for (size_t i = 0; i < archived.size(); i++) {
    EXPECT_EQ(archived[i].header.block_id, i + 1);
  }
  // Archive + live log reassembles the full, audit-clean chain.
  std::vector<Block> live;
  ASSERT_OK(store.ReadAll(&live));
  std::vector<Block> full = archived;
  full.insert(full.end(), live.begin(), live.end());
  ASSERT_EQ(full.size(), 10u);
  ASSERT_OK(ChainVerifier::VerifyChain(full, "secret"));
}

TEST(BlockStoreTruncate, ArchiveSurvivesTornArchiveTail) {
  // A crash mid-archive-append leaves a torn tail; the next truncation must
  // repair it and the reader must still return every whole record once.
  TempDir dir("trunc-arch-torn");
  const std::string path = dir.path() + "/chain.log";
  BlockStore store(path);
  store.SetArchiveTruncated(true);
  ASSERT_OK(store.Open());
  BlockBuilder builder("secret");
  FillChain(&store, &builder, 1, 8);
  ASSERT_OK(store.TruncateBefore(3));  // archives 1..2
  {
    int fd = ::open((path + ".archive").c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const uint32_t bogus_len = 999999;
    ASSERT_EQ(::write(fd, &bogus_len, 4), 4);
    ASSERT_EQ(::write(fd, "torn", 4), 4);
    ::close(fd);
  }
  ASSERT_OK(store.TruncateBefore(6));  // repairs tail, archives 3..5
  std::vector<Block> archived;
  ASSERT_OK(store.ReadArchivedBlocks(&archived));
  ASSERT_EQ(archived.size(), 5u);
  for (size_t i = 0; i < archived.size(); i++) {
    EXPECT_EQ(archived[i].header.block_id, i + 1);
  }
}

TEST(CheckpointManifest, RoundTripAndMissing) {
  TempDir dir("ckpt");
  CheckpointManifest m(dir.path() + "/m");
  EXPECT_EQ(m.Read(), 0u);
  ASSERT_OK(m.Write(42));
  EXPECT_EQ(m.Read(), 42u);
  ASSERT_OK(m.Write(100));
  EXPECT_EQ(m.Read(), 100u);
}

}  // namespace
}  // namespace harmony
