#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include "chain/block_store.h"
#include "common/clock.h"
#include "common/mpsc_ring.h"
#include "common/rng.h"
#include "core/harmonybc.h"
#include "ingest/admission.h"
#include "ingest/mempool.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

TxnRequest Req(uint64_t client_id, uint64_t seq, uint32_t proc_id = 1) {
  TxnRequest t;
  t.proc_id = proc_id;
  t.client_id = client_id;
  t.client_seq = seq;
  t.submit_time_us = 1;
  return t;
}

TxnRequest FeeReq(uint64_t client_id, uint64_t seq, uint64_t fee) {
  TxnRequest t = Req(client_id, seq);
  t.fee = fee;
  return t;
}

// -------------------------------------------------------------- MPSC ring --

TEST(MpscRing, FifoOrderAcrossWraparound) {
  MpscRing<uint64_t> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  uint64_t expect = 0;
  // 1000 items through a 4-slot ring: the sequence tickets must wrap the
  // ring many times without reordering or losing an element.
  for (uint64_t i = 0; i < 1000; i++) {
    ASSERT_TRUE(ring.TryPush(uint64_t(i)));
    if (i % 2 == 1) {  // drain in pairs to exercise partial occupancy
      uint64_t a = 0, b = 0;
      ASSERT_TRUE(ring.TryPop(&a));
      ASSERT_TRUE(ring.TryPop(&b));
      EXPECT_EQ(a, expect++);
      EXPECT_EQ(b, expect++);
    }
  }
  uint64_t leftover;
  EXPECT_FALSE(ring.TryPop(&leftover));
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, FullRingFailsPushUntilPopped) {
  MpscRing<uint64_t> ring(4);
  for (uint64_t i = 0; i < 4; i++) ASSERT_TRUE(ring.TryPush(uint64_t(i)));
  uint64_t v = 99;
  EXPECT_FALSE(ring.TryPush(v));
  EXPECT_EQ(v, 99u);  // a failed push leaves the value intact
  EXPECT_EQ(ring.size(), 4u);
  uint64_t out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ring.TryPush(v));  // the freed slot is immediately reusable
}

TEST(MpscRing, FailedRvaluePushHandsTheValueBack) {
  MpscRing<std::string> ring(2);
  ASSERT_TRUE(ring.TryPush(std::string("a")));
  ASSERT_TRUE(ring.TryPush(std::string("b")));
  // The retry idiom `while (!TryPush(std::move(v))) ...` must not lose the
  // payload on the failing attempts.
  std::string v = "payload";
  EXPECT_FALSE(ring.TryPush(std::move(v)));
  EXPECT_EQ(v, "payload");
  std::string out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(std::move(v)));
}

TEST(MpscRing, EightProducersNoLossThroughTinyRing) {
  // 8 producers hammer a 64-slot ring (constant wraparound + full-ring
  // backoff) while one consumer drains. Every element must arrive exactly
  // once and per-producer order must hold. TSAN-clean by design.
  constexpr int kProducers = 8;
  constexpr uint64_t kPerProducer = 20000;
  MpscRing<uint64_t> ring(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer;) {
        // Encode (producer, seq) so the consumer can check per-producer FIFO.
        if (ring.TryPush((uint64_t(p) << 32) | i)) {
          i++;
        } else {
          std::this_thread::yield();  // full: wait out backpressure
        }
      }
    });
  }

  uint64_t next_seq[kProducers] = {};
  uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    uint64_t v;
    if (!ring.TryPop(&v)) continue;
    const int p = static_cast<int>(v >> 32);
    const uint64_t seq = v & 0xFFFFFFFFu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
    next_seq[p]++;
    received++;
  }
  for (auto& t : producers) t.join();
  uint64_t leftover;
  EXPECT_FALSE(ring.TryPop(&leftover));
  for (int p = 0; p < kProducers; p++) EXPECT_EQ(next_seq[p], kPerProducer);
}

// ---------------------------------------------------------------- mempool --

TEST(Mempool, RejectsDuplicateClientIdSeqPairs) {
  Mempool pool(MempoolOptions{});
  ASSERT_OK(pool.Add(Req(7, 1)));
  Status dup = pool.Add(Req(7, 1));
  EXPECT_TRUE(dup.IsInvalidArgument()) << dup.ToString();
  // Same seq under a different client is a different transaction.
  ASSERT_OK(pool.Add(Req(8, 1)));
  ASSERT_OK(pool.Add(Req(7, 2)));
  EXPECT_EQ(pool.size(), 3u);

  // Dedup keys survive TakeBatch: a replay after sealing is still rejected.
  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(10, &out), 3u);
  EXPECT_TRUE(pool.Add(Req(7, 1)).IsInvalidArgument());
}

TEST(Mempool, SeqZeroBypassesDedup) {
  Mempool pool(MempoolOptions{});
  ASSERT_OK(pool.Add(Req(0, 0)));
  ASSERT_OK(pool.Add(Req(0, 0)));  // no identity -> no dedup
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Mempool, CapacityBackpressure) {
  MempoolOptions mo;
  mo.capacity = 4;
  mo.shards = 2;
  Mempool pool(mo);
  for (uint64_t i = 1; i <= 4; i++) ASSERT_OK(pool.Add(Req(1, i)));
  Status full = pool.Add(Req(1, 5));
  EXPECT_TRUE(full.IsBusy()) << full.ToString();

  // Draining frees capacity again.
  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(2, &out), 2u);
  ASSERT_OK(pool.Add(Req(1, 5)));
}

TEST(Mempool, AddBatchSingleReservationAndPerTxnFailures) {
  MempoolOptions mo;
  mo.capacity = 6;
  mo.shards = 2;
  Mempool pool(mo);
  ASSERT_OK(pool.Add(Req(9, 99)));  // pre-occupy one slot

  // 8 requests into 5 remaining slots, one of them a duplicate: the dup
  // frees its slot back to the batch's credit, so 5 distinct requests fit
  // and the trailing two bounce on capacity.
  std::vector<TxnRequest> reqs;
  std::vector<IngestLane> lanes;
  for (uint64_t i = 0; i < 8; i++) {
    reqs.push_back(Req(1, i == 3 ? 1 : i + 1));  // index 3 duplicates seq 1
    lanes.push_back(IngestLane::kNormal);
  }
  std::vector<Status> st;
  const size_t enq = pool.AddBatch(&reqs, lanes, &st);
  EXPECT_EQ(enq, 5u);
  EXPECT_EQ(pool.size(), 6u);  // full, not over-reserved
  ASSERT_EQ(st.size(), 8u);
  EXPECT_TRUE(st[3].IsInvalidArgument()) << st[3].ToString();
  size_t busy = 0, ok = 0;
  for (const Status& s : st) {
    if (s.ok()) ok++;
    if (s.IsBusy()) busy++;
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(busy, 2u);

  // Draining returns the capacity to future batches.
  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(16, &out), 6u);
  reqs.clear();
  lanes.assign(1, IngestLane::kNormal);
  reqs.push_back(Req(2, 50));
  EXPECT_EQ(pool.AddBatch(&reqs, lanes, &st), 1u);
  EXPECT_OK(st[0]);
}

TEST(Mempool, RetryLaneDrainsFirstAndSkipsChecks) {
  MempoolOptions mo;
  mo.capacity = 2;
  Mempool pool(mo);
  ASSERT_OK(pool.Add(Req(1, 1)));
  ASSERT_OK(pool.Add(Req(1, 2)));
  // Retries ignore both the capacity bound and the dedup window.
  pool.AddRetry(Req(1, 1));
  EXPECT_EQ(pool.retry_size(), 1u);

  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(2, &out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].client_seq, 1u);  // the retry jumped the queue
  EXPECT_EQ(pool.retry_size(), 0u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, DedupWindowForgetsOldest) {
  MempoolOptions mo;
  mo.shards = 1;
  mo.dedup_window = 2;
  Mempool pool(mo);
  ASSERT_OK(pool.Add(Req(1, 1)));
  ASSERT_OK(pool.Add(Req(1, 2)));
  ASSERT_OK(pool.Add(Req(1, 3)));  // evicts (1,1) from the window
  EXPECT_TRUE(pool.Add(Req(1, 3)).IsInvalidArgument());
  ASSERT_OK(pool.Add(Req(1, 1)));  // forgotten, admitted again
}

TEST(Mempool, ShardRingFullIsBusyAndRollsBackDedup) {
  MempoolOptions mo;
  mo.shards = 1;
  mo.ring_capacity = 4;  // tiny ring; global capacity stays huge
  Mempool pool(mo);
  EXPECT_EQ(pool.ring_capacity(), 4u);
  for (uint64_t i = 1; i <= 4; i++) ASSERT_OK(pool.Add(Req(1, i)));
  Status full = pool.Add(Req(1, 5));
  EXPECT_TRUE(full.IsBusy()) << full.ToString();

  // The failed admission must not leave (1,5) behind as a dedup key, or the
  // client's retry after backpressure would bounce as a duplicate.
  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(4, &out), 4u);
  ASSERT_OK(pool.Add(Req(1, 5)));
}

TEST(FlatKeySet, MatchesModelUnderInsertEraseChurn) {
  // Keys share their low 4 bits, as one mempool shard's keys do, and key 0
  // is in the mix: the set must spread them and agree with a reference set
  // through growth and backward-shift erases.
  FlatKeySet set;
  std::unordered_set<uint64_t> model;
  Rng rng(0xF1A7);
  for (int op = 0; op < 40000; op++) {
    const uint64_t key = rng.Uniform(3000) << 4 | 5;
    const uint64_t k = key == (7 << 4 | 5) ? 0 : key;
    if (rng.Chance(0.6)) {
      EXPECT_EQ(set.Insert(k), model.insert(k).second) << "insert " << k;
    } else {
      set.Erase(k);
      model.erase(k);
    }
    ASSERT_EQ(set.size(), model.size());
  }
  for (uint64_t i = 0; i < 3000; i++) {
    const uint64_t key = i << 4 | 5;
    const uint64_t k = key == (7 << 4 | 5) ? 0 : key;
    const bool present = !set.Insert(k);
    if (!present) set.Erase(k);
    EXPECT_EQ(present, model.count(k) == 1) << "key " << k;
  }
}

TEST(Mempool, DedupWindowHoldsExactlyTheLastWindowOfKeys) {
  // A window large enough to grow the flat set several times: every key in
  // the last `window` admissions is a duplicate, every older one has aged
  // out and is admitted again.
  constexpr uint64_t kWindow = 1000;
  MempoolOptions mo;
  mo.shards = 1;
  mo.dedup_window = kWindow;
  Mempool pool(mo);
  std::vector<TxnRequest> out;
  for (uint64_t seq = 1; seq <= 3 * kWindow; seq++) {
    ASSERT_OK(pool.Add(Req(3, seq)));
    if (seq % 100 == 0) {
      out.clear();
      pool.TakeBatch(100, &out);
    }
  }
  for (uint64_t seq = 2 * kWindow + 1; seq <= 3 * kWindow; seq += 7) {
    EXPECT_TRUE(pool.Add(Req(3, seq)).IsInvalidArgument()) << seq;
  }
  for (uint64_t seq = 1; seq <= 2 * kWindow; seq += 7) {
    out.clear();
    pool.TakeBatch(100, &out);
    EXPECT_OK(pool.Add(Req(3, seq)));
  }
}

TEST(Mempool, RolledBackAdmissionForgetsOnlyItsOwnKey) {
  // A ring-full rollback erases its key from a set holding many others; the
  // erase must not drop a neighbour from the window.
  MempoolOptions mo;
  mo.shards = 1;
  mo.ring_capacity = 4;
  Mempool pool(mo);
  std::vector<TxnRequest> out;
  uint64_t seq = 1;
  for (; seq <= 400; seq++) {
    ASSERT_OK(pool.Add(Req(5, seq)));
    out.clear();
    pool.TakeBatch(4, &out);
  }
  for (uint64_t i = 0; i < 4; i++) ASSERT_OK(pool.Add(Req(5, seq + i)));
  const uint64_t rejected = seq + 4;
  EXPECT_TRUE(pool.Add(Req(5, rejected)).IsBusy());
  for (uint64_t old = 1; old < seq + 4; old++) {
    EXPECT_TRUE(pool.Add(Req(5, old)).IsInvalidArgument()) << old;
  }
  out.clear();
  pool.TakeBatch(4, &out);
  ASSERT_OK(pool.Add(Req(5, rejected)));
  EXPECT_TRUE(pool.Add(Req(5, rejected)).IsInvalidArgument());
}

// ------------------------------------------------------ mempool lanes -----

TEST(Mempool, FeeSelectsLaneAndHighDrainsMostly) {
  MempoolOptions mo;
  mo.high_fee_threshold = 100;  // lane_weights default {8, 3, 1}
  Mempool pool(mo);
  for (uint64_t i = 1; i <= 8; i++) ASSERT_OK(pool.Add(FeeReq(1, i, 0)));
  for (uint64_t i = 1; i <= 8; i++) ASSERT_OK(pool.Add(FeeReq(2, i, 200)));
  EXPECT_EQ(pool.lane_size(IngestLane::kHigh), 8u);
  EXPECT_EQ(pool.lane_size(IngestLane::kNormal), 8u);

  // One block of 8 from both lanes: the weighted drain gives high its 8/11
  // share (plus the rounding leftover) but still guarantees normal >= 1.
  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(8, &out), 8u);
  size_t high = 0, normal = 0;
  for (const TxnRequest& t : out) (t.fee >= 100 ? high : normal)++;
  EXPECT_EQ(high, 6u);
  EXPECT_EQ(normal, 2u);
  EXPECT_GE(high, normal);  // priority order even if weights are retuned
}

TEST(Mempool, LowLaneNeverStarvesUnderSustainedHighLoad) {
  MempoolOptions mo;
  mo.high_fee_threshold = 100;
  Mempool pool(mo);
  // 10 low-lane transactions (the admission demotion path uses the explicit
  // lane overload), then a sustained high-fee flood: every round refills
  // the high lane to a full block before the sealer drains one block.
  constexpr uint64_t kLow = 10;
  for (uint64_t i = 1; i <= kLow; i++) {
    ASSERT_OK(pool.Add(FeeReq(9, i, 0), IngestLane::kLow));
  }
  EXPECT_EQ(pool.lane_size(IngestLane::kLow), kLow);

  uint64_t next_high_seq = 1;
  size_t low_taken = 0;
  size_t rounds = 0;
  while (low_taken < kLow) {
    ASSERT_LT(rounds++, 2 * kLow) << "low lane starved";
    while (pool.lane_size(IngestLane::kHigh) < 8) {
      ASSERT_OK(pool.Add(FeeReq(1, next_high_seq++, 500)));
    }
    std::vector<TxnRequest> out;
    ASSERT_EQ(pool.TakeBatch(8, &out), 8u);
    size_t low_this_round = 0;
    for (const TxnRequest& t : out) {
      if (t.client_id == 9) low_this_round++;
    }
    // Weighted floor: the non-empty low lane owns >= 1 slot of every batch.
    EXPECT_GE(low_this_round, 1u);
    low_taken += low_this_round;
  }
  EXPECT_EQ(pool.lane_size(IngestLane::kLow), 0u);
}

TEST(Mempool, RetryLaneOutranksEveryPriorityLane) {
  MempoolOptions mo;
  mo.high_fee_threshold = 100;
  Mempool pool(mo);
  ASSERT_OK(pool.Add(FeeReq(1, 1, 500)));  // high lane
  pool.AddRetry(FeeReq(2, 7, 0));          // CC-aborted, fee irrelevant
  std::vector<TxnRequest> out;
  EXPECT_EQ(pool.TakeBatch(2, &out), 2u);
  EXPECT_EQ(out[0].client_id, 2u);  // the retry still jumps the high lane
  EXPECT_EQ(out[1].client_id, 1u);
}

TEST(Mempool, EightProducersLanesConcurrentDrain) {
  // 8 producers spray all three lanes while a consumer drains in parallel;
  // nothing may be lost or duplicated. TSAN-clean by design.
  constexpr int kProducers = 8;
  constexpr uint64_t kPerProducer = 4000;
  MempoolOptions mo;
  mo.capacity = 1 << 12;  // small enough that backpressure actually fires
  mo.shards = 8;
  mo.high_fee_threshold = 100;
  Mempool pool(mo);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 1; i <= kPerProducer;) {
        TxnRequest t = FeeReq(p + 1, i, (i % 3 == 0) ? 200 : 0);
        Status s = (i % 5 == 0)
                       ? pool.Add(std::move(t), IngestLane::kLow)
                       : pool.Add(std::move(t));
        if (s.ok()) {
          i++;
        } else {
          ASSERT_TRUE(s.IsBusy()) << s.ToString();
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<uint64_t> per_client(kProducers + 1, 0);
  uint64_t received = 0;
  std::vector<TxnRequest> out;
  while (received < kProducers * kPerProducer) {
    out.clear();
    if (pool.TakeBatch(64, &out) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const TxnRequest& t : out) per_client[t.client_id]++;
    received += out.size();
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(pool.empty());
  for (int p = 1; p <= kProducers; p++) EXPECT_EQ(per_client[p], kPerProducer);
}

// -------------------------------------------------------------- admission --

/// A registry holding only procedure 1: admission accepts proc_id 1 and
/// rejects everything else.
ProcedureRegistry OneProcedure() {
  ProcedureRegistry r;
  r.Register(1, "noop", [](TxnContext&, const ProcArgs&) {
    return Status::OK();
  });
  return r;
}
const ProcedureRegistry kProcOne = OneProcedure();

TEST(Admission, ValidatesProceduresAndShapes) {
  AdmissionController ac(AdmissionOptions{}, &kProcOne);
  ASSERT_OK(ac.Admit(Req(1, 1, 1), 1));
  EXPECT_TRUE(ac.Admit(Req(1, 2, 99), 1).IsInvalidArgument());

  TxnRequest fat = Req(1, 3, 1);
  fat.args.ints.assign(1000, 0);
  EXPECT_TRUE(ac.Admit(fat, 1).IsInvalidArgument());
  EXPECT_EQ(ac.stats()->rejected.load(), 2u);
}

TEST(Admission, TokenBucketRateLimitsPerClient) {
  AdmissionOptions ao;
  ao.rate_per_client_tps = 10;  // refill 10/s
  ao.burst = 2;                 // bucket of 2
  AdmissionController ac(ao, &kProcOne);

  const uint64_t t0 = 1'000'000;
  ASSERT_OK(ac.Admit(Req(1, 1, 1), t0));
  ASSERT_OK(ac.Admit(Req(1, 2, 1), t0));
  EXPECT_TRUE(ac.Admit(Req(1, 3, 1), t0).IsBusy());
  // A different client has its own bucket.
  ASSERT_OK(ac.Admit(Req(2, 1, 1), t0));
  // 100ms later one token (10 tps) has refilled.
  ASSERT_OK(ac.Admit(Req(1, 3, 1), t0 + 100'000));
  EXPECT_TRUE(ac.Admit(Req(1, 4, 1), t0 + 100'000).IsBusy());
  EXPECT_EQ(ac.stats()->rate_limited.load(), 2u);
}

TEST(Admission, FractionalRateStillAdmitsBursts) {
  AdmissionOptions ao;
  ao.rate_per_client_tps = 0.5;  // one txn per 2 seconds
  AdmissionController ac(ao, &kProcOne);
  // The bucket is clamped to hold at least one whole token, so the first
  // transaction is admitted instead of being rate-limited forever.
  ASSERT_OK(ac.Admit(Req(1, 1, 1), 1'000'000));
  EXPECT_TRUE(ac.Admit(Req(1, 2, 1), 1'000'001).IsBusy());
  // Two seconds later the fractional rate has refilled a full token.
  ASSERT_OK(ac.Admit(Req(1, 2, 1), 3'000'000));
}

TEST(Admission, DemotesInsteadOfRejectingWhenConfigured) {
  AdmissionOptions ao;
  ao.rate_per_client_tps = 10;
  ao.burst = 2;
  ao.demote_over_rate = true;
  AdmissionController ac(ao, &kProcOne);

  const uint64_t t0 = 1'000'000;
  bool demote = true;
  ASSERT_OK(ac.Admit(Req(1, 1, 1), t0, &demote));
  EXPECT_FALSE(demote);
  ASSERT_OK(ac.Admit(Req(1, 2, 1), t0, &demote));
  EXPECT_FALSE(demote);
  // Bucket empty: admitted anyway, but flagged for the low lane.
  ASSERT_OK(ac.Admit(Req(1, 3, 1), t0, &demote));
  EXPECT_TRUE(demote);
  EXPECT_EQ(ac.stats()->demoted.load(), 1u);
  EXPECT_EQ(ac.stats()->rate_limited.load(), 0u);
  // Demotion consumed no token: the next refilled token goes to a normal
  // admission, not to paying back the demoted burst.
  ASSERT_OK(ac.Admit(Req(1, 4, 1), t0 + 100'000, &demote));
  EXPECT_FALSE(demote);
}

// ------------------------------------------------------------- blockstore --

TEST(BlockStore, ReadLastReturnsChainTip) {
  TempDir dir("readlast");
  const std::string path = dir.path() + "/chain";
  BlockBuilder builder("secret");
  {
    BlockStore store(path, 0);
    ASSERT_OK(store.Open());
    Block none;
    EXPECT_TRUE(store.ReadLast(&none).IsNotFound());
    for (BlockId id = 1; id <= 5; id++) {
      TxnBatch batch;
      batch.block_id = id;
      batch.first_tid = (id - 1) * 3 + 1;
      batch.txns.resize(3);
      ASSERT_OK(store.Append(builder.Seal(std::move(batch), id * 10)));
    }
    Block last;
    ASSERT_OK(store.ReadLast(&last));
    EXPECT_EQ(last.header.block_id, 5u);
  }
  // Reopen: the open-scan re-finds the tip offset.
  BlockStore store(path, 0);
  ASSERT_OK(store.Open());
  Block last;
  ASSERT_OK(store.ReadLast(&last));
  EXPECT_EQ(last.header.block_id, 5u);
  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.back().header.block_hash, last.header.block_hash);
}

TEST(BlockStore, RejectsUnversionedLogInsteadOfTruncating) {
  TempDir dir("logver");
  const std::string path = dir.path() + "/chain";
  {
    // A foreign file: no magic (tests/formats_test.cc covers older and
    // newer log headers). Open must refuse, not silently wipe it as a torn
    // tail.
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char bytes[] = "\x40\x00\x00\x00legacy-block-bytes";
    std::fwrite(bytes, 1, sizeof(bytes), f);
    std::fclose(f);
  }
  BlockStore store(path, 0);
  Status s = store.Open();
  EXPECT_EQ(s.code(), Status::Code::kNotSupported) << s.ToString();
  // The file was left untouched.
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 8);
  std::fclose(f);
}

// ------------------------------------------------------- HarmonyBC facade --

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

// Commutative blind increment: final state is order-independent, which is
// what makes the multi-threaded determinism check meaningful.
Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
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

TEST(HarmonyBCIngest, DuplicateSubmitRejected) {
  TempDir dir("ing1");
  auto db = HarmonyBC::Open(FastOpts(dir.path()));
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 2; k++) ASSERT_OK((*db)->Load(k, Value({100})));
  ASSERT_OK((*db)->Recover().status());

  TxnRequest t;
  t.proc_id = 1;
  t.client_id = 42;
  t.client_seq = 9;
  t.args.ints = {0, 1, 5};
  ASSERT_OK((*db)->Submit(t));
  Status dup = (*db)->Submit(t);
  EXPECT_TRUE(dup.IsInvalidArgument()) << dup.ToString();
  EXPECT_EQ((*db)->ingest_stats().duplicates.load(), 1u);

  // Unregistered procedures are rejected at admission, not at execution.
  TxnRequest bad;
  bad.proc_id = 77;
  EXPECT_TRUE((*db)->Submit(bad).IsInvalidArgument());
  EXPECT_EQ((*db)->ingest_stats().rejected.load(), 1u);
  ASSERT_OK((*db)->Sync());
}

TEST(HarmonyBCIngest, MempoolBackpressureSurfacesAsBusy) {
  TempDir dir("ing2");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;        // nothing seals on size
  o.mempool_capacity = 4;
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  int busy = 0;
  for (int i = 0; i < 6; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    Status s = (*db)->Submit(std::move(t));
    if (s.IsBusy()) busy++;
  }
  EXPECT_EQ(busy, 2);
  EXPECT_EQ((*db)->ingest_stats().backpressured.load(), 2u);
  EXPECT_EQ((*db)->queue_depth(), 4u);

  // Sync drains the backlog (partial flush-seal) and capacity returns.
  ASSERT_OK((*db)->Sync());
  EXPECT_EQ((*db)->queue_depth(), 0u);
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(0, &v));
  EXPECT_EQ(v->field(0), 4);
  EXPECT_GE((*db)->ingest_stats().flush_seals.load(), 1u);
}

TEST(HarmonyBCIngest, DeadlineSealsPartialBlockWithoutSync) {
  TempDir dir("ing3");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 100;           // never fills
  o.max_block_delay_us = 20'000;  // 20ms latency bound
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  for (int i = 0; i < 3; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1};
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  // The background sealer must cut a partial block on the deadline — no
  // Sync() here. Poll the committed height with a generous timeout.
  const uint64_t deadline = NowMicros() + 5'000'000;
  while ((*db)->height() < 1 && NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE((*db)->height(), 1u);
  EXPECT_GE((*db)->ingest_stats().deadline_seals.load(), 1u);
  ASSERT_OK((*db)->replica()->Drain());
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(0, &v));
  EXPECT_EQ(v->field(0), 3);
}

TEST(HarmonyBCIngest, MultiThreadedSubmitMatchesSerialDigest) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr int kKeys = 8;

  // Serial reference: one thread submits the full request set in order.
  Digest serial;
  {
    TempDir dir("ing4s");
    auto db = HarmonyBC::Open(FastOpts(dir.path()));
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "inc", Increment);
    for (Key k = 0; k < kKeys; k++) ASSERT_OK((*db)->Load(k, Value({0})));
    ASSERT_OK((*db)->Recover().status());
    for (int t = 0; t < kThreads; t++) {
      for (int i = 0; i < kPerThread; i++) {
        TxnRequest req;
        req.proc_id = 1;
        req.client_id = static_cast<uint64_t>(t + 1);
        req.args.ints = {(t * kPerThread + i) % kKeys, t + i + 1};
        ASSERT_OK((*db)->Submit(std::move(req)));
      }
    }
    ASSERT_OK((*db)->Sync());
    EXPECT_EQ((*db)->dropped(), 0u);
    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    serial = *d;
  }

  // Concurrent run: the same request set from kThreads producer threads.
  {
    TempDir dir("ing4c");
    auto db = HarmonyBC::Open(FastOpts(dir.path()));
    ASSERT_TRUE(db.ok());
    (*db)->RegisterProcedure(1, "inc", Increment);
    for (Key k = 0; k < kKeys; k++) ASSERT_OK((*db)->Load(k, Value({0})));
    ASSERT_OK((*db)->Recover().status());

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; i++) {
          TxnRequest req;
          req.proc_id = 1;
          req.client_id = static_cast<uint64_t>(t + 1);
          req.args.ints = {(t * kPerThread + i) % kKeys, t + i + 1};
          // Busy (backpressure) would need a retry loop; the default
          // capacity is far above this volume, so any failure is a bug.
          if (!(*db)->Submit(std::move(req)).ok()) failures++;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    ASSERT_OK((*db)->Sync());
    EXPECT_EQ((*db)->dropped(), 0u);
    EXPECT_EQ((*db)->ingest_stats().admitted.load(),
              static_cast<uint64_t>(kThreads * kPerThread));

    auto d = (*db)->StateDigest();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(DigestToHex(*d), DigestToHex(serial));
    ASSERT_OK((*db)->AuditChain());
  }
}

TEST(HarmonyBCIngest, CcAbortsRetryThroughMempool) {
  TempDir dir("ing5");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.protocol = DccKind::kAria;  // aborts on intra-block write conflicts
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
  ASSERT_OK((*db)->Recover().status());

  // Every transfer touches account 0: heavy conflicts, guaranteed aborts.
  for (int i = 0; i < 32; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1 + (i % 3), 1};
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  ASSERT_OK((*db)->Sync());
  EXPECT_GT((*db)->ingest_stats().retries_enqueued.load(), 0u);
  EXPECT_EQ((*db)->dropped(), 0u);
  EXPECT_EQ((*db)->queue_depth(), 0u);

  int64_t total = 0;
  for (Key k = 0; k < 4; k++) {
    std::optional<Value> v;
    ASSERT_OK((*db)->Query(k, &v));
    total += v->field(0);
  }
  EXPECT_EQ(total, 4000);  // transfers conserve money through retries
}

TEST(HarmonyBCIngest, LowLaneSealsUnderSustainedHighFeeFlood) {
  // The end-to-end starvation check: one thread floods high-fee increments
  // while a handful of normal-fee transactions is submitted behind them.
  // The weighted drain must seal the normal-fee work while the flood is
  // still running — not only after it stops.
  TempDir dir("ing7");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.block_size = 8;
  o.high_fee_threshold = 100;
  o.mempool_capacity = 1 << 10;  // keep the flood under real backpressure
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  for (Key k = 0; k < 2; k++) ASSERT_OK((*db)->Load(k, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  std::atomic<bool> stop{false};
  std::atomic<bool> flooding{true};
  std::thread flood([&] {
    while (!stop.load()) {
      TxnRequest t;
      t.proc_id = 1;
      t.client_id = 1;
      t.fee = 500;
      t.args.ints = {0, 1};
      if (!(*db)->Submit(std::move(t)).ok()) std::this_thread::yield();
    }
    flooding.store(false);
  });

  // Normal-fee (lower-lane) burst from a second client, submitted while the
  // high lane is saturated. Spin out mempool backpressure like any client.
  constexpr int kVictims = 8;
  for (int i = 0; i < kVictims;) {
    TxnRequest t;
    t.proc_id = 1;
    t.client_id = 2;
    t.args.ints = {1, 1};
    Status s = (*db)->Submit(std::move(t));
    if (s.ok()) {
      i++;
    } else {
      ASSERT_TRUE(s.IsBusy()) << s.ToString();
      std::this_thread::yield();
    }
  }

  // All victims must commit while the flood is still live.
  const uint64_t deadline = NowMicros() + 20'000'000;
  std::optional<Value> v;
  int64_t seen = 0;
  while (NowMicros() < deadline) {
    ASSERT_OK((*db)->Query(1, &v));
    seen = v->field(0);
    if (seen == kVictims) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(flooding.load()) << "flood ended before the victims committed";
  EXPECT_EQ(seen, kVictims);
  stop.store(true);
  flood.join();
  ASSERT_OK((*db)->Sync());
  ASSERT_OK((*db)->Query(1, &v));
  EXPECT_EQ(v->field(0), kVictims);
}

TEST(HarmonyBCIngest, OverBudgetClientDemotedButStillCommits) {
  TempDir dir("ing8");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.admit_rate_per_client = 5;  // tiny budget...
  o.demote_over_rate = true;    // ...but soft: demote, don't bounce
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "inc", Increment);
  ASSERT_OK((*db)->Load(0, Value({0})));
  ASSERT_OK((*db)->Recover().status());

  constexpr int kTxns = 30;
  for (int i = 0; i < kTxns; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.client_id = 7;
    t.args.ints = {0, 1};
    ASSERT_OK((*db)->Submit(std::move(t)));  // never Busy with demotion on
  }
  const IngestStats& st = (*db)->ingest_stats();
  EXPECT_GT(st.demoted.load(), 0u);
  EXPECT_EQ(st.rate_limited.load(), 0u);
  EXPECT_EQ(st.admitted.load(), static_cast<uint64_t>(kTxns));

  ASSERT_OK((*db)->Sync());
  std::optional<Value> v;
  ASSERT_OK((*db)->Query(0, &v));
  EXPECT_EQ(v->field(0), kTxns);  // demoted work landed, just later
}

TEST(HarmonyBCIngest, PerLaneSealCountsAccountForEverySealedTxn) {
  TempDir dir("ing9");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.high_fee_threshold = 100;
  o.protocol = DccKind::kAria;  // conflicts: the retry lane sees traffic
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
  ASSERT_OK((*db)->Recover().status());

  for (int i = 0; i < 24; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.fee = (i % 2 == 0) ? 500 : 0;  // half rides the high lane
    t.args.ints = {0, 1 + (i % 3), 1};
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  ASSERT_OK((*db)->Sync());

  const IngestStats& st = (*db)->ingest_stats();
  const uint64_t high =
      st.sealed_lane_txns[static_cast<size_t>(IngestLane::kHigh)].load();
  const uint64_t normal =
      st.sealed_lane_txns[static_cast<size_t>(IngestLane::kNormal)].load();
  const uint64_t low =
      st.sealed_lane_txns[static_cast<size_t>(IngestLane::kLow)].load();
  const uint64_t retry = st.sealed_retry_txns.load();
  EXPECT_EQ(high, 12u);
  EXPECT_EQ(normal, 12u);
  EXPECT_EQ(low, 0u);
  // Every conflict-requeued transaction re-seals through the retry lane.
  EXPECT_EQ(retry, st.retries_enqueued.load());
  EXPECT_GT(retry, 0u);
  // The per-lane split accounts for every sealed transaction exactly.
  EXPECT_EQ(high + normal + low + retry, st.sealed_txns.load());
}

TEST(HarmonyBCIngest, SyncBusyReportsDroppedCount) {
  TempDir dir("ing6");
  HarmonyBC::Options o = FastOpts(dir.path());
  o.protocol = DccKind::kAria;
  o.max_txn_retries = 0;  // drop on first CC abort
  auto db = HarmonyBC::Open(o);
  ASSERT_TRUE(db.ok());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < 4; k++) ASSERT_OK((*db)->Load(k, Value({1000})));
  ASSERT_OK((*db)->Recover().status());

  for (int i = 0; i < 16; i++) {
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 1, 1};
    ASSERT_OK((*db)->Submit(std::move(t)));
  }
  ASSERT_OK((*db)->Sync());  // no retries pending -> still OK
  EXPECT_GT((*db)->dropped(), 0u);
  EXPECT_EQ((*db)->ingest_stats().retries_dropped.load(), (*db)->dropped());
}

}  // namespace
}  // namespace harmony
