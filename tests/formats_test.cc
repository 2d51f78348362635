// Block log format coverage (docs/FORMATS.md): the HLZ codec, v4 record
// envelopes, refusal of any log header but v4, torn-tail truncation, and
// corrupt-compressed-payload rejection.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/codec.h"
#include "common/compress.h"
#include "common/rng.h"
#include "testing/fuzz.h"
#include "tests/test_util.h"

namespace harmony {
namespace {

// ------------------------------------------------------------------- hlz --

std::string Repetitive(size_t n) {
  std::string s;
  while (s.size() < n) s += "transfer(acct-12345, acct-67890, amount=100);";
  s.resize(n);
  return s;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.UniformRange(0, 255));
  return s;
}

TEST(Hlz, RoundTripRepetitive) {
  const std::string src = Repetitive(64 << 10);
  std::string comp;
  HlzCompress(src, &comp);
  EXPECT_LT(comp.size(), src.size() / 4);  // highly repetitive: big win
  std::string out;
  ASSERT_OK(HlzDecompress(comp, src.size(), &out));
  EXPECT_EQ(out, src);
}

TEST(Hlz, RoundTripEdgeSizes) {
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 255u, 256u, 4096u}) {
    SCOPED_TRACE(n);
    const std::string src = RandomBytes(n, 7 * n + 1);
    std::string comp;
    HlzCompress(src, &comp);
    std::string out;
    ASSERT_OK(HlzDecompress(comp, src.size(), &out));
    EXPECT_EQ(out, src);
  }
}

TEST(Hlz, RoundTripIncompressible) {
  // Random bytes cannot shrink, but the stream must still round-trip.
  const std::string src = RandomBytes(32 << 10, 99);
  std::string comp;
  HlzCompress(src, &comp);
  std::string out;
  ASSERT_OK(HlzDecompress(comp, src.size(), &out));
  EXPECT_EQ(out, src);
}

TEST(Hlz, RejectsWrongRawLen) {
  const std::string src = Repetitive(4096);
  std::string comp;
  HlzCompress(src, &comp);
  std::string out;
  EXPECT_TRUE(HlzDecompress(comp, src.size() + 1, &out).IsCorruption());
  EXPECT_TRUE(HlzDecompress(comp, src.size() - 1, &out).IsCorruption());
  EXPECT_TRUE(HlzDecompress(comp, 1u << 31, &out).IsCorruption());
}

TEST(Hlz, GarbageNeverCrashes) {
  // Deterministic pseudo-fuzz on the shared structure-aware mutator
  // (src/testing/fuzz.h — the same engine fuzz_harness drives much deeper).
  // Mutants of a valid stream must either round-trip or fail cleanly with
  // Corruption; a "success" must at least produce the declared size.
  const std::string valid_src = Repetitive(8192);
  std::string valid;
  HlzCompress(valid_src, &valid);
  const std::vector<std::string> corpus = {valid, RandomBytes(64, 3)};
  const testing::Mutator mutator(&corpus);
  std::string out;
  for (uint64_t iter = 0; iter < 400; iter++) {
    testing::FuzzRng rng(testing::CaseSeed(/*run_seed=*/42, iter));
    std::string mutant = valid;
    mutator.Mutate(rng, &mutant);
    const size_t claimed =
        rng.Chance(0.5) ? valid_src.size() : rng.Index(valid_src.size() + 2);
    if (HlzDecompress(mutant, claimed, &out).ok()) {
      EXPECT_EQ(out.size(), claimed) << "iter " << iter;
    }
  }
  // Truncations of a valid stream can never satisfy the declared raw size.
  for (size_t cut = 0; cut < valid.size(); cut += 13) {
    EXPECT_FALSE(HlzDecompress(valid.substr(0, cut), valid_src.size(), &out)
                     .ok());
  }
}

// ------------------------------------------------------- v4 record codec --

TxnBatch MakeBatch(BlockId id, TxnId first_tid, size_t n) {
  TxnBatch b;
  b.block_id = id;
  b.first_tid = first_tid;
  for (size_t i = 0; i < n; i++) {
    TxnRequest t;
    t.proc_id = 7;
    t.client_id = 40 + (i % 4);
    t.client_seq = first_tid + i;
    t.fee = 10 * i;
    t.args.ints = {static_cast<int64_t>(i), -5, 123456789};
    t.args.blob = "blob-" + std::to_string(i);
    b.txns.push_back(std::move(t));
  }
  return b;
}

TEST(BlockCodecV4, RecordRoundTripBothCodecs) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 20), 777);
  for (Compression c : {Compression::kNone, Compression::kHlz}) {
    SCOPED_TRACE(CompressionName(c));
    size_t raw = 0;
    Compression used = Compression::kHlz;
    const std::string payload = BlockCodec::EncodeRecordV4(b, c, &raw, &used);
    EXPECT_GT(raw, 0u);
    if (c == Compression::kNone) EXPECT_EQ(used, Compression::kNone);
    Block d;
    ASSERT_OK(BlockCodec::DecodeRecordV4(payload, &d));
    EXPECT_EQ(d.header.block_hash, b.header.block_hash);
    ASSERT_EQ(d.batch.txns.size(), 20u);
    EXPECT_EQ(d.batch.txns[3].args.blob, "blob-3");
    EXPECT_EQ(d.batch.txns[3].fee, 30u);
    EXPECT_EQ(d.batch.txns[3].client_id, 43u);
    // The verifier must accept a decompressed block unchanged.
    EXPECT_EQ(BlockCodec::TxnRoot(d.batch), b.header.txn_root);
  }
}

TEST(BlockCodecV4, CorruptEnvelopeRejected) {
  BlockBuilder builder("secret");
  Block b = builder.Seal(MakeBatch(1, 1, 8), 0);
  std::string payload = BlockCodec::EncodeRecordV4(b, Compression::kHlz);
  Block d;
  // Unknown codec byte (offset 156 = fixed header fields).
  std::string bad = payload;
  bad[156] = 9;
  EXPECT_TRUE(BlockCodec::DecodeRecordV4(bad, &d).IsCorruption());
  // Garbage compressed section of the right stored length.
  bad = payload;
  for (size_t i = 166; i < bad.size(); i++) bad[i] = static_cast<char>(0xFF);
  EXPECT_TRUE(BlockCodec::DecodeRecordV4(bad, &d).IsCorruption());
  // Truncation anywhere.
  EXPECT_FALSE(BlockCodec::DecodeRecordV4(payload.substr(0, 160), &d).ok());
  EXPECT_FALSE(
      BlockCodec::DecodeRecordV4(payload.substr(0, payload.size() - 1), &d)
          .ok());
}

// ------------------------------------------------------ header refusal --

void AppendRecord(std::string* file, const std::string& payload) {
  codec::AppendU32(file, static_cast<uint32_t>(payload.size()));
  file->append(payload);
  codec::AppendU32(file, Crc32(payload));
}

void WriteFile(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

std::string ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

TEST(BlockStoreMigration, GarbageWithoutHeaderIsNotSupported) {
  // Only {kLogMagic, kLogV4} opens. Older logs (a headerless v1 file, a v2
  // or v3 header), a newer version and plain garbage are all refused with
  // NotSupported, and the file is left byte-identical: no truncation, no
  // rewrite, no stamped header.
  TempDir dir("refuse");
  BlockBuilder builder("secret");
  std::string raw_records;  // raw-layout records, the pre-v4 record shape
  std::string v4_records;
  TxnId tid = 1;
  for (BlockId i = 1; i <= 3; i++) {
    Block b = builder.Seal(MakeBatch(i, tid, 4), 0);
    tid += 4;
    AppendRecord(&raw_records, BlockCodec::EncodeRaw(b));
    AppendRecord(&v4_records,
                 BlockCodec::EncodeRecordV4(b, Compression::kHlz));
  }
  auto with_header = [](uint32_t version, const std::string& records) {
    std::string file;
    codec::AppendU32(&file, 0x4C434248u);  // kLogMagic
    codec::AppendU32(&file, version);
    return file + records;
  };
  std::string bad_magic = with_header(kLogV4, v4_records);
  bad_magic[0] ^= 0x5a;
  const std::pair<const char*, std::string> cases[] = {
      {"garbage", RandomBytes(4096, 5)},
      {"headerless v1", raw_records},
      {"v2 header", with_header(2, raw_records)},
      {"v3 header", with_header(3, raw_records)},
      {"v5 header", with_header(kLogV4 + 1, v4_records)},
      {"v4 version, bad magic", bad_magic},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    const std::string path = dir.path() + "/chain.log";
    WriteFile(path, bytes);
    {
      BlockStore store(path);
      const Status s = store.Open();
      EXPECT_EQ(s.code(), Status::Code::kNotSupported) << s.ToString();
    }
    EXPECT_EQ(ReadFileBytes(path), bytes);
  }
  // The control: the same records behind a v4 header open whole.
  const std::string path = dir.path() + "/chain.log";
  WriteFile(path, with_header(kLogV4, v4_records));
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), 3u);
}

// Opens every byte-prefix of `full`: no prefix may crash the store, and any
// prefix that opens must expose a (block-wise) prefix of the original chain
// with a consistent count.
void TruncationSweep(const std::string& dir, const std::string& full,
                     const std::vector<Digest>& hashes) {
  for (size_t cut = 0; cut <= full.size(); cut++) {
    const std::string path = dir + "/trunc.log";
    WriteFile(path, full.substr(0, cut));
    BlockStore store(path);
    if (!store.Open().ok()) continue;  // clean rejection is fine
    std::vector<Block> all;
    SCOPED_TRACE(cut);
    ASSERT_OK(store.ReadAll(&all));
    ASSERT_LE(all.size(), hashes.size());
    EXPECT_EQ(store.num_blocks(), all.size());
    Block last;
    if (!all.empty()) {
      ASSERT_OK(store.ReadLast(&last));
      EXPECT_EQ(last.header.block_hash, all.back().header.block_hash);
    }
    for (size_t i = 0; i < all.size(); i++) {
      EXPECT_EQ(all[i].header.block_hash, hashes[i]) << "cut " << cut;
    }
  }
}

TEST(BlockStoreTruncation, EveryByteOffsetOfV4Log) {
  TempDir dir("trunc-v4");
  const std::string path = dir.path() + "/chain.log";
  BlockBuilder builder("secret");
  std::vector<Digest> hashes;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    TxnId tid = 1;
    for (BlockId i = 1; i <= 3; i++) {
      Block b = builder.Seal(MakeBatch(i, tid, 8), 0);
      tid += 8;
      hashes.push_back(b.header.block_hash);
      ASSERT_OK(store.Append(b));
    }
  }
  TruncationSweep(dir.path(), ReadFileBytes(path), hashes);
}

TEST(BlockStoreV4, CorruptCompressedPayloadTruncatesWithoutCrash) {
  TempDir dir("corrupt4");
  const std::string path = dir.path() + "/chain.log";
  BlockBuilder builder("secret");
  size_t good_blocks = 3;
  {
    BlockStore store(path);
    ASSERT_OK(store.Open());
    TxnId tid = 1;
    for (BlockId i = 1; i <= good_blocks + 1; i++) {
      ASSERT_OK(store.Append(builder.Seal(MakeBatch(i, tid, 16), 0)));
      tid += 16;
    }
    ASSERT_EQ(store.compressed_blocks(), good_blocks + 1);
  }
  // Corrupt the *last* record's compressed section deterministically (all
  // 0xFF is an invalid HLZ stream) and re-stamp the record CRC so the
  // corruption reaches the decompressor, not the CRC check.
  {
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    off_t off = 8;
    uint32_t len = 0;
    off_t last_off = -1;
    uint32_t last_len = 0;
    while (::pread(fd, &len, 4, off) == 4) {
      std::string payload(len, '\0');
      if (::pread(fd, payload.data(), len, off + 4) !=
          static_cast<ssize_t>(len)) {
        break;
      }
      last_off = off;
      last_len = len;
      off += 8 + len;
    }
    ASSERT_GT(last_off, 0);
    std::string payload(last_len, '\0');
    ASSERT_EQ(::pread(fd, payload.data(), last_len, last_off + 4),
              static_cast<ssize_t>(last_len));
    ASSERT_EQ(static_cast<uint8_t>(payload[156]), 1u);  // Compression::kHlz
    for (size_t i = 166; i < payload.size(); i++) {
      payload[i] = static_cast<char>(0xFF);
    }
    const uint32_t crc = Crc32(payload);
    ASSERT_EQ(::pwrite(fd, payload.data(), last_len, last_off + 4),
              static_cast<ssize_t>(last_len));
    ASSERT_EQ(::pwrite(fd, &crc, 4, last_off + 4 + last_len), 4);
    ::close(fd);
  }
  // Open() treats the undecodable record as a torn tail: truncated, no
  // crash, and the intact prefix reads back fine.
  BlockStore store(path);
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.num_blocks(), good_blocks);
  std::vector<Block> all;
  ASSERT_OK(store.ReadAll(&all));
  EXPECT_EQ(all.size(), good_blocks);
}

}  // namespace
}  // namespace harmony
