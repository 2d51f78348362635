// Structure-aware fuzz harness (docs/TESTING.md).
//
// One binary, many targets: each target builds *valid* inputs with a seeded
// FuzzRng, runs them through the shared Mutator (tools and tests use the
// same one), and feeds the mutants to one decode surface. Validity-aware
// generation matters: blind byte noise dies at the outermost magic/CRC
// check, while mutating a well-formed input reaches the parsers behind it.
//
// Determinism is the contract. Every case derives all randomness from
// CaseSeed(run_seed, case_index); any failure prints
//
//   reproduce: fuzz_harness --target <t> --seed <S> --case <K>
//
// and that exact invocation replays the failing case — no corpus state or
// environment involved. The repro line is also emitted from fatal-signal
// handlers and the sanitizer death callback, so an ASan abort deep inside a
// decoder still tells you which case to replay.
//
//   fuzz_harness --list
//   fuzz_harness --target wire_reassembler --iters 100000 --seed 7
//   fuzz_harness --target log_open --seed 7 --case 4242
//   fuzz_harness --write-corpus tools/fuzz/corpus
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "common/codec.h"
#include "common/compress.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "testing/fuzz.h"

extern "C" {
// Present under ASan/UBSan, absent in plain builds (weak): lets the
// sanitizer's own abort still print the case repro line.
void __sanitizer_set_death_callback(void (*)(void)) __attribute__((weak));
}

namespace harmony {
namespace {

using testing::CaseSeed;
using testing::FuzzRng;
using testing::Mutator;

// Pre-formatted repro line for the current case, written with async-signal-
// safe write(2) from fatal-signal handlers. Updated before each case runs.
char g_repro[256];
size_t g_repro_len = 0;

void PrintReproRaw() {
  if (g_repro_len > 0) {
    ssize_t ignored = ::write(STDERR_FILENO, g_repro, g_repro_len);
    (void)ignored;
  }
}

void FatalSignal(int sig) {
  PrintReproRaw();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void InstallCrashReporters() {
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::signal(sig, FatalSignal);
  }
  if (&__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(PrintReproRaw);
  }
}

[[noreturn]] void FailCase(const char* what) {
  std::fprintf(stderr, "FUZZ FAILURE: %s\n", what);
  PrintReproRaw();
  std::abort();
}

#define FUZZ_CHECK(cond, what) \
  do {                         \
    if (!(cond)) FailCase(what); \
  } while (0)

// ------------------------------------------------------ input generators --

TxnRequest MakeTxn(FuzzRng& rng) {
  TxnRequest t;
  t.proc_id = static_cast<uint32_t>(rng.Index(16));
  t.client_id = rng.Range(1, 64);
  t.client_seq = rng.Range(1, 1 << 20);
  t.submit_time_us = rng.Range(0, 1 << 30);
  t.retries = static_cast<uint32_t>(rng.Index(4));
  t.fee = rng.Index(1000);
  const size_t n_ints = rng.Index(6);
  for (size_t i = 0; i < n_ints; i++) {
    t.args.ints.push_back(static_cast<int64_t>(rng.U64()));
  }
  t.args.blob = rng.Bytes(rng.SkewedSize(256));
  return t;
}

TxnReceipt MakeReceipt(FuzzRng& rng) {
  TxnReceipt r;
  r.outcome = static_cast<ReceiptOutcome>(rng.Index(4));
  r.status = net::WireStatus(static_cast<Status::Code>(rng.Index(8)),
                             rng.Bytes(rng.SkewedSize(64)));
  r.block_id = rng.Index(1 << 20);
  r.client_id = rng.Range(1, 64);
  r.client_seq = rng.U64();
  r.retries = static_cast<uint32_t>(rng.Index(4));
  r.latency_us = rng.Index(1 << 20);
  return r;
}

Block MakeBlock(FuzzRng& rng, BlockBuilder& builder, BlockId id,
                TxnId first_tid) {
  TxnBatch batch;
  batch.block_id = id;
  batch.first_tid = first_tid;
  const size_t n = 1 + rng.Index(8);
  for (size_t i = 0; i < n; i++) batch.txns.push_back(MakeTxn(rng));
  return builder.Seal(std::move(batch), rng.Range(1, 1 << 30));
}

/// A v4 record payload, HLZ-compressed or raw-envelope at random.
std::string EncodeRecord(FuzzRng& rng, const Block& b) {
  const Compression c =
      rng.Chance(0.5) ? Compression::kHlz : Compression::kNone;
  return BlockCodec::EncodeRecordV4(b, c);
}

void AppendRecord(std::string* file, const std::string& payload) {
  codec::AppendU32(file, static_cast<uint32_t>(payload.size()));
  file->append(payload);
  codec::AppendU32(file, Crc32(payload));
}

/// A block-log file: the {magic, version} header followed by freshly
/// chained v4 records. Only version == kLogVersion is a well-formed log.
std::string BuildLogFile(FuzzRng& rng, uint32_t version, size_t n_blocks) {
  std::string file;
  codec::AppendU32(&file, 0x4C434248u);  // kLogMagic ("HBCL")
  codec::AppendU32(&file, version);
  BlockBuilder builder("fuzz-secret");
  TxnId tid = 1;
  for (size_t i = 0; i < n_blocks; i++) {
    Block b = MakeBlock(rng, builder, static_cast<BlockId>(i + 1), tid);
    tid += b.header.txn_count;
    AppendRecord(&file, EncodeRecord(rng, b));
  }
  return file;
}

obs::MetricsSnapshot MakeSnapshot(FuzzRng& rng) {
  obs::MetricsSnapshot m;
  const size_t nc = rng.Index(5);
  for (size_t i = 0; i < nc; i++) {
    m.counters.push_back({"c_" + rng.Bytes(rng.Index(12)), rng.U64()});
  }
  const size_t ng = rng.Index(4);
  for (size_t i = 0; i < ng; i++) {
    m.gauges.push_back(
        {"g_" + rng.Bytes(rng.Index(12)), static_cast<int64_t>(rng.U64())});
  }
  const size_t nh = rng.Index(4);
  for (size_t i = 0; i < nh; i++) {
    obs::HistogramSnapshot h;
    h.name = "h_" + rng.Bytes(rng.Index(12));
    const size_t nb = rng.Index(8);
    for (size_t j = 0; j < nb; j++) {
      const uint32_t idx =
          static_cast<uint32_t>(rng.Index(obs::LatencyHistogram::kBuckets));
      const uint64_t cnt = rng.Range(1, 1000);
      h.buckets.emplace_back(idx, cnt);
      h.count += cnt;
      h.sum += cnt * obs::LatencyHistogram::BucketLow(idx);
      h.max = std::max(h.max, obs::LatencyHistogram::BucketLow(idx));
    }
    m.histograms.push_back(std::move(h));
  }
  const size_t ns = rng.Index(4);
  for (size_t i = 0; i < ns; i++) {
    obs::SlowTxnTrace t;
    t.client_id = rng.Range(1, 64);
    t.client_seq = rng.U64();
    t.block_id = rng.Index(1 << 20);
    t.queue_wait_us = rng.Index(1 << 20);
    t.commit_lag_us = rng.Index(1 << 20);
    t.total_us = t.queue_wait_us + t.commit_lag_us;
    t.retries = static_cast<uint32_t>(rng.Index(4));
    m.slow_txns.push_back(t);
  }
  return m;
}

// -------------------------------------------------------------- targets --

struct Ctx {
  Mutator mut;
  std::string tmp_dir;  // scratch for file-backed targets (log_open)
};

/// HLZ codec: structured round-trips plus mutated streams and raw_len lies.
/// A mutated stream may decode to anything, but a success must produce
/// exactly the declared size (the bounds the decoder promises).
void CaseHlz(FuzzRng& rng, Ctx& ctx) {
  std::string src;
  const size_t n = rng.SkewedSize(32 << 10);
  while (src.size() < n) {
    if (rng.Chance(0.7)) {
      src += "transfer(acct-12345, acct-67890, amount=100);";
    } else {
      src += rng.Bytes(1 + rng.Index(16));
    }
  }
  src.resize(n);
  std::string comp;
  HlzCompress(src, &comp);
  std::string out;
  FUZZ_CHECK(HlzDecompress(comp, src.size(), &out).ok() && out == src,
             "hlz round-trip of fresh compression");

  std::string mutant = comp;
  ctx.mut.Mutate(rng, &mutant);
  if (HlzDecompress(mutant, src.size(), &out).ok()) {
    FUZZ_CHECK(out.size() == src.size(),
               "hlz success with wrong output size");
  }
  // Lie about the raw length of a *valid* stream.
  const size_t lie = rng.SkewedSize(1 << 20);
  if (HlzDecompress(comp, lie, &out).ok()) {
    FUZZ_CHECK(lie == src.size(), "hlz accepted a raw_len lie");
  }
}

/// Every assigned opcode (4, once STATS, stays unassigned).
constexpr net::Opcode kOpcodes[] = {
    net::Opcode::kOpSubmit,       net::Opcode::kOpReceipt,
    net::Opcode::kOpSync,         net::Opcode::kOpError,
    net::Opcode::kOpBatchSubmit,  net::Opcode::kOpBatchReceipt,
    net::Opcode::kOpMetrics,      net::Opcode::kOpReplJoin,
    net::Opcode::kOpReplicate,    net::Opcode::kOpReplicateAck,
    net::Opcode::kOpReplSnapshot, net::Opcode::kOpHealth,
    net::Opcode::kOpEvents,
};

/// FrameReassembler: mutated multi-frame streams fed in random chunk sizes.
/// Unmutated streams must yield every frame intact; Corruption is terminal
/// (the caller's contract is to close the connection — a second Next() must
/// not "resync" into garbage).
void CaseWireReassembler(FuzzRng& rng, Ctx& ctx) {
  std::vector<net::Frame> built;
  std::string stream;
  const size_t n_frames = 1 + rng.Index(3);
  for (size_t i = 0; i < n_frames; i++) {
    net::Frame f;
    f.opcode = kOpcodes[rng.Index(std::size(kOpcodes))];
    f.payload = rng.Bytes(rng.SkewedSize(2048));
    stream += net::EncodeFrame(f.opcode, f.payload);
    built.push_back(std::move(f));
  }
  const bool mutated = rng.Chance(0.85);
  if (mutated) ctx.mut.Mutate(rng, &stream);

  net::FrameReassembler r;
  std::vector<net::Frame> got;
  bool corrupted = false;
  size_t fed = 0;
  while (true) {
    net::Frame f;
    Status s = r.Next(&f);
    if (s.ok()) {
      got.push_back(std::move(f));
      continue;
    }
    if (s.IsCorruption()) {
      corrupted = true;
      break;
    }
    // NotFound: need more bytes.
    if (fed >= stream.size()) break;
    const size_t chunk =
        std::min(stream.size() - fed, 1 + rng.SkewedSize(stream.size()));
    r.Feed(stream.data() + fed, chunk);
    fed += chunk;
  }
  if (corrupted) {
    // Terminal: more bytes (even valid frames) must not revive the stream.
    r.Feed(stream.data(), std::min<size_t>(stream.size(), 64));
    net::Frame f;
    FUZZ_CHECK(r.Next(&f).IsCorruption(),
               "FrameReassembler resynced after Corruption");
  }
  if (!mutated) {
    FUZZ_CHECK(!corrupted, "valid stream reported Corruption");
    FUZZ_CHECK(got.size() == built.size(), "valid stream lost frames");
    for (size_t i = 0; i < got.size(); i++) {
      FUZZ_CHECK(got[i].opcode == built[i].opcode &&
                     got[i].payload == built[i].payload,
                 "valid frame decoded differently");
    }
  }
}

/// Every opcode payload decoder, mutated and unmutated. Decoders return
/// bool; the invariant is "no crash, no OOB" (sanitizers enforce) plus
/// unmutated payloads must decode and round-trip.
void CaseWirePayload(FuzzRng& rng, Ctx& ctx) {
  const size_t kind = rng.Index(7);
  std::string payload;
  switch (kind) {
    case 0: {  // SUBMIT: BlockCodec::EncodeTxn
      TxnRequest t = MakeTxn(rng);
      BlockCodec::EncodeTxn(t, &payload);
      break;
    }
    case 1: {
      net::EncodeReceipt(MakeReceipt(rng), &payload);
      break;
    }
    case 2: {
      net::WireError e;
      e.code = static_cast<Status::Code>(rng.Index(8));
      e.client_seq = rng.U64();
      e.message = rng.Bytes(rng.SkewedSize(64));
      net::EncodeError(e, &payload);
      break;
    }
    case 3:
      net::EncodeSync(rng.U64(), &payload);
      break;
    case 4:
      net::EncodeMetrics(MakeSnapshot(rng), &payload);
      break;
    case 5: {
      std::vector<TxnRequest> txns;
      const size_t n = 1 + rng.Index(6);
      for (size_t i = 0; i < n; i++) txns.push_back(MakeTxn(rng));
      net::EncodeBatchSubmit(txns, &payload);
      break;
    }
    default: {
      std::string entries;
      const size_t n = 1 + rng.Index(6);
      for (size_t i = 0; i < n; i++) {
        net::AppendBatchReceiptEntry(MakeReceipt(rng), &entries);
      }
      payload = net::SealBatchPayload(static_cast<uint32_t>(n), entries);
      break;
    }
  }

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  switch (kind) {
    case 0: {
      codec::Reader r(payload);
      TxnRequest t;
      const bool ok = BlockCodec::DecodeTxn(&r, &t);
      if (!mutated) FUZZ_CHECK(ok, "valid SUBMIT payload rejected");
      break;
    }
    case 1: {
      TxnReceipt rcpt;
      const bool ok = net::DecodeReceipt(payload, &rcpt);
      if (!mutated) FUZZ_CHECK(ok, "valid RECEIPT payload rejected");
      break;
    }
    case 2: {
      net::WireError e;
      const bool ok = net::DecodeError(payload, &e);
      if (!mutated) FUZZ_CHECK(ok, "valid ERROR payload rejected");
      break;
    }
    case 3: {
      uint64_t token = 0;
      const bool ok = net::DecodeSync(payload, &token);
      if (!mutated) FUZZ_CHECK(ok, "valid SYNC payload rejected");
      break;
    }
    case 4: {
      obs::MetricsSnapshot m;
      const bool ok = net::DecodeMetrics(payload, &m);
      if (!mutated) FUZZ_CHECK(ok, "valid METRICS payload rejected");
      break;
    }
    case 5: {
      std::vector<TxnRequest> txns;
      const bool ok = net::DecodeBatchSubmit(payload, &txns);
      if (!mutated) FUZZ_CHECK(ok, "valid BATCH_SUBMIT payload rejected");
      break;
    }
    default: {
      std::vector<TxnReceipt> rcpts;
      const bool ok = net::DecodeBatchReceipt(payload, &rcpts);
      if (!mutated) FUZZ_CHECK(ok, "valid BATCH_RECEIPT payload rejected");
      break;
    }
  }
}

/// BlockCodec's two block layouts: the raw one (REPLICATE payloads) and
/// the v4 log record.
void CaseBlockRecord(FuzzRng& rng, Ctx& ctx) {
  const bool raw = rng.Chance(0.5);
  BlockBuilder builder("fuzz-secret");
  Block b = MakeBlock(rng, builder, 1, 1);
  std::string payload = raw ? BlockCodec::EncodeRaw(b) : EncodeRecord(rng, b);

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  Block d;
  Status s = raw ? BlockCodec::DecodeRaw(payload, &d)
                 : BlockCodec::DecodeRecordV4(payload, &d);
  if (!mutated) {
    FUZZ_CHECK(s.ok(), "valid record payload rejected");
    FUZZ_CHECK(d.header.block_hash == b.header.block_hash &&
                   d.batch.txns.size() == b.batch.txns.size(),
               "valid record decoded differently");
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// BlockStore::Open on whole mutated log files (exercises header/version
/// checks, torn-tail repair, CRC validation). Headers carry a random
/// version — older, current or newer. The invariants: a file of at least
/// 8 bytes whose header is not {kLogMagic, kLogV4} is NotSupported and left
/// byte-identical; whatever Open accepts, ReadAll must then parse —
/// "opened" means every surviving record is readable.
void CaseLogOpen(FuzzRng& rng, Ctx& ctx) {
  const uint32_t version = static_cast<uint32_t>(1 + rng.Index(5));
  std::string file = BuildLogFile(rng, version, rng.Index(4));
  if (rng.Chance(0.9)) ctx.mut.Mutate(rng, &file);
  uint32_t header[2] = {0, 0};
  if (file.size() >= sizeof(header)) {
    std::memcpy(header, file.data(), sizeof(header));
  }
  const bool foreign = file.size() >= sizeof(header) &&
                       (header[0] != 0x4C434248u || header[1] != kLogV4);

  const std::string path = ctx.tmp_dir + "/log_open.chain";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    FUZZ_CHECK(f != nullptr, "cannot write scratch log file");
    if (!file.empty()) {
      FUZZ_CHECK(std::fwrite(file.data(), 1, file.size(), f) == file.size(),
                 "short write to scratch log file");
    }
    std::fclose(f);
  }
  {
    BlockStore store(path, /*sync_latency_us=*/0);
    Status s = store.Open();
    if (foreign) {
      FUZZ_CHECK(s.code() == Status::Code::kNotSupported,
                 "Open() accepted a log header other than v4");
      FUZZ_CHECK(ReadWholeFile(path) == file,
                 "Open() modified a log it refused");
    }
    if (s.ok()) {
      std::vector<Block> blocks;
      FUZZ_CHECK(store.ReadAll(&blocks).ok(),
                 "Open() accepted a log ReadAll cannot parse");
      FUZZ_CHECK(blocks.size() == store.num_blocks(),
                 "ReadAll count disagrees with open scan");
      Block tip;
      Status last = store.ReadLast(&tip);
      if (blocks.empty()) {
        FUZZ_CHECK(last.IsNotFound(), "ReadLast on empty log not NotFound");
      } else {
        FUZZ_CHECK(last.ok() && tip.header.block_id ==
                                    blocks.back().header.block_id,
                   "ReadLast disagrees with ReadAll tip");
      }
    }
  }
  ::unlink(path.c_str());
}

net::WireSnapshot MakeWireSnapshot(FuzzRng& rng) {
  net::WireSnapshot s;
  s.base_block = rng.Range(1, 1 << 20);
  s.leader_tip = s.base_block + rng.Index(1 << 10);
  for (size_t i = 0; i < 32; i++) {
    s.tip_hash[i] = static_cast<uint8_t>(rng.Index(256));
  }
  const size_t n = rng.Index(32);
  for (size_t i = 0; i < n; i++) {
    s.rows.emplace_back(rng.U64(), rng.Bytes(rng.SkewedSize(128)));
  }
  return s;
}

/// Replication payload codecs (JOIN / REPLICATE / ACK / SNAPSHOT): mutated
/// and unmutated. These payloads cross process boundaries from a peer that
/// may be arbitrarily broken, so the decoders carry the same no-crash
/// contract as the client-facing ones — plus REPLICATE's outer-id/header
/// consistency check.
void CaseReplPayload(FuzzRng& rng, Ctx& ctx) {
  const size_t kind = rng.Index(4);
  std::string payload;
  Block blk;
  switch (kind) {
    case 0: {
      net::WireReplJoin j;
      j.node = rng.Bytes(rng.Index(net::kMaxReplNodeName));
      j.last_block_id = rng.U64();
      net::EncodeReplJoin(j, &payload);
      break;
    }
    case 1: {
      BlockBuilder builder("fuzz-secret");
      blk = MakeBlock(rng, builder, static_cast<BlockId>(rng.Range(1, 1 << 20)),
                      1);
      net::EncodeReplicate(blk, &payload);
      break;
    }
    case 2:
      net::EncodeReplAck(rng.U64(), &payload);
      break;
    default:
      net::EncodeSnapshot(MakeWireSnapshot(rng), &payload);
      break;
  }

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  switch (kind) {
    case 0: {
      net::WireReplJoin j;
      const bool ok = net::DecodeReplJoin(payload, &j);
      if (!mutated) FUZZ_CHECK(ok, "valid REPL_JOIN payload rejected");
      if (ok) {
        FUZZ_CHECK(j.node.size() <= net::kMaxReplNodeName,
                   "REPL_JOIN accepted an oversized node name");
      }
      break;
    }
    case 1: {
      Block d;
      const bool ok = net::DecodeReplicate(payload, &d);
      if (!mutated) {
        FUZZ_CHECK(ok, "valid REPLICATE payload rejected");
        FUZZ_CHECK(d.header.block_id == blk.header.block_id &&
                       d.header.block_hash == blk.header.block_hash,
                   "valid REPLICATE decoded differently");
      }
      break;
    }
    case 2: {
      BlockId id = 0;
      const bool ok = net::DecodeReplAck(payload, &id);
      if (!mutated) FUZZ_CHECK(ok, "valid REPLICATE_ACK payload rejected");
      break;
    }
    default: {
      net::WireSnapshot s;
      const bool ok = net::DecodeSnapshot(payload, &s);
      if (!mutated) FUZZ_CHECK(ok, "valid REPL_SNAPSHOT payload rejected");
      if (ok) {
        FUZZ_CHECK(s.rows.size() <= net::kMaxSnapshotRows,
                   "REPL_SNAPSHOT accepted too many rows");
      }
      break;
    }
  }
}

/// A whole replication session's byte stream (JOIN, then interleaved
/// REPLICATE / SNAPSHOT / ACK frames) through the FrameReassembler in
/// random chunk sizes — what PeerLink::Recv and the leader's reactor
/// actually see from a hostile or corrupted peer. Unmutated streams must
/// reassemble every frame AND payload-decode them.
void CaseReplReassembler(FuzzRng& rng, Ctx& ctx) {
  std::string stream;
  std::vector<std::pair<net::Opcode, std::string>> built;
  auto add = [&](net::Opcode op, std::string payload) {
    stream += net::EncodeFrame(op, payload);
    built.emplace_back(op, std::move(payload));
  };

  net::WireReplJoin join;
  join.node = "fuzz-follower";
  join.last_block_id = rng.Index(1 << 20);
  std::string jp;
  net::EncodeReplJoin(join, &jp);
  add(net::Opcode::kOpReplJoin, std::move(jp));

  BlockBuilder builder("fuzz-secret");
  TxnId tid = 1;
  BlockId id = join.last_block_id + 1;
  const size_t n = 1 + rng.Index(4);
  for (size_t i = 0; i < n; i++) {
    if (rng.Chance(0.2)) {
      std::string sp;
      net::EncodeSnapshot(MakeWireSnapshot(rng), &sp);
      add(net::Opcode::kOpReplSnapshot, std::move(sp));
    } else if (rng.Chance(0.3)) {
      std::string ap;
      net::EncodeReplAck(rng.Index(1 << 20), &ap);
      add(net::Opcode::kOpReplicateAck, std::move(ap));
    } else {
      Block b = MakeBlock(rng, builder, id++, tid);
      tid += b.header.txn_count;
      std::string rp;
      net::EncodeReplicate(b, &rp);
      add(net::Opcode::kOpReplicate, std::move(rp));
    }
  }

  const bool mutated = rng.Chance(0.85);
  if (mutated) ctx.mut.Mutate(rng, &stream);

  net::FrameReassembler r;
  std::vector<net::Frame> got;
  bool corrupted = false;
  size_t fed = 0;
  while (true) {
    net::Frame f;
    Status s = r.Next(&f);
    if (s.ok()) {
      got.push_back(std::move(f));
      continue;
    }
    if (s.IsCorruption()) {
      corrupted = true;
      break;
    }
    if (fed >= stream.size()) break;
    const size_t chunk =
        std::min(stream.size() - fed, 1 + rng.SkewedSize(stream.size()));
    r.Feed(stream.data() + fed, chunk);
    fed += chunk;
  }

  // Whatever reassembled — even from a mutated stream — goes through the
  // payload decoders, like a real session would. No decoder may crash.
  for (const net::Frame& f : got) {
    switch (f.opcode) {
      case net::Opcode::kOpReplJoin: {
        net::WireReplJoin j;
        (void)net::DecodeReplJoin(f.payload, &j);
        break;
      }
      case net::Opcode::kOpReplicate: {
        Block b;
        (void)net::DecodeReplicate(f.payload, &b);
        break;
      }
      case net::Opcode::kOpReplicateAck: {
        BlockId a = 0;
        (void)net::DecodeReplAck(f.payload, &a);
        break;
      }
      case net::Opcode::kOpReplSnapshot: {
        net::WireSnapshot s;
        (void)net::DecodeSnapshot(f.payload, &s);
        break;
      }
      default:
        break;
    }
  }

  if (!mutated) {
    FUZZ_CHECK(!corrupted, "valid repl stream reported Corruption");
    FUZZ_CHECK(got.size() == built.size(), "valid repl stream lost frames");
    for (size_t i = 0; i < got.size(); i++) {
      FUZZ_CHECK(got[i].opcode == built[i].first &&
                     got[i].payload == built[i].second,
                 "valid repl frame decoded differently");
    }
  }
}

net::WireHealth MakeWireHealth(FuzzRng& rng) {
  net::WireHealth h;
  h.role = static_cast<uint8_t>(rng.Index(3));
  h.node = rng.Bytes(rng.Index(net::kMaxReplNodeName));
  h.height = rng.U64();
  h.durable_tip = rng.U64();
  h.leader_addr = rng.Bytes(rng.Index(64));
  h.peer_count = static_cast<uint32_t>(rng.Index(16));
  h.uptime_us = rng.U64();
  return h;
}

/// kOpHealth payloads: the node self-report the cluster scraper polls.
/// Accepted mutants must respect every documented bound (role range, name
/// and address caps); unmutated payloads round-trip exactly.
void CaseHealthPayload(FuzzRng& rng, Ctx& ctx) {
  const net::WireHealth h = MakeWireHealth(rng);
  std::string payload;
  net::EncodeHealth(h, &payload);

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  net::WireHealth d;
  const bool ok = net::DecodeHealth(payload, &d);
  if (!mutated) {
    FUZZ_CHECK(ok, "valid HEALTH payload rejected");
    FUZZ_CHECK(d.role == h.role && d.node == h.node &&
                   d.height == h.height && d.durable_tip == h.durable_tip &&
                   d.leader_addr == h.leader_addr &&
                   d.peer_count == h.peer_count && d.uptime_us == h.uptime_us,
               "valid HEALTH decoded differently");
  }
  if (ok) {
    FUZZ_CHECK(d.role <= net::WireHealth::kFollower,
               "HEALTH accepted an out-of-range role");
    FUZZ_CHECK(d.node.size() <= net::kMaxReplNodeName,
               "HEALTH accepted an oversized node name");
    FUZZ_CHECK(d.leader_addr.size() <= net::kMaxLeaderAddr,
               "HEALTH accepted an oversized leader addr");
  }
}

/// kOpEvents payloads (reply and the u64-cursor request): count bombs must
/// die at the plausibility check, accepted entries must respect the
/// severity range and the detail cap.
void CaseEventsPayload(FuzzRng& rng, Ctx& ctx) {
  if (rng.Chance(0.15)) {  // the request side is exactly one u64
    std::string req;
    net::EncodeEventsReq(rng.U64(), &req);
    const bool mutated = rng.Chance(0.9);
    if (mutated) ctx.mut.Mutate(rng, &req);
    uint64_t cursor = 0;
    const bool ok = net::DecodeEventsReq(req, &cursor);
    if (!mutated) FUZZ_CHECK(ok, "valid EVENTS request rejected");
    return;
  }

  std::vector<obs::EventRecord> events;
  const size_t n = rng.Index(8);
  for (size_t i = 0; i < n; i++) {
    obs::EventRecord e;
    e.seq = rng.U64();
    e.time_us = rng.U64();
    e.severity = static_cast<uint8_t>(rng.Index(3));
    e.code = static_cast<uint16_t>(rng.Index(16));
    e.detail = rng.Bytes(rng.Index(net::kMaxEventDetail + 1));
    events.push_back(std::move(e));
  }
  std::string payload;
  net::EncodeEvents(rng.U64(), events, &payload);

  const bool mutated = rng.Chance(0.9);
  if (mutated) ctx.mut.Mutate(rng, &payload);

  uint64_t next = 0;
  std::vector<obs::EventRecord> d;
  const bool ok = net::DecodeEvents(payload, &next, &d);
  if (!mutated) {
    FUZZ_CHECK(ok, "valid EVENTS payload rejected");
    FUZZ_CHECK(d.size() == events.size(),
               "valid EVENTS round-trip changed entry count");
  }
  if (ok) {
    FUZZ_CHECK(d.size() <= net::kMaxEventEntries,
               "EVENTS accepted too many entries");
    for (const obs::EventRecord& e : d) {
      FUZZ_CHECK(
          e.severity <= static_cast<uint8_t>(obs::EventSeverity::kError),
          "EVENTS accepted an out-of-range severity");
      FUZZ_CHECK(e.detail.size() <= net::kMaxEventDetail,
                 "EVENTS accepted an oversized detail");
    }
    // Whatever decoded renders without crashing (harmonyd events path).
    (void)obs::RenderEventsText(d);
    (void)obs::RenderEventsJson(d);
  }
}

/// kOpMetrics snapshot codec at scale (richer snapshots than wire_payload's
/// occasional case 5).
void CaseMetrics(FuzzRng& rng, Ctx& ctx) {
  obs::MetricsSnapshot m = MakeSnapshot(rng);
  std::string payload;
  net::EncodeMetrics(m, &payload);

  obs::MetricsSnapshot d;
  FUZZ_CHECK(net::DecodeMetrics(payload, &d), "valid metrics rejected");
  FUZZ_CHECK(d.counters.size() == m.counters.size() &&
                 d.gauges.size() == m.gauges.size() &&
                 d.histograms.size() == m.histograms.size() &&
                 d.slow_txns.size() == m.slow_txns.size(),
             "metrics round-trip changed entry counts");

  ctx.mut.Mutate(rng, &payload);
  obs::MetricsSnapshot junk;
  (void)net::DecodeMetrics(payload, &junk);  // must not crash or OOM
}

struct Target {
  const char* name;
  void (*fn)(FuzzRng&, Ctx&);
  const char* what;
};

const Target kTargets[] = {
    {"hlz", CaseHlz, "HLZ compress/decompress (common/compress.h)"},
    {"wire_reassembler", CaseWireReassembler,
     "frame reassembly over mutated byte streams (net/wire.h)"},
    {"wire_payload", CaseWirePayload, "every client opcode payload decoder"},
    {"block_record", CaseBlockRecord,
     "BlockCodec raw block layout and v4 log record"},
    {"log_open", CaseLogOpen,
     "BlockStore::Open + ReadAll on mutated log files"},
    {"metrics", CaseMetrics, "kOpMetrics snapshot codec round-trips"},
    {"health_payload", CaseHealthPayload,
     "kOpHealth node self-report codec (cluster scraper surface)"},
    {"events_payload", CaseEventsPayload,
     "kOpEvents request/reply codec: count bombs, severity, detail caps"},
    {"repl_payload", CaseReplPayload,
     "replication payload codecs: JOIN/REPLICATE/ACK/SNAPSHOT (src/repl/)"},
    {"repl_reassembler", CaseReplReassembler,
     "whole replication-session streams through reassembly + decode"},
};

// --------------------------------------------------------------- corpus --

/// Writes one canonical valid input per decode surface as commented hex —
/// the checked-in seed corpus the Mutator splices from. Regenerate with
/// `fuzz_harness --write-corpus tools/fuzz/corpus` after format changes.
int WriteCorpus(const std::string& dir) {
  struct Entry {
    const char* file;
    const char* comment;
    std::string bytes;
  };
  FuzzRng rng(42);
  Ctx ctx;
  std::vector<Entry> entries;

  std::string frame_payload;
  net::EncodeSync(0x1122334455667788ULL, &frame_payload);
  entries.push_back({"wire_sync_frame.hex",
                     "# one complete SYNC frame (header + payload)",
                     net::EncodeFrame(net::Opcode::kOpSync, frame_payload)});

  std::vector<TxnRequest> batch;
  for (int i = 0; i < 3; i++) batch.push_back(MakeTxn(rng));
  std::string batch_payload;
  net::EncodeBatchSubmit(batch, &batch_payload);
  entries.push_back({"wire_batch_submit.hex",
                     "# BATCH_SUBMIT payload: u32 count + 3x EncodeTxn",
                     batch_payload});

  std::string metrics_payload;
  net::EncodeMetrics(MakeSnapshot(rng), &metrics_payload);
  entries.push_back({"wire_metrics.hex",
                     "# METRICS payload: one MetricsSnapshot", metrics_payload});

  net::WireHealth health;
  health.role = net::WireHealth::kFollower;
  health.node = "corpus-follower";
  health.height = 128;
  health.durable_tip = 127;
  health.leader_addr = "127.0.0.1:7450";
  health.peer_count = 0;
  health.uptime_us = 99'000'000;
  std::string health_payload;
  net::EncodeHealth(health, &health_payload);
  entries.push_back({"wire_health.hex",
                     "# HEALTH payload: one follower self-report",
                     health_payload});

  std::vector<obs::EventRecord> evs;
  for (int i = 0; i < 3; i++) {
    obs::EventRecord e;
    e.seq = static_cast<uint64_t>(i);
    e.time_us = 1'000'000u + static_cast<uint64_t>(i);
    e.severity = static_cast<uint8_t>(i % 3);
    e.code = static_cast<uint16_t>(1 + i);
    e.detail = "corpus event " + std::to_string(i);
    evs.push_back(std::move(e));
  }
  std::string events_payload;
  net::EncodeEvents(/*next_cursor=*/3, evs, &events_payload);
  entries.push_back({"wire_events.hex",
                     "# EVENTS reply: next cursor + 3 entries",
                     events_payload});

  BlockBuilder builder("fuzz-secret");
  Block b = MakeBlock(rng, builder, 1, 1);
  entries.push_back({"block_record_v4.hex",
                     "# one v4 record payload (HLZ envelope)",
                     BlockCodec::EncodeRecordV4(b, Compression::kHlz)});
  entries.push_back({"block_raw.hex", "# one raw-layout block (REPLICATE)",
                     BlockCodec::EncodeRaw(b)});

  FuzzRng lrng(43);
  entries.push_back({"log_v4_two_blocks.hex",
                     "# complete v4 log file: header + 2 records",
                     BuildLogFile(lrng, kLogV4, 2)});

  std::string hlz;
  HlzCompress("transfer(acct-12345, acct-67890, amount=100);"
              "transfer(acct-12345, acct-67890, amount=100);",
              &hlz);
  entries.push_back({"hlz_stream.hex", "# HLZ stream of a repetitive source",
                     hlz});

  net::WireReplJoin join;
  join.node = "corpus-follower";
  join.last_block_id = 41;
  std::string join_payload;
  net::EncodeReplJoin(join, &join_payload);
  entries.push_back(
      {"repl_join_frame.hex",
       "# one complete REPL_JOIN frame (wire v2 header + payload)",
       net::EncodeFrame(net::Opcode::kOpReplJoin, join_payload)});

  std::string repl_payload;
  net::EncodeReplicate(b, &repl_payload);
  entries.push_back({"repl_replicate.hex",
                     "# REPLICATE payload: u64 block id + raw block bytes",
                     repl_payload});

  FuzzRng srng(45);
  std::string snap_payload;
  net::EncodeSnapshot(MakeWireSnapshot(srng), &snap_payload);
  entries.push_back(
      {"repl_snapshot.hex",
       "# REPL_SNAPSHOT payload: base + tip hash + leader tip + rows",
       snap_payload});

  for (const Entry& e : entries) {
    const std::string path = dir + "/" + e.file;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", e.comment);
    for (size_t i = 0; i < e.bytes.size(); i++) {
      std::fprintf(f, "%02x%s", static_cast<uint8_t>(e.bytes[i]),
                   (i + 1) % 32 == 0 ? "\n" : "");
    }
    if (e.bytes.size() % 32 != 0) std::fprintf(f, "\n");
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), e.bytes.size());
  }
  return 0;
}

// ----------------------------------------------------------------- main --

int FuzzMain(int argc, char** argv) {
  std::string target;
  std::string corpus_dir;
  std::string write_corpus_dir;
  uint64_t iters = 100000;
  uint64_t seed = 1;
  uint64_t case_index = 0;
  bool have_case = false;
  bool list = false;

  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--target") {
      target = next();
    } else if (a == "--iters") {
      iters = std::strtoull(next(), nullptr, 0);
    } else if (a == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (a == "--case") {
      case_index = std::strtoull(next(), nullptr, 0);
      have_case = true;
    } else if (a == "--corpus") {
      corpus_dir = next();
    } else if (a == "--write-corpus") {
      write_corpus_dir = next();
    } else if (a == "--list") {
      list = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  if (list) {
    for (const Target& t : kTargets) {
      std::printf("%-18s %s\n", t.name, t.what);
    }
    return 0;
  }
  if (!write_corpus_dir.empty()) return WriteCorpus(write_corpus_dir);

  const Target* tgt = nullptr;
  for (const Target& t : kTargets) {
    if (target == t.name) tgt = &t;
  }
  if (tgt == nullptr) {
    std::fprintf(stderr,
                 "--target required (one of:");
    for (const Target& t : kTargets) std::fprintf(stderr, " %s", t.name);
    std::fprintf(stderr, ")\n");
    return 2;
  }

  InstallCrashReporters();

  Ctx ctx;
  std::vector<std::string> corpus;
  if (!corpus_dir.empty()) {
    const size_t n = testing::LoadHexCorpusDir(corpus_dir, &corpus);
    std::printf("loaded %zu corpus entries from %s\n", n, corpus_dir.c_str());
  }
  ctx.mut = Mutator(&corpus);

  char tmpl[] = "/tmp/harmony_fuzz_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  ctx.tmp_dir = tmpl;

  const uint64_t first = have_case ? case_index : 0;
  const uint64_t last = have_case ? case_index + 1 : iters;
  for (uint64_t k = first; k < last; k++) {
    g_repro_len = static_cast<size_t>(std::snprintf(
        g_repro, sizeof(g_repro),
        "%s\n", testing::ReproduceHint("fuzz_harness", tgt->name, seed, k)
                    .c_str()));
    FuzzRng rng(CaseSeed(seed, k));
    tgt->fn(rng, ctx);
  }
  ::rmdir(ctx.tmp_dir.c_str());
  std::printf("target %s: %" PRIu64 " case(s) passed (seed %" PRIu64 ")\n",
              tgt->name, last - first, seed);
  return 0;
}

}  // namespace
}  // namespace harmony

int main(int argc, char** argv) { return harmony::FuzzMain(argc, argv); }
