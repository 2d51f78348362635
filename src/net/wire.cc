#include "net/wire.h"

#include <cstring>

#include "chain/block.h"

namespace harmony {
namespace net {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kOpSubmit:
      return "SUBMIT";
    case Opcode::kOpReceipt:
      return "RECEIPT";
    case Opcode::kOpSync:
      return "SYNC";
    case Opcode::kOpError:
      return "ERROR";
    case Opcode::kOpBatchSubmit:
      return "BATCH_SUBMIT";
    case Opcode::kOpBatchReceipt:
      return "BATCH_RECEIPT";
    case Opcode::kOpMetrics:
      return "METRICS";
    case Opcode::kOpReplJoin:
      return "REPL_JOIN";
    case Opcode::kOpReplicate:
      return "REPLICATE";
    case Opcode::kOpReplicateAck:
      return "REPLICATE_ACK";
    case Opcode::kOpReplSnapshot:
      return "REPL_SNAPSHOT";
    case Opcode::kOpHealth:
      return "HEALTH";
    case Opcode::kOpEvents:
      return "EVENTS";
  }
  return "?";
}

std::string EncodeFrame(Opcode op, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  codec::AppendU32(&out, kWireMagic);
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(op));
  codec::AppendU16(&out, 0);  // flags
  codec::AppendU32(&out, static_cast<uint32_t>(payload.size()));
  codec::AppendU32(&out, payload.empty() ? 0 : Crc32(payload));
  codec::AppendU32(&out, Crc32(out.data(), 16));
  out.append(payload.data(), payload.size());
  return out;
}

void EncodeReceipt(const TxnReceipt& r, std::string* out) {
  out->push_back(static_cast<char>(r.outcome));
  out->push_back(static_cast<char>(r.status.code()));
  codec::AppendBytes(out, r.status.message());
  codec::AppendU64(out, r.block_id);
  codec::AppendU64(out, r.client_id);
  codec::AppendU64(out, r.client_seq);
  codec::AppendU32(out, r.retries);
  codec::AppendU64(out, r.latency_us);
}

Status WireStatus(Status::Code code, std::string msg) {
  switch (code) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kIOError:
      return Status::IOError(std::move(msg));
    case Status::Code::kBusy:
      return Status::Busy(std::move(msg));
    case Status::Code::kAborted:
      return Status::Aborted(std::move(msg));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(msg));
  }
  return Status::Corruption("unknown status code " +
                            std::to_string(static_cast<int>(code)));
}

bool DecodeReceipt(std::string_view payload, TxnReceipt* out) {
  if (payload.size() < 2) return false;
  const uint8_t outcome = static_cast<uint8_t>(payload[0]);
  const uint8_t code = static_cast<uint8_t>(payload[1]);
  if (outcome > static_cast<uint8_t>(ReceiptOutcome::kRejected)) return false;
  if (code > static_cast<uint8_t>(Status::Code::kNotSupported)) return false;
  codec::Reader r(payload.substr(2));
  std::string msg;
  if (!r.ReadBytes(&msg) || !r.ReadU64(&out->block_id) ||
      !r.ReadU64(&out->client_id) || !r.ReadU64(&out->client_seq) ||
      !r.ReadU32(&out->retries) || !r.ReadU64(&out->latency_us)) {
    return false;
  }
  out->outcome = static_cast<ReceiptOutcome>(outcome);
  out->status = WireStatus(static_cast<Status::Code>(code), std::move(msg));
  return r.remaining() == 0;
}

void EncodeError(const WireError& e, std::string* out) {
  out->push_back(static_cast<char>(e.code));
  codec::AppendU64(out, e.client_seq);
  codec::AppendBytes(out, e.message);
}

bool DecodeError(std::string_view payload, WireError* out) {
  if (payload.empty()) return false;
  const uint8_t code = static_cast<uint8_t>(payload[0]);
  if (code > static_cast<uint8_t>(Status::Code::kNotSupported)) return false;
  codec::Reader r(payload.substr(1));
  if (!r.ReadU64(&out->client_seq) || !r.ReadBytes(&out->message)) {
    return false;
  }
  out->code = static_cast<Status::Code>(code);
  return r.remaining() == 0;
}

void EncodeBatchSubmit(const std::vector<TxnRequest>& txns,
                       std::string* out) {
  codec::AppendU32(out, static_cast<uint32_t>(txns.size()));
  for (const TxnRequest& t : txns) BlockCodec::EncodeTxn(t, out);
}

bool DecodeBatchSubmit(std::string_view payload,
                       std::vector<TxnRequest>* out) {
  codec::Reader r(payload);
  uint32_t count = 0;
  if (!r.ReadU32(&count)) return false;
  if (count == 0 || count > kMaxBatchTxns) return false;
  // Each txn is > 4 bytes; a count the payload cannot carry must fail here,
  // not size the resize below.
  if (static_cast<uint64_t>(count) * 4 > r.remaining()) return false;
  out->resize(count);
  for (uint32_t i = 0; i < count; i++) {
    if (!BlockCodec::DecodeTxn(&r, &(*out)[i])) return false;
  }
  return r.remaining() == 0;
}

void AppendBatchReceiptEntry(const TxnReceipt& r, std::string* out) {
  std::string entry;
  EncodeReceipt(r, &entry);
  codec::AppendBytes(out, entry);
}

std::string SealBatchPayload(uint32_t count, std::string_view entries) {
  std::string payload;
  payload.reserve(4 + entries.size());
  codec::AppendU32(&payload, count);
  payload.append(entries.data(), entries.size());
  return payload;
}

bool DecodeBatchReceipt(std::string_view payload,
                        std::vector<TxnReceipt>* out) {
  codec::Reader r(payload);
  uint32_t count = 0;
  if (!r.ReadU32(&count)) return false;
  if (count == 0 || count > kMaxBatchTxns) return false;
  if (static_cast<uint64_t>(count) * 4 > r.remaining()) return false;
  out->resize(count);
  std::string entry;
  for (uint32_t i = 0; i < count; i++) {
    if (!r.ReadBytes(&entry)) return false;
    if (!DecodeReceipt(entry, &(*out)[i])) return false;
  }
  return r.remaining() == 0;
}

void EncodeReplJoin(const WireReplJoin& j, std::string* out) {
  codec::AppendBytes(out, j.node);
  codec::AppendU64(out, j.last_block_id);
}

bool DecodeReplJoin(std::string_view payload, WireReplJoin* out) {
  codec::Reader r(payload);
  if (!r.ReadBytes(&out->node)) return false;
  if (out->node.size() > kMaxReplNodeName) return false;
  if (!r.ReadU64(&out->last_block_id)) return false;
  return r.remaining() == 0;
}

void EncodeReplicate(const Block& b, std::string* out) {
  codec::AppendU64(out, b.header.block_id);
  codec::AppendBytes(out, BlockCodec::EncodeRaw(b));
}

bool DecodeReplicate(std::string_view payload, Block* out) {
  codec::Reader r(payload);
  uint64_t id = 0;
  std::string record;
  if (!r.ReadU64(&id) || !r.ReadBytes(&record)) return false;
  if (r.remaining() != 0) return false;
  if (!BlockCodec::DecodeRaw(record, out).ok()) return false;
  // The outer id exists so the leader/follower can account for the frame
  // without re-decoding; a disagreement means the frame lies about itself.
  return out->header.block_id == id;
}

void EncodeReplAck(BlockId id, std::string* out) {
  codec::AppendU64(out, id);
}

bool DecodeReplAck(std::string_view payload, BlockId* id) {
  codec::Reader r(payload);
  return r.ReadU64(id) && r.remaining() == 0;
}

void EncodeSnapshot(const WireSnapshot& s, std::string* out) {
  codec::AppendU64(out, s.base_block);
  out->append(reinterpret_cast<const char*>(s.tip_hash.data()),
              s.tip_hash.size());
  codec::AppendU64(out, s.leader_tip);
  codec::AppendU32(out, static_cast<uint32_t>(s.rows.size()));
  for (const auto& [key, value] : s.rows) {
    codec::AppendU64(out, key);
    codec::AppendBytes(out, value);
  }
}

bool DecodeSnapshot(std::string_view payload, WireSnapshot* out) {
  codec::Reader r(payload);
  if (!r.ReadU64(&out->base_block)) return false;
  if (!r.ReadFixed(out->tip_hash.data(), out->tip_hash.size())) return false;
  uint32_t count = 0;
  if (!r.ReadU64(&out->leader_tip) || !r.ReadU32(&count)) return false;
  if (count > kMaxSnapshotRows) return false;
  // Each row is at least u64 key + u32 value length = 12 bytes.
  if (static_cast<uint64_t>(count) * 12 > r.remaining()) return false;
  out->rows.resize(count);
  for (auto& [key, value] : out->rows) {
    if (!r.ReadU64(&key) || !r.ReadBytes(&value)) return false;
  }
  return r.remaining() == 0;
}

void EncodeHealth(const WireHealth& h, std::string* out) {
  out->push_back(static_cast<char>(h.role));
  codec::AppendBytes(out, h.node);
  codec::AppendU64(out, h.height);
  codec::AppendU64(out, h.durable_tip);
  codec::AppendBytes(out, h.leader_addr);
  codec::AppendU32(out, h.peer_count);
  codec::AppendU64(out, h.uptime_us);
}

bool DecodeHealth(std::string_view payload, WireHealth* out) {
  if (payload.empty()) return false;
  const uint8_t role = static_cast<uint8_t>(payload[0]);
  if (role > WireHealth::kFollower) return false;
  codec::Reader r(payload.substr(1));
  if (!r.ReadBytes(&out->node)) return false;
  if (out->node.size() > kMaxReplNodeName) return false;
  if (!r.ReadU64(&out->height) || !r.ReadU64(&out->durable_tip)) return false;
  if (!r.ReadBytes(&out->leader_addr)) return false;
  if (out->leader_addr.size() > kMaxLeaderAddr) return false;
  if (!r.ReadU32(&out->peer_count) || !r.ReadU64(&out->uptime_us)) {
    return false;
  }
  out->role = role;
  return r.remaining() == 0;
}

void EncodeEventsReq(uint64_t cursor, std::string* out) {
  codec::AppendU64(out, cursor);
}

bool DecodeEventsReq(std::string_view payload, uint64_t* cursor) {
  codec::Reader r(payload);
  return r.ReadU64(cursor) && r.remaining() == 0;
}

void EncodeEvents(uint64_t next_cursor,
                  const std::vector<obs::EventRecord>& events,
                  std::string* out) {
  codec::AppendU64(out, next_cursor);
  codec::AppendU32(out, static_cast<uint32_t>(events.size()));
  for (const obs::EventRecord& e : events) {
    codec::AppendU64(out, e.seq);
    codec::AppendU64(out, e.time_us);
    out->push_back(static_cast<char>(e.severity));
    codec::AppendU16(out, e.code);
    codec::AppendBytes(out, e.detail);
  }
}

bool DecodeEvents(std::string_view payload, uint64_t* next_cursor,
                  std::vector<obs::EventRecord>* out) {
  codec::Reader r(payload);
  uint32_t count = 0;
  if (!r.ReadU64(next_cursor) || !r.ReadU32(&count)) return false;
  if (count > kMaxEventEntries) return false;
  // Each entry is at least seq + time + severity + code + detail len
  // = 8 + 8 + 1 + 2 + 4 bytes; an implausible count fails here, not the
  // resize below.
  if (static_cast<uint64_t>(count) * 23 > r.remaining()) return false;
  out->resize(count);
  for (obs::EventRecord& e : *out) {
    if (!r.ReadU64(&e.seq) || !r.ReadU64(&e.time_us)) return false;
    uint8_t severity = 0;
    if (!r.ReadFixed(&severity, 1)) return false;
    if (severity > static_cast<uint8_t>(obs::EventSeverity::kError)) {
      return false;
    }
    e.severity = severity;
    if (!r.ReadU16(&e.code) || !r.ReadBytes(&e.detail)) return false;
    if (e.detail.size() > kMaxEventDetail) return false;
  }
  return r.remaining() == 0;
}

void EncodeSync(uint64_t token, std::string* out) {
  codec::AppendU64(out, token);
}

bool DecodeSync(std::string_view payload, uint64_t* token) {
  codec::Reader r(payload);
  return r.ReadU64(token) && r.remaining() == 0;
}

void EncodeMetrics(const obs::MetricsSnapshot& m, std::string* out) {
  codec::AppendU32(out, static_cast<uint32_t>(m.counters.size()));
  for (const auto& c : m.counters) {
    codec::AppendBytes(out, c.name);
    codec::AppendU64(out, c.value);
  }
  codec::AppendU32(out, static_cast<uint32_t>(m.gauges.size()));
  for (const auto& g : m.gauges) {
    codec::AppendBytes(out, g.name);
    codec::AppendU64(out, static_cast<uint64_t>(g.value));
  }
  codec::AppendU32(out, static_cast<uint32_t>(m.histograms.size()));
  for (const auto& h : m.histograms) {
    codec::AppendBytes(out, h.name);
    codec::AppendU64(out, h.count);
    codec::AppendU64(out, h.sum);
    codec::AppendU64(out, h.max);
    codec::AppendU32(out, static_cast<uint32_t>(h.buckets.size()));
    for (const auto& [idx, cnt] : h.buckets) {
      codec::AppendU32(out, idx);
      codec::AppendU64(out, cnt);
    }
  }
  codec::AppendU32(out, static_cast<uint32_t>(m.slow_txns.size()));
  for (const auto& t : m.slow_txns) {
    codec::AppendU64(out, t.client_id);
    codec::AppendU64(out, t.client_seq);
    codec::AppendU64(out, t.block_id);
    codec::AppendU64(out, t.queue_wait_us);
    codec::AppendU64(out, t.commit_lag_us);
    codec::AppendU64(out, t.total_us);
    codec::AppendU32(out, t.retries);
  }
}

bool DecodeMetrics(std::string_view payload, obs::MetricsSnapshot* out) {
  codec::Reader r(payload);
  // Every section: a count that must be plausible against the remaining
  // bytes *before* it drives any loop or reserve.
  auto read_count = [&](uint32_t* n, uint64_t min_entry_bytes) {
    if (!r.ReadU32(n)) return false;
    if (*n > kMaxMetricsEntries) return false;
    return static_cast<uint64_t>(*n) * min_entry_bytes <= r.remaining();
  };
  uint32_t n = 0;
  if (!read_count(&n, 12)) return false;  // name len + u64
  out->counters.resize(n);
  for (auto& c : out->counters) {
    if (!r.ReadBytes(&c.name) || !r.ReadU64(&c.value)) return false;
  }
  if (!read_count(&n, 12)) return false;
  out->gauges.resize(n);
  for (auto& g : out->gauges) {
    uint64_t v = 0;
    if (!r.ReadBytes(&g.name) || !r.ReadU64(&v)) return false;
    g.value = static_cast<int64_t>(v);
  }
  if (!read_count(&n, 32)) return false;  // name + count/sum/max + n_buckets
  out->histograms.resize(n);
  for (auto& h : out->histograms) {
    uint32_t nb = 0;
    if (!r.ReadBytes(&h.name) || !r.ReadU64(&h.count) ||
        !r.ReadU64(&h.sum) || !r.ReadU64(&h.max) || !r.ReadU32(&nb)) {
      return false;
    }
    if (nb > obs::LatencyHistogram::kBuckets) return false;
    if (static_cast<uint64_t>(nb) * 12 > r.remaining()) return false;
    h.buckets.resize(nb);
    for (auto& [idx, cnt] : h.buckets) {
      if (!r.ReadU32(&idx) || !r.ReadU64(&cnt)) return false;
      if (idx >= obs::LatencyHistogram::kBuckets) return false;
    }
  }
  if (!read_count(&n, 52)) return false;  // 6 x u64 + u32
  out->slow_txns.resize(n);
  for (auto& t : out->slow_txns) {
    if (!r.ReadU64(&t.client_id) || !r.ReadU64(&t.client_seq) ||
        !r.ReadU64(&t.block_id) || !r.ReadU64(&t.queue_wait_us) ||
        !r.ReadU64(&t.commit_lag_us) || !r.ReadU64(&t.total_us) ||
        !r.ReadU32(&t.retries)) {
      return false;
    }
  }
  return r.remaining() == 0;
}

Status FrameReassembler::Next(Frame* out) {
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not accrete every frame it ever read.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ < kHeaderSize) return Status::NotFound("need bytes");
  const char* h = buf_.data() + pos_;
  codec::Reader r(std::string_view(h, kHeaderSize));
  uint32_t magic = 0, payload_len = 0, payload_crc = 0, header_crc = 0;
  uint16_t flags = 0;
  uint16_t ver_op = 0;
  r.ReadU32(&magic);
  r.ReadU16(&ver_op);  // version (low byte) + opcode (high byte)
  r.ReadU16(&flags);
  r.ReadU32(&payload_len);
  r.ReadU32(&payload_crc);
  r.ReadU32(&header_crc);
  const uint8_t version = static_cast<uint8_t>(ver_op & 0xff);
  const uint8_t opcode = static_cast<uint8_t>(ver_op >> 8);
  if (magic != kWireMagic) return Status::Corruption("bad magic");
  if (header_crc != Crc32(h, 16)) return Status::Corruption("header CRC");
  if (version != kWireVersion) {
    return Status::Corruption("wire version " + std::to_string(version));
  }
  if (flags != 0) return Status::Corruption("reserved flags set");
  // OpcodeName's switch is the one list of assigned opcodes; 4 (once
  // STATS) and everything past kOpEvents fall through to "?".
  if (std::strcmp(OpcodeName(static_cast<Opcode>(opcode)), "?") == 0) {
    return Status::Corruption("unknown opcode " + std::to_string(opcode));
  }
  if (payload_len > max_payload_) {
    return Status::Corruption("oversized frame (" +
                              std::to_string(payload_len) + " bytes)");
  }
  if (buf_.size() - pos_ < kHeaderSize + payload_len) {
    return Status::NotFound("need payload");
  }
  std::string_view payload(buf_.data() + pos_ + kHeaderSize, payload_len);
  const uint32_t crc = payload_len == 0 ? 0 : Crc32(payload);
  if (crc != payload_crc) return Status::Corruption("payload CRC");
  out->opcode = static_cast<Opcode>(opcode);
  out->payload.assign(payload);
  pos_ += kHeaderSize + payload_len;
  return Status::OK();
}

}  // namespace net
}  // namespace harmony
