#include "chain/block.h"

#include "common/codec.h"

namespace harmony {

void BlockCodec::EncodeTxn(const TxnRequest& t, std::string* out) {
  codec::AppendU32(out, t.proc_id);
  codec::AppendU64(out, t.client_id);
  codec::AppendU64(out, t.client_seq);
  codec::AppendU64(out, t.submit_time_us);
  codec::AppendU32(out, t.retries);
  codec::AppendU64(out, t.fee);
  codec::AppendU32(out, static_cast<uint32_t>(t.args.ints.size()));
  for (int64_t v : t.args.ints) codec::AppendI64(out, v);
  codec::AppendBytes(out, t.args.blob);
}

bool BlockCodec::DecodeTxn(codec::Reader* r, TxnRequest* out) {
  uint32_t n_ints = 0;
  if (!r->ReadU32(&out->proc_id) || !r->ReadU64(&out->client_id) ||
      !r->ReadU64(&out->client_seq) || !r->ReadU64(&out->submit_time_us) ||
      !r->ReadU32(&out->retries) || !r->ReadU64(&out->fee) ||
      !r->ReadU32(&n_ints)) {
    return false;
  }
  // Bound the resize by the bytes actually present: a corrupt count must
  // fail the parse, not size a multi-gigabyte allocation.
  if (static_cast<uint64_t>(n_ints) * 8 > r->remaining()) return false;
  out->args.ints.resize(n_ints);
  for (uint32_t i = 0; i < n_ints; i++) {
    if (!r->ReadI64(&out->args.ints[i])) return false;
  }
  return r->ReadBytes(&out->args.blob);
}

namespace {

/// The fixed-width block header both layouts (raw and v4 record) open with.
void AppendHeader(const BlockHeader& h, std::string* out) {
  codec::AppendU64(out, h.block_id);
  codec::AppendU64(out, h.first_tid);
  codec::AppendU32(out, h.txn_count);
  codec::AppendU64(out, h.order_time_us);
  for (const Digest* d :
       {&h.prev_hash, &h.txn_root, &h.block_hash, &h.signature}) {
    out->append(reinterpret_cast<const char*>(d->data()), d->size());
  }
}

Status ReadHeader(codec::Reader* r, Block* out) {
  BlockHeader& h = out->header;
  if (!r->ReadU64(&h.block_id) || !r->ReadU64(&h.first_tid) ||
      !r->ReadU32(&h.txn_count) || !r->ReadU64(&h.order_time_us)) {
    return Status::Corruption("block header truncated");
  }
  for (Digest* d : {&h.prev_hash, &h.txn_root, &h.block_hash, &h.signature}) {
    if (!r->ReadFixed(d->data(), d->size())) {
      return Status::Corruption("digest truncated");
    }
  }
  out->batch.block_id = h.block_id;
  out->batch.first_tid = h.first_tid;
  return Status::OK();
}

/// Parses `count` transactions into the batch.
Status DecodeTxnSection(codec::Reader* r, uint32_t count, TxnBatch* batch) {
  if (static_cast<uint64_t>(count) * 4 > r->remaining() + 4) {
    // Each txn is at least proc_id + counts (> 4 bytes); a count that the
    // remaining bytes cannot possibly carry must not size the resize below.
    return Status::Corruption("txn count implausible");
  }
  batch->txns.resize(count);
  for (uint32_t i = 0; i < count; i++) {
    if (!BlockCodec::DecodeTxn(r, &batch->txns[i])) {
      return Status::Corruption("txn truncated");
    }
  }
  return Status::OK();
}

}  // namespace

std::string BlockCodec::EncodeRaw(const Block& b) {
  std::string out;
  AppendHeader(b.header, &out);
  for (const TxnRequest& t : b.batch.txns) EncodeTxn(t, &out);
  return out;
}

Status BlockCodec::DecodeRaw(std::string_view bytes, Block* out) {
  codec::Reader r(bytes);
  HARMONY_RETURN_NOT_OK(ReadHeader(&r, out));
  HARMONY_RETURN_NOT_OK(
      DecodeTxnSection(&r, out->header.txn_count, &out->batch));
  if (r.remaining() != 0) return Status::Corruption("trailing block bytes");
  return Status::OK();
}

std::string BlockCodec::EncodeRecordV4(const Block& b, Compression codec,
                                       size_t* raw_section_bytes,
                                       Compression* used_codec) {
  std::string out;
  AppendHeader(b.header, &out);
  std::string section;
  for (const TxnRequest& t : b.batch.txns) EncodeTxn(t, &section);
  const size_t raw_len = section.size();
  if (raw_section_bytes != nullptr) *raw_section_bytes = raw_len;
  std::string stored;
  if (codec != Compression::kNone) CompressPayload(codec, section, &stored);
  // Per-block fallback: a section compression cannot shrink is stored raw,
  // so a v4 record is never larger than the raw layout plus the 10-byte
  // envelope (u16 codec+pad, u32 raw_len, u32 stored_len).
  if (codec == Compression::kNone || stored.size() >= section.size()) {
    codec = Compression::kNone;
    stored = std::move(section);
  }
  if (used_codec != nullptr) *used_codec = codec;
  codec::AppendU16(&out, static_cast<uint16_t>(codec));  // u8 codec + pad
  codec::AppendU32(&out, static_cast<uint32_t>(raw_len));
  codec::AppendBytes(&out, stored);
  return out;
}

Status BlockCodec::DecodeRecordV4(std::string_view bytes, Block* out) {
  codec::Reader r(bytes);
  HARMONY_RETURN_NOT_OK(ReadHeader(&r, out));
  // The txn section rides a compression envelope —
  //   u8 codec, u32 raw_len, u32 stored_len + stored bytes.
  uint8_t codec_byte = 0;
  {
    uint16_t pair = 0;  // Reader has no ReadU8; the codec byte is padded.
    if (!r.ReadU16(&pair)) return Status::Corruption("v4 envelope truncated");
    codec_byte = static_cast<uint8_t>(pair & 0xFF);
    if ((pair >> 8) != 0) return Status::Corruption("v4 envelope padding");
  }
  if (codec_byte > static_cast<uint8_t>(Compression::kHlz)) {
    return Status::Corruption("unknown block compression codec " +
                              std::to_string(codec_byte));
  }
  uint32_t raw_len = 0;
  std::string stored;
  if (!r.ReadU32(&raw_len) || !r.ReadBytes(&stored)) {
    return Status::Corruption("v4 envelope truncated");
  }
  if (r.remaining() != 0) return Status::Corruption("trailing block bytes");
  std::string section;
  HARMONY_RETURN_NOT_OK(DecompressPayload(
      static_cast<Compression>(codec_byte), stored, raw_len, &section));
  codec::Reader sr(section);
  HARMONY_RETURN_NOT_OK(
      DecodeTxnSection(&sr, out->header.txn_count, &out->batch));
  if (sr.remaining() != 0) {
    return Status::Corruption("trailing txn-section bytes");
  }
  return Status::OK();
}

Digest BlockCodec::TxnRoot(const TxnBatch& batch) {
  Sha256 h;
  h.UpdateInt(batch.block_id);
  h.UpdateInt(batch.first_tid);
  std::string buf;
  for (const TxnRequest& t : batch.txns) {
    buf.clear();
    EncodeTxn(t, &buf);
    h.Update(buf);
  }
  return h.Finalize();
}

Digest BlockCodec::HashHeader(const BlockHeader& h) {
  Sha256 s;
  s.UpdateInt(h.block_id);
  s.UpdateInt(h.first_tid);
  s.UpdateInt(h.txn_count);
  s.Update(h.prev_hash.data(), h.prev_hash.size());
  s.Update(h.txn_root.data(), h.txn_root.size());
  return s.Finalize();
}

Block BlockBuilder::Seal(TxnBatch batch, uint64_t order_time_us) {
  Block b;
  b.header.block_id = batch.block_id;
  b.header.first_tid = batch.first_tid;
  b.header.txn_count = static_cast<uint32_t>(batch.txns.size());
  b.header.order_time_us = order_time_us;
  b.header.prev_hash = prev_hash_;
  b.header.txn_root = BlockCodec::TxnRoot(batch);
  b.header.block_hash = BlockCodec::HashHeader(b.header);
  b.header.signature =
      HmacSha256(secret_, b.header.block_hash.data(), b.header.block_hash.size());
  b.batch = std::move(batch);
  prev_hash_ = b.header.block_hash;
  return b;
}

Status ChainVerifier::Verify(const Block& b) {
  if (anchor_at_first_) {
    anchor_at_first_ = false;
    if (b.header.block_id > 1) expected_prev_ = b.header.prev_hash;
  }
  if (b.header.prev_hash != expected_prev_) {
    return Status::Corruption("hash chain broken at block " +
                              std::to_string(b.header.block_id));
  }
  if (BlockCodec::TxnRoot(b.batch) != b.header.txn_root) {
    return Status::Corruption("transaction root mismatch");
  }
  if (BlockCodec::HashHeader(b.header) != b.header.block_hash) {
    return Status::Corruption("block hash mismatch");
  }
  const Digest expect_sig =
      HmacSha256(secret_, b.header.block_hash.data(), b.header.block_hash.size());
  if (expect_sig != b.header.signature) {
    return Status::Corruption("bad orderer signature");
  }
  expected_prev_ = b.header.block_hash;
  return Status::OK();
}

Status ChainVerifier::VerifyChain(const std::vector<Block>& blocks,
                                  const std::string& secret) {
  ChainVerifier v = ForStoredLog(secret);
  for (const Block& b : blocks) {
    HARMONY_RETURN_NOT_OK(v.Verify(b));
  }
  return Status::OK();
}

}  // namespace harmony
