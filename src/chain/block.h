#pragma once

#include <string>

#include "common/codec.h"
#include "common/compress.h"
#include "common/sha256.h"
#include "common/status.h"
#include "dcc/batch.h"

namespace harmony {

/// Block log format version (docs/FORMATS.md has the byte-level reference).
/// BlockStore stamps it into every log's header and refuses any other:
/// the txn section of each record is compressed per block (pluggable
/// Compression codec, raw fallback).
inline constexpr uint32_t kLogV4 = 4;
inline constexpr uint32_t kLogVersion = kLogV4;

/// A ledger block: the ordered transaction batch plus the tamper-evidence
/// header. Each block carries the hash of its predecessor (Section 4,
/// "Security"), so any tampered block is detected by back-tracing hashes
/// from the chain head.
struct BlockHeader {
  BlockId block_id = 0;
  TxnId first_tid = 1;
  uint32_t txn_count = 0;
  uint64_t order_time_us = 0;  ///< when the ordering service sealed the block
  Digest prev_hash{};          ///< hash of the previous block
  Digest txn_root{};           ///< digest of the serialized transactions
  Digest block_hash{};         ///< hash over (id, tids, prev_hash, txn_root)
  Digest signature{};          ///< orderer HMAC over block_hash
};

struct Block {
  BlockHeader header;
  TxnBatch batch;
};

/// Serializes / parses transactions and blocks (the logical-log record
/// format and the ordering-service wire format).
class BlockCodec {
 public:
  /// The transaction layout; also the wire SUBMIT payload.
  static void EncodeTxn(const TxnRequest& t, std::string* out);
  static bool DecodeTxn(codec::Reader* r, TxnRequest* out);

  /// Raw (uncompressed) block bytes: header + txns. The REPLICATE payload
  /// (net/wire.h) carries this layout.
  static std::string EncodeRaw(const Block& b);
  static Status DecodeRaw(std::string_view bytes, Block* out);

  /// Encodes a v4 log-record payload: the same header, then the txn section
  /// in a compression envelope (codec byte + raw length + stored bytes),
  /// compressed with `codec`. Falls back to Compression::kNone per block
  /// when compression does not shrink the section. `raw_section_bytes`
  /// (optional) receives the uncompressed txn-section size and `used_codec`
  /// the codec actually stored, for compression-ratio accounting.
  static std::string EncodeRecordV4(const Block& b, Compression codec,
                                    size_t* raw_section_bytes = nullptr,
                                    Compression* used_codec = nullptr);
  static Status DecodeRecordV4(std::string_view bytes, Block* out);

  /// Digest over the serialized transaction batch.
  static Digest TxnRoot(const TxnBatch& batch);

  /// Hash over the header's identity fields + txn_root + prev_hash.
  static Digest HashHeader(const BlockHeader& h);
};

/// Builds signed, hash-chained blocks (the ordering service's last step).
class BlockBuilder {
 public:
  /// `secret` is the orderer's signing key (HMAC-SHA256 stands in for an
  /// asymmetric signature; replicas hold the verification secret).
  explicit BlockBuilder(std::string secret) : secret_(std::move(secret)) {
    prev_hash_.fill(0);
  }

  /// Seals a batch into the next block of the chain.
  Block Seal(TxnBatch batch, uint64_t order_time_us);

  /// Resumes chaining from an existing tip (orderer restart).
  void ResumeFrom(const Digest& tip) { prev_hash_ = tip; }

  const Digest& prev_hash() const { return prev_hash_; }

 private:
  std::string secret_;
  Digest prev_hash_;
};

/// Replica-side block verification: signature, hash chain, txn root.
class ChainVerifier {
 public:
  explicit ChainVerifier(std::string secret) : secret_(std::move(secret)) {
    expected_prev_.fill(0);
  }

  /// Verifies block integrity and chain continuity; advances the expected
  /// predecessor hash on success.
  Status Verify(const Block& b);

  /// Fast-forwards the verifier to expect a block whose predecessor hash is
  /// `tip` (after replaying an already-audited chain).
  void Reset(const Digest& tip) { expected_prev_ = tip; }

  /// A verifier for re-checking a stored log from its first record. A log
  /// whose first record is past block 1 was truncated or rebased by a
  /// snapshot install: the records below it were retired, so the audit
  /// anchors at the first record's stated predecessor (every record is
  /// still hash- and signature-checked).
  static ChainVerifier ForStoredLog(std::string secret) {
    ChainVerifier v(std::move(secret));
    v.anchor_at_first_ = true;
    return v;
  }

  /// Re-checks an already-stored chain (audit / tamper detection), anchored
  /// like ForStoredLog.
  static Status VerifyChain(const std::vector<Block>& blocks,
                            const std::string& secret);

 private:
  std::string secret_;
  Digest expected_prev_;
  bool anchor_at_first_ = false;
};

}  // namespace harmony
