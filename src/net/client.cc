#include "net/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "chain/block.h"
#include "common/clock.h"

namespace harmony {
namespace net {

Result<std::unique_ptr<NetClient>> NetClient::Connect(
    const NetClientOptions& opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    // Not a literal address — resolve it.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(opts.host.c_str(), nullptr, &hints, &res) != 0 ||
        res == nullptr) {
      ::close(fd);
      return Status::IOError("cannot resolve " + opts.host);
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError("connect " + opts.host + ":" +
                               std::to_string(opts.port) + ": " +
                               strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto client = std::unique_ptr<NetClient>(new NetClient());
  client->fd_ = fd;
  client->max_frame_payload_ = opts.max_frame_payload;
  client->batch_max_txns_ =
      std::min<size_t>(std::max<size_t>(1, opts.batch_max_txns),
                       kMaxBatchTxns);
  client->batch_max_delay_us_ = opts.batch_max_delay_us;
  client->reader_ = std::thread([raw = client.get()] { raw->ReaderLoop(); });
  if (client->batch_max_txns_ > 1 && client->batch_max_delay_us_ > 0) {
    client->flusher_ =
        std::thread([raw = client.get()] { raw->FlusherLoop(); });
  }
  return client;
}

NetClient::~NetClient() {
  FlushBatch();  // best effort: don't strand buffered submits
  {
    std::lock_guard<std::mutex> lk(batch_mu_);
    flusher_stop_ = true;
  }
  batch_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  BreakConnection(Status::Aborted("client closed"));
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) ::close(fd_);
}

TxnTicket NetClient::Submit(TxnRequest req, ReceiptCallback cb) {
  if (req.client_seq == 0) {
    req.client_seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  } else {
    uint64_t cur = next_seq_.load(std::memory_order_relaxed);
    while (cur < req.client_seq &&
           !next_seq_.compare_exchange_weak(cur, req.client_seq,
                                            std::memory_order_relaxed)) {
    }
  }
  const uint64_t seq = req.client_seq;
  const uint64_t now = NowMicros();
  stats_->submitted.fetch_add(1, std::memory_order_relaxed);
  stats_->inflight.fetch_add(1, std::memory_order_acq_rel);
  auto entry = std::make_shared<PendingTxn>(now, seq, std::move(cb), stats_);

  // Resolves `entry` locally without a round trip (duplicate seq, broken
  // connection). PendingTxn::Resolve releases the inflight slot.
  auto local_reject = [&](ReceiptOutcome outcome, Status why) {
    TxnRequest identity;
    identity.client_id = req.client_id;
    identity.client_seq = seq;
    ResolvePending(entry.get(), identity, outcome, std::move(why),
                   /*block_id=*/0, NowMicros());
    return TxnTicket(entry, req.client_id, seq);
  };

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_.load(std::memory_order_acquire)) {
      return local_reject(ReceiptOutcome::kRejected,
                          broken_why_.ok()
                              ? Status::IOError("not connected")
                              : broken_why_);
    }
    PendingEntry pe;
    pe.entry = entry;
    pe.send_time_us = now;
    if (!pending_.emplace(seq, std::move(pe)).second) {
      return local_reject(
          ReceiptOutcome::kRejected,
          Status::InvalidArgument("duplicate client_seq " +
                                  std::to_string(seq) + " in flight"));
    }
  }

  std::string payload;
  BlockCodec::EncodeTxn(req, &payload);
  if (batch_max_txns_ > 1) {
    // Coalescing path: buffer the encoding; the ticket is already
    // registered, so a connection loss fails it like any sent submit. The
    // flusher enforces the delay bound; the size bound flushes inline.
    // Frames are only *collected* under batch_mu_ — the blocking socket
    // write (and BreakConnection, which runs user receipt callbacks) must
    // happen after the unlock, or a stalled send would wedge every
    // concurrent Submit and a callback that re-enters this client would
    // self-deadlock.
    std::string to_send[2];
    size_t n_send = 0;
    bool notify = false;
    {
      std::lock_guard<std::mutex> lk(batch_mu_);
      // Never let a batch outgrow one frame: ship what's buffered first.
      if (!batch_buf_.empty() &&
          4 + batch_buf_.size() + payload.size() > max_frame_payload_) {
        std::string buf;
        buf.swap(batch_buf_);
        to_send[n_send++] = SealBatchPayload(batch_count_, buf);
        batch_count_ = 0;
      }
      batch_buf_.append(payload);
      batch_count_++;
      if (batch_count_ == 1) {
        batch_oldest_us_ = now;
        notify = true;  // arm the flusher's delay bound
      }
      if (batch_count_ >= batch_max_txns_) {
        std::string buf;
        buf.swap(batch_buf_);
        to_send[n_send++] = SealBatchPayload(batch_count_, buf);
        batch_count_ = 0;
        notify = false;
      }
    }
    if (notify) batch_cv_.notify_one();
    for (size_t i = 0; i < n_send; i++) {
      if (Status s = WriteFrame(Opcode::kOpBatchSubmit, to_send[i]);
          !s.ok()) {
        BreakConnection(s);
        break;
      }
    }
    return TxnTicket(std::move(entry), req.client_id, seq);
  }
  if (Status s = WriteFrame(Opcode::kOpSubmit, payload); !s.ok()) {
    // The write failed mid-connection: everything in flight (this submit
    // included) is now fate-unknown.
    BreakConnection(s);
  }
  return TxnTicket(std::move(entry), req.client_id, seq);
}

void NetClient::FlushBatch() {
  std::string payload;
  {
    std::lock_guard<std::mutex> lk(batch_mu_);
    if (batch_count_ == 0) return;
    std::string buf;
    buf.swap(batch_buf_);
    payload = SealBatchPayload(batch_count_, buf);
    batch_count_ = 0;
  }
  if (Status s = WriteFrame(Opcode::kOpBatchSubmit, payload); !s.ok()) {
    BreakConnection(s);
  }
}

void NetClient::FlusherLoop() {
  std::unique_lock<std::mutex> lk(batch_mu_);
  while (!flusher_stop_) {
    if (batch_count_ == 0) {
      batch_cv_.wait(lk);
      continue;
    }
    const uint64_t now = NowMicros();
    const uint64_t deadline = batch_oldest_us_ + batch_max_delay_us_;
    if (now < deadline) {
      batch_cv_.wait_for(lk, std::chrono::microseconds(deadline - now));
      continue;
    }
    // Delay bound hit: ship the partial batch.
    std::string buf;
    buf.swap(batch_buf_);
    const std::string payload = SealBatchPayload(batch_count_, buf);
    batch_count_ = 0;
    lk.unlock();
    if (Status s = WriteFrame(Opcode::kOpBatchSubmit, payload); !s.ok()) {
      BreakConnection(s);
      return;
    }
    lk.lock();
  }
}

bool NetClient::Sync(uint64_t timeout_us) {
  // The watermark must cover every Submit that returned before this call —
  // including ones still sitting in the coalescing buffer.
  FlushBatch();
  const uint64_t token =
      next_sync_token_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string payload;
  EncodeSync(token, &payload);
  if (Status s = WriteFrame(Opcode::kOpSync, payload); !s.ok()) {
    // A partially written frame desynchronizes the stream — same terminal
    // handling as Submit().
    BreakConnection(s);
    return false;
  }
  std::unique_lock<std::mutex> lk(mu_);
  const bool acked = cv_.wait_for(
      lk, std::chrono::microseconds(timeout_us), [&] {
        return broken_.load(std::memory_order_acquire) ||
               acked_syncs_.count(token) > 0;
      });
  if (!acked || acked_syncs_.erase(token) == 0) return false;
  return true;
}

Result<obs::MetricsSnapshot> NetClient::Metrics(uint64_t timeout_us) {
  // Ship buffered submits first so the snapshot reflects them.
  FlushBatch();
  // One METRICS exchange at a time: the reply carries no correlation id.
  std::lock_guard<std::mutex> call_lk(metrics_call_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_ready_ = false;
  }
  if (Status s = WriteFrame(Opcode::kOpMetrics, {}); !s.ok()) {
    BreakConnection(s);  // a half-written frame desynchronizes the stream
    return s;
  }
  std::unique_lock<std::mutex> lk(mu_);
  const bool got = cv_.wait_for(
      lk, std::chrono::microseconds(timeout_us), [&] {
        return broken_.load(std::memory_order_acquire) || metrics_ready_;
      });
  if (!got || !metrics_ready_) {
    // The reply may still arrive; make sure the reader throws it away
    // rather than handing it to the next Metrics() call as fresh. This is
    // the METRICS counter on purpose — see the per-opcode note in client.h.
    metrics_abandoned_++;
    return broken_.load(std::memory_order_acquire) && !broken_why_.ok()
               ? broken_why_
               : Status::Busy("METRICS timed out");
  }
  return metrics_reply_;
}

Result<WireHealth> NetClient::Health(uint64_t timeout_us) {
  // One HEALTH exchange at a time: the reply carries no correlation id.
  std::lock_guard<std::mutex> call_lk(health_call_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    health_ready_ = false;
  }
  if (Status s = WriteFrame(Opcode::kOpHealth, {}); !s.ok()) {
    BreakConnection(s);  // a half-written frame desynchronizes the stream
    return s;
  }
  std::unique_lock<std::mutex> lk(mu_);
  const bool got = cv_.wait_for(
      lk, std::chrono::microseconds(timeout_us), [&] {
        return broken_.load(std::memory_order_acquire) || health_ready_;
      });
  if (!got || !health_ready_) {
    // The reply may still arrive; make sure the reader throws it away
    // rather than handing it to the next Health() call as fresh.
    health_abandoned_++;
    return broken_.load(std::memory_order_acquire) && !broken_why_.ok()
               ? broken_why_
               : Status::Busy("HEALTH timed out");
  }
  return health_reply_;
}

Result<NetClient::EventsBatch> NetClient::Events(uint64_t cursor,
                                                 uint64_t timeout_us) {
  // One EVENTS exchange at a time: the reply carries no correlation id.
  std::lock_guard<std::mutex> call_lk(events_call_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    events_ready_ = false;
  }
  std::string req;
  EncodeEventsReq(cursor, &req);
  if (Status s = WriteFrame(Opcode::kOpEvents, req); !s.ok()) {
    BreakConnection(s);  // a half-written frame desynchronizes the stream
    return s;
  }
  std::unique_lock<std::mutex> lk(mu_);
  const bool got = cv_.wait_for(
      lk, std::chrono::microseconds(timeout_us), [&] {
        return broken_.load(std::memory_order_acquire) || events_ready_;
      });
  if (!got || !events_ready_) {
    // The reply may still arrive; make sure the reader throws it away
    // rather than handing it to the next Events() call as fresh.
    events_abandoned_++;
    return broken_.load(std::memory_order_acquire) && !broken_why_.ok()
               ? broken_why_
               : Status::Busy("EVENTS timed out");
  }
  return std::move(events_reply_);
}

Status NetClient::WriteFrame(Opcode op, std::string_view payload) {
  const std::string frame = EncodeFrame(op, payload);
  std::lock_guard<std::mutex> lk(write_mu_);
  size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

void NetClient::ResolveSeq(uint64_t client_seq, const TxnReceipt& receipt) {
  PendingEntry pe;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pending_.find(client_seq);
    if (it == pending_.end()) return;  // late/unknown receipt
    pe = std::move(it->second);
    pending_.erase(it);
  }
  TxnReceipt r = receipt;
  // Rewrite latency to the wire round trip this client experienced; the
  // server-side commit latency is a subset of it and lives on the server.
  const uint64_t now = NowMicros();
  r.latency_us = now > pe.send_time_us ? now - pe.send_time_us : 0;
  pe.entry->Resolve(std::move(r));
}

void NetClient::ReaderLoop() {
  FrameReassembler reasm(max_frame_payload_);
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) {
      BreakConnection(Status::Aborted("server closed the connection"));
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      BreakConnection(
          Status::IOError(std::string("read: ") + strerror(errno)));
      return;
    }
    reasm.Feed(buf, static_cast<size_t>(n));
    for (;;) {
      Frame frame;
      const Status st = reasm.Next(&frame);
      if (st.IsNotFound()) break;
      if (!st.ok()) {
        BreakConnection(st);
        return;
      }
      switch (frame.opcode) {
        case Opcode::kOpReceipt: {
          TxnReceipt r;
          if (!DecodeReceipt(frame.payload, &r)) {
            BreakConnection(Status::Corruption("bad RECEIPT payload"));
            return;
          }
          ResolveSeq(r.client_seq, r);
          break;
        }
        case Opcode::kOpBatchReceipt: {
          std::vector<TxnReceipt> rs;
          if (!DecodeBatchReceipt(frame.payload, &rs)) {
            BreakConnection(Status::Corruption("bad BATCH_RECEIPT payload"));
            return;
          }
          // Per-txn fan-out: rejected entries (Busy included) resolve
          // exactly like a scoped ERROR would have for single submits.
          for (TxnReceipt& r : rs) ResolveSeq(r.client_seq, r);
          break;
        }
        case Opcode::kOpError: {
          WireError e;
          if (!DecodeError(frame.payload, &e)) {
            BreakConnection(Status::Corruption("bad ERROR payload"));
            return;
          }
          if (e.client_seq != 0) {
            // Scoped to one submit (flow control / admission Busy): the
            // connection lives on.
            TxnReceipt r;
            r.outcome = ReceiptOutcome::kRejected;
            r.status = WireStatus(e.code, std::move(e.message));
            r.client_seq = e.client_seq;
            ResolveSeq(e.client_seq, r);
            break;
          }
          // Connection-level: the server is about to close on us.
          BreakConnection(WireStatus(e.code, std::move(e.message)));
          return;
        }
        case Opcode::kOpSync: {
          uint64_t token = 0;
          if (!DecodeSync(frame.payload, &token)) {
            BreakConnection(Status::Corruption("bad SYNC payload"));
            return;
          }
          {
            std::lock_guard<std::mutex> lk(mu_);
            acked_syncs_.insert(token);
          }
          cv_.notify_all();
          break;
        }
        case Opcode::kOpMetrics: {
          obs::MetricsSnapshot m;
          if (!DecodeMetrics(frame.payload, &m)) {
            BreakConnection(Status::Corruption("bad METRICS payload"));
            return;
          }
          {
            std::lock_guard<std::mutex> lk(mu_);
            if (metrics_abandoned_ > 0) {
              metrics_abandoned_--;  // the reply to a timed-out request
              break;
            }
            metrics_reply_ = std::move(m);
            metrics_ready_ = true;
          }
          cv_.notify_all();
          break;
        }
        case Opcode::kOpHealth: {
          WireHealth h;
          if (!DecodeHealth(frame.payload, &h)) {
            BreakConnection(Status::Corruption("bad HEALTH payload"));
            return;
          }
          {
            std::lock_guard<std::mutex> lk(mu_);
            if (health_abandoned_ > 0) {
              health_abandoned_--;  // the reply to a timed-out request
              break;
            }
            health_reply_ = std::move(h);
            health_ready_ = true;
          }
          cv_.notify_all();
          break;
        }
        case Opcode::kOpEvents: {
          EventsBatch b;
          if (!DecodeEvents(frame.payload, &b.next_cursor, &b.events)) {
            BreakConnection(Status::Corruption("bad EVENTS payload"));
            return;
          }
          {
            std::lock_guard<std::mutex> lk(mu_);
            if (events_abandoned_ > 0) {
              events_abandoned_--;  // the reply to a timed-out request
              break;
            }
            events_reply_ = std::move(b);
            events_ready_ = true;
          }
          cv_.notify_all();
          break;
        }
        case Opcode::kOpSubmit:
        case Opcode::kOpBatchSubmit:
        case Opcode::kOpReplJoin:
        case Opcode::kOpReplicate:
        case Opcode::kOpReplicateAck:
        case Opcode::kOpReplSnapshot:
          // Client-only requests and replication-plane frames have no
          // business arriving on a client connection.
          BreakConnection(
              Status::Corruption("server sent a client-only opcode"));
          return;
      }
    }
  }
}

void NetClient::BreakConnection(const Status& why) {
  std::unordered_map<uint64_t, PendingEntry> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_.exchange(true, std::memory_order_acq_rel)) return;
    broken_why_ = why.ok() ? Status::Aborted("connection closed") : why;
    doomed.swap(pending_);
  }
  cv_.notify_all();
  // Wake the reader if it is parked in read(); also flushes the peer.
  ::shutdown(fd_, SHUT_RDWR);
  const uint64_t now = NowMicros();
  for (auto& [seq, pe] : doomed) {
    // Same contract as Recover()/shutdown in-process: dropped means "fate
    // unknown to this client", not "guaranteed not applied".
    TxnReceipt r;
    r.outcome = ReceiptOutcome::kDropped;
    r.status = broken_why_;
    r.client_seq = seq;
    r.latency_us = now > pe.send_time_us ? now - pe.send_time_us : 0;
    pe.entry->Resolve(std::move(r));
  }
}

}  // namespace net
}  // namespace harmony
