#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "chain/block.h"
#include "common/clock.h"
#include "obs/events.h"
#include "repl/replicator.h"

namespace harmony {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

NetServer::Reactor::~Reactor() {
  if (epoll_fd >= 0) ::close(epoll_fd);
  if (wake_fd >= 0) ::close(wake_fd);
}

NetServer::NetServer(HarmonyBC* db, NetServerOptions opts)
    : db_(db),
      opts_(std::move(opts)),
      stats_(std::make_shared<NetServerStats>()) {
  c_redirects_ = db_->metrics()->GetCounter(obs::kCounterRedirects);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address " + opts_.bind_addr);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Errno("bind " + opts_.bind_addr);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 512) < 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  const size_t n = std::max<size_t>(1, opts_.reactor_threads);
  reactors_.clear();
  for (size_t i = 0; i < n; i++) {
    auto r = std::make_shared<Reactor>();
    r->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (r->epoll_fd < 0 || r->wake_fd < 0) {
      reactors_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Errno("epoll_create1/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wake_fd;
    ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    reactors_.push_back(std::move(r));
  }
  // The listener lives on reactor 0.
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  ::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);

  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < reactors_.size(); i++) {
    reactors_[i]->thread = std::thread([this, i] { ReactorLoop(i); });
  }
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Phase 1: stop the intake. Reactors keep running (they must flush
  // receipts) but ignore readable events and the listener goes away, so no
  // new transaction can enter after the drain watermark is taken.
  // listen_fd_ is owned by reactor 0's thread while it runs: it closes the
  // listener itself when it observes stopping_ (racing the close from here
  // would let accept() touch a reused fd number).
  stopping_.store(true, std::memory_order_release);
  for (auto& r : reactors_) Wake(*r);
  // Phase 2: drain. Sync() waits on the completion watermark, so every
  // transaction admitted before it returns has resolved its receipt — and
  // each resolution queued a RECEIPT frame. Then wait for the write queues
  // to reach the sockets. A reactor mid-dispatch can admit one more batch
  // after stopping_ flips, hence the loop (the second Sync covers it).
  const uint64_t deadline = NowMicros() + opts_.drain_timeout_us;
  for (;;) {
    (void)db_->Sync();  // Busy (abort livelock) is bounded by the deadline
    bool drained = true;
    for (auto& r : reactors_) {
      std::vector<std::shared_ptr<Conn>> conns;
      {
        std::lock_guard<std::mutex> lk(r->mu);
        conns.reserve(r->conns.size());
        for (auto& [fd, c] : r->conns) conns.push_back(c);
      }
      for (auto& c : conns) {
        std::lock_guard<std::mutex> lk(c->mu);
        if (c->closed) continue;
        if (c->resolved.load(std::memory_order_acquire) <
                c->submitted.load(std::memory_order_acquire) ||
            !c->outq.empty() || c->batch_count != 0) {
          drained = false;
        }
      }
      Wake(*r);  // flush whatever just got queued
    }
    if (drained || NowMicros() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: tear down.
  running_.store(false, std::memory_order_release);
  for (auto& r : reactors_) Wake(*r);
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  if (listen_fd_ >= 0) {  // reactor 0 never saw stopping_ (already joined)
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& r : reactors_) {
    std::lock_guard<std::mutex> lk(r->mu);
    // incoming first: connections accepted but never adopted by the (now
    // joined) reactor still own live fds.
    for (auto& c : r->incoming) {
      std::lock_guard<std::mutex> ck(c->mu);
      if (!c->closed) {
        c->closed = true;
        ::close(c->fd);
        stats_->closed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (auto& [fd, c] : r->conns) {
      std::lock_guard<std::mutex> ck(c->mu);
      if (!c->closed) {
        c->closed = true;
        ::close(c->fd);
        stats_->closed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    r->conns.clear();
    r->incoming.clear();
    r->dirty.clear();
  }
  reactors_.clear();
}

size_t NetServer::open_connections() const {
  size_t n = 0;
  for (const auto& r : reactors_) {
    std::lock_guard<std::mutex> lk(r->mu);
    n += r->conns.size();
  }
  return n;
}

void NetServer::Wake(Reactor& r) {
  uint64_t one = 1;
  ssize_t ignored = ::write(r.wake_fd, &one, sizeof(one));
  (void)ignored;  // EAGAIN just means a wake is already pending
}

void NetServer::ReactorLoop(size_t idx) {
  Reactor& r = *reactors_[idx];
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    // Reactor 0 owns the listener; it retires it on shutdown so no other
    // thread ever races accept() against close().
    if (idx == 0 && listen_fd_ >= 0 &&
        stopping_.load(std::memory_order_acquire)) {
      ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    const int n = ::epoll_wait(r.epoll_fd, events, 64, /*timeout_ms=*/100);
    for (int i = 0; i < n; i++) {
      const int fd = events[i].data.fd;
      if (fd == r.wake_fd) {
        uint64_t drain;
        while (::read(r.wake_fd, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (idx == 0 && fd == listen_fd_ &&
          !stopping_.load(std::memory_order_acquire)) {
        AcceptReady();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lk(r.mu);
        auto it = r.conns.find(fd);
        if (it != r.conns.end()) conn = it->second;
      }
      if (!conn) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(r, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) FlushConn(r, conn);
      if (events[i].events & EPOLLIN) {
        if (!stopping_.load(std::memory_order_acquire)) {
          HandleReadable(r, conn);
        } else {
          // Drain phase: reads are parked, but leaving EPOLLIN armed on a
          // level-triggered set would spin this loop at 100% CPU for the
          // whole drain. Disarm it; writes still flow.
          std::lock_guard<std::mutex> lk(conn->mu);
          if (!conn->closed) {
            epoll_event ev{};
            ev.events = conn->want_write ? EPOLLOUT : 0u;
            ev.data.fd = conn->fd;
            ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
          }
        }
      }
    }
    // Deferred work queued by other threads: adopt new connections, flush
    // queues the receipt callbacks touched. Runs every iteration so inline
    // (reactor-thread) enqueues are flushed promptly too.
    std::vector<std::shared_ptr<Conn>> incoming;
    std::vector<std::weak_ptr<Conn>> dirty;
    {
      std::lock_guard<std::mutex> lk(r.mu);
      incoming.swap(r.incoming);
      dirty.swap(r.dirty);
    }
    for (auto& c : incoming) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = c->fd;
      if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, c->fd, &ev) == 0) {
        std::lock_guard<std::mutex> lk(r.mu);
        r.conns.emplace(c->fd, c);
      } else {
        std::lock_guard<std::mutex> ck(c->mu);
        c->closed = true;
        ::close(c->fd);
        stats_->closed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (auto& w : dirty) {
      if (std::shared_ptr<Conn> c = w.lock()) FlushConn(r, c);
    }
  }
}

void NetServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Resource exhaustion leaves the backlogged connection pending, and
      // the level-triggered listener would re-report it immediately: back
      // off briefly instead of spinning reactor 0 at 100% CPU until an fd
      // frees up.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      // EAGAIN = drained; anything else (aborted handshake, EBADF during
      // shutdown) is not fatal to the listener either.
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const size_t target =
        next_reactor_.fetch_add(1, std::memory_order_relaxed) %
        reactors_.size();
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->owner = reactors_[target];
    conn->srv_stats = stats_;
    conn->wq_cap = opts_.max_write_queue_bytes;
    conn->reasm = FrameReassembler(opts_.max_frame_payload);
    conn->session = db_->OpenSession();
    if (db_->tracer()->enabled()) {
      conn->flush_hist = db_->tracer()->wire_flush;
    }
    conn->events = db_->events();
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);

    Reactor& r = *reactors_[target];
    {
      std::lock_guard<std::mutex> lk(r.mu);
      r.incoming.push_back(std::move(conn));
    }
    Wake(r);
  }
}

void NetServer::HandleReadable(Reactor& r, const std::shared_ptr<Conn>& conn) {
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->reasm.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConn(r, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(r, conn);
    return;
  }
  for (;;) {
    Frame frame;
    const Status st = conn->reasm.Next(&frame);
    if (st.IsNotFound()) break;
    if (!st.ok()) {
      // Unrecoverable stream (bad magic/CRC/length): tell the client why,
      // then close once the error flushes. No resync is attempted — a
      // desynchronized length-prefixed stream has no reliable frame
      // boundary to hunt for.
      stats_->corrupt_closes.fetch_add(1, std::memory_order_relaxed);
      WireError e;
      e.code = Status::Code::kCorruption;
      e.client_seq = 0;
      e.message = st.ToString();
      std::string payload;
      EncodeError(e, &payload);
      bool wake;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        wake = EnqueueLocked(*conn, Opcode::kOpError, payload);
        conn->close_after_flush = true;
      }
      (void)wake;
      FlushConn(r, conn);
      return;
    }
    stats_->frames_in.fetch_add(1, std::memory_order_relaxed);
    if (!Dispatch(conn, std::move(frame))) {
      stats_->corrupt_closes.fetch_add(1, std::memory_order_relaxed);
      WireError e;
      e.code = Status::Code::kInvalidArgument;
      e.client_seq = 0;
      e.message = "protocol violation";
      std::string payload;
      EncodeError(e, &payload);
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        EnqueueLocked(*conn, Opcode::kOpError, payload);
        conn->close_after_flush = true;
      }
      FlushConn(r, conn);
      return;
    }
  }
  FlushConn(r, conn);  // whatever dispatch queued inline
}

bool NetServer::Dispatch(const std::shared_ptr<Conn>& conn, Frame frame) {
  // Follower frontend: this node's chain is written by its leader, not by
  // clients. A deliberate, connection-terminal redirect — not a protocol
  // violation — so a client that dialed the wrong node learns where to go.
  if (!opts_.redirect_addr.empty() &&
      (frame.opcode == Opcode::kOpSubmit ||
       frame.opcode == Opcode::kOpBatchSubmit)) {
    c_redirects_->Add(1);
    db_->events()->Emit(obs::EventSeverity::kInfo, obs::EventCode::kRedirect,
                        "submit bounced to " + opts_.redirect_addr);
    WireError e;
    e.code = Status::Code::kNotSupported;
    e.client_seq = 0;
    e.message = "not leader; redirect to " + opts_.redirect_addr;
    std::string payload;
    EncodeError(e, &payload);
    std::lock_guard<std::mutex> lk(conn->mu);
    EnqueueLocked(*conn, Opcode::kOpError, payload);
    conn->close_after_flush = true;
    return true;
  }
  switch (frame.opcode) {
    case Opcode::kOpSubmit: {
      TxnRequest req;
      codec::Reader rd(frame.payload);
      if (!BlockCodec::DecodeTxn(&rd, &req) || rd.remaining() != 0) {
        return false;
      }
      // The server's clock stamps admission and latency; a caller-supplied
      // timestamp would skew rate limiting and receipt latency.
      req.submit_time_us = 0;
      stats_->submits.fetch_add(1, std::memory_order_relaxed);
      conn->submitted.fetch_add(1, std::memory_order_acq_rel);
      std::weak_ptr<Conn> weak = conn;
      conn->session->Submit(
          std::move(req),
          [weak](const TxnReceipt& receipt) { PushReceipt(weak, receipt); });
      return true;
    }
    case Opcode::kOpBatchSubmit: {
      std::vector<TxnRequest> txns;
      if (!DecodeBatchSubmit(frame.payload, &txns)) return false;
      const size_t n = txns.size();
      for (TxnRequest& req : txns) {
        // The server's clock stamps admission and latency, as for SUBMIT.
        req.submit_time_us = 0;
      }
      stats_->submits.fetch_add(n, std::memory_order_relaxed);
      stats_->batch_submits.fetch_add(1, std::memory_order_relaxed);
      conn->submitted.fetch_add(n, std::memory_order_acq_rel);
      // From now on this connection's receipts coalesce (set before the
      // submit so no receipt of this batch can race past it).
      conn->batch_mode.store(true, std::memory_order_release);
      std::weak_ptr<Conn> weak = conn;
      conn->session->SubmitBatch(
          std::move(txns),
          [weak](const TxnReceipt& receipt) { PushReceipt(weak, receipt); });
      return true;
    }
    case Opcode::kOpSync: {
      uint64_t token = 0;
      if (!DecodeSync(frame.payload, &token)) return false;
      const uint64_t watermark =
          conn->submitted.load(std::memory_order_acquire);
      std::string payload;
      EncodeSync(token, &payload);
      std::lock_guard<std::mutex> lk(conn->mu);
      if (conn->resolved.load(std::memory_order_acquire) >= watermark) {
        // Receipts covered by this ack may still sit in the coalescing
        // buffer; they must hit the queue before the ack does.
        PackBatchLocked(*conn);
        EnqueueLocked(*conn, Opcode::kOpSync, payload);
      } else {
        conn->pending_syncs.emplace_back(watermark, token);
      }
      return true;
    }
    case Opcode::kOpMetrics: {
      // Ship the whole metrics registry snapshot (per-stage histograms,
      // slow-txn ring). Gauges and mirrored counters are refreshed by
      // CollectMetrics.
      if (!frame.payload.empty()) return false;
      std::string payload;
      EncodeMetrics(db_->CollectMetrics(), &payload);
      std::lock_guard<std::mutex> lk(conn->mu);
      EnqueueLocked(*conn, Opcode::kOpMetrics, payload);
      return true;
    }
    case Opcode::kOpHealth: {
      // One frame answering "which node is this and is it keeping up" —
      // role, chain height, durable tip, peer count (docs/OBSERVABILITY.md).
      if (!frame.payload.empty()) return false;
      WireHealth h;
      h.role = replicator_ != nullptr          ? WireHealth::kLeader
               : !opts_.redirect_addr.empty()  ? WireHealth::kFollower
                                               : WireHealth::kStandalone;
      h.node = opts_.node_name;
      h.height = db_->height();
      h.durable_tip = db_->replica()->block_store()->last_block_id();
      h.leader_addr = opts_.redirect_addr;
      h.peer_count = replicator_ != nullptr
                         ? static_cast<uint32_t>(replicator_->num_peers())
                         : 0;
      h.uptime_us = db_->uptime_us();
      std::string payload;
      EncodeHealth(h, &payload);
      std::lock_guard<std::mutex> lk(conn->mu);
      EnqueueLocked(*conn, Opcode::kOpHealth, payload);
      return true;
    }
    case Opcode::kOpEvents: {
      uint64_t cursor = 0;
      if (!DecodeEventsReq(frame.payload, &cursor)) return false;
      std::vector<obs::EventRecord> recs;
      const uint64_t next =
          db_->events()->Since(cursor, kMaxEventEntries, &recs);
      std::string payload;
      EncodeEvents(next, recs, &payload);
      std::lock_guard<std::mutex> lk(conn->mu);
      EnqueueLocked(*conn, Opcode::kOpEvents, payload);
      return true;
    }
    case Opcode::kOpReplJoin: {
      // A follower announcing itself (docs/REPLICATION.md). Only meaningful
      // on a leader that wired a replicator in.
      if (replicator_ == nullptr) return false;
      WireReplJoin join;
      if (!DecodeReplJoin(frame.payload, &join)) return false;
      conn->is_repl_peer = true;
      conn->peer_node = join.node;
      // The replicator sends through this closure; it mirrors PushFrame but
      // stays valid without the NetServer (weak conn + shared owner), and
      // reports the connection's death so the replicator stops pumping.
      std::weak_ptr<Conn> weak = conn;
      auto send = [weak](Opcode op, std::string_view payload) -> bool {
        std::shared_ptr<Conn> c = weak.lock();
        if (!c) return false;
        std::shared_ptr<Reactor> owner = c->owner;
        bool wake;
        {
          std::lock_guard<std::mutex> lk(c->mu);
          if (c->closed || c->overloaded) return false;
          wake = EnqueueLocked(*c, op, payload);
        }
        if (wake) {
          {
            std::lock_guard<std::mutex> lk(owner->mu);
            owner->dirty.push_back(c);
          }
          Wake(*owner);
        }
        return true;
      };
      // May build a snapshot (drain + state scan) on this reactor thread —
      // a join-time cost borne once per fresh follower, not per frame.
      replicator_->AddPeer(join.node, join.last_block_id, std::move(send));
      return true;
    }
    case Opcode::kOpReplicateAck: {
      if (replicator_ == nullptr || !conn->is_repl_peer) return false;
      BlockId acked = 0;
      if (!DecodeReplAck(frame.payload, &acked)) return false;
      replicator_->OnAck(conn->peer_node, acked);
      return true;
    }
    case Opcode::kOpReplicate:
    case Opcode::kOpReplSnapshot:
      return false;  // leader-to-follower opcodes; never valid inbound
    case Opcode::kOpReceipt:
    case Opcode::kOpBatchReceipt:
    case Opcode::kOpError:
      return false;  // server-to-client opcodes; a client must not send them
  }
  return false;
}

void NetServer::SealOverloadedLocked(Conn& conn) {
  // Slow consumer: seal the queue with one terminal ERROR{overloaded}
  // frame and close once it flushes. Receipts already queued still go
  // out; this one (and later ones) are lost *with the connection* — the
  // client observes the close and fails its pending tickets, so nothing
  // is silently dropped on a connection that looks healthy.
  conn.overloaded = true;
  conn.close_after_flush = true;
  conn.srv_stats->overloaded_closes.fetch_add(1, std::memory_order_relaxed);
  if (conn.events != nullptr) {
    conn.events->Emit(obs::EventSeverity::kWarn,
                      obs::EventCode::kOverloadSeal,
                      "write queue over " + std::to_string(conn.wq_cap) +
                          " bytes");
  }
  WireError e;
  e.code = Status::Code::kBusy;
  e.client_seq = 0;
  e.message = "overloaded: write queue over " + std::to_string(conn.wq_cap) +
              " bytes";
  std::string epayload;
  EncodeError(e, &epayload);
  std::string eframe = EncodeFrame(Opcode::kOpError, epayload);
  conn.out_bytes += eframe.size();
  conn.outq.push_back(std::move(eframe));
  conn.outq_stamps.push_back(conn.flush_hist != nullptr ? NowMicros() : 0);
}

bool NetServer::EnqueueLocked(Conn& conn, Opcode op,
                              std::string_view payload) {
  if (conn.closed || conn.overloaded) return false;
  std::string frame = EncodeFrame(op, payload);
  if (conn.out_bytes + conn.batch_entries.size() + frame.size() >
      conn.wq_cap) {
    SealOverloadedLocked(conn);
    return !conn.want_write;
  }
  conn.out_bytes += frame.size();
  conn.outq.push_back(std::move(frame));
  conn.outq_stamps.push_back(conn.flush_hist != nullptr ? NowMicros() : 0);
  conn.srv_stats->frames_out.fetch_add(1, std::memory_order_relaxed);
  return !conn.want_write;
}

void NetServer::PackBatchLocked(Conn& conn) {
  if (conn.batch_count == 0 || conn.closed || conn.overloaded) return;
  // Take the buffer first so EnqueueLocked's cap check does not count the
  // same bytes twice (once buffered, once framed).
  const std::string entries = std::move(conn.batch_entries);
  uint32_t left = conn.batch_count;
  conn.batch_entries.clear();
  conn.batch_count = 0;
  // Split the buffered entries into frames bounded by the batch-count and
  // frame-payload caps (entries are length-prefixed, so the split walks
  // the prefixes). Usually this emits exactly one frame.
  std::string_view rest = entries;
  while (left > 0) {
    size_t bytes = 0;
    uint32_t count = 0;
    while (count < left && count < kMaxBatchTxns) {
      uint32_t entry_len = 0;
      std::memcpy(&entry_len, rest.data() + bytes, 4);
      const size_t next = bytes + 4 + entry_len;
      if (count > 0 && 4 + next > kMaxFramePayload) break;
      bytes = next;
      count++;
    }
    const std::string payload =
        SealBatchPayload(count, rest.substr(0, bytes));
    rest.remove_prefix(bytes);
    left -= count;
    conn.srv_stats->batch_receipts.fetch_add(1, std::memory_order_relaxed);
    EnqueueLocked(conn, Opcode::kOpBatchReceipt, payload);
    if (conn.overloaded) break;  // sealed mid-pack; the rest dies with conn
  }
}

void NetServer::PushFrame(const std::shared_ptr<Conn>& conn, Opcode op,
                          std::string_view payload) {
  bool wake;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    wake = EnqueueLocked(*conn, op, payload);
  }
  if (wake) {
    Reactor& r = *conn->owner;
    {
      std::lock_guard<std::mutex> lk(r.mu);
      r.dirty.push_back(conn);
    }
    Wake(r);
  }
}

void NetServer::PushReceipt(const std::weak_ptr<Conn>& weak,
                            const TxnReceipt& receipt) {
  std::shared_ptr<Conn> conn = weak.lock();
  if (!conn) return;  // connection already gone; the receipt dies with it
  // Hold the owner alive for the wake below even if the server is tearing
  // down concurrently.
  std::shared_ptr<Reactor> owner = conn->owner;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    std::string payload;
    if (conn->batch_mode.load(std::memory_order_acquire)) {
      // Coalescing path: buffer the entry; the owning reactor packs the
      // buffer into BATCH_RECEIPT frame(s) on its next flush, so receipts
      // resolving between flushes share one frame instead of one each.
      // Busy rejections ride along as kRejected entries — the batch reply
      // subsumes the single-submit ERROR{busy} mapping.
      if (!conn->closed && !conn->overloaded) {
        const size_t before = conn->batch_entries.size();
        AppendBatchReceiptEntry(receipt, &conn->batch_entries);
        if (conn->out_bytes + conn->batch_entries.size() > conn->wq_cap) {
          conn->batch_entries.resize(before);  // dies with the connection
          SealOverloadedLocked(*conn);
          wake = !conn->want_write;
        } else {
          conn->batch_count++;
          conn->srv_stats->receipts.fetch_add(1, std::memory_order_relaxed);
          // One wake per coalescing window: the first buffered entry asks
          // the reactor to flush; followers are picked up by that flush.
          wake = conn->batch_count == 1 && !conn->want_write;
        }
      }
    } else if (receipt.outcome == ReceiptOutcome::kRejected &&
               receipt.status.IsBusy()) {
      // Flow control (session inflight cap, rate limiting, mempool
      // backpressure) surfaces as ERROR{busy} scoped to the submit.
      WireError e;
      e.code = Status::Code::kBusy;
      e.client_seq = receipt.client_seq;
      e.message = receipt.status.message();
      EncodeError(e, &payload);
      wake = EnqueueLocked(*conn, Opcode::kOpError, payload);
      conn->srv_stats->busy_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      EncodeReceipt(receipt, &payload);
      wake = EnqueueLocked(*conn, Opcode::kOpReceipt, payload);
      conn->srv_stats->receipts.fetch_add(1, std::memory_order_relaxed);
    }
    // resolved advances under mu so a concurrent SYNC registration either
    // sees the new count or leaves an entry for this flush to ack.
    const uint64_t resolved =
        conn->resolved.fetch_add(1, std::memory_order_acq_rel) + 1;
    for (size_t i = 0; i < conn->pending_syncs.size();) {
      if (conn->pending_syncs[i].first <= resolved) {
        // The ack promises every covered receipt has been *queued ahead of
        // it* — flush the coalescing buffer first so the ack cannot
        // overtake receipts still waiting to be packed.
        PackBatchLocked(*conn);
        std::string ack;
        EncodeSync(conn->pending_syncs[i].second, &ack);
        wake = EnqueueLocked(*conn, Opcode::kOpSync, ack) || wake;
        conn->pending_syncs.erase(conn->pending_syncs.begin() +
                                  static_cast<long>(i));
      } else {
        i++;
      }
    }
  }
  if (wake) {
    {
      std::lock_guard<std::mutex> lk(owner->mu);
      owner->dirty.push_back(conn);
    }
    Wake(*owner);
  }
}

void NetServer::FlushConn(Reactor& r, const std::shared_ptr<Conn>& conn) {
  bool close = false;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;
    // Coalesce: whatever receipts accumulated since the last flush leave
    // as BATCH_RECEIPT frame(s) now.
    PackBatchLocked(*conn);
    uint64_t oldest_sent_stamp = 0;  // frames drain FIFO: first pop = oldest
    size_t sent_frames = 0;
    while (!conn->outq.empty()) {
      const std::string& front = conn->outq.front();
      // MSG_NOSIGNAL: a peer that vanished mid-flush must surface as EPIPE
      // on this connection, not as a process-wide SIGPIPE.
      const ssize_t n =
          ::send(conn->fd, front.data() + conn->out_off,
                 front.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        if (conn->out_off == front.size()) {
          conn->out_bytes -= front.size();
          conn->out_off = 0;
          conn->outq.pop_front();
          if (const uint64_t stamp = conn->outq_stamps.front(); stamp != 0) {
            if (oldest_sent_stamp == 0) oldest_sent_stamp = stamp;
            sent_frames++;
          }
          conn->outq_stamps.pop_front();
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close = true;  // broken pipe etc.
      break;
    }
    if (sent_frames > 0 && conn->flush_hist != nullptr) {
      // One clock read per flush: record the oldest drained frame's
      // enqueue -> socket-write latency (the worst of this batch — later
      // frames waited strictly less).
      const uint64_t now = NowMicros();
      conn->flush_hist->Record(now > oldest_sent_stamp
                                   ? now - oldest_sent_stamp
                                   : 0);
    }
    if (!close && conn->outq.empty() && conn->close_after_flush) close = true;
    if (!close) {
      const bool want = !conn->outq.empty();
      if (want != conn->want_write) {
        epoll_event ev{};
        // No EPOLLIN during the Stop() drain — reads are parked and a
        // level-triggered readable event would spin the loop.
        ev.events = (stopping_.load(std::memory_order_acquire) ? 0u
                                                               : EPOLLIN) |
                    (want ? EPOLLOUT : 0u);
        ev.data.fd = conn->fd;
        ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
        conn->want_write = want;
      }
    }
  }
  if (close) CloseConn(r, conn);
}

void NetServer::CloseConn(Reactor& r, const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
  }
  // is_repl_peer is owned by this (the owning) reactor; no conn->mu needed.
  if (conn->is_repl_peer && replicator_ != nullptr) {
    replicator_->RemovePeer(conn->peer_node);
  }
  stats_->closed.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(r.mu);
  r.conns.erase(conn->fd);
}

}  // namespace net
}  // namespace harmony
