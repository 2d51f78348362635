// Network frontend benchmark: wire-level submit→receipt latency and
// throughput through the harmonyd frontend (net::NetServer + net::NetClient
// over real loopback TCP sockets), side by side with the in-process session
// numbers bench/ingest_bench.cc reports.
//
// Default run spins the server frontend in-process (the exact code path
// tools/harmonyd.cc serves) on an ephemeral loopback port and drives
// `--conns` concurrent client connections (>= 64 by default), each its own
// TCP connection + server-side session, submitting blind increments
// open-loop under a bounded per-connection inflight window. Every submitted
// (connection, client_seq) must resolve exactly once — duplicates or losses
// fail the run with exit 1.
//
//   ./build/net_bench [--conns 64] [--txns 2000] [--window 128]
//                     [--batch 16] [--batch-delay-us 200]
//                     [--port P]   # drive an external `harmonyd serve`
//                     [--replicas N [--harmonyd PATH]]  # multi-process cluster
//
// The default run reports the wire path twice — one SUBMIT frame per txn
// and client-coalesced BATCH_SUBMIT frames (--batch txns per frame) — so
// the batching win is measured, not asserted.
// With --port the bench skips the in-process server and in-process baseline
// and targets a running daemon instead (it must have procedure 2 =
// increment registered and the keys loaded, as `harmonyd serve` does).
//
// With --replicas N the bench instead spawns a real N-process cluster
// (one `harmonyd serve --leader N --quorum-ack` plus N-1 `--join`
// followers, docs/REPLICATION.md), drives the leader open-loop with the
// same exactly-once receipt ledger, SIGKILLs one follower mid-run and
// rejoins it, and reports aggregate committed txn/s plus follower lag in
// blocks as p50/p99 — sampled from the leader's own per-peer
// `repl.peer.lag_blocks` gauges over the METRICS opcode, the same numbers
// `harmonyd cluster-status` scrapes. The run fails unless every receipt
// resolves exactly once and every node shuts down with the same
// `state_digest=` line.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench/cluster_util.h"
#include "bench/harness.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/spin_lock.h"
#include "core/harmonybc.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/events.h"

using namespace harmony;
using namespace harmony::bench;

namespace {

constexpr int kKeys = 1024;

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

std::unique_ptr<HarmonyBC> OpenDb(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("harmony-net-bench-" + tag + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  HarmonyBC::Options o;
  o.dir = dir;
  o.in_memory = true;
  o.disk = DiskModel::RamDisk();
  o.block_size = 100;
  o.max_block_delay_us = 2'000;
  o.mempool_capacity = 1 << 15;
  o.threads = 8;
  o.checkpoint_every = 50;
  o.enable_tracing = true;  // feeds the per-stage breakdown table
  auto db = HarmonyBC::Open(o);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  (*db)->RegisterProcedure(2, "increment", Increment);
  for (Key k = 0; k < kKeys; k++) {
    if (!(*db)->Load(k, Value({0})).ok()) std::exit(1);
  }
  if (!(*db)->Recover().ok()) std::exit(1);
  return std::move(*db);
}

struct RunResult {
  double wall_s = 0;
  uint64_t committed = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
  uint64_t lost = 0;        ///< submits that never resolved
  uint64_t duplicated = 0;  ///< receipts delivered twice for one seq
  obs::LatencyHistogram latency_us;  ///< submit -> receipt, committed only
};

/// In-process baseline: same connection/txn/window shape, but through
/// Session::Submit directly (no sockets). Mirrors ingest_bench part 2.
RunResult RunInProcess(size_t conns, size_t txns_per_conn, size_t window) {
  auto db = OpenDb("local");
  RunResult res;
  std::atomic<uint64_t> committed{0}, rejected{0}, dropped{0};
  Timer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      auto session = db->OpenSession();
      Rng rng(11 * (c + 1));
      for (size_t i = 0; i < txns_per_conn; i++) {
        while (session->stats().inflight.load(std::memory_order_acquire) >=
               window) {
          std::this_thread::yield();
        }
        TxnRequest t;
        t.proc_id = 2;
        t.args.ints = {rng.UniformRange(0, kKeys - 1), 1};
        session->Submit(std::move(t), [&](const TxnReceipt& r) {
          switch (r.outcome) {
            case ReceiptOutcome::kCommitted: {
              committed.fetch_add(1, std::memory_order_relaxed);
              res.latency_us.Record(r.latency_us);
              break;
            }
            case ReceiptOutcome::kRejected:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              dropped.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!db->Sync().ok()) std::exit(1);
  res.wall_s = wall.ElapsedSeconds();
  res.committed = committed.load();
  res.rejected = rejected.load();
  res.dropped = dropped.load();
  return res;
}

/// Wire run: `conns` NetClient connections against `port` on loopback.
/// `batch` > 1 turns on client submit coalescing (BATCH_SUBMIT frames).
RunResult RunWire(uint16_t port, size_t conns, size_t txns_per_conn,
                  size_t window, size_t batch, uint64_t batch_delay_us) {
  RunResult res;
  std::atomic<uint64_t> committed{0}, rejected{0}, dropped{0};
  std::atomic<uint64_t> duplicated{0}, resolved{0};
  Timer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      // Exactly-once ledger for this connection: client_seq is
      // auto-assigned 1..txns, one slot each. Declared before the client so
      // it outlives the destructor's fail-all callbacks.
      std::vector<std::atomic<uint8_t>> seen(txns_per_conn + 1);
      net::NetClientOptions co;
      co.port = port;
      co.batch_max_txns = batch;
      co.batch_max_delay_us = batch_delay_us;
      auto client = net::NetClient::Connect(co);
      if (!client.ok()) {
        std::fprintf(stderr, "connect: %s\n",
                     client.status().ToString().c_str());
        std::exit(1);
      }
      Rng rng(13 * (c + 1));
      for (size_t i = 0; i < txns_per_conn; i++) {
        while ((*client)->stats().inflight.load(std::memory_order_acquire) >=
               window) {
          std::this_thread::yield();
        }
        TxnRequest t;
        t.proc_id = 2;
        t.args.ints = {rng.UniformRange(0, kKeys - 1), 1};
        (*client)->Submit(std::move(t), [&](const TxnReceipt& r) {
          if (r.client_seq == 0 || r.client_seq > txns_per_conn ||
              seen[r.client_seq].fetch_add(1, std::memory_order_acq_rel) !=
                  0) {
            duplicated.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          resolved.fetch_add(1, std::memory_order_relaxed);
          switch (r.outcome) {
            case ReceiptOutcome::kCommitted: {
              committed.fetch_add(1, std::memory_order_relaxed);
              res.latency_us.Record(r.latency_us);
              break;
            }
            case ReceiptOutcome::kRejected:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              dropped.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        });
      }
      // Wait until this connection's receipts are all delivered.
      if (!(*client)->Sync(/*timeout_us=*/60'000'000)) {
        std::fprintf(stderr, "conn %zu: SYNC timed out or connection lost\n",
                     c);
      }
    });
  }
  for (auto& t : threads) t.join();
  res.wall_s = wall.ElapsedSeconds();
  res.committed = committed.load();
  res.rejected = rejected.load();
  res.dropped = dropped.load();
  res.duplicated = duplicated.load();
  const uint64_t total = static_cast<uint64_t>(conns) * txns_per_conn;
  res.lost = total - resolved.load();
  return res;
}

void PrintResult(const char* label, size_t conns, const RunResult& r,
                 uint64_t total) {
  const obs::HistogramSnapshot lat = r.latency_us.Snap();
  PrintRow({label, std::to_string(conns),
            Fmt(r.wall_s > 0 ? static_cast<double>(total) / r.wall_s / 1e3
                             : 0),
            Fmt(lat.Percentile(50) / 1e3, 2), Fmt(lat.Percentile(99) / 1e3, 2),
            std::to_string(r.committed) + "/" + std::to_string(r.rejected) +
                "/" + std::to_string(r.dropped),
            std::to_string(r.lost) + "/" + std::to_string(r.duplicated)});
}

// ---------------------------------------------------------------------------
// --replicas N: real multi-process cluster (docs/REPLICATION.md). Process
// spawning / banner parsing / digest helpers live in bench/cluster_util.h.
// ---------------------------------------------------------------------------

int RunCluster(size_t replicas, const std::string& harmonyd_flag,
               size_t conns, size_t txns, size_t window) {
  const size_t n_nodes = std::max<size_t>(replicas, 2);
  const std::string harmonyd =
      harmonyd_flag.empty() ? DefaultHarmonydPath() : harmonyd_flag;
  if (!std::filesystem::exists(harmonyd)) {
    std::fprintf(stderr,
                 "cluster: harmonyd binary not found at %s "
                 "(build it, or pass --harmonyd PATH)\n",
                 harmonyd.c_str());
    return 1;
  }
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("harmony-cluster-bench-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // Leader first (followers need its port), then the followers. On-disk
  // chains (not --in-memory): the kill/rejoin leg below depends on the
  // killed follower recovering from its own log.
  SpinLock nodes_mu;  // guards pid/port across the disruptor
  std::vector<NodeProc> nodes(n_nodes);
  nodes[0].name = "leader";
  nodes[0].dir = root + "/leader";
  nodes[0].log = root + "/leader.log";
  nodes[0].role_flags = {"--leader", std::to_string(n_nodes), "--quorum-ack"};
  SpawnNode(harmonyd, &nodes[0]);
  nodes[0].port = WaitForServePort(nodes[0], 0, 15.0);
  const std::string leader_addr =
      "127.0.0.1:" + std::to_string(nodes[0].port);
  for (size_t i = 1; i < n_nodes; i++) {
    nodes[i].name = "follower-" + std::to_string(i);
    nodes[i].dir = root + "/" + nodes[i].name;
    nodes[i].log = root + "/" + nodes[i].name + ".log";
    nodes[i].role_flags = {"--join", leader_addr, "--node", nodes[i].name};
    SpawnNode(harmonyd, &nodes[i]);
    nodes[i].port = WaitForServePort(nodes[i], 0, 15.0);
  }

  // Replication-lag monitor: one METRICS connection to the leader, sampling
  // the replication plane's own per-peer `repl.peer.lag_blocks` gauges
  // (leader tip minus that peer's cumulative ack, maintained by the
  // Replicator — docs/OBSERVABILITY.md). Every poll records every peer's
  // current lag, so the histogram is a time-and-peer-weighted view of how
  // far followers trail: the killed follower's climbing backlog and its
  // catch-up burst both land in the tail. Leader-local gauges mean no
  // cross-node clock arithmetic and no bespoke per-height bookkeeping —
  // these are the same numbers `harmonyd cluster-status` scrapes.
  std::atomic<bool> mon_stop{false};
  obs::LatencyHistogram lag_blocks;
  const uint16_t leader_port = nodes[0].port;  // the leader is never killed
  const std::string lag_prefix =
      std::string(obs::kGaugePeerLagBlocks) + ".";
  std::thread monitor([&] {
    std::unique_ptr<net::NetClient> client;
    while (!mon_stop.load(std::memory_order_acquire)) {
      if (client == nullptr) {
        net::NetClientOptions co;
        co.port = leader_port;
        auto c = net::NetClient::Connect(co);
        client = c.ok() ? std::move(*c) : nullptr;
        if (client == nullptr) {
          ::usleep(50'000);
          continue;
        }
      }
      auto snap = client->Metrics(/*timeout_us=*/500'000);
      if (!snap.ok()) {
        client = nullptr;  // leader busy or shedding load; redial
        continue;
      }
      for (const auto& g : snap->gauges) {
        if (g.name.compare(0, lag_prefix.size(), lag_prefix) == 0 &&
            g.value >= 0)
          lag_blocks.Record(static_cast<uint64_t>(g.value));
      }
      ::usleep(5'000);
    }
  });

  // Disruptor: SIGKILL the last follower mid-run, then respawn it on the
  // same chain directory — it must recover, re-join, and catch up while
  // the load keeps running (quorum still holds via the other followers
  // when N >= 3; with N == 2 receipts stall until the rejoin, which the
  // ledger tolerates: gated, not lost).
  std::thread disruptor([&] {
    ::usleep(400'000);
    NodeProc* victim = &nodes[n_nodes - 1];
    pid_t pid;
    {
      std::lock_guard<SpinLock> lk(nodes_mu);
      pid = victim->pid;
    }
    ::kill(pid, SIGKILL);
    WaitExit(pid, 5.0);
    ::usleep(300'000);
    const size_t log_off = ReadFile(victim->log).size();
    SpawnNode(harmonyd, victim);
    const uint16_t port = WaitForServePort(*victim, log_off, 15.0);
    std::lock_guard<SpinLock> lk(nodes_mu);
    victim->port = port;
  });

  const RunResult r = RunWire(nodes[0].port, conns, txns, window,
                              /*batch=*/16, /*batch_delay_us=*/200);
  disruptor.join();

  // Let every follower reach the leader's final height before comparing
  // digests — replication is async, the load finishing only means the
  // leader committed everything. The leader's height() can itself still be
  // advancing for a beat after the last receipt resolves, so require it to
  // read stable across two polls AND every follower to have reached it.
  bool caught_up = false;
  {
    Timer t;
    uint64_t leader_tip = NodeHeight(nodes[0].port);
    while (t.ElapsedSeconds() < 60.0) {
      ::usleep(20'000);
      const uint64_t now_tip = NodeHeight(nodes[0].port);
      if (now_tip != leader_tip) {
        leader_tip = now_tip;
        continue;
      }
      bool all = true;
      for (size_t i = 1; i < n_nodes; i++)
        all = all && NodeHeight(nodes[i].port) >= leader_tip;
      if (all) {
        caught_up = true;
        break;
      }
    }
    if (!caught_up)
      std::fprintf(stderr, "cluster: followers stuck below leader tip %llu\n",
                   static_cast<unsigned long long>(leader_tip));
  }
  mon_stop.store(true, std::memory_order_release);
  monitor.join();

  // Graceful stop (followers first, leader last) so each node drains and
  // prints its `state_digest=` fingerprint.
  for (size_t i = n_nodes; i-- > 0;) {
    ::kill(nodes[i].pid, SIGTERM);
  }
  bool clean_exit = true;
  for (size_t i = 0; i < n_nodes; i++) {
    const int rc = WaitExit(nodes[i].pid, 30.0);
    if (rc != 0) {
      std::fprintf(stderr, "cluster: %s exited %d (log %s)\n",
                   nodes[i].name.c_str(), rc, nodes[i].log.c_str());
      clean_exit = false;
    }
  }

  const std::string leader_digest = LastDigestLine(nodes[0].log);
  bool digests_match = clean_exit && !leader_digest.empty();
  for (size_t i = 1; i < n_nodes && digests_match; i++) {
    if (LastDigestLine(nodes[i].log) != leader_digest) digests_match = false;
  }

  const uint64_t total = static_cast<uint64_t>(conns) * txns;
  PrintHeader(
      "Cluster replication: " + std::to_string(n_nodes) +
          "-process leader+followers over REPLICATE/ACK frames "
          "(quorum-ack receipts), one follower SIGKILLed and rejoined "
          "mid-run; lag = leader-reported repl.peer.lag_blocks (blocks a "
          "follower trails the leader tip)",
      {"nodes", "conns", "ktxn/s", "p50 ms", "p99 ms", "lag p50 blk",
       "lag p99 blk", "cmt/rej/drop", "lost/dup", "digests"});
  const obs::HistogramSnapshot lat = r.latency_us.Snap();
  const obs::HistogramSnapshot lag = lag_blocks.Snap();
  PrintRow({std::to_string(n_nodes), std::to_string(conns),
            Fmt(r.wall_s > 0
                    ? static_cast<double>(r.committed) / r.wall_s / 1e3
                    : 0),
            Fmt(lat.Percentile(50) / 1e3, 2), Fmt(lat.Percentile(99) / 1e3, 2),
            Fmt(lag.Percentile(50), 1), Fmt(lag.Percentile(99), 1),
            std::to_string(r.committed) + "/" + std::to_string(r.rejected) +
                "/" + std::to_string(r.dropped),
            std::to_string(r.lost) + "/" + std::to_string(r.duplicated),
            digests_match ? "identical" : "MISMATCH"});

  if (r.lost != 0 || r.duplicated != 0) {
    std::fprintf(stderr,
                 "FAIL: cluster receipt accounting broken (lost=%llu "
                 "dup=%llu)\n",
                 static_cast<unsigned long long>(r.lost),
                 static_cast<unsigned long long>(r.duplicated));
    return 1;
  }
  if (r.committed == 0) {
    std::fprintf(stderr, "FAIL: cluster committed nothing\n");
    return 1;
  }
  if (!caught_up || !digests_match) {
    std::fprintf(stderr,
                 "FAIL: cluster state divergence (caught_up=%d "
                 "digests_match=%d); logs under %s\n",
                 caught_up ? 1 : 0, digests_match ? 1 : 0, root.c_str());
    return 1;
  }
  std::printf("cluster: %zu nodes, %s\n  %s\n", n_nodes,
              "all digests identical", leader_digest.c_str());
  std::filesystem::remove_all(root);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t conns = 64;
  size_t txns = ScaledTxns(2000);
  // Deep enough that the wire, not the inflight window, is what limits
  // throughput (Little's law): the batched-vs-unbatched comparison then
  // measures frame/wake overhead rather than the commit pipeline's latency.
  size_t window = 256;
  size_t batch = 16;
  uint64_t batch_delay_us = 200;
  uint16_t external_port = 0;
  size_t replicas = 0;
  std::string harmonyd_path;
  for (int i = 1; i < argc; i++) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--conns")) conns = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--txns")) txns = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--window")) window = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--batch")) batch = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--batch-delay-us")) batch_delay_us = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--port")) external_port = static_cast<uint16_t>(std::atoi(next()));
    else if (!std::strcmp(argv[i], "--replicas")) replicas = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--harmonyd")) harmonyd_path = next();
    else if (!std::strcmp(argv[i], "--json-out")) SetJsonOut(next());
    else { std::fprintf(stderr, "unknown flag %s\n", argv[i]); return 2; }
  }
  if (replicas > 0) return RunCluster(replicas, harmonyd_path, conns, txns, window);
  const uint64_t total = static_cast<uint64_t>(conns) * txns;

  PrintHeader(
      "Network frontend: wire submit->receipt through the harmonyd frontend "
      "(loopback TCP, one session per connection, open loop, window=" +
          std::to_string(window) + "), unbatched vs --batch " +
          std::to_string(batch) + " coalescing, vs in-process sessions; " +
          std::to_string(txns) + " txns/conn",
      {"path", "conns", "ktxn/s", "p50 ms", "p99 ms", "cmt/rej/drop",
       "lost/dup"});

  RunResult wire, batched;
  obs::MetricsSnapshot stage_metrics;  // per-stage breakdown, unbatched wire
  bool have_stage_metrics = false;
  if (external_port != 0) {
    wire = RunWire(external_port, conns, txns, window, 1, 0);
    if (batch > 1) {
      batched =
          RunWire(external_port, conns, txns, window, batch, batch_delay_us);
    }
    // An external daemon's registry is reachable over the wire (METRICS).
    net::NetClientOptions co;
    co.port = external_port;
    if (auto client = net::NetClient::Connect(co); client.ok()) {
      if (auto m = (*client)->Metrics(/*timeout_us=*/5'000'000); m.ok()) {
        stage_metrics = std::move(*m);
        have_stage_metrics = true;
      }
    }
  } else {
    // Fresh server (and chain) per path so the runs don't share warmup.
    for (int mode = 0; mode < (batch > 1 ? 2 : 1); mode++) {
      auto db = OpenDb(mode == 0 ? "wire" : "wire-batched");
      net::NetServerOptions so;
      so.port = 0;  // ephemeral
      so.reactor_threads = 4;
      net::NetServer server(db.get(), so);
      if (Status s = server.Start(); !s.ok()) {
        std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
        return 1;
      }
      RunResult& out = mode == 0 ? wire : batched;
      out = RunWire(server.port(), conns, txns, window,
                    mode == 0 ? 1 : batch, batch_delay_us);
      server.Stop();
      if (mode == 0) {
        stage_metrics = db->CollectMetrics();
        have_stage_metrics = true;
      }
    }
  }
  PrintResult("wire", conns, wire, total);
  if (batch > 1) PrintResult("wire-batched", conns, batched, total);
  if (have_stage_metrics) PrintStageTable(stage_metrics);

  if (external_port == 0) {
    RunResult local = RunInProcess(conns, txns, window);
    PrintResult("in-process", conns, local, total);
  }

  const uint64_t lost = wire.lost + batched.lost;
  const uint64_t dup = wire.duplicated + batched.duplicated;
  if (lost != 0 || dup != 0) {
    std::fprintf(stderr,
                 "FAIL: receipt accounting broken (lost=%llu dup=%llu)\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(dup));
    return 1;
  }
  return 0;
}
