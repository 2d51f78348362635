// harmonyd — the HarmonyBC network daemon, plus wire-level query CLIs.
//
// Serve a chain directory over the binary wire protocol (docs/NET.md):
//
//   ./build/harmonyd serve --dir /tmp/chain --port 7450
//       [--bind 127.0.0.1] [--reactors 2] [--threads 8]
//       [--block-size 100] [--delay-us 2000] [--in-memory]
//       [--accounts 1024] [--balance 100000]          (genesis, first boot)
//       [--max-inflight 256]  per-session flow-control cap (0 = off)
//       [--rate 0]            per-client admission rate, txns/sec (0 = off)
//
//   Registered procedures: 1 = transfer(from, to, amount),
//   2 = increment(key, delta), 3 = noop. SIGINT/SIGTERM drain receipts
//   through the completion watermark before exiting (see NetServer::Stop),
//   then print `state_digest=<hex> height=<n>` — the cluster-consistency
//   fingerprint scripts compare across nodes.
//
// Replication roles (docs/REPLICATION.md):
//
//   --leader N        lead an N-node cluster: fan committed blocks out to
//                     followers that join, track their acks
//   --quorum-ack      gate client receipts on a majority of the cluster
//                     having applied the block (default: leader-only)
//   --join HOST:PORT  run as a follower of that leader: apply its block
//                     stream, ack, redirect clients to it
//   --node NAME       this follower's name in REPL_JOIN (default
//                     follower-<port>)
//
// Drive a leader with a replicated workload (cluster smoke / bench):
//
//   ./build/harmonyd load --host 127.0.0.1 --port 7450
//       [--conns 4] [--txns 2000] [--accounts 1024]
//   Submits increment transactions over `--conns` connections with an
//   exactly-once receipt ledger; exits non-zero on lost or duplicated
//   receipts (or if nothing committed).
//
// Query a running daemon over the wire: its full metrics registry snapshot
// (the METRICS frame — per-stage latency histograms, ingest/storage/DCC
// counters, slow-txn ring; docs/OBSERVABILITY.md):
//
//   ./build/harmonyd metrics --host 127.0.0.1 --port 7450 [--json] [--prom]
//
// Cluster observability (HEALTH / EVENTS frames; docs/OBSERVABILITY.md):
//
//   ./build/harmonyd health --port 7450 [--watch 1]
//   ./build/harmonyd events --port 7450 [--follow] [--json]
//   ./build/harmonyd cluster-status --nodes 127.0.0.1:7450,127.0.0.1:7451
//
// metrics/health accept --watch S (re-print every S seconds until
// SIGINT); events --follow tails the server's event ring via its cursor.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/harmonybc.h"
#include "obs/events.h"
#include "net/client.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/replicator.h"
#include "txn/txn_context.h"
#include "txn/value.h"

using namespace harmony;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient balance");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

Status Noop(TxnContext&, const ProcArgs&) { return Status::OK(); }

struct Args {
  std::string mode;
  std::string dir;
  std::string host = "127.0.0.1";
  std::string bind = "127.0.0.1";
  uint16_t port = 7450;
  size_t reactors = 2;
  size_t threads = 8;
  size_t block_size = 100;
  uint64_t delay_us = 2000;
  uint64_t accounts = 1024;
  int64_t balance = 100000;
  uint64_t max_inflight = 0;
  double rate = 0;
  uint64_t retain_blocks = 0;  ///< block-log retention; 0 keeps everything
  size_t flush_threads = BufferPool::kDefaultFlushThreads;
  bool in_memory = false;
  bool json = false;
  bool prom = false;
  bool follow = false;
  uint64_t watch_s = 0;  ///< --watch N: re-print every N seconds
  std::string nodes;     ///< cluster-status: comma-separated host:port list
  // Replication.
  size_t leader_cluster = 0;  ///< > 0: lead a cluster of this size
  bool quorum_ack = false;
  std::string join;           ///< HOST:PORT of the leader (follower role)
  std::string node;
  // Load driver.
  size_t conns = 4;
  uint64_t txns = 2000;
};

int Usage() {
  std::fprintf(stderr,
               "usage: harmonyd serve --dir DIR [--port N] [--bind A] "
               "[--reactors N] [--threads N] [--block-size N] [--delay-us N] "
               "[--accounts N] [--balance N] [--max-inflight N] [--rate R] "
               "[--retain-blocks N] [--flush-threads N] [--in-memory]\n"
               "                [--leader N [--quorum-ack] | "
               "--join HOST:PORT [--node NAME]]\n"
               "       harmonyd load [--host A] [--port N] [--conns N] "
               "[--txns N] [--accounts N]\n"
               "       harmonyd metrics [--host A] [--port N] [--json] "
               "[--prom] [--watch S]\n"
               "       harmonyd health [--host A] [--port N] [--watch S]\n"
               "       harmonyd events [--host A] [--port N] [--json] "
               "[--follow]\n"
               "       harmonyd cluster-status --nodes H:P,H:P,...\n");
  return 2;
}

bool Parse(int argc, char** argv, Args* out) {
  if (argc < 2) return false;
  out->mode = argv[1];
  for (int i = 2; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--dir") out->dir = next("--dir");
    else if (a == "--host") out->host = next("--host");
    else if (a == "--bind") out->bind = next("--bind");
    else if (a == "--port") out->port = static_cast<uint16_t>(std::atoi(next("--port")));
    else if (a == "--reactors") out->reactors = std::strtoul(next("--reactors"), nullptr, 10);
    else if (a == "--threads") out->threads = std::strtoul(next("--threads"), nullptr, 10);
    else if (a == "--block-size") out->block_size = std::strtoul(next("--block-size"), nullptr, 10);
    else if (a == "--delay-us") out->delay_us = std::strtoull(next("--delay-us"), nullptr, 10);
    else if (a == "--accounts") out->accounts = std::strtoull(next("--accounts"), nullptr, 10);
    else if (a == "--balance") out->balance = std::atoll(next("--balance"));
    else if (a == "--max-inflight") out->max_inflight = std::strtoull(next("--max-inflight"), nullptr, 10);
    else if (a == "--rate") out->rate = std::atof(next("--rate"));
    else if (a == "--retain-blocks") out->retain_blocks = std::strtoull(next("--retain-blocks"), nullptr, 10);
    else if (a == "--flush-threads") out->flush_threads = std::strtoul(next("--flush-threads"), nullptr, 10);
    else if (a == "--in-memory") out->in_memory = true;
    else if (a == "--json") out->json = true;
    else if (a == "--prom") out->prom = true;
    else if (a == "--follow") out->follow = true;
    else if (a == "--watch") out->watch_s = std::strtoull(next("--watch"), nullptr, 10);
    else if (a == "--nodes") out->nodes = next("--nodes");
    else if (a == "--leader") out->leader_cluster = std::strtoul(next("--leader"), nullptr, 10);
    else if (a == "--quorum-ack") out->quorum_ack = true;
    else if (a == "--join") out->join = next("--join");
    else if (a == "--node") out->node = next("--node");
    else if (a == "--conns") out->conns = std::strtoul(next("--conns"), nullptr, 10);
    else if (a == "--txns") out->txns = std::strtoull(next("--txns"), nullptr, 10);
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

bool SplitHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return false;
  *host = addr.substr(0, colon);
  *port = static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
  return *port != 0 && !host->empty();
}

void PrintDigestLine(HarmonyBC* db) {
  auto digest = db->StateDigest();
  if (!digest.ok()) {
    std::fprintf(stderr, "state_digest: %s\n",
                 digest.status().ToString().c_str());
    return;
  }
  char hex[65];
  for (size_t i = 0; i < digest->size(); i++) {
    std::snprintf(hex + 2 * i, 3, "%02x", (*digest)[i]);
  }
  std::printf("state_digest=%s height=%llu\n", hex,
              static_cast<unsigned long long>(db->height()));
  std::fflush(stdout);
}

int Serve(const Args& args) {
  if (args.dir.empty()) return Usage();
  if (args.leader_cluster > 0 && !args.join.empty()) {
    std::fprintf(stderr, "--leader and --join are mutually exclusive\n");
    return 2;
  }
  std::string leader_host;
  uint16_t leader_port = 0;
  const bool is_follower = !args.join.empty();
  if (is_follower && !SplitHostPort(args.join, &leader_host, &leader_port)) {
    std::fprintf(stderr, "--join wants HOST:PORT, got %s\n",
                 args.join.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", args.dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // Genesis loads only on first boot: a restart recovers state from its own
  // checkpoint + log, and re-loading would clobber the evolved rows.
  std::error_code empty_ec;
  const bool first_boot =
      args.in_memory || std::filesystem::is_empty(args.dir, empty_ec);

  HarmonyBC::Options o;
  o.dir = args.dir;
  o.in_memory = args.in_memory;
  o.disk = DiskModel::RamDisk();
  o.threads = args.threads;
  o.block_size = args.block_size;
  o.max_block_delay_us = args.delay_us;
  o.checkpoint_every = 50;
  o.max_inflight_per_session = args.max_inflight;
  o.admit_rate_per_client = args.rate;
  o.high_fee_threshold = 100;
  o.log_retain_blocks = args.retain_blocks;
  o.flush_threads = args.flush_threads;
  o.enable_tracing = true;  // feeds `harmonyd metrics` (docs/OBSERVABILITY.md)
  o.follower_mode = is_follower;

  auto db = HarmonyBC::Open(o);
  if (!db.ok()) {
    std::fprintf(stderr, "open %s: %s\n", args.dir.c_str(),
                 db.status().ToString().c_str());
    return 1;
  }
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  (*db)->RegisterProcedure(2, "increment", Increment);
  (*db)->RegisterProcedure(3, "noop", Noop);
  // Every cluster node boots from the same genesis (--accounts/--balance
  // must match across the cluster, like registered procedures): a follower
  // that joined early replays the leader's blocks over identical base state,
  // and one that joins late gets the leader's full state via snapshot, which
  // replaces these rows wholesale.
  if (first_boot) {
    for (uint64_t k = 0; k < args.accounts; k++) {
      (void)(*db)->Load(k, Value({args.balance}));
    }
  }
  auto tip = (*db)->Recover();
  if (!tip.ok()) {
    std::fprintf(stderr, "recover: %s\n", tip.status().ToString().c_str());
    return 1;
  }

  net::NetServerOptions so;
  so.bind_addr = args.bind;
  so.port = args.port;
  so.reactor_threads = args.reactors;
  if (is_follower) so.redirect_addr = args.join;
  // The name HEALTH replies report; --node also names REPL_JOIN below.
  so.node_name = !args.node.empty()
                     ? args.node
                     : std::string(is_follower            ? "follower-"
                                   : args.leader_cluster > 0 ? "leader-"
                                                             : "node-") +
                           std::to_string(args.port);

  std::unique_ptr<repl::Replicator> replicator;
  if (args.leader_cluster > 0) {
    repl::ReplicatorOptions ro;
    ro.cluster_size = args.leader_cluster;
    ro.durability = args.quorum_ack ? repl::Durability::kQuorumAck
                                    : repl::Durability::kLeaderOnly;
    replicator = std::make_unique<repl::Replicator>(db->get(), ro);
    replicator->Attach();
  }

  net::NetServer server(db->get(), so);
  if (replicator != nullptr) server.SetReplicator(replicator.get());
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  std::unique_ptr<repl::Follower> follower;
  if (is_follower) {
    repl::FollowerOptions fo;
    fo.node = args.node.empty()
                  ? "follower-" + std::to_string(server.port())
                  : args.node;
    fo.leader_host = leader_host;
    fo.leader_port = leader_port;
    follower = std::make_unique<repl::Follower>(db->get(), fo);
    if (Status s = follower->Start(); !s.ok()) {
      std::fprintf(stderr, "follower: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const char* role = is_follower ? "follower"
                     : replicator != nullptr ? "leader"
                                             : "standalone";
  std::printf(
      "harmonyd: serving %s on %s:%u (chain tip %llu, %zu reactors, %s)\n",
      args.dir.c_str(), args.bind.c_str(), server.port(),
      static_cast<unsigned long long>(*tip), args.reactors, role);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("harmonyd: draining...\n");
  if (follower != nullptr) follower->Stop();
  if (replicator != nullptr) {
    // Stop() parks reads, so follower acks stop arriving: receipts still
    // gated on quorum would hang the drain. Drop the gate and fail them
    // first — the standard "fate unknown at shutdown" contract.
    replicator->Detach();
    (*db)->FailPendingReceipts(Status::Aborted("leader shutting down"));
  }
  server.Stop();
  const net::NetServerStats& ns = server.stats();
  const IngestStats& is = (*db)->ingest_stats();
  std::printf(
      "harmonyd: done. conns accepted=%llu closed=%llu | frames in=%llu "
      "out=%llu | submits=%llu receipts=%llu busy=%llu overloaded=%llu "
      "corrupt=%llu | admitted=%llu sealed_blocks=%llu height=%llu\n",
      static_cast<unsigned long long>(ns.accepted.load()),
      static_cast<unsigned long long>(ns.closed.load()),
      static_cast<unsigned long long>(ns.frames_in.load()),
      static_cast<unsigned long long>(ns.frames_out.load()),
      static_cast<unsigned long long>(ns.submits.load()),
      static_cast<unsigned long long>(ns.receipts.load()),
      static_cast<unsigned long long>(ns.busy_errors.load()),
      static_cast<unsigned long long>(ns.overloaded_closes.load()),
      static_cast<unsigned long long>(ns.corrupt_closes.load()),
      static_cast<unsigned long long>(is.admitted.load()),
      static_cast<unsigned long long>(is.sealed_blocks.load()),
      static_cast<unsigned long long>((*db)->height()));
  if (replicator != nullptr) {
    std::printf("harmonyd: repl watermark=%llu snapshots_sent=%llu\n",
                static_cast<unsigned long long>(
                    replicator->quorum_watermark()),
                static_cast<unsigned long long>(
                    replicator->snapshots_sent()));
  }
  if (follower != nullptr) {
    std::printf(
        "harmonyd: repl applied=%llu reconnects=%llu snapshots=%llu\n",
        static_cast<unsigned long long>(follower->last_applied()),
        static_cast<unsigned long long>(follower->reconnects()),
        static_cast<unsigned long long>(follower->snapshots_installed()));
  }
  PrintDigestLine(db->get());
  return 0;
}

/// Replicated-workload driver: `--conns` connections each submit an equal
/// share of `--txns` increment transactions with pre-assigned client_seqs,
/// so every receipt maps back to exactly one submission. Lost or duplicated
/// receipts — the exactly-once violation — exit non-zero.
int LoadCli(const Args& args) {
  const size_t conns = std::max<size_t>(1, args.conns);
  const uint64_t per_conn = std::max<uint64_t>(1, args.txns / conns);
  std::atomic<uint64_t> committed{0}, aborted{0}, dropped{0}, rejected{0};
  std::atomic<uint64_t> lost{0}, duplicated{0}, connect_failures{0};

  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      net::NetClientOptions co;
      co.host = args.host;
      co.port = args.port;
      co.batch_max_txns = 64;
      auto client = net::NetClient::Connect(co);
      if (!client.ok()) {
        connect_failures.fetch_add(1, std::memory_order_relaxed);
        lost.fetch_add(per_conn, std::memory_order_relaxed);
        return;
      }
      std::vector<std::atomic<uint8_t>> seen(per_conn);
      for (auto& s : seen) s.store(0, std::memory_order_relaxed);
      for (uint64_t i = 0; i < per_conn; i++) {
        TxnRequest req;
        req.proc_id = 2;  // increment(key, delta)
        req.client_seq = i + 1;
        req.args = {{static_cast<int64_t>((c * per_conn + i) % args.accounts),
                     1}};
        (*client)->Submit(std::move(req), [&, i](const TxnReceipt& r) {
          if (seen[i].fetch_add(1, std::memory_order_acq_rel) != 0) {
            duplicated.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          switch (r.outcome) {
            case ReceiptOutcome::kCommitted:
              committed.fetch_add(1, std::memory_order_relaxed);
              break;
            case ReceiptOutcome::kLogicAborted:
              aborted.fetch_add(1, std::memory_order_relaxed);
              break;
            case ReceiptOutcome::kDropped:
              dropped.fetch_add(1, std::memory_order_relaxed);
              break;
            case ReceiptOutcome::kRejected:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              break;
          }
        });
      }
      (void)(*client)->Sync(/*timeout_us=*/60'000'000);
      // Destroying the client resolves anything still pending as dropped;
      // after that every seq has exactly one receipt or is truly lost.
      client->reset();
      for (auto& s : seen) {
        if (s.load(std::memory_order_acquire) == 0) {
          lost.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto u = [](const std::atomic<uint64_t>& v) {
    return static_cast<unsigned long long>(v.load());
  };
  std::printf(
      "load: submitted=%llu committed=%llu logic_aborted=%llu dropped=%llu "
      "rejected=%llu lost=%llu duplicated=%llu connect_failures=%llu\n",
      static_cast<unsigned long long>(per_conn * conns), u(committed),
      u(aborted), u(dropped), u(rejected), u(lost), u(duplicated),
      u(connect_failures));
  if (lost.load() != 0 || duplicated.load() != 0) return 1;
  if (committed.load() == 0) return 1;
  return 0;
}

/// Runs `body` once — or, with --watch S, every S seconds until SIGINT.
/// A non-zero return (connection lost, decode failure) ends the loop.
int WatchLoop(const Args& args, const std::function<int()>& body) {
  if (args.watch_s == 0) return body();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  int rc = 0;
  while (!g_stop) {
    rc = body();
    if (rc != 0) break;
    for (uint64_t i = 0; i < args.watch_s * 10 && !g_stop; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return rc;
}

int MetricsCli(const Args& args) {
  net::NetClientOptions co;
  co.host = args.host;
  co.port = args.port;
  auto client = net::NetClient::Connect(co);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  return WatchLoop(args, [&]() -> int {
    auto metrics = (*client)->Metrics(/*timeout_us=*/5'000'000);
    if (!metrics.ok()) {
      std::fprintf(stderr, "metrics: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    const std::string out = args.prom   ? metrics->RenderProm()
                            : args.json ? metrics->RenderJson()
                                        : metrics->RenderTable();
    std::fwrite(out.data(), 1, out.size(), stdout);
    if (args.json) std::fputc('\n', stdout);
    std::fflush(stdout);
    return 0;
  });
}

const char* RoleName(uint8_t role) {
  switch (role) {
    case net::WireHealth::kLeader:
      return "leader";
    case net::WireHealth::kFollower:
      return "follower";
    default:
      return "standalone";
  }
}

int HealthCli(const Args& args) {
  net::NetClientOptions co;
  co.host = args.host;
  co.port = args.port;
  auto client = net::NetClient::Connect(co);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  return WatchLoop(args, [&]() -> int {
    auto h = (*client)->Health(/*timeout_us=*/5'000'000);
    if (!h.ok()) {
      std::fprintf(stderr, "health: %s\n", h.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "node=%s role=%s height=%llu durable_tip=%llu peers=%u "
        "leader=%s uptime=%.1fs\n",
        h->node.empty() ? "-" : h->node.c_str(), RoleName(h->role),
        static_cast<unsigned long long>(h->height),
        static_cast<unsigned long long>(h->durable_tip), h->peer_count,
        h->leader_addr.empty() ? "-" : h->leader_addr.c_str(),
        static_cast<double>(h->uptime_us) / 1e6);
    std::fflush(stdout);
    return 0;
  });
}

int EventsCli(const Args& args) {
  net::NetClientOptions co;
  co.host = args.host;
  co.port = args.port;
  auto client = net::NetClient::Connect(co);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  uint64_t cursor = 0;
  auto fetch_and_print = [&]() -> int {
    auto batch = (*client)->Events(cursor, /*timeout_us=*/5'000'000);
    if (!batch.ok()) {
      std::fprintf(stderr, "events: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
    cursor = batch->next_cursor;
    if (!batch->events.empty() || !args.follow) {
      const std::string out = args.json
                                  ? obs::RenderEventsJson(batch->events)
                                  : obs::RenderEventsText(batch->events);
      std::fwrite(out.data(), 1, out.size(), stdout);
      if (args.json) std::fputc('\n', stdout);
      std::fflush(stdout);
    }
    return 0;
  };
  if (!args.follow) return fetch_and_print();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    if (int rc = fetch_and_print(); rc != 0) return rc;
    for (int i = 0; i < 5 && !g_stop; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}

/// One-shot cluster scraper: fans HEALTH + METRICS + EVENTS out to every
/// --nodes address and prints one table plus a machine-checkable summary
/// line (tools/cluster_smoke.sh greps consistent=/error_events=).
int ClusterStatusCli(const Args& args) {
  if (args.nodes.empty()) return Usage();
  std::vector<std::string> addrs;
  {
    std::string rest = args.nodes;
    size_t pos;
    while ((pos = rest.find(',')) != std::string::npos) {
      if (pos > 0) addrs.push_back(rest.substr(0, pos));
      rest.erase(0, pos + 1);
    }
    if (!rest.empty()) addrs.push_back(rest);
  }
  struct Row {
    std::string addr;
    bool reachable = false;
    net::WireHealth health;
    uint64_t error_events = 0;
    std::string peer_lags;  ///< leader: "node:lag node:lag" from METRICS
  };
  std::vector<Row> rows;
  uint64_t total_errors = 0;
  bool all_reachable = true;
  for (const std::string& addr : addrs) {
    Row row;
    row.addr = addr;
    std::string host;
    uint16_t port = 0;
    if (!SplitHostPort(addr, &host, &port)) {
      std::fprintf(stderr, "cluster-status: bad node address %s\n",
                   addr.c_str());
      return 2;
    }
    net::NetClientOptions co;
    co.host = host;
    co.port = port;
    auto client = net::NetClient::Connect(co);
    if (client.ok()) {
      auto h = (*client)->Health(/*timeout_us=*/5'000'000);
      auto ev = (*client)->Events(0, /*timeout_us=*/5'000'000);
      if (h.ok() && ev.ok()) {
        row.reachable = true;
        row.health = *h;
        for (const obs::EventRecord& e : ev->events) {
          if (e.severity ==
              static_cast<uint8_t>(obs::EventSeverity::kError)) {
            row.error_events++;
          }
        }
        // Leader: pull the per-peer lag gauges so one scrape answers "is
        // anyone behind" without dialing every follower.
        if (h->role == net::WireHealth::kLeader) {
          if (auto m = (*client)->Metrics(/*timeout_us=*/5'000'000);
              m.ok()) {
            const std::string prefix = std::string(obs::kGaugePeerLagBlocks) + ".";
            for (const auto& g : m->gauges) {
              if (g.name.size() > prefix.size() &&
                  g.name.compare(0, prefix.size(), prefix) == 0) {
                if (!row.peer_lags.empty()) row.peer_lags += " ";
                row.peer_lags += g.name.substr(prefix.size()) + ":" +
                                 std::to_string(g.value);
              }
            }
          }
        }
      }
    }
    if (!row.reachable) all_reachable = false;
    total_errors += row.error_events;
    rows.push_back(std::move(row));
  }

  std::printf("%-22s %-18s %-11s %9s %9s %6s %8s %7s  %s\n", "addr", "node",
              "role", "height", "tip", "peers", "uptime", "errors",
              "peer lag (blocks)");
  bool consistent = all_reachable;
  uint64_t first_height = 0;
  bool have_height = false;
  for (const Row& r : rows) {
    if (!r.reachable) {
      std::printf("%-22s %-18s %-11s\n", r.addr.c_str(), "-", "unreachable");
      continue;
    }
    if (!have_height) {
      first_height = r.health.height;
      have_height = true;
    } else if (r.health.height != first_height) {
      consistent = false;
    }
    char uptime[32];
    std::snprintf(uptime, sizeof(uptime), "%.1fs",
                  static_cast<double>(r.health.uptime_us) / 1e6);
    std::printf("%-22s %-18s %-11s %9llu %9llu %6u %8s %7llu  %s\n",
                r.addr.c_str(),
                r.health.node.empty() ? "-" : r.health.node.c_str(),
                RoleName(r.health.role),
                static_cast<unsigned long long>(r.health.height),
                static_cast<unsigned long long>(r.health.durable_tip),
                r.health.peer_count, uptime,
                static_cast<unsigned long long>(r.error_events),
                r.peer_lags.empty() ? "-" : r.peer_lags.c_str());
  }
  std::printf("cluster-status: nodes=%zu reachable=%zu consistent=%s "
              "error_events=%llu\n",
              rows.size(),
              static_cast<size_t>(std::count_if(
                  rows.begin(), rows.end(),
                  [](const Row& r) { return r.reachable; })),
              consistent ? "yes" : "no",
              static_cast<unsigned long long>(total_errors));
  return all_reachable && consistent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return Usage();
  if (args.mode == "serve") return Serve(args);
  if (args.mode == "load") return LoadCli(args);
  if (args.mode == "metrics") return MetricsCli(args);
  if (args.mode == "health") return HealthCli(args);
  if (args.mode == "events") return EventsCli(args);
  if (args.mode == "cluster-status") return ClusterStatusCli(args);
  return Usage();
}
