#include "bench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "core/harmonybc.h"

namespace harmony {
namespace bench {

namespace {

/// Mirror of the printed tables, flushed as JSON at exit when a path was
/// set (SetJsonOut / HARMONY_BENCH_JSON). Tables are recorded whether or
/// not a path is set yet, so a --json-out parsed after the first header
/// still captures everything.
struct JsonTable {
  std::string title;
  std::vector<std::string> cols;
  std::vector<std::vector<std::string>> rows;
};

struct JsonRecorder {
  std::mutex mu;
  std::string path;
  bool atexit_armed = false;
  std::vector<JsonTable> tables;
};

JsonRecorder& Recorder() {
  static JsonRecorder* r = new JsonRecorder();  // never destroyed: atexit use
  return *r;
}

void FlushJson() {
  JsonRecorder& r = Recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.path.empty()) return;
  std::string out = "{\"schema\":1,\"scale\":" + Fmt(Scale(), 3);
  out += ",\"tables\":[";
  for (size_t t = 0; t < r.tables.size(); t++) {
    const JsonTable& tab = r.tables[t];
    if (t > 0) out += ",";
    out += "{\"title\":\"" + obs::JsonEscape(tab.title) + "\",\"cols\":[";
    for (size_t c = 0; c < tab.cols.size(); c++) {
      if (c > 0) out += ",";
      out += "\"" + obs::JsonEscape(tab.cols[c]) + "\"";
    }
    out += "],\"rows\":[";
    for (size_t i = 0; i < tab.rows.size(); i++) {
      if (i > 0) out += ",";
      out += "[";
      for (size_t c = 0; c < tab.rows[i].size(); c++) {
        if (c > 0) out += ",";
        out += "\"" + obs::JsonEscape(tab.rows[i][c]) + "\"";
      }
      out += "]";
    }
    out += "]}";
  }
  out += "]}\n";
  if (FILE* f = std::fopen(r.path.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench: cannot write %s\n", r.path.c_str());
  }
}

void MaybeAdoptEnvJsonPath() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* p = std::getenv("HARMONY_BENCH_JSON");
        p != nullptr && *p != '\0') {
      SetJsonOut(p);
    }
  });
}

}  // namespace

double Scale() {
  const char* s = std::getenv("HARMONY_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

size_t ScaledTxns(size_t base) {
  const size_t n = static_cast<size_t>(static_cast<double>(base) * Scale());
  return n < 100 ? 100 : n;
}

SystemSpec HarmonySpec() { return {"HarmonyBC", DccKind::kHarmony, {}, false}; }
SystemSpec AriaSpec() { return {"AriaBC", DccKind::kAria, {}, false}; }
SystemSpec RbcSpec() { return {"RBC", DccKind::kRbc, {}, false}; }
SystemSpec FabricSpec() { return {"Fabric", DccKind::kFabric, {}, true}; }
SystemSpec FastFabricSpec() {
  return {"FastFabric#", DccKind::kFastFabric, {}, true};
}

std::vector<SystemSpec> AllSystems() {
  return {FabricSpec(), FastFabricSpec(), RbcSpec(), AriaSpec(),
          HarmonySpec()};
}

std::vector<SystemSpec> RelationalSystems() {
  return {RbcSpec(), AriaSpec(), HarmonySpec()};
}

namespace {

/// Replicas the network model charges for (the paper's default cluster).
constexpr uint32_t kReplicas = 4;

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Closed-loop bookkeeping: the driver waits on `cv` for a free window slot;
/// receipts (replica commit thread) free slots and tally outcomes.
struct ClosedLoop {
  std::mutex mu;
  std::condition_variable cv;
  size_t inflight = 0;
  std::vector<uint8_t> receipts;  ///< per client_seq (1-based) receipt count
  uint64_t duplicates = 0;
  uint64_t committed = 0, logic_aborted = 0, dropped = 0, rejected = 0;
};

}  // namespace

Result<RunReport> RunPoint(
    const BenchParams& params,
    const std::function<std::unique_ptr<Workload>()>& make_workload) {
  static int run_counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("harmony-bench-" + std::to_string(::getpid()) + "-" +
        std::to_string(run_counter++)))
          .string();
  std::filesystem::create_directories(dir);
  struct RemoveDir {
    const std::string& dir;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_dir{dir};

  std::unique_ptr<Workload> workload = make_workload();

  HarmonyBC::Options o;
  o.dir = dir;
  o.protocol = params.system.kind;
  o.dcc = params.system.cfg;
  o.dcc.enable_false_abort_oracle = params.false_abort_oracle;
  o.disk = params.disk;
  o.in_memory = params.in_memory;
  o.pool_pages = params.pool_pages;
  o.threads = params.threads;
  o.checkpoint_every = params.checkpoint_every;
  o.block_size = params.block_size;
  o.max_txn_retries = 20;
  // Seals the retry tail and the last partial block; a full window always
  // fills a block first.
  o.max_block_delay_us = 1000;
  auto opened = HarmonyBC::Open(o);
  HARMONY_RETURN_NOT_OK(opened.status());
  std::unique_ptr<HarmonyBC> db = std::move(*opened);
  HARMONY_RETURN_NOT_OK(workload->Setup(*db->replica()));
  // Flush the load so the run starts from a checkpointed, disk-resident
  // state (the measured phase pays real buffer-pool misses).
  HARMONY_RETURN_NOT_OK(db->replica()->Checkpoint());

  // Closed loop of two blocks: one block executes while the next fills. A
  // one-block window starves the pipeline; a wider one only adds queueing.
  const size_t window = 2 * params.block_size;
  ClosedLoop loop;
  loop.receipts.assign(params.total_txns + 1, 0);
  obs::LatencyHistogram latency_us;
  auto on_receipt = [&](const TxnReceipt& r) {
    std::lock_guard<std::mutex> lk(loop.mu);
    if (r.client_seq == 0 || r.client_seq > params.total_txns ||
        loop.receipts[r.client_seq]++ != 0) {
      loop.duplicates++;
      return;
    }
    switch (r.outcome) {
      case ReceiptOutcome::kCommitted:
        loop.committed++;
        latency_us.Record(r.latency_us);
        break;
      case ReceiptOutcome::kLogicAborted: loop.logic_aborted++; break;
      case ReceiptOutcome::kDropped: loop.dropped++; break;
      case ReceiptOutcome::kRejected: loop.rejected++; break;
    }
    loop.inflight--;
    loop.cv.notify_one();
  };

  std::unique_ptr<Session> session = db->OpenSession();
  const double cpu_before = ProcessCpuSeconds();
  Timer wall;
  bool settled = false;
  {
    std::unique_lock<std::mutex> lk(loop.mu);
    for (size_t sent = 0; sent < params.total_txns; sent++) {
      loop.cv.wait(lk, [&] { return loop.inflight < window; });
      loop.inflight++;
      lk.unlock();
      // A synchronous rejection runs on_receipt on this thread.
      session->Submit(workload->Next(), on_receipt);
      lk.lock();
    }
    settled = loop.cv.wait_for(lk, std::chrono::minutes(10),
                               [&] { return loop.inflight == 0; });
  }
  const double wall_s = wall.ElapsedSeconds();
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  const obs::MetricsSnapshot snap = db->CollectMetrics();
  // Stops the sealer and the commit thread: no receipt callback runs after
  // this, so the locals it captures may go.
  session.reset();
  db.reset();

  if (!settled) return Status::Busy("receipts still pending after 10 min");
  if (loop.duplicates != 0 ||
      loop.committed + loop.logic_aborted + loop.dropped + loop.rejected !=
          params.total_txns) {
    return Status::Corruption(
        "receipt ledger: " + std::to_string(loop.duplicates) +
        " duplicate, " +
        std::to_string(params.total_txns - loop.committed -
                       loop.logic_aborted - loop.dropped - loop.rejected) +
        " missing");
  }

  RunReport rep;
  rep.exec_tps = wall_s > 0 ? static_cast<double>(loop.committed) / wall_s : 0;
  auto counter = [&snap](const char* name) -> double {
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0;
  };
  const double simulated = counter(obs::kCounterDccSimulated);
  if (simulated > 0) {
    rep.abort_rate = counter(obs::kCounterDccCcAborted) / simulated;
    rep.false_abort_rate = counter(obs::kCounterDccFalseAborts) / simulated;
    rep.dangerous_hit_rate = counter(obs::kCounterDccDangerousHits) / simulated;
    rep.repaired_rate = counter(obs::kCounterDccRepaired) / simulated;
  }
  rep.mean_latency_ms = latency_us.Snap().Mean() / 1e3;
  // CPU utilization relative to the cores actually available: simulated I/O
  // sleeps release the CPU, so idle gaps show up here exactly as they would
  // in the paper's CPU-utilization row (Figure 20).
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  rep.cpu_util = wall_s > 0 ? std::min(1.0, cpu_s / (wall_s * cores)) : 0;

  NetworkModel net;
  net.nodes = kReplicas;
  net.bandwidth_gbps = params.bandwidth_gbps;
  const ConsensusProfile profile = KafkaOrderer("s", net).Profile(
      params.block_size, workload->avg_txn_bytes());
  rep.consensus_cap_tps = profile.max_txns_per_sec;
  rep.consensus_latency_ms =
      static_cast<double>(profile.block_latency_us) / 1e3;
  if (params.system.sov) {
    // SOV ships signed read-write sets: client -> orderer -> every replica.
    const double per_txn_us = static_cast<double>(
        net.TransferUs(workload->avg_rwset_bytes() * kReplicas));
    rep.sov_cap_tps = per_txn_us > 0 ? 1e6 / per_txn_us : 0;
    // Extra endorsement round trip (client -> endorser -> client).
    rep.consensus_latency_ms +=
        2.0 * static_cast<double>(net.lan_one_way_us) / 1e3;
  }
  return rep;
}

namespace {
// Cells pad to 14 columns; a cell that is already that wide (long stage
// names) still gets a two-space separator instead of running into the
// next column.
void PrintCell(const std::string& c) {
  if (c.size() >= 14) {
    std::printf("%s  ", c.c_str());
  } else {
    std::printf("%-14s", c.c_str());
  }
}
}  // namespace

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& cols) {
  MaybeAdoptEnvJsonPath();
  {
    JsonRecorder& r = Recorder();
    std::lock_guard<std::mutex> lk(r.mu);
    r.tables.push_back({title, cols, {}});
  }
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : cols) PrintCell(c);
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); i++) std::printf("%-14s", "------------");
  std::printf("\n");
  std::fflush(stdout);
}

void PrintRow(const std::vector<std::string>& cells) {
  {
    JsonRecorder& r = Recorder();
    std::lock_guard<std::mutex> lk(r.mu);
    if (!r.tables.empty()) r.tables.back().rows.push_back(cells);
  }
  for (const auto& c : cells) PrintCell(c);
  std::printf("\n");
  std::fflush(stdout);
}

void SetJsonOut(const std::string& path) {
  JsonRecorder& r = Recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  r.path = path;
  if (!r.atexit_armed) {
    r.atexit_armed = true;
    std::atexit(FlushJson);
  }
}

void PrintStageTable(const obs::MetricsSnapshot& snap) {
  PrintHeader("per-stage latency (us)",
              {"stage", "count", "p50", "p99", "max"});
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    PrintRow({h.name, std::to_string(h.count), Fmt(h.Percentile(50), 0),
              Fmt(h.Percentile(99), 0), std::to_string(h.max)});
  }
}

std::string Fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

}  // namespace bench
}  // namespace harmony
