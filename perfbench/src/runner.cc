#include "runner.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/sha256.h"
#include "core/harmonybc.h"
#include "net/client.h"
#include "net/server.h"
#include "report.h"
#include "storage/page.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using harmony::HarmonyBC;
using harmony::NowMicros;
using harmony::ReceiptCallback;
using harmony::ReceiptOutcome;
using harmony::Status;
using harmony::TxnReceipt;
using harmony::TxnRequest;
using harmony::Workload;

// ---- workloads --------------------------------------------------------------

/// Status text of the placeholder procedure body (see AdoptProcedures).
constexpr char kPlaceholderTag[] = "perfbench placeholder procedure";

struct Spec {
  std::string name;
  /// "modelled SSD" (DiskModel::Ssd, injected sleeps) or "real files"
  /// (DiskModel::RamDisk: real pread/pwrite, no injected latency).
  std::string storage;
  bool wire = false;          ///< NetServer + NetClient on loopback
  size_t window = 0;          ///< closed loop: fixed in-flight window
  double rate_tps = 0;        ///< open loop: fixed offered rate
  HarmonyBC::Options options;  ///< dir and tracing are set per instance
  /// The workload's public procedure-id constants.
  std::vector<uint32_t> procs;
  /// The generating workload (its Setup also loads genesis).
  std::function<std::unique_ptr<Workload>(uint64_t seed)> make;
  /// The same workload with no rows: its Setup registers the procedure
  /// bodies and loads nothing (reopening a chain that already has state).
  /// Its generator is never used; a Zipf generator over zero keys trips an
  /// assert, so this needs the NDEBUG (Release) build run.py makes.
  std::function<std::unique_ptr<Workload>()> make_registration;
};

Spec SmallbankHot() {
  using harmony::SmallbankWorkload;
  Spec s;
  s.name = "smallbank-hot";
  s.storage = "modelled SSD";
  s.window = 200;  // 8 blocks of 25
  s.options.disk = harmony::DiskModel::Ssd();
  // 512 KiB: the Zipf hot set fits, the ~650-page tables do not.
  s.options.pool_pages = 128;
  // Every transaction retries until it commits, so starvation under this
  // skew shows as receipt latency and ingest.retries_max, not as drops
  // (with the default of 50, about 0.7% of transactions were dropped).
  s.options.max_txn_retries = 1000;
  s.options.threads = 8;
  s.options.block_size = 25;
  s.options.checkpoint_every = 10;
  s.options.max_block_delay_us = 2000;
  s.procs = {SmallbankWorkload::kProcAmalgamate, SmallbankWorkload::kProcBalance,
             SmallbankWorkload::kProcDepositChecking,
             SmallbankWorkload::kProcSendPayment,
             SmallbankWorkload::kProcTransactSavings,
             SmallbankWorkload::kProcWriteCheck};
  s.make = [](uint64_t seed) -> std::unique_ptr<Workload> {
    harmony::SmallbankConfig c;
    c.num_accounts = 10000;
    c.skew = 1.0;
    c.seed = seed;
    return std::make_unique<SmallbankWorkload>(c);
  };
  s.make_registration = []() -> std::unique_ptr<Workload> {
    harmony::SmallbankConfig c;
    c.num_accounts = 0;
    c.skew = 0;  // uniform: no Zipf constants to compute
    return std::make_unique<SmallbankWorkload>(c);
  };
  return s;
}

Spec YcsbCold() {
  using harmony::YcsbWorkload;
  Spec s;
  s.name = "ycsb-cold";
  s.storage = "modelled SSD";
  s.window = 200;
  s.options.disk = harmony::DiskModel::Ssd();
  s.options.pool_pages = 1024;  // 4 MiB against a table of ~30k pages
  s.options.threads = 8;
  s.options.block_size = 25;
  s.options.checkpoint_every = 10;
  s.options.max_block_delay_us = 2000;
  s.procs = {YcsbWorkload::kProcTxn};
  s.make = [](uint64_t seed) -> std::unique_ptr<Workload> {
    harmony::YcsbConfig c;
    c.num_keys = 1'000'000;
    c.ops_per_txn = 10;
    c.skew = 0;  // uniform
    c.seed = seed;
    return std::make_unique<YcsbWorkload>(c);
  };
  s.make_registration = []() -> std::unique_ptr<Workload> {
    harmony::YcsbConfig c;
    c.num_keys = 0;
    c.skew = 0;
    return std::make_unique<YcsbWorkload>(c);
  };
  return s;
}

Spec TpccWire() {
  using harmony::TpccWorkload;
  Spec s;
  s.name = "tpcc-wire";
  s.storage = "real files";
  s.wire = true;
  // About half the capacity: 3000 txn/s kept up, 3500 did not.
  s.rate_tps = 1500;
  // `harmonyd serve` settings.
  s.options.disk = harmony::DiskModel::RamDisk();
  s.options.threads = 8;
  s.options.block_size = 100;
  s.options.max_block_delay_us = 2000;
  s.options.checkpoint_every = 50;
  s.procs = {TpccWorkload::kProcNewOrder, TpccWorkload::kProcPayment,
             TpccWorkload::kProcOrderStatus, TpccWorkload::kProcDelivery,
             TpccWorkload::kProcStockLevel};
  s.make = [](uint64_t seed) -> std::unique_ptr<Workload> {
    harmony::TpccConfig c;
    c.warehouses = 20;
    c.seed = seed;
    return std::make_unique<TpccWorkload>(c);
  };
  s.make_registration = []() -> std::unique_ptr<Workload> {
    harmony::TpccConfig c;
    c.warehouses = 0;
    c.items = 0;
    return std::make_unique<TpccWorkload>(c);
  };
  return s;
}

std::vector<Spec> AllSpecs() { return {SmallbankHot(), YcsbCold(), TpccWire()}; }

// ---- spans ------------------------------------------------------------------

/// The benchmark's own spans around its calls into the library, kept in
/// memory and written out when the run ends. Spans of one transaction share
/// its client_seq as `req`.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t req = 0;     ///< 0 = not tied to one transaction
  uint64_t start_us = 0;
  uint64_t end_us = 0;
};

class SpanLog {
 public:
  uint64_t Add(std::string name, uint64_t parent, uint64_t req,
               uint64_t start_us, uint64_t end_us) {
    spans_.push_back(Span{std::move(name), spans_.size() + 1, parent, req,
                          start_us, end_us});
    return spans_.size();
  }
  /// Span ids are assigned in order, so a parent can be opened before its
  /// children and closed after them.
  uint64_t Open(std::string name, uint64_t parent, uint64_t start_us) {
    return Add(std::move(name), parent, 0, start_us, start_us);
  }
  void Close(uint64_t id, uint64_t end_us) { spans_[id - 1].end_us = end_us; }

  Status Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + path);
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << harmony::obs::JsonEscape(s.name)
          << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"req\": " << s.req << ", \"start_us\": " << s.start_us
          << ", \"end_us\": " << s.end_us << "}\n";
    }
    out.flush();
    return out ? Status::OK() : Status::IOError("short write to " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a span; returns the duration in seconds.
template <typename Fn>
double Timed(SpanLog* log, const char* name, uint64_t parent, Fn&& fn) {
  const uint64_t start = NowMicros();
  fn();
  const uint64_t end = NowMicros();
  log->Add(name, parent, 0, start, end);
  return static_cast<double>(end - start) / 1e6;
}

// ---- receipt ledger ---------------------------------------------------------

/// One submitted transaction. The generator fills the first block before
/// and after its Submit call; the receipt callback fills the rest.
struct TxnRecord {
  uint64_t seq = 0;            ///< client_seq it was submitted with
  uint64_t due_us = 0;         ///< open loop: schedule slot; closed: slot freed
  uint64_t call_begin_us = 0;  ///< Submit called
  uint64_t call_end_us = 0;    ///< Submit returned

  uint64_t receipt_us = 0;
  ReceiptOutcome outcome = ReceiptOutcome::kRejected;
  uint32_t retries = 0;
  bool wrong_seq = false;      ///< the receipt named another client_seq
  bool placeholder = false;    ///< the receipt carries the placeholder status
  std::atomic<uint32_t> resolutions{0};
};

// ---- counters read at the window edges --------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t ProcessCpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host CPU ticks from /proc/stat: all of them, and "steal" (time the
/// hypervisor ran other guests while this one was runnable) — the noise
/// a shared machine adds. Zeros when unreadable.
void ReadHostTicks(CounterSet* c) {
  std::ifstream f("/proc/stat");
  std::string label;
  uint64_t v[8] = {};
  f >> label;
  uint64_t total = 0;
  for (uint64_t& x : v) {
    if (!(f >> x)) x = 0;
    total += x;
  }
  (*c)["host.ticks"] = total;
  (*c)["host.steal_ticks"] = v[7];
}

CounterSet ReadCounters(HarmonyBC* db, const harmony::net::NetServer* server) {
  CounterSet c;
  const harmony::ProtocolStats& p = db->stats();
  c["dcc.blocks"] = p.blocks.load();
  c["dcc.simulated"] = p.simulated.load();
  c["dcc.cc_aborted"] = p.cc_aborted.load();
  c["dcc.logic_aborted"] = p.logic_aborted.load();
  c["dcc.dangerous_hits"] = p.dangerous_hits.load();
  c["dcc.sim_micros"] = p.sim_micros.load();
  c["dcc.commit_micros"] = p.commit_micros.load();
  const harmony::IngestStats& i = db->ingest_stats();
  c["ingest.backpressured"] = i.backpressured.load();
  c["ingest.retries_enqueued"] = i.retries_enqueued.load();
  c["ingest.sealed_blocks"] = i.sealed_blocks.load();
  c["ingest.sealed_txns"] = i.sealed_txns.load();
  c["ingest.deadline_seals"] = i.deadline_seals.load();
  harmony::StateBackend* backend = db->replica()->backend();
  const harmony::BufferPoolStats pool = backend->pool_stats();
  c["storage.hits"] = pool.hits;
  c["storage.misses"] = pool.misses;
  c["storage.dirty_evictions"] = pool.dirty_evictions;
  c["storage.flushed_pages"] = pool.flushed_pages;
  c["storage.flushes"] = pool.flushes;
  c["storage.page_reads"] = backend->page_reads();
  c["storage.page_writes"] = backend->page_writes();
  harmony::BlockStore* log = db->replica()->block_store();
  c["chain.raw_bytes"] = log->appended_raw_bytes();
  c["chain.disk_bytes"] = log->appended_disk_bytes();
  const harmony::net::NetServerStats* ns =
      server != nullptr ? &server->stats() : nullptr;
  c["net.frames_in"] = ns != nullptr ? ns->frames_in.load() : 0;
  c["net.frames_out"] = ns != nullptr ? ns->frames_out.load() : 0;
  c["net.busy_errors"] = ns != nullptr ? ns->busy_errors.load() : 0;
  ReadHostTicks(&c);
  c["process.cpu_us"] = ProcessCpuMicros();
  c["process.wall_us"] = NowMicros();
  return c;
}

// ---- one instance of the system under test ----------------------------------

struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() { Close(); }

  std::unique_ptr<HarmonyBC> db;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<harmony::net::NetServer> server;
  std::unique_ptr<harmony::net::NetClient> client;
  std::unique_ptr<harmony::Session> session;

  /// Client first, then the server (which drains in-flight receipts), then
  /// the database.
  void Close() {
    client.reset();
    if (server != nullptr) server->Stop();
    server.reset();
    session.reset();
    db.reset();
  }
};

/// HarmonyBC admission only accepts procedure ids registered on the facade,
/// but Workload::Setup registers its bodies on the Replica alone. So each
/// public proc id is first registered on the facade with a placeholder body
/// that counts its runs and fails, and Setup then replaces the replica-side
/// bodies with the real ones. A facade API for adopting a workload's
/// procedures should replace this shim.
Status AdoptProcedures(HarmonyBC* db, const Spec& spec, Workload* workload,
                       std::atomic<uint64_t>* placeholder_runs) {
  for (uint32_t id : spec.procs) {
    db->RegisterProcedure(
        id, "placeholder",
        [placeholder_runs](harmony::TxnContext&, const harmony::ProcArgs&) {
          placeholder_runs->fetch_add(1, std::memory_order_relaxed);
          return Status::NotSupported(kPlaceholderTag);
        });
  }
  return workload->Setup(*db->replica());
}

HarmonyBC::Options InstanceOptions(const Spec& spec, const std::string& dir,
                                   bool tracing) {
  HarmonyBC::Options o = spec.options;
  o.dir = dir;
  o.enable_tracing = tracing;
  return o;
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return ec ? Status::IOError("mkdir " + dir + ": " + ec.message())
            : Status::OK();
}

struct SetupTimes {
  double open_s = 0;
  double load_s = 0;        ///< procedure adoption + genesis rows
  double checkpoint_s = 0;  ///< genesis checkpoint
  double recover_s = 0;
  double total_s = 0;
};

/// Open, genesis load, genesis checkpoint, Recover: the set-up a user pays
/// before the first transaction. Starts the wire frontend for wire
/// workloads (not timed).
Status SetUp(const Spec& spec, uint64_t seed, const std::string& dir,
             bool tracing, std::atomic<uint64_t>* placeholder_runs,
             SpanLog* spans, Instance* inst, SetupTimes* t) {
  HARMONY_RETURN_NOT_OK(ResetDir(dir));
  Status st;
  const uint64_t root = spans->Open("setup", 0, NowMicros());
  t->open_s = Timed(spans, "HarmonyBC::Open", root, [&] {
    auto db = HarmonyBC::Open(InstanceOptions(spec, dir, tracing));
    if (db.ok()) {
      inst->db = std::move(*db);
    } else {
      st = db.status();
    }
  });
  HARMONY_RETURN_NOT_OK(st);
  inst->workload = spec.make(seed);
  t->load_s = Timed(spans, "Workload::Setup", root, [&] {
    st = AdoptProcedures(inst->db.get(), spec, inst->workload.get(),
                         placeholder_runs);
  });
  HARMONY_RETURN_NOT_OK(st);
  t->checkpoint_s = Timed(spans, "Replica::Checkpoint", root, [&] {
    st = inst->db->replica()->Checkpoint();
  });
  HARMONY_RETURN_NOT_OK(st);
  t->recover_s = Timed(spans, "HarmonyBC::Recover", root, [&] {
    st = inst->db->Recover().status();
  });
  HARMONY_RETURN_NOT_OK(st);
  spans->Close(root, NowMicros());
  t->total_s = t->open_s + t->load_s + t->checkpoint_s + t->recover_s;

  if (spec.wire) {
    inst->server = std::make_unique<harmony::net::NetServer>(
        inst->db.get(), harmony::net::NetServerOptions{});
    HARMONY_RETURN_NOT_OK(inst->server->Start());
    harmony::net::NetClientOptions co;
    co.port = inst->server->port();
    co.batch_max_txns = 16;
    co.batch_max_delay_us = 200;
    auto client = harmony::net::NetClient::Connect(co);
    HARMONY_RETURN_NOT_OK(client.status());
    inst->client = std::move(*client);
  } else {
    inst->session = inst->db->OpenSession();
  }
  return Status::OK();
}

// ---- load generator ---------------------------------------------------------

/// Threads the load generator runs on, counting the client library's own:
/// the calling thread, plus NetClient's reader and flusher on the wire.
size_t GeneratorThreads(const Spec& spec) { return spec.wire ? 3 : 1; }

/// Drives one instance from the calling thread: closed loop with a fixed
/// in-flight window, or open loop at a fixed rate. Receipts arrive on the
/// replica's commit thread (in-process) or NetClient's reader (wire).
class Generator {
 public:
  using SubmitFn = std::function<void(TxnRequest, ReceiptCallback)>;

  Generator(const Spec& spec, Workload* workload, SubmitFn submit)
      : spec_(spec), workload_(workload), submit_(std::move(submit)) {}
  // Receipt callbacks hold its address.
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Submits from `start_us` until the last of `edges_us` (ascending);
  /// calls `at_edge(i)` once the clock passes edges_us[i]. The edges cut
  /// the measured window into slices.
  void Run(uint64_t start_us, const std::vector<uint64_t>& edges_us,
           const std::function<void(size_t)>& at_edge) {
    // The pacer's sleeps are part of what bench.late_p99_ms measures; the
    // default 50 us timer slack would dominate them.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    Pacer pacer(start_us, spec_.rate_tps > 0 ? spec_.rate_tps : 1);
    size_t edge = 0;
    std::unique_lock<std::mutex> lk(mu_);
    if (spec_.window > 0) free_at_.assign(spec_.window, start_us);
    while (edge < edges_us.size()) {
      const uint64_t now = NowMicros();
      if (now >= edges_us[edge]) {
        lk.unlock();
        at_edge(edge++);
        lk.lock();
        continue;
      }
      uint64_t due = 0;
      if (spec_.window > 0) {
        if (free_at_.empty()) {
          cv_.wait_until(lk, SteadyAt(edges_us[edge]));
          continue;
        }
        due = free_at_.front();
        free_at_.pop_front();
      } else {
        const uint64_t next_due = pacer.NextDue();
        if (now < next_due) {
          lk.unlock();
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::min(next_due, edges_us[edge]) - now));
          lk.lock();
          continue;
        }
        due = pacer.Sent(now).due_us;
      }
      outstanding_++;
      lk.unlock();
      Submit(due);
      lk.lock();
    }
  }

  /// Waits until every submitted transaction has its receipt; false on
  /// timeout.
  bool WaitSettled(uint64_t timeout_us) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_until(lk, SteadyAt(NowMicros() + timeout_us),
                          [this] { return outstanding_ == 0; });
  }

  const std::deque<TxnRecord>& ledger() const { return ledger_; }
  uint64_t outstanding() {
    std::lock_guard<std::mutex> lk(mu_);
    return outstanding_;
  }

 private:
  static std::chrono::steady_clock::time_point SteadyAt(uint64_t us) {
    return std::chrono::steady_clock::time_point(
        std::chrono::microseconds(us));
  }

  void Submit(uint64_t due_us) {
    TxnRequest req = workload_->Next();
    ledger_.emplace_back();
    TxnRecord* rec = &ledger_.back();
    rec->seq = req.client_seq;
    rec->due_us = due_us;
    rec->call_begin_us = NowMicros();
    submit_(std::move(req),
            [this, rec](const TxnReceipt& r) { OnReceipt(rec, r); });
    rec->call_end_us = NowMicros();
  }

  void OnReceipt(TxnRecord* rec, const TxnReceipt& r) {
    const uint64_t now = NowMicros();
    if (rec->resolutions.fetch_add(1, std::memory_order_acq_rel) != 0) {
      return;  // a second receipt: the gate reports it from `resolutions`
    }
    rec->receipt_us = now;
    rec->outcome = r.outcome;
    rec->retries = r.retries;
    rec->wrong_seq = r.client_seq != rec->seq;
    rec->placeholder = !r.status.ok() &&
                       r.status.message().find(kPlaceholderTag) !=
                           std::string::npos;
    {
      std::lock_guard<std::mutex> lk(mu_);
      outstanding_--;
      if (spec_.window > 0) free_at_.push_back(now);
    }
    cv_.notify_all();
  }

  const Spec& spec_;
  Workload* workload_;
  SubmitFn submit_;
  /// Appended only by the generating thread; deque keeps each record's
  /// address stable for the callbacks that hold it.
  std::deque<TxnRecord> ledger_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t outstanding_ = 0;
  std::deque<uint64_t> free_at_;  ///< closed loop: when each free slot freed
};

// ---- one measured instance --------------------------------------------------

struct Measurement {
  SetupTimes setup;                  ///< of the measured instance
  std::vector<double> setup_totals;  ///< every set-up in this run
  /// Counters read at each slice edge of the window: front() at its start,
  /// back() at its end.
  std::vector<CounterSet> edges;
  harmony::obs::MetricsSnapshot metrics_before, metrics_after;
  double window_s = 0;

  // Ledger audit (whole run).
  uint64_t attempted = 0, committed = 0, logic_aborted = 0, dropped = 0,
           rejected = 0, lost = 0, duplicated = 0, wrong_seq = 0,
           placeholder_receipts = 0;
  uint64_t placeholder_runs = 0;
  // Window figures.
  std::vector<uint64_t> settled;  ///< settled receipts, per slice
  std::vector<size_t> quiet;      ///< QuietSlices of the window
  uint64_t settled_in_window = 0;
  Timing receipt_ms, late_ms, submit_call_us;
  uint32_t retries_max = 0;  ///< most CC retries of a receipt in the window
  double sync_ms = 0;
  double recover_ms = 0;
  double peak_rss_mb = 0;
  std::string digest;
  uint64_t height = 0;
  SpanLog spans;

  const CounterSet& before() const { return edges.front(); }
  const CounterSet& after() const { return edges.back(); }
  uint64_t failed() const {
    return dropped + rejected + lost + duplicated + wrong_seq;
  }
};

Status Fail(const std::string& what) { return Status::Aborted(what); }

/// How many times a run sets up: `min` times, and when `min` > 1 more while
/// the set-ups so far took under two seconds in all (a cheap set-up is
/// noisy, so its median needs more of them), up to 50.
struct SetupRepeats {
  int min = 1;
  bool More(const std::vector<double>& totals) const {
    if (static_cast<int>(totals.size()) < min) return true;
    double spent = 0;
    for (double t : totals) spent += t;
    return min > 1 && totals.size() < 50 && spent < 2.0;
  }
};

/// Sets up an instance; drives it for a warm-up and then the measured
/// window, cut into one-second slices; drains; and runs the correctness
/// gate: exactly-once receipt ledger, no placeholder run, Sync, StateDigest,
/// close, reopen + Recover to the same digest, AuditChain. Then reads the
/// peak RSS and sets up again as `repeats` asks, for setup_s alone.
Status MeasureOnce(const Spec& spec, const RunConfig& cfg, bool tracing,
                   SetupRepeats repeats, Measurement* m) {
  const std::string dir = cfg.work_dir + "/" + spec.name;
  std::atomic<uint64_t> placeholder_runs{0};
  // Declared before the instance it drives: closing the instance on an
  // error path still delivers receipts (as dropped) into the generator.
  std::unique_ptr<Generator> gen;
  Instance inst;
  HARMONY_RETURN_NOT_OK(SetUp(spec, cfg.seed, dir, tracing, &placeholder_runs,
                              &m->spans, &inst, &m->setup));
  m->setup_totals.push_back(m->setup.total_s);

  Generator::SubmitFn submit;
  if (spec.wire) {
    harmony::net::NetClient* client = inst.client.get();
    submit = [client](TxnRequest req, ReceiptCallback cb) {
      client->Submit(std::move(req), std::move(cb));
    };
  } else {
    harmony::Session* session = inst.session.get();
    submit = [session](TxnRequest req, ReceiptCallback cb) {
      session->Submit(std::move(req), std::move(cb));
    };
  }
  gen = std::make_unique<Generator>(spec, inst.workload.get(),
                                    std::move(submit));

  // Caches fill and the pipeline reaches steady state before the window.
  const uint64_t warmup_us =
      std::min<uint64_t>(2'000'000, cfg.seconds * 1'000'000 / 4);
  const uint64_t start = NowMicros();
  std::vector<uint64_t> edges_us;
  for (uint64_t i = 0; i <= cfg.seconds; i++) {
    edges_us.push_back(start + warmup_us + i * 1'000'000);
  }
  m->edges.resize(edges_us.size());
  gen->Run(start, edges_us, [&](size_t i) {
    if (tracing && i == 0) m->metrics_before = inst.db->CollectMetrics();
    if (tracing && i + 1 == edges_us.size()) {
      m->metrics_after = inst.db->CollectMetrics();
    }
    m->edges[i] = ReadCounters(inst.db.get(), inst.server.get());
  });
  for (size_t i = 0; i + 1 < m->edges.size(); i++) {
    CounterWindow check(m->edges[i], m->edges[i + 1]);
    for (const auto& [name, value] : m->edges[i]) check.Delta(name);
    if (!check.errors().empty()) return Fail(check.errors().front());
  }
  // Slice i runs from wall[i] to wall[i + 1].
  std::vector<uint64_t> wall;
  for (const CounterSet& c : m->edges) wall.push_back(c.at("process.wall_us"));
  m->window_s = static_cast<double>(wall.back() - wall.front()) / 1e6;
  const size_t slices = wall.size() - 1;
  {
    std::vector<double> steal;
    for (size_t i = 0; i < slices; i++) {
      CounterWindow w(m->edges[i], m->edges[i + 1]);
      steal.push_back(Ratio(static_cast<double>(w.Delta("host.steal_ticks")),
                            static_cast<double>(w.Delta("host.ticks"))));
    }
    m->quiet = QuietSlices(steal);
  }
  auto slice_of = [&wall](uint64_t t) -> size_t {
    if (t < wall.front() || t >= wall.back()) return SIZE_MAX;
    return static_cast<size_t>(
        std::upper_bound(wall.begin(), wall.end(), t) - wall.begin() - 1);
  };

  // Drain: seal what is buffered and wait for every receipt.
  const uint64_t drain = m->spans.Open("drain", 0, NowMicros());
  Status st;
  m->sync_ms = 1000 * Timed(&m->spans,
                            spec.wire ? "NetClient::Sync" : "HarmonyBC::Sync",
                            drain, [&] {
                              if (spec.wire) {
                                if (!inst.client->Sync(60'000'000)) {
                                  st = Fail("NetClient::Sync timed out");
                                }
                              } else {
                                st = inst.db->Sync();
                              }
                            });
  HARMONY_RETURN_NOT_OK(st);
  if (!gen->WaitSettled(60'000'000)) {
    return Fail("receipt ledger: " + std::to_string(gen->outstanding()) +
                " receipts still missing 60 s after the drain");
  }
  m->spans.Close(drain, NowMicros());

  // Exactly-once ledger over the whole run, and the window figures by
  // slice: receipts by when they arrived, sends by when they left.
  m->settled.assign(slices, 0);
  std::vector<std::vector<double>> receipt_ms(slices), late_ms(slices),
      call_us(slices);
  for (const TxnRecord& r : gen->ledger()) {
    m->attempted++;
    const uint32_t n = r.resolutions.load(std::memory_order_acquire);
    if (n == 0) {
      m->lost++;
      continue;
    }
    if (n > 1) m->duplicated++;
    if (r.wrong_seq) m->wrong_seq++;
    if (r.placeholder) m->placeholder_receipts++;
    switch (r.outcome) {
      case ReceiptOutcome::kCommitted: m->committed++; break;
      case ReceiptOutcome::kLogicAborted: m->logic_aborted++; break;
      case ReceiptOutcome::kDropped: m->dropped++; break;
      case ReceiptOutcome::kRejected: m->rejected++; break;
    }
    const bool settled = r.outcome == ReceiptOutcome::kCommitted ||
                         r.outcome == ReceiptOutcome::kLogicAborted;
    if (const size_t i = slice_of(r.receipt_us); settled && i != SIZE_MAX) {
      m->settled[i]++;
      m->settled_in_window++;
      m->retries_max = std::max(m->retries_max, r.retries);
      // Closed loop: from the Submit call. Open loop: from the due time.
      const uint64_t from = spec.window > 0 ? r.call_begin_us : r.due_us;
      receipt_ms[i].push_back(
          static_cast<double>(LatencyFromDue(from, r.receipt_us)) / 1000.0);
    }
    if (const size_t i = slice_of(r.call_begin_us); i != SIZE_MAX) {
      late_ms[i].push_back(
          static_cast<double>(LatencyFromDue(r.due_us, r.call_begin_us)) /
          1000.0);
      call_us[i].push_back(
          static_cast<double>(r.call_end_us - r.call_begin_us));
    }
  }
  std::vector<std::vector<double>> quiet_receipt_ms;
  for (size_t i : m->quiet) quiet_receipt_ms.push_back(std::move(receipt_ms[i]));
  m->receipt_ms = SummariseSlices(&quiet_receipt_ms);
  m->late_ms = SummariseSlices(&late_ms);
  m->submit_call_us = SummariseSlices(&call_us);
  m->placeholder_runs = placeholder_runs.load();

  // Per-transaction spans, rebuilt from the ledger.
  if (tracing) {
    const char* call = spec.wire ? "NetClient::Submit" : "Session::Submit";
    for (const TxnRecord& r : gen->ledger()) {
      const uint64_t txn = m->spans.Add(
          "txn", 0, r.seq, spec.window > 0 ? r.call_begin_us : r.due_us,
          r.receipt_us);
      m->spans.Add(call, txn, r.seq, r.call_begin_us, r.call_end_us);
    }
  }

  if (m->lost + m->duplicated + m->wrong_seq > 0) {
    return Fail("receipt ledger: " + std::to_string(m->lost) + " lost, " +
                std::to_string(m->duplicated) + " duplicated, " +
                std::to_string(m->wrong_seq) + " for the wrong client_seq");
  }
  if (m->placeholder_runs + m->placeholder_receipts > 0) {
    return Fail("the placeholder procedure ran " +
                std::to_string(m->placeholder_runs) + " times");
  }

  // State digest, then close, reopen, Recover, and the same digest.
  const uint64_t gate = m->spans.Open("gate", 0, NowMicros());
  if (spec.wire) HARMONY_RETURN_NOT_OK(inst.db->Sync());
  harmony::Result<harmony::Digest> before = Status::OK();
  Timed(&m->spans, "HarmonyBC::StateDigest", gate,
        [&] { before = inst.db->StateDigest(); });
  HARMONY_RETURN_NOT_OK(before.status());
  m->height = inst.db->height();
  Timed(&m->spans, "close", gate, [&] { inst.Close(); });

  std::unique_ptr<HarmonyBC> db;
  Timed(&m->spans, "HarmonyBC::Open", gate, [&] {
    auto opened = HarmonyBC::Open(InstanceOptions(spec, dir, false));
    if (opened.ok()) {
      db = std::move(*opened);
    } else {
      st = opened.status();
    }
  });
  HARMONY_RETURN_NOT_OK(st);
  std::unique_ptr<Workload> registration = spec.make_registration();
  HARMONY_RETURN_NOT_OK(AdoptProcedures(db.get(), spec, registration.get(),
                                        &placeholder_runs));
  harmony::Result<harmony::BlockId> tip = Status::OK();
  m->recover_ms = 1000 * Timed(&m->spans, "HarmonyBC::Recover", gate,
                               [&] { tip = db->Recover(); });
  HARMONY_RETURN_NOT_OK(tip.status());
  if (*tip != m->height) {
    return Fail("recovered tip " + std::to_string(*tip) + " != height " +
                std::to_string(m->height));
  }
  harmony::Result<harmony::Digest> after = Status::OK();
  Timed(&m->spans, "HarmonyBC::StateDigest", gate,
        [&] { after = db->StateDigest(); });
  HARMONY_RETURN_NOT_OK(after.status());
  if (*after != *before) {
    return Fail("state digest after Recover " + harmony::DigestToHex(*after) +
                " != before close " + harmony::DigestToHex(*before));
  }
  m->digest = harmony::DigestToHex(*after);
  Timed(&m->spans, "HarmonyBC::AuditChain", gate,
        [&] { st = db->AuditChain(); });
  HARMONY_RETURN_NOT_OK(st);
  if (placeholder_runs.load() != 0) {
    return Fail("the placeholder procedure ran during recovery replay");
  }
  db.reset();
  m->spans.Close(gate, NowMicros());

  // Peak RSS before the extra set-ups, so it covers the measured instance.
  m->peak_rss_mb = PeakRssMb();
  while (repeats.More(m->setup_totals)) {
    Instance extra;
    SetupTimes t;
    HARMONY_RETURN_NOT_OK(SetUp(spec, cfg.seed, dir, tracing,
                                &placeholder_runs, &m->spans, &extra, &t));
    m->setup_totals.push_back(t.total_s);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return Status::OK();
}

// ---- metrics ----------------------------------------------------------------

/// Median over the window's quiet slices of `fn(settled receipts, counter
/// movement, seconds)` for each slice.
template <typename Fn>
double SliceMedian(const Measurement& m, Fn&& fn) {
  std::vector<double> values;
  for (size_t i : m.quiet) {
    CounterWindow w(m.edges[i], m.edges[i + 1]);
    const double seconds =
        static_cast<double>(w.Delta("process.wall_us")) / 1e6;
    values.push_back(fn(static_cast<double>(m.settled[i]), w, seconds));
  }
  return Median(&values);
}

double CpuMicrosPerTxn(const Measurement& m) {
  return SliceMedian(m, [](double settled, const CounterWindow& w, double) {
    return Ratio(static_cast<double>(w.Delta("process.cpu_us")), settled);
  });
}

double SetupMedian(const Measurement& m) {
  std::vector<double> totals = m.setup_totals;
  return Median(&totals);
}

std::vector<Metric> EndToEnd(const Measurement& m) {
  const double commit_tps =
      SliceMedian(m, [](double settled, const CounterWindow&, double s) {
        return Ratio(settled, s);
      });
  const double write_bytes =
      SliceMedian(m, [](double settled, const CounterWindow& w, double) {
        const uint64_t bytes =
            w.Delta("chain.disk_bytes") +
            w.Delta("storage.page_writes") * harmony::kPageSize;
        return Ratio(static_cast<double>(bytes), settled);
      });
  return {
      {"commit_tps", commit_tps, "1/s"},
      {"receipt_p50_ms", m.receipt_ms.p50, "ms"},
      {"receipt_p99_ms", m.receipt_ms.tail, "ms"},
      {"settled_ratio",
       Ratio(static_cast<double>(m.committed + m.logic_aborted),
             static_cast<double>(m.attempted)),
       "ratio"},
      {"cpu_us_per_txn", CpuMicrosPerTxn(m), "us"},
      {"write_bytes_per_txn", write_bytes, "B"},
      {"rss_peak_mb", m.peak_rss_mb, "MB"},
      {"setup_s", SetupMedian(m), "s"},
  };
}

std::vector<Metric> PerLayer(const Spec& spec, const Measurement& m,
                             double untraced_cpu_us_per_txn) {
  CounterWindow w(m.before(), m.after());
  auto d = [&w](const char* name) {
    return static_cast<double>(w.Delta(name));
  };
  auto hist = [&m](const char* name) {
    return HistogramDelta(m.metrics_before, m.metrics_after, name);
  };
  const auto queue_wait = hist(harmony::obs::kHistQueueWait);
  const auto seal = hist(harmony::obs::kHistBlockSeal);
  const auto execute = hist(harmony::obs::kHistBlockExecute);
  const auto commit = hist(harmony::obs::kHistBlockCommit);
  const auto commit_lag = hist(harmony::obs::kHistCommitLag);
  const auto resolve = hist(harmony::obs::kHistResolve);
  const auto flush = hist(harmony::obs::kHistWireFlush);
  const double settled = static_cast<double>(m.settled_in_window);
  const double sim = d("dcc.simulated");
  const double blocks = d("dcc.blocks");
  const double sealed = d("ingest.sealed_blocks");
  const double lookups = d("storage.hits") + d("storage.misses");
  const Timing& call = m.submit_call_us;
  const Timing none;
  const Timing& core_call = spec.wire ? none : call;
  const Timing& net_call = spec.wire ? call : none;

  // Stages that should add up to the receipt latency (their p50s).
  double stages_us = call.p50 + queue_wait.Percentile(50) +
                     commit_lag.Percentile(50);
  if (spec.wire) stages_us += flush.Percentile(50);
  const double receipt_us = m.receipt_ms.p50 * 1000;

  return {
      {"dcc.abort_rate", Ratio(d("dcc.cc_aborted"), sim), "ratio"},
      {"dcc.logic_abort_rate", Ratio(d("dcc.logic_aborted"), sim), "ratio"},
      {"dcc.dangerous_per_ktxn", 1000 * Ratio(d("dcc.dangerous_hits"), sim),
       "count"},
      {"dcc.sim_us_per_block", Ratio(d("dcc.sim_micros"), blocks), "us"},
      {"dcc.commit_us_per_block", Ratio(d("dcc.commit_micros"), blocks), "us"},

      {"ingest.queue_wait_us.p50", queue_wait.Percentile(50), "us"},
      {"ingest.queue_wait_us.p99", queue_wait.Percentile(99), "us"},
      {"ingest.seal_us.p50", seal.Percentile(50), "us"},
      {"ingest.txns_per_block", Ratio(d("ingest.sealed_txns"), sealed),
       "count"},
      {"ingest.deadline_seal_share", Ratio(d("ingest.deadline_seals"), sealed),
       "ratio"},
      {"ingest.retries_per_txn", Ratio(d("ingest.retries_enqueued"), settled),
       "ratio"},
      {"ingest.retries_max", static_cast<double>(m.retries_max), "count"},
      {"ingest.backpressured", d("ingest.backpressured"), "count"},

      {"replica.execute_us.p50", execute.Percentile(50), "us"},
      {"replica.execute_us.p99", execute.Percentile(99), "us"},
      {"replica.commit_us.p50", commit.Percentile(50), "us"},
      {"replica.commit_us.p99", commit.Percentile(99), "us"},
      {"replica.commit_lag_us.p50", commit_lag.Percentile(50), "us"},
      {"replica.commit_lag_us.p99", commit_lag.Percentile(99), "us"},
      {"replica.blocks_per_s", Ratio(blocks, m.window_s), "1/s"},

      {"storage.pool_hit_ratio", Ratio(d("storage.hits"), lookups), "ratio"},
      {"storage.page_reads_per_txn", Ratio(d("storage.page_reads"), settled),
       "count"},
      {"storage.page_writes_per_txn", Ratio(d("storage.page_writes"), settled),
       "count"},
      {"storage.flushes", d("storage.flushes"), "count"},
      {"storage.pages_per_flush",
       Ratio(d("storage.flushed_pages"), d("storage.flushes")), "count"},
      {"storage.dirty_evictions", d("storage.dirty_evictions"), "count"},
      {"storage.load_s", m.setup.load_s, "s"},
      {"storage.genesis_checkpoint_s", m.setup.checkpoint_s, "s"},

      {"chain.log_bytes_per_block", Ratio(d("chain.disk_bytes"), blocks), "B"},
      {"chain.compress_ratio",
       Ratio(d("chain.raw_bytes"), d("chain.disk_bytes")), "ratio"},

      {"core.submit_call_us.p50", core_call.p50, "us"},
      {"core.submit_call_us.p99", core_call.tail, "us"},
      {"core.resolve_us.p50", resolve.Percentile(50), "us"},
      {"core.resolve_us.p99", resolve.Percentile(99), "us"},
      {"core.sync_ms", m.sync_ms, "ms"},
      {"core.recover_ms", m.recover_ms, "ms"},

      {"net.client_submit_us.p50", net_call.p50, "us"},
      {"net.client_submit_us.p99", net_call.tail, "us"},
      {"net.flush_us.p50", flush.Percentile(50), "us"},
      {"net.flush_us.p99", flush.Percentile(99), "us"},
      {"net.frames_in_per_txn", Ratio(d("net.frames_in"), settled), "count"},
      {"net.frames_out_per_txn", Ratio(d("net.frames_out"), settled), "count"},
      {"net.busy_errors", d("net.busy_errors"), "count"},

      {"obs.trace_cpu_overhead",
       CpuMicrosPerTxn(m) - untraced_cpu_us_per_txn, "us"},
      {"obs.stage_gap_share", receipt_us > 0 ? 1 - stages_us / receipt_us : 0,
       "ratio"},
      {"obs.receipt_samples", static_cast<double>(m.receipt_ms.samples),
       "count"},

      {"bench.late_p99_ms", m.late_ms.tail, "ms"},
  };
}

void PrintReport(const Spec& spec, const Measurement& m, bool traced) {
  std::printf("# workload %s (%s, %s, %s)\n", spec.name.c_str(),
              spec.storage.c_str(), spec.wire ? "loopback TCP" : "in-process",
              spec.window > 0
                  ? ("closed loop, window " + std::to_string(spec.window))
                        .c_str()
                  : ("open loop, " + FormatNumber(spec.rate_tps) + " txn/s")
                        .c_str());
  std::printf("# tracing %s; generator threads %zu of %u; connections %d\n",
              traced ? "on" : "off", GeneratorThreads(spec),
              std::thread::hardware_concurrency(), spec.wire ? 1 : 0);
  std::printf(
      "# ledger: %llu attempted, %llu committed, %llu logic-aborted, %llu "
      "dropped, %llu rejected, 0 lost, 0 duplicated\n",
      static_cast<unsigned long long>(m.attempted),
      static_cast<unsigned long long>(m.committed),
      static_cast<unsigned long long>(m.logic_aborted),
      static_cast<unsigned long long>(m.dropped),
      static_cast<unsigned long long>(m.rejected));
  std::printf(
      "# receipts in window: %llu samples, tail is p%s; lateness: %llu "
      "samples, tail is p%s\n",
      static_cast<unsigned long long>(m.receipt_ms.samples),
      FormatNumber(m.receipt_ms.tail_pct).c_str(),
      static_cast<unsigned long long>(m.late_ms.samples),
      FormatNumber(m.late_ms.tail_pct).c_str());
  CounterWindow w(m.before(), m.after());
  std::printf("# host: %.1f%% of CPU time stolen by other guests in the "
              "window\n",
              100 * Ratio(static_cast<double>(w.Delta("host.steal_ticks")),
                          static_cast<double>(w.Delta("host.ticks"))));
  std::printf("# gate: height %llu, digest %s identical after Recover, "
              "audit ok\n",
              static_cast<unsigned long long>(m.height), m.digest.c_str());
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& s : AllSpecs()) names.push_back(s.name);
  return names;
}

int RunBenchmark(const RunConfig& cfg) {
  std::vector<Spec> specs = AllSpecs();
  auto it = std::find_if(specs.begin(), specs.end(),
                         [&](const Spec& s) { return s.name == cfg.workload; });
  if (it == specs.end()) {
    std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
    return 2;
  }
  const Spec& spec = *it;
  if (GeneratorThreads(spec) > std::thread::hardware_concurrency()) {
    std::fprintf(stderr, "%s needs %zu load-generator threads; this host has "
                 "%u cores\n", spec.name.c_str(), GeneratorThreads(spec),
                 std::thread::hardware_concurrency());
    return 2;
  }

  auto fail = [&](const char* phase, const Status& s) {
    std::fprintf(stderr, "%s %s: %s\n", spec.name.c_str(), phase,
                 s.ToString().c_str());
    return 1;
  };

  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  if (!cfg.trace) {
    // setup_s is the median of several set-ups.
    Measurement m;
    Status st = MeasureOnce(spec, cfg, /*tracing=*/false, SetupRepeats{3}, &m);
    if (!st.ok()) return fail("run", st);
    PrintReport(spec, m, false);
    metrics = EndToEnd(m);
    attempted = m.attempted;
    failed = m.failed();
  } else {
    // An untraced instance first (the base of the tracing overhead), then
    // the traced one that gives the per-layer figures.
    Measurement plain;
    Status st = MeasureOnce(spec, cfg, /*tracing=*/false, SetupRepeats{1},
                            &plain);
    if (!st.ok()) return fail("untraced run", st);
    Measurement traced;
    st = MeasureOnce(spec, cfg, /*tracing=*/true, SetupRepeats{1}, &traced);
    if (!st.ok()) return fail("traced run", st);
    PrintReport(spec, traced, true);
    metrics = PerLayer(spec, traced, CpuMicrosPerTxn(plain));
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed() + traced.failed();
    std::error_code ec;
    std::filesystem::create_directories(cfg.trace_dir, ec);
    const std::string path = cfg.trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(cfg.seed) + ".spans.jsonl";
    st = traced.spans.Write(path);
    if (!st.ok()) return fail("trace", st);
    std::printf("# spans: %s\n", path.c_str());
  }
  for (const Metric& mt : metrics) {
    if (!std::isfinite(mt.value)) {
      std::fprintf(stderr, "%s: metric %s is not finite\n", spec.name.c_str(),
                   mt.name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", ResultJson(true, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
