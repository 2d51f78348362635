#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/orderer.h"
#include "obs/metrics.h"
#include "workload/workload.h"

namespace harmony {
namespace bench {

/// Scales per-point transaction counts: HARMONY_BENCH_SCALE=2 doubles them,
/// 0.25 quarters them. Default 1.0 keeps the full suite at minutes.
double Scale();
size_t ScaledTxns(size_t base);

/// One system under test, as labelled in the paper's figures.
struct SystemSpec {
  std::string label;
  DccKind kind;
  DccConfig cfg;
  bool sov = false;  ///< ships read-write sets (network model differs)
};

SystemSpec HarmonySpec();
SystemSpec AriaSpec();
SystemSpec RbcSpec();
SystemSpec FabricSpec();
SystemSpec FastFabricSpec();
/// Figure 7/8 order: Fabric, FastFabric#, RBC, AriaBC, HarmonyBC.
std::vector<SystemSpec> AllSystems();
/// Relational systems only (TPC-C): RBC, AriaBC, HarmonyBC.
std::vector<SystemSpec> RelationalSystems();

struct BenchParams {
  SystemSpec system;
  size_t block_size = 25;
  size_t total_txns = 2000;
  /// Worker threads. Like PostgreSQL's process-per-transaction model, a
  /// worker blocked on (simulated) I/O holds no CPU, so the pool is sized
  /// above the core count to let a whole block overlap its I/O.
  size_t threads = 256;
  size_t pool_pages = 96;       ///< deliberately smaller than the hot set
  DiskModel disk = DiskModel::Ssd();
  bool in_memory = false;
  double bandwidth_gbps = 1.0;
  bool false_abort_oracle = false;
  size_t checkpoint_every = 10;
};

/// Outcome of one RunPoint.
struct RunReport {
  // Database layer, measured through the HarmonyBC session pipeline.
  double exec_tps = 0;          ///< committed txns / wall second
  double abort_rate = 0;        ///< dcc.cc_aborted / dcc.simulated
  double false_abort_rate = 0;  ///< dcc.false_aborts / dcc.simulated
  double dangerous_hit_rate = 0;  ///< dcc.dangerous_hits / dcc.simulated
  double repaired_rate = 0;     ///< dcc.repaired / dcc.simulated
  double mean_latency_ms = 0;   ///< receipt latency_us of committed txns
  double cpu_util = 0;          ///< process CPU / (wall * cores)

  // Modelled network/consensus ceilings (Section 5.4/5.5 sweeps).
  double consensus_cap_tps = 0;
  double sov_cap_tps = 0;       ///< rw-set broadcast ceiling (SOV only)
  double consensus_latency_ms = 0;

  /// End-to-end throughput: execution throughput clipped by the consensus
  /// and (for SOV) rw-set distribution ceilings.
  double end_to_end_tps() const {
    double t = exec_tps;
    if (consensus_cap_tps > 0) t = std::min(t, consensus_cap_tps);
    if (sov_cap_tps > 0) t = std::min(t, sov_cap_tps);
    return t;
  }
  double end_to_end_latency_ms() const {
    return mean_latency_ms + consensus_latency_ms;
  }
};

/// Runs one (system, workload, parameters) point through a HarmonyBC
/// session and returns the report. The workload factory is invoked once;
/// its Setup loads the replica before the run. The point fails unless
/// every submitted transaction got exactly one receipt.
Result<RunReport> RunPoint(const BenchParams& params,
                           const std::function<std::unique_ptr<Workload>()>&
                               make_workload);

/// Formatted output helpers (every bench prints paper-style series). Every
/// table also lands in an in-memory recorder; SetJsonOut (or the
/// HARMONY_BENCH_JSON env var) flushes the recorder to a machine-readable
/// BENCH_*.json file at process exit — schema in docs/OBSERVABILITY.md:
///   {"schema": 1, "scale": S, "tables": [{"title", "cols", "rows"}, ...]}
void PrintHeader(const std::string& title, const std::vector<std::string>& cols);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int prec = 1);

/// Routes a JSON copy of every table printed by this process to `path`,
/// written once at exit (tables printed before the call are included too).
void SetJsonOut(const std::string& path);

/// Prints the per-stage latency breakdown table (one row per non-empty
/// histogram in the snapshot: count / p50 / p99 / max in microseconds).
void PrintStageTable(const obs::MetricsSnapshot& snap);

}  // namespace bench
}  // namespace harmony
