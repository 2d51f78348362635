// Figure 20: ablation study. (I) raw-HarmonyBC = abort-minimizing validation
// only (Aria-style ww aborts, no coalescence, no inter-block parallelism);
// (II) = (I) + update reordering; (III) = (II) + update coalescence;
// HarmonyBC = (III) + inter-block parallelism. Low/high contention on all
// three workloads; prints throughput, abort rate and CPU utilization (the
// three rows of the paper's figure), plus the share of simulations that
// inter-block parallelism re-ran at commit (dcc.repaired / dcc.simulated).
#include "bench/harness.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

using namespace harmony;
using namespace harmony::bench;

namespace {

struct AblationConfig {
  std::string label;
  bool reorder, coalesce, inter;
};

const AblationConfig kConfigs[] = {
    {"(I) raw", false, false, false},
    {"(II) +reorder", true, false, false},
    {"(III) +coalesce", true, true, false},
    {"HarmonyBC", true, true, true},
};

int RunCell(const std::string& workload_label,
            const std::function<std::unique_ptr<Workload>()>& mk,
            size_t txns, size_t pool_pages) {
  for (const AblationConfig& ac : kConfigs) {
    SystemSpec sys = HarmonySpec();
    sys.cfg.harmony_update_reordering = ac.reorder;
    sys.cfg.harmony_update_coalescing = ac.coalesce;
    sys.cfg.harmony_inter_block = ac.inter;
    BenchParams p;
    p.system = sys;
    p.total_txns = ScaledTxns(txns);
    p.pool_pages = pool_pages;
    auto r = RunPoint(p, mk);
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", ac.label.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    PrintRow({workload_label, ac.label, Fmt(r->exec_tps, 0),
              Fmt(r->abort_rate, 3), Fmt(100.0 * r->cpu_util, 1),
              Fmt(r->repaired_rate, 3)});
  }
  return 0;
}

}  // namespace

int main() {
  PrintHeader("Figure 20: ablation study",
              {"workload", "config", "txns/s", "abort", "cpu%",
               "repaired/sim"});

  for (double skew : {0.0, 1.0}) {
    auto ycsb = [skew] {
      YcsbConfig c;
      c.skew = skew;
      return std::make_unique<YcsbWorkload>(c);
    };
    const std::string label =
        std::string("YCSB/") + (skew == 0.0 ? "low" : "high");
    if (RunCell(label, ycsb, 1200, 96) != 0) return 1;
  }
  for (double skew : {0.0, 1.0}) {
    auto sb = [skew] {
      SmallbankConfig c;
      c.skew = skew;
      return std::make_unique<SmallbankWorkload>(c);
    };
    const std::string label =
        std::string("Smallbank/") + (skew == 0.0 ? "low" : "high");
    if (RunCell(label, sb, 2000, 96) != 0) return 1;
  }
  for (uint32_t wh : {80u, 1u}) {
    auto tpcc = [wh] {
      TpccConfig c;
      c.warehouses = wh;
      return std::make_unique<TpccWorkload>(c);
    };
    const std::string label =
        std::string("TPC-C/") + (wh == 80 ? "low" : "high");
    if (RunCell(label, tpcc, 600, 512) != 0) return 1;
  }
  return 0;
}
