// Table 3: hit rate of Harmony's backward dangerous structure across
// workloads and contention levels (the fraction of transactions aborted by
// Rule 1).
#include "bench/harness.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

using namespace harmony;
using namespace harmony::bench;

namespace {

Result<double> HitRate(const std::function<std::unique_ptr<Workload>()>& mk,
                       size_t txns, size_t pool_pages) {
  BenchParams p;
  p.system = HarmonySpec();
  p.total_txns = ScaledTxns(txns);
  p.pool_pages = pool_pages;
  auto r = RunPoint(p, mk);
  HARMONY_RETURN_NOT_OK(r.status());
  return r->dangerous_hit_rate;
}

}  // namespace

int main() {
  PrintHeader("Table 3: backward dangerous structure hit rate",
              {"workload", "param", "hit_rate"});
  for (double skew : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto mk = [skew] {
      YcsbConfig c;
      c.skew = skew;
      return std::make_unique<YcsbWorkload>(c);
    };
    auto rate = HitRate(mk, 1200, 96);
    if (!rate.ok()) return 1;
    PrintRow({"YCSB", "skew " + Fmt(skew, 1), Fmt(100.0 * *rate, 2) + "%"});
  }
  for (double skew : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto mk = [skew] {
      SmallbankConfig c;
      c.skew = skew;
      return std::make_unique<SmallbankWorkload>(c);
    };
    auto rate = HitRate(mk, 2000, 96);
    if (!rate.ok()) return 1;
    PrintRow({"Smallbank", "skew " + Fmt(skew, 1),
              Fmt(100.0 * *rate, 2) + "%"});
  }
  for (uint32_t wh : {1u, 20u, 40u, 60u, 80u}) {
    auto mk = [wh] {
      TpccConfig c;
      c.warehouses = wh;
      return std::make_unique<TpccWorkload>(c);
    };
    auto rate = HitRate(mk, 600, 512);
    if (!rate.ok()) return 1;
    PrintRow({"TPC-C", std::to_string(wh) + " wh",
              Fmt(100.0 * *rate, 2) + "%"});
  }
  return 0;
}
