// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload smallbank-hot|ycsb-cold|tpcc-wire --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Chain directories go under DIR/run-<pid> (removed at the end) and a
// traced run's spans under DIR/traces. DIR defaults to .perfbench in the
// working directory.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "runner.h"

namespace {

int Usage() {
  std::string names;
  for (const std::string& n : perfbench::WorkloadNames()) {
    names += names.empty() ? n : "|" + n;
  }
  std::fprintf(stderr,
               "usage: perfbench --workload %s --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               names.c_str());
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string out = ".perfbench";
  uint64_t trace = 0;
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    bool ok = true;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      ok = ParseUint(v, &cfg.seed);
    } else if (a == "--seconds") {
      ok = ParseUint(v, &cfg.seconds) && cfg.seconds > 0;
    } else if (a == "--trace") {
      ok = ParseUint(v, &trace) && trace <= 1;
    } else if (a == "--out") {
      out = v;
    } else {
      ok = false;
    }
    if (!ok) return Usage();
  }
  if (!have_workload) return Usage();
  cfg.trace = trace == 1;
  cfg.work_dir = out + "/run-" + std::to_string(::getpid());
  cfg.trace_dir = out + "/traces";
  const int rc = perfbench::RunBenchmark(cfg);
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);
  return rc;
}
