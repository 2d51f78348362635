#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  uint64_t seconds = 10;  ///< length of the measured window
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  /// Chain directories live under here for the length of the run and are
  /// removed at its end.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_dir;
};

/// The workloads RunBenchmark accepts.
std::vector<std::string> WorkloadNames();

/// One benchmark invocation. On success prints a human-readable report
/// (lines starting with '#') and, last, the JSON result line; returns 0.
/// When the correctness gate or any call fails it prints the reason to
/// stderr, prints no result, and returns non-zero.
int RunBenchmark(const RunConfig& cfg);

}  // namespace perfbench
