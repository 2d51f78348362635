#pragma once

// The benchmark's own statistics: the percentile rule, window differences
// of counters and histograms, the open-loop pacer, and the one-line JSON
// result. Everything here is pure (no clocks, no threads) so that
// selftest.cc can check it exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// ---- percentile rule --------------------------------------------------------

/// The highest of p99.99 / p99.9 / p99 / p90 / p50, no higher than
/// `max_pct`, that has at least ten samples beyond it in a set of `n`
/// samples; 0 when even the median has fewer than ten (n < 20).
double TailPercentile(uint64_t n, double max_pct = 99);

/// Nearest-rank percentile (`pct` in [0, 100]) of ascending `sorted`;
/// 0 for an empty set.
double Quantile(const std::vector<double>& sorted, double pct);

/// Median of `values` (the mean of the middle two for an even count); 0
/// for an empty set. Sorts in place.
double Median(std::vector<double>* values);

/// A timing as reported: its median and its tail percentile (p99 when there
/// are at least 1000 samples, else lower by the rule above; the median
/// again when there are too few), with the sample count and which
/// percentile the tail is.
struct Timing {
  uint64_t samples = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< 0 when the tail fell back to the median
};

/// A timing taken over a window cut into time slices (empty slices are
/// skipped): p50 and the tail are the medians, over slices, of each slice's
/// p50 and tail percentile. The tail percentile is chosen by the rule above
/// from the smallest slice, so every slice uses the same one. A burst
/// inside one slice moves one of the values the median is taken over, not
/// the result. `samples` counts all slices. Sorts each slice in place.
Timing SummariseSlices(std::vector<std::vector<double>>* slices);

/// Indices, ascending, of the slices whose share of CPU time stolen by other
/// guests is at most the median slice's: the quieter half, ties included,
/// so every slice when the shares are all equal (a quiet host).
/// Interference from other guests only ever slows a slice down, so the
/// end-to-end figures are taken over these slices.
std::vector<size_t> QuietSlices(const std::vector<double>& steal_shares);

// ---- window differences -----------------------------------------------------

/// Monotonic counters read by name at one instant.
using CounterSet = std::map<std::string, uint64_t>;

/// Counter movement over a window: after - before. A name missing from
/// either side, or a counter that went backwards, is an error recorded in
/// `errors()` and reads as 0.
class CounterWindow {
 public:
  CounterWindow(CounterSet before, CounterSet after)
      : before_(std::move(before)), after_(std::move(after)) {}

  uint64_t Delta(const std::string& name) const;
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  CounterSet before_;
  CounterSet after_;
  mutable std::vector<std::string> errors_;
};

/// Bucket-wise `after - before` of one histogram: the records made inside
/// the window. The max is unknown for a window and left 0 (Percentile then
/// reports bucket midpoints).
harmony::obs::HistogramSnapshot HistogramDelta(
    const harmony::obs::HistogramSnapshot& before,
    const harmony::obs::HistogramSnapshot& after);

/// Window difference of the histogram `name` between two registry
/// snapshots; empty when `after` does not have it.
harmony::obs::HistogramSnapshot HistogramDelta(
    const harmony::obs::MetricsSnapshot& before,
    const harmony::obs::MetricsSnapshot& after, const std::string& name);

// ---- open-loop pacer --------------------------------------------------------

/// Fixed-rate schedule: request i is due at start + i / rate. The sender
/// waits for NextDue(), then reports when it actually sent. A stalled
/// sender never skips a slot: the requests it owes go out back to back,
/// each recorded as late by (sent - due), and each timed from its due time,
/// so the stall is charged to every request it delayed.
class Pacer {
 public:
  Pacer(uint64_t start_us, double rate_per_s);

  uint64_t NextDue() const;

  struct Slot {
    uint64_t due_us = 0;
    uint64_t late_us = 0;  ///< sent - due (0 when sent on time)
  };
  /// The next request left at `now_us`.
  Slot Sent(uint64_t now_us);

  uint64_t sent() const { return sent_; }

 private:
  uint64_t start_us_;
  double rate_per_s_;
  uint64_t sent_ = 0;
};

/// Submit -> receipt latency of an open-loop request, timed from its due
/// time (not from when the pacer got round to sending it).
inline uint64_t LatencyFromDue(uint64_t due_us, uint64_t receipt_us) {
  return receipt_us > due_us ? receipt_us - due_us : 0;
}

// ---- result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The one-line JSON object the benchmark prints last:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": .., "unit": ..}}}. Values print in shortest round-trip form.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Shortest decimal form of `v` that reads back as the same double.
std::string FormatNumber(double v);

}  // namespace perfbench
