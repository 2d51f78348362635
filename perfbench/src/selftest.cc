// Self-tests for the benchmark's own statistics (report.h): the percentile
// rule and sliced timings, window-difference counting, and the open-loop
// pacer. Runs before every benchmark invocation; reports every failed
// check, then exits non-zero.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "report.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      failures++;                                                     \
    }                                                                 \
  } while (0)

using perfbench::CounterSet;
using perfbench::CounterWindow;
using perfbench::Pacer;

void PercentileRule() {
  using perfbench::TailPercentile;
  // Ten samples beyond p99 need 1000 in all.
  CHECK(TailPercentile(1000) == 99.0);
  CHECK(TailPercentile(999) == 90.0);
  CHECK(TailPercentile(100) == 90.0);
  CHECK(TailPercentile(99) == 50.0);
  CHECK(TailPercentile(20) == 50.0);
  CHECK(TailPercentile(19) == 0.0);
  CHECK(TailPercentile(0) == 0.0);
  // Capped at the metric's own percentile; higher ones when allowed.
  CHECK(TailPercentile(1'000'000) == 99.0);
  CHECK(TailPercentile(1'000'000, 100) == 99.99);
  CHECK(TailPercentile(10'000, 100) == 99.9);

  // One slice of 1000..1, unsorted.
  std::vector<std::vector<double>> one(1);
  for (int i = 1; i <= 1000; i++) one[0].push_back(1001 - i);
  perfbench::Timing t = perfbench::SummariseSlices(&one);
  CHECK(t.samples == 1000);
  CHECK(t.p50 == 500);
  CHECK(t.tail_pct == 99.0);
  CHECK(t.tail == 990);  // exactly ten samples (991..1000) beyond it

  std::vector<std::vector<double>> few = {{5, 1, 3}};
  t = perfbench::SummariseSlices(&few);
  CHECK(t.samples == 3);
  CHECK(t.p50 == 3);
  CHECK(t.tail_pct == 0);
  CHECK(t.tail == t.p50);  // too few samples: the median stands in

  std::vector<double> odd = {3, 1, 2}, even = {4, 1, 3, 2}, empty;
  CHECK(perfbench::Median(&odd) == 2);
  CHECK(perfbench::Median(&even) == 2.5);
  CHECK(perfbench::Median(&empty) == 0);
}

void SlicedTimings() {
  // Three 1000-sample slices; the middle one has a burst in its tail. The
  // sliced tail is the median of the three slice p99s, so one burst does
  // not move it.
  std::vector<std::vector<double>> slices(4);
  for (int i = 1; i <= 1000; i++) {
    slices[0].push_back(i);
    slices[1].push_back(i <= 980 ? i : 100'000);
    slices[2].push_back(i + 10);
  }
  // slices[3] stays empty (no traffic): skipped.
  perfbench::Timing t = perfbench::SummariseSlices(&slices);
  CHECK(t.samples == 3000);
  CHECK(t.tail_pct == 99.0);
  CHECK(t.p50 == 500);   // median of slice p50s 500, 500, 510
  CHECK(t.tail == 1000);  // median of slice p99s 990, 100000, 1000

  // The smallest slice picks the percentile for all of them.
  std::vector<std::vector<double>> uneven(2);
  for (int i = 1; i <= 1000; i++) uneven[0].push_back(i);
  for (int i = 1; i <= 100; i++) uneven[1].push_back(i);
  t = perfbench::SummariseSlices(&uneven);
  CHECK(t.samples == 1100);
  CHECK(t.tail_pct == 90.0);
  CHECK(t.tail == (900.0 + 90.0) / 2);

  std::vector<std::vector<double>> silent(3);
  t = perfbench::SummariseSlices(&silent);
  CHECK(t.samples == 0 && t.p50 == 0 && t.tail == 0);
}

void QuietSliceChoice() {
  using perfbench::QuietSlices;
  using V = std::vector<size_t>;
  CHECK(QuietSlices({0, 0, 0, 0}) == (V{0, 1, 2, 3}));  // quiet host: all
  CHECK(QuietSlices({0.2, 0, 0.1, 0.3}) == (V{1, 2}));   // lower half
  CHECK(QuietSlices({0.2, 0, 0.1}) == (V{1, 2}));        // odd: median kept
  CHECK(QuietSlices({0.1, 0.1, 0.3, 0.1}) == (V{0, 1, 3}));  // ties kept
  CHECK(QuietSlices({}).empty());
}

void WindowDifferences() {
  CounterSet before = {{"a", 10}, {"b", 5}};
  CounterSet after = {{"a", 25}, {"b", 5}, {"c", 7}};
  CounterWindow w(before, after);
  CHECK(w.Delta("a") == 15);
  CHECK(w.Delta("b") == 0);
  CHECK(w.errors().empty());
  CHECK(w.Delta("c") == 0);  // not read at the window start
  CHECK(w.errors().size() == 1);
  CounterWindow back({{"a", 9}}, {{"a", 3}});
  CHECK(back.Delta("a") == 0);
  CHECK(back.errors().size() == 1);

  // Only records made inside the window count towards its percentiles.
  harmony::obs::LatencyHistogram h;
  for (int i = 0; i < 1000; i++) h.Record(10);
  harmony::obs::HistogramSnapshot s0 = h.Snap();
  for (int i = 0; i < 100; i++) h.Record(1000);
  for (int i = 0; i < 100; i++) h.Record(10);
  harmony::obs::HistogramSnapshot s1 = h.Snap();
  harmony::obs::HistogramSnapshot d = perfbench::HistogramDelta(s0, s1);
  CHECK(d.count == 200);
  CHECK(d.sum == 100 * 1000 + 100 * 10);
  CHECK(d.Percentile(25) == s1.Percentile(0));   // the 10 us bucket
  CHECK(d.Percentile(75) > 900 && d.Percentile(75) < 1100);
  CHECK(s1.Percentile(75) < 20);  // the whole history hides the window

  harmony::obs::MetricsSnapshot m0, m1;
  s0.name = s1.name = "x";
  m0.histograms.push_back(s0);
  m1.histograms.push_back(s1);
  CHECK(perfbench::HistogramDelta(m0, m1, "x").count == 200);
  CHECK(perfbench::HistogramDelta(m0, m1, "y").count == 0);
  // A histogram that appeared during the window counts whole.
  CHECK(perfbench::HistogramDelta(harmony::obs::MetricsSnapshot{}, m1, "x")
            .count == 1200);
}

void OpenLoopPacer() {
  // 1000 txn/s from t = 1'000'000 us: one slot per millisecond.
  Pacer p(1'000'000, 1000);
  CHECK(p.NextDue() == 1'000'000);
  Pacer::Slot s = p.Sent(1'000'000);
  CHECK(s.due_us == 1'000'000 && s.late_us == 0);
  CHECK(p.NextDue() == 1'001'000);
  s = p.Sent(1'001'020);  // 20 us of sleep overshoot
  CHECK(s.due_us == 1'001'000 && s.late_us == 20);

  // The sender stalls for 5 ms: the three slots it owes go out back to
  // back, none skipped, each late by its distance from its own due time.
  const uint64_t resume = 1'007'000;
  s = p.Sent(resume);
  CHECK(s.due_us == 1'002'000 && s.late_us == 5000);
  s = p.Sent(resume + 10);
  CHECK(s.due_us == 1'003'000 && s.late_us == 4010);
  s = p.Sent(resume + 20);
  CHECK(s.due_us == 1'004'000 && s.late_us == 3020);
  CHECK(p.sent() == 5);
  // Latency is timed from the due time, so the stall counts: a receipt
  // 1 ms after the late send is 4 ms from due, not 1 ms.
  CHECK(perfbench::LatencyFromDue(1'004'000, resume + 20 + 1000) == 4020);
  // Caught up: the next slot is on schedule again.
  CHECK(p.NextDue() == 1'005'000);
  s = p.Sent(1'007'100);
  CHECK(s.late_us == 2100);
  CHECK(p.NextDue() == 1'006'000);

  // Fractional periods do not drift: slot i is due at start + i / rate.
  Pacer q(0, 3000);
  for (int i = 0; i < 2999; i++) q.Sent(0);
  CHECK(q.NextDue() == 999'666);
  q.Sent(0);
  CHECK(q.NextDue() == 1'000'000);
}

void ResultLine() {
  const std::string line = perfbench::ResultJson(
      true, 12, 0, {{"a_ms", 1.25, "ms"}, {"n", 3, "count"}});
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
        "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": "
        "3, \"unit\": \"count\"}}}");
  CHECK(perfbench::FormatNumber(0.1) == "0.1");
  CHECK(std::stod(perfbench::FormatNumber(1.0 / 3)) == 1.0 / 3);
}

}  // namespace

int main() {
  PercentileRule();
  SlicedTimings();
  QuietSliceChoice();
  WindowDifferences();
  OpenLoopPacer();
  ResultLine();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d checks failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
