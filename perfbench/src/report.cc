#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double TailPercentile(uint64_t n, double max_pct) {
  static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double pct : kCandidates) {
    if (pct > max_pct) continue;
    // Samples strictly above the percentile's rank.
    const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 >= 10.0) return pct;
  }
  return 0;
}

double Quantile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

double Median(std::vector<double>* values) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  const std::vector<double>& v = *values;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Timing SummariseSlices(std::vector<std::vector<double>>* slices) {
  Timing t;
  uint64_t smallest = UINT64_MAX;
  for (std::vector<double>& s : *slices) {
    if (s.empty()) continue;
    std::sort(s.begin(), s.end());
    t.samples += s.size();
    smallest = std::min<uint64_t>(smallest, s.size());
  }
  if (t.samples == 0) return t;
  t.tail_pct = TailPercentile(smallest);
  std::vector<double> p50s, tails;
  for (const std::vector<double>& s : *slices) {
    if (s.empty()) continue;
    p50s.push_back(Quantile(s, 50));
    tails.push_back(Quantile(s, t.tail_pct > 0 ? t.tail_pct : 50));
  }
  t.p50 = Median(&p50s);
  t.tail = Median(&tails);
  return t;
}

std::vector<size_t> QuietSlices(const std::vector<double>& steal_shares) {
  std::vector<double> sorted = steal_shares;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> quiet;
  if (sorted.empty()) return quiet;
  const double median = sorted[(sorted.size() - 1) / 2];
  for (size_t i = 0; i < steal_shares.size(); i++) {
    if (steal_shares[i] <= median) quiet.push_back(i);
  }
  return quiet;
}

uint64_t CounterWindow::Delta(const std::string& name) const {
  auto b = before_.find(name);
  auto a = after_.find(name);
  if (b == before_.end() || a == after_.end()) {
    errors_.push_back("counter " + name + " missing");
    return 0;
  }
  if (a->second < b->second) {
    errors_.push_back("counter " + name + " went backwards");
    return 0;
  }
  return a->second - b->second;
}

harmony::obs::HistogramSnapshot HistogramDelta(
    const harmony::obs::HistogramSnapshot& before,
    const harmony::obs::HistogramSnapshot& after) {
  harmony::obs::HistogramSnapshot out;
  out.name = after.name;
  std::map<uint32_t, uint64_t> prior(before.buckets.begin(),
                                     before.buckets.end());
  for (const auto& [idx, count] : after.buckets) {
    const uint64_t was = prior.count(idx) ? prior[idx] : 0;
    if (count <= was) continue;
    out.buckets.emplace_back(idx, count - was);
    out.count += count - was;
  }
  out.sum = after.sum >= before.sum ? after.sum - before.sum : 0;
  return out;
}

harmony::obs::HistogramSnapshot HistogramDelta(
    const harmony::obs::MetricsSnapshot& before,
    const harmony::obs::MetricsSnapshot& after, const std::string& name) {
  auto find = [&name](const harmony::obs::MetricsSnapshot& s)
      -> const harmony::obs::HistogramSnapshot* {
    for (const auto& h : s.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  const auto* a = find(after);
  if (a == nullptr) return {};
  const auto* b = find(before);
  return b == nullptr ? *a : HistogramDelta(*b, *a);
}

Pacer::Pacer(uint64_t start_us, double rate_per_s)
    : start_us_(start_us), rate_per_s_(rate_per_s) {}

uint64_t Pacer::NextDue() const {
  // From the slot index each time, so rounding never accumulates.
  return start_us_ + static_cast<uint64_t>(static_cast<double>(sent_) *
                                           1e6 / rate_per_s_);
}

Pacer::Slot Pacer::Sent(uint64_t now_us) {
  Slot s;
  s.due_us = NextDue();
  s.late_us = now_us > s.due_us ? now_us - s.due_us : 0;
  sent_++;
  return s;
}

std::string FormatNumber(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + harmony::obs::JsonEscape(metrics[i].name) +
           "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + harmony::obs::JsonEscape(metrics[i].unit) +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
