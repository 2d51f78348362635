#include "testing/crash_point.h"

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "obs/events.h"

namespace harmony {
namespace testing {

std::atomic<bool> g_crash_points_armed{false};

namespace {

std::atomic<obs::EventLog*> g_crash_event_log{nullptr};

/// Announces an arming into the registered sink (if any). Crash points are
/// a torture-harness facility: an armed point in a serving process is worth
/// a warning in its event stream.
void EmitArmEvent(const std::string& point, uint64_t hit) {
  if (obs::EventLog* log =
          g_crash_event_log.load(std::memory_order_acquire)) {
    log->Emit(obs::EventSeverity::kWarn, obs::EventCode::kCrashPointArm,
              point + " (hit " + std::to_string(hit) + ")");
  }
}

struct CrashState {
  std::mutex mu;
  std::string point;                 // armed point name; empty = disarmed
  uint64_t target_hit = 0;           // 1-based: kill on the N-th hit
  double frac = 1.0;                 // torn-write fraction
  std::function<void()> handler;     // test override; null = real SIGKILL
  std::unordered_map<std::string, uint64_t> hits;
  bool env_parsed = false;
};

CrashState& State() {
  static CrashState* s = new CrashState();  // leaked: survives exit paths
  return *s;
}

/// Parses HARMONY_CRASH="point:hit[:frac]" once. Malformed values disarm.
void ParseEnvLocked(CrashState& s) {
  if (s.env_parsed) return;
  s.env_parsed = true;
  const char* env = std::getenv("HARMONY_CRASH");
  if (env == nullptr || *env == '\0') return;
  const std::string spec(env);
  const size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0) return;
  const size_t c2 = spec.find(':', c1 + 1);
  const std::string hit_str =
      c2 == std::string::npos ? spec.substr(c1 + 1)
                              : spec.substr(c1 + 1, c2 - c1 - 1);
  char* end = nullptr;
  const uint64_t hit = std::strtoull(hit_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || hit == 0) return;
  double frac = 1.0;
  if (c2 != std::string::npos) {
    frac = std::strtod(spec.c_str() + c2 + 1, nullptr);
    if (frac < 0.0) frac = 0.0;
    if (frac > 1.0) frac = 1.0;
  }
  s.point = spec.substr(0, c1);
  s.target_hit = hit;
  s.frac = frac;
  EmitArmEvent(s.point, s.target_hit);
}

void Kill(std::unique_lock<std::mutex>& lk, CrashState& s) {
  if (s.handler) {
    // Test mode: run the handler outside the lock, so a handler that
    // blocks does not stall other threads passing other points.
    const std::function<void()> handler = s.handler;
    lk.unlock();
    handler();
    return;
  }
  // Real mode: SIGKILL ourselves — no destructors, no buffered-IO flush,
  // exactly a process crash as far as the filesystem is concerned (the
  // page cache, and therefore every completed pwrite, survives).
  ::kill(::getpid(), SIGKILL);
  // Unreachable in practice; pause until the signal lands.
  for (;;) ::pause();
}

/// Arms the fast-path flag at process start when HARMONY_CRASH is present
/// in the environment (the torture runner execs children with it set); the
/// spec itself is parsed lazily on the first hit.
struct EnvArm {
  EnvArm() {
    const char* env = std::getenv("HARMONY_CRASH");
    if (env != nullptr && *env != '\0') {
      g_crash_points_armed.store(true, std::memory_order_relaxed);
    }
  }
} g_env_arm;

}  // namespace

void CrashPointHit(const char* name) {
  CrashState& s = State();
  std::unique_lock<std::mutex> lk(s.mu);
  ParseEnvLocked(s);
  if (s.point.empty() || s.point != name) return;
  const uint64_t n = ++s.hits[s.point];
  if (n == s.target_hit) Kill(lk, s);
}

bool CrashPointTorn(const char* name, double* frac) {
  if (!g_crash_points_armed.load(std::memory_order_relaxed)) return false;
  CrashState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  ParseEnvLocked(s);
  if (s.point.empty() || s.point != name) return false;
  const uint64_t n = ++s.hits[s.point];
  if (n != s.target_hit) return false;
  *frac = s.frac;
  return true;
}

void CrashNow() {
  CrashState& s = State();
  std::unique_lock<std::mutex> lk(s.mu);
  Kill(lk, s);
}

void ArmCrashPointForTest(const std::string& name, uint64_t hit,
                          std::function<void()> handler, double frac) {
  CrashState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  s.env_parsed = true;  // never consult the environment in test mode
  s.point = name;
  s.target_hit = hit;
  s.frac = frac;
  s.handler = std::move(handler);
  s.hits.clear();
  g_crash_points_armed.store(true, std::memory_order_relaxed);
  EmitArmEvent(name, hit);
}

void DisarmCrashPoints() {
  CrashState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  s.point.clear();
  s.target_hit = 0;
  s.frac = 1.0;
  s.handler = nullptr;
  s.hits.clear();
  s.env_parsed = true;
  g_crash_points_armed.store(false, std::memory_order_relaxed);
}

void SetCrashPointEventLog(obs::EventLog* events) {
  g_crash_event_log.store(events, std::memory_order_release);
}

void ClearCrashPointEventLog(obs::EventLog* events) {
  obs::EventLog* expected = events;
  g_crash_event_log.compare_exchange_strong(expected, nullptr,
                                            std::memory_order_acq_rel);
}

uint64_t CrashPointHits(const std::string& name) {
  CrashState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.hits.find(name);
  return it == s.hits.end() ? 0 : it->second;
}

}  // namespace testing
}  // namespace harmony
