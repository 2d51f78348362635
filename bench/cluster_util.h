// Helpers for benches that spawn a real multi-process HarmonyBC cluster:
// fork/exec `harmonyd serve` nodes (leader + --join followers,
// docs/REPLICATION.md), parse their serve banner for the ephemeral port,
// poll chain height over STATS frames, and collect the `state_digest=`
// shutdown fingerprint the nodes print for cross-node comparison.
//
// Used by bench/net_bench.cc (--replicas) and bench/fig15_16_replicas.cc
// (--wire). Everything is bench-grade: failures print and exit rather than
// propagate Status.
#pragma once

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/client.h"

namespace harmony {
namespace bench {

/// One spawned `harmonyd serve` process. `port`/`pid` are rewritten when a
/// killed follower is respawned, so concurrent readers must synchronise.
struct NodeProc {
  std::string name;
  std::string dir;
  std::string log;
  std::vector<std::string> role_flags;
  pid_t pid = -1;
  uint16_t port = 0;
};

/// The harmonyd binary is built into the same directory as every bench.
inline std::string DefaultHarmonydPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "harmonyd";
  buf[n] = '\0';
  return (std::filesystem::path(buf).parent_path() / "harmonyd").string();
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// fork/exec `harmonyd serve` with stdout+stderr appended to n->log (append,
/// so a respawn keeps the earlier boot's lines for post-mortems; readers
/// track a byte offset to only see the current boot).
inline void SpawnNode(const std::string& harmonyd, NodeProc* n) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    const int fd = ::open(n->log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<std::string> args = {
        harmonyd,     "serve",      "--dir",      n->dir,  "--port", "0",
        "--reactors", "2",          "--threads",  "4",     "--block-size",
        "100",        "--delay-us", "2000"};
    args.insert(args.end(), n->role_flags.begin(), n->role_flags.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(harmonyd.c_str(), argv.data());
    std::perror("execv harmonyd");
    ::_exit(127);
  }
  n->pid = pid;
}

/// Waits for the node's "harmonyd: serving ... on HOST:PORT (..." banner
/// past `from_off` (content written by *this* boot) and returns the port.
inline uint16_t WaitForServePort(const NodeProc& n, size_t from_off,
                                 double timeout_s) {
  Timer t;
  while (t.ElapsedSeconds() < timeout_s) {
    const std::string all = ReadFile(n.log);
    if (all.size() > from_off) {
      const std::string tail = all.substr(from_off);
      const size_t line = tail.rfind("harmonyd: serving ");
      if (line != std::string::npos) {
        const size_t eol = tail.find('\n', line);
        if (eol != std::string::npos) {
          // Last ':' in the banner line precedes the port.
          const std::string banner = tail.substr(line, eol - line);
          const size_t colon = banner.rfind(':');
          if (colon != std::string::npos) {
            const int port = std::atoi(banner.c_str() + colon + 1);
            if (port > 0 && port <= 65535) {
              return static_cast<uint16_t>(port);
            }
          }
        }
      }
    }
    ::usleep(20'000);
  }
  std::fprintf(stderr, "cluster: %s never printed its serve banner (log %s)\n",
               n.name.c_str(), n.log.c_str());
  std::exit(1);
}

/// Reaps `pid` within `timeout_s`, escalating to SIGKILL. Returns the exit
/// code (128+sig for signal deaths, -1 if it had to be killed).
inline int WaitExit(pid_t pid, double timeout_s) {
  Timer t;
  int st = 0;
  while (t.ElapsedSeconds() < timeout_s) {
    const pid_t r = ::waitpid(pid, &st, WNOHANG);
    if (r == pid) {
      return WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
    }
    ::usleep(10'000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &st, 0);
  return -1;
}

/// Last `state_digest=...` line a node printed (its shutdown fingerprint).
inline std::string LastDigestLine(const std::string& log) {
  const std::string all = ReadFile(log);
  const size_t pos = all.rfind("state_digest=");
  if (pos == std::string::npos) return "";
  const size_t eol = all.find('\n', pos);
  return all.substr(pos, eol == std::string::npos ? std::string::npos
                                                  : eol - pos);
}

/// One HEALTH round-trip; 0 on connect/timeout failure (node down).
inline uint64_t NodeHeight(uint16_t port) {
  net::NetClientOptions co;
  co.port = port;
  auto client = net::NetClient::Connect(co);
  if (!client.ok()) return 0;
  auto health = (*client)->Health(/*timeout_us=*/2'000'000);
  return health.ok() ? health->height : 0;
}

}  // namespace bench
}  // namespace harmony
