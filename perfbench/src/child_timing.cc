#include "perfbench/src/child_timing.h"

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/shard/router.h"
#include "src/wal/recovery.h"

extern char** environ;

namespace perfbench {

namespace {

/// Pins the calling thread to the `i`-th CPU (modulo the CPUs the process
/// was started with). Set-up and recovery are single-threaded, so pinning
/// repetition i to CPU i changes no work; it makes the repetitions sample
/// every CPU, so a virtual CPU whose host is busy for seconds slows one
/// repetition in nproc rather than all of them.
void PinRoundRobin(int i) {
  // Read once: after the first pin the thread's own mask is one CPU.
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    if (sched_getaffinity(0, sizeof(s), &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  if (CPU_COUNT(&allowed) == 0) return;
  int k = i % CPU_COUNT(&allowed);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Runs this binary with `args` (after argv[0]) in a child process, waits
/// for it, and returns the numbers that follow each "<label> " in its
/// standard output; expects exactly `reps` of them.
std::vector<double> TimeInChild(const std::vector<std::string>& args,
                                const std::string& label, int reps,
                                std::string* error) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) {
    *error = "cannot locate this binary";
    return {};
  }
  self[n] = '\0';
  std::vector<std::string> all = {self};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return {};
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, got);
  }
  close(fds[0]);
  if (rc != 0) {
    *error = std::string("cannot start the child process: ") +
             std::strerror(rc);
    return {};
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "child process failed";
    return {};
  }
  std::vector<double> secs;
  const std::string key = label + " ";
  size_t pos = 0;
  while ((pos = out.find(key, pos)) != std::string::npos) {
    pos += key.size();
    secs.push_back(std::strtod(out.c_str() + pos, nullptr));
  }
  if (secs.size() != static_cast<size_t>(reps)) {
    *error = "child process reported " + std::to_string(secs.size()) +
             " of " + std::to_string(reps) + " times";
    return {};
  }
  return secs;
}

}  // namespace

std::vector<double> TimeRecoveryInChild(const RecoveryTarget& target, int reps,
                                        std::string* error) {
  const bool router = !target.router_dir.empty();
  return TimeInChild({"--time-recovery", router ? "router" : "wal",
                      router ? target.router_dir : target.wal_path,
                      std::to_string(reps), std::to_string(target.shards)},
                     "recovery_s", reps, error);
}

int RunRecoveryTiming(const RecoveryTarget& target, int reps) {
  for (int i = 0; i < reps; ++i) {
    PinRoundRobin(i);
    youtopia::Status st;
    const int64_t t0 = NowNanos();
    int64_t t1 = 0;
    if (!target.router_dir.empty()) {
      youtopia::shard::Router::Options o;
      o.num_shards = target.shards;
      o.dir = target.router_dir;
      auto r = youtopia::shard::Router::Recover(o);
      t1 = NowNanos();
      st = r.status();
    } else {
      auto r = youtopia::RecoveryManager::Recover(target.wal_path);
      t1 = NowNanos();
      st = r.status();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("recovery_s %.9f\n", static_cast<double>(t1 - t0) / 1e9);
  }
  return 0;
}

std::vector<double> TimeSetupsInChild(const Options& o, int reps,
                                      std::string* error) {
  const std::string dir = o.data_dir + "/setup-child";
  std::vector<double> secs =
      TimeInChild({"--time-setup", o.workload, dir, std::to_string(reps),
                   std::to_string(o.seed)},
                  "setup_s", reps, error);
  RemoveDir(dir);
  return secs;
}

int RunSetupTiming(int reps, const std::function<void()>& drop,
                   const std::function<youtopia::Status()>& build) {
  for (int i = 0; i < reps; ++i) {
    drop();
    PinRoundRobin(i);
    const int64_t t0 = NowNanos();
    const youtopia::Status st = build();
    const int64_t t1 = NowNanos();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("setup_s %.9f\n", static_cast<double>(t1 - t0) / 1e9);
  }
  drop();
  return 0;
}

}  // namespace perfbench
