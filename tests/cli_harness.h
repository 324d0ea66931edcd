// Shared helpers for the suites that run the mira-cli binary they were
// built next to (MIRA_CLI_PATH, injected by CMake): scratch directories,
// file I/O, a small corpus generator, process spawning, and daemons.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/batch.h"

extern char **environ;

namespace mira::cli_harness {

namespace fs = std::filesystem;

/// A fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("mira_cli_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

inline void writeFile(const fs::path &path, const std::string &bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The file's bytes, or "" when it does not exist (yet).
inline std::string slurp(const fs::path &path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The file's bytes; a missing file fails the test, so two missing
/// reports never compare equal.
inline std::string readFile(const fs::path &path) {
  EXPECT_TRUE(fs::exists(path)) << path;
  return slurp(path);
}

/// `count` distinct single-loop kernels, kernel_00.mc onward; each
/// file's content (and therefore cache key) is unique.
inline void writeCorpus(const fs::path &root, int count) {
  for (int i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "kernel_%02d.mc", i);
    char source[256];
    std::snprintf(source, sizeof(source),
                  "int kernel_%02d(int n) {\n"
                  "  int s = %d;\n"
                  "  for (int i = 0; i < n; i++) {\n"
                  "    s = s + i * %d;\n"
                  "  }\n"
                  "  return s;\n"
                  "}\n",
                  i, i, i + 1);
    writeFile(root / name, source);
  }
}

/// Start mira-cli with `args`, stdout and stderr into `log`, and the
/// "NAME=VALUE" entries of `env` over this process's environment (how
/// tests arm MIRA_FAULT in a child only). posix_spawn stays safe while
/// the test runs threads of its own. Returns the child pid.
inline pid_t spawnCli(const std::vector<std::string> &args,
                      const fs::path &log,
                      const std::vector<std::string> &env = {}) {
  std::vector<std::string> argStrings = {MIRA_CLI_PATH};
  argStrings.insert(argStrings.end(), args.begin(), args.end());
  // getenv returns the first match, so the overrides go first.
  std::vector<std::string> envStrings = env;
  for (char **entry = environ; *entry; ++entry)
    envStrings.push_back(*entry);
  std::vector<char *> argv, envp;
  for (std::string &arg : argStrings)
    argv.push_back(arg.data());
  for (std::string &entry : envStrings)
    envp.push_back(entry.data());
  argv.push_back(nullptr);
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  if (posix_spawn(&pid, MIRA_CLI_PATH, &actions, nullptr, argv.data(),
                  envp.data()) != 0)
    pid = -1;
  posix_spawn_file_actions_destroy(&actions);
  EXPECT_GT(pid, 0) << "cannot spawn " << MIRA_CLI_PATH;
  return pid;
}

/// The child's exit code, or -1 when it died on a signal (e.g. SIGKILL).
inline int waitFor(pid_t pid) {
  int status = 0;
  if (pid <= 0 || ::waitpid(pid, &status, 0) != pid)
    return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Run one CLI invocation to completion; returns its exit code.
inline int runCli(const std::vector<std::string> &args, const fs::path &log,
                  const std::vector<std::string> &env = {}) {
  return waitFor(spawnCli(args, log, env));
}

/// runCli for a command that runs until stopped when it does not refuse
/// its arguments (`serve`): a child still running after `seconds` is
/// killed and reads as -1.
inline int runCliWithin(int seconds, const std::vector<std::string> &args,
                        const fs::path &log) {
  const pid_t pid = spawnCli(args, log);
  for (int waited = 0; pid > 0 && waited < seconds * 1000; waited += 20) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid)
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (pid > 0)
    ::kill(pid, SIGKILL);
  waitFor(pid);
  return -1;
}

inline driver::BatchReport loadReport(const fs::path &path) {
  driver::BatchReport report;
  std::string error;
  EXPECT_TRUE(driver::deserializeBatchReport(readFile(path), report, error))
      << path << ": " << error;
  return report;
}

/// A spawned `mira-cli serve`, SIGKILLed and reaped on destruction so a
/// failing assertion never leaks a listener into the next test.
struct Daemon {
  pid_t pid = -1;
  int port = 0; ///< the bound TCP port, when serving --listen

  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { kill(); }

  /// Spawn `serve <args>` and wait for its readiness line, which names
  /// every endpoint (a --listen port of 0 as the bound port). False
  /// when it never came.
  bool start(const std::vector<std::string> &args, const fs::path &log,
             const std::vector<std::string> &env = {}) {
    std::vector<std::string> serve = {"serve"};
    serve.insert(serve.end(), args.begin(), args.end());
    pid = spawnCli(serve, log, env);
    const std::string needle = "tcp 127.0.0.1:";
    for (int waited = 0; waited < 10000; waited += 20) {
      const std::string text = slurp(log);
      if (text.find("mira daemon listening on") != std::string::npos) {
        const std::size_t at = text.find(needle);
        if (at != std::string::npos)
          port = std::atoi(text.c_str() + at + needle.size());
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "daemon never became ready: " << slurp(log);
    return false;
  }

  /// Reap a daemon that is exiting on its own; its exit code.
  int wait() {
    const int rc = waitFor(pid);
    pid = -1;
    return rc;
  }

  void kill() {
    if (pid <= 0)
      return;
    ::kill(pid, SIGKILL);
    wait();
  }
};

} // namespace mira::cli_harness
