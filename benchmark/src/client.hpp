// Process and socket plumbing for the benchmark: a blocking loopback HTTP
// client (one connection per request, as the server answers
// `Connection: close`), child processes that are always reaped, and the
// monotonic clock every bgpbench timing reads.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bgpbench {

/// Seconds on the monotonic clock (std::chrono::steady_clock).
double now_s();

/// Sleep until the monotonic clock reads `deadline_s` (no-op if past).
void sleep_until_s(double deadline_s);

/// Idle for a second before a timed phase that follows a heavier one. On
/// the reference VM, single-threaded work right after all cores were busy
/// runs up to 50% slower for about a second; one idle second removes that.
void settle();

struct HttpResult {
  int status = 0;  ///< 0 = transport failure (connect, send, timeout)
  std::string body;
};

/// One request on a fresh loopback connection; `body` empty sends a GET.
HttpResult http_request(std::uint16_t port, const std::string& method,
                        const std::string& target, const std::string& body = {});

/// A spawned child process. The destructor kills (SIGKILL) and reaps a
/// child still running, and the child gets PR_SET_PDEATHSIG so it cannot
/// outlive the benchmark either.
class Child {
 public:
  /// fork+exec `argv`; stdout is captured through a pipe.
  explicit Child(const std::vector<std::string>& argv);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Next stdout line (without '\n'); nullopt at EOF.
  std::optional<std::string> read_line();

  /// Everything left on stdout, up to EOF.
  std::string read_rest();

  /// Send SIGTERM.
  void terminate();

  /// Reap the child; returns its exit code, or 128 + signal number.
  int wait();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  bool reaped_ = false;
};

/// Run `argv` to completion and return its exit code; stdout goes to
/// `out` when given (otherwise it is drained and dropped).
int run_child(const std::vector<std::string>& argv, std::string* out = nullptr);

/// Peak resident set size (VmHWM) of a live process in MiB; 0 if unknown.
double vm_hwm_mb(pid_t pid);

/// The last non-empty line of `text` (without its newline).
std::string last_line(const std::string& text);

}  // namespace bgpbench
