#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace bgpbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double deadline_s) {
  const double wait = deadline_s - now_s();
  if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void settle() { sleep_until_s(now_s() + 1.0); }

HttpResult http_request(std::uint16_t port, const std::string& method,
                        const std::string& target, const std::string& body) {
  HttpResult out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  // A wedged server must fail the request, not hang the benchmark.
  const timeval timeout{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return out;
  }
  std::string request = method;
  request += ' ';
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: ";
    request += std::to_string(body.size());
    request += "\r\n";
  }
  request += "\r\n";
  request += body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return out;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      close(fd);
      return out;  // timeout or reset: a transport failure
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0) return out;
  const std::size_t space = raw.find(' ');
  if (space == std::string::npos) return out;
  out.status = std::atoi(raw.c_str() + space + 1);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = raw.substr(split + 4);
  return out;
}

Child::Child(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  out_fd_ = fds[0];
}

Child::~Child() {
  if (!reaped_ && pid_ > 0) {
    kill(pid_, SIGKILL);
    wait();
  }
  if (out_fd_ >= 0) close(out_fd_);
}

std::optional<std::string> Child::read_line() {
  for (;;) {
    const std::size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      std::string line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return line;
    }
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (buffer_.empty()) return std::nullopt;
      std::string line = std::move(buffer_);
      buffer_.clear();
      return line;
    }
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string Child::read_rest() {
  std::string out = std::move(buffer_);
  buffer_.clear();
  char buf[4096];
  for (;;) {
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

void Child::terminate() {
  if (!reaped_ && pid_ > 0) kill(pid_, SIGTERM);
}

int Child::wait() {
  if (reaped_) return -1;
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) {
      reaped_ = true;
      return -1;
    }
  }
  reaped_ = true;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int run_child(const std::vector<std::string>& argv, std::string* out) {
  Child child(argv);
  std::string text = child.read_rest();
  if (out != nullptr) *out = std::move(text);
  return child.wait();
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string last_line(const std::string& text) {
  const std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return {};
  const std::size_t newline = text.rfind('\n', end);
  const std::size_t begin = newline == std::string::npos ? 0 : newline + 1;
  return text.substr(begin, end - begin + 1);
}

}  // namespace bgpbench
