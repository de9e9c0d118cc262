#include "net/http_common.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>

namespace bgpsim::net {
namespace {

/// Wait for readability, then recv. Returns bytes read, 0 on orderly close,
/// -1 on error, -2 on timeout.
ssize_t recv_with_timeout(int fd, char* buf, std::size_t len, int timeout_ms) {
  struct pollfd pfd{fd, POLLIN, 0};
  const int ready = poll(&pfd, 1, timeout_ms);
  if (ready == 0) return -2;
  if (ready < 0) return -1;
  return recv(fd, buf, len, 0);
}

}  // namespace

std::string_view find_header(std::string_view head, std::string_view name) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find('\n', pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > name.size() && line[name.size()] == ':') {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          match = false;
          break;
        }
      }
      if (match) {
        std::string_view value = line.substr(name.size() + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        return value;
      }
    }
    pos = eol + 1;
  }
  return {};
}

std::string_view HttpRequest::header(std::string_view name) const {
  return find_header(head, name);
}

HttpReadStatus read_http_request(int fd, const HttpLimits& limits,
                                 HttpRequest& out, HttpReadHook on_first_byte,
                                 void* user) {
  std::string buffer;
  buffer.reserve(1024);

  // Read until the blank line ending the head (tolerate bare-LF clients).
  std::size_t head_end = std::string::npos;
  std::size_t body_start = 0;
  char chunk[1024];
  while (head_end == std::string::npos) {
    if (buffer.size() >= limits.max_head_bytes) return HttpReadStatus::TooLarge;
    const ssize_t n = recv_with_timeout(
        fd, chunk, std::min(sizeof(chunk), limits.max_head_bytes - buffer.size()),
        limits.read_timeout_millis);
    if (n == -2) return HttpReadStatus::Timeout;
    if (n <= 0) return HttpReadStatus::Closed;
    if (buffer.empty() && on_first_byte != nullptr) {
      on_first_byte(user);
      on_first_byte = nullptr;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (const auto crlf = buffer.find("\r\n\r\n"); crlf != std::string::npos) {
      head_end = crlf;
      body_start = crlf + 4;
    } else if (const auto lf = buffer.find("\n\n"); lf != std::string::npos) {
      head_end = lf;
      body_start = lf + 2;
    }
  }

  // Retain the raw head so callers can consult request headers (request-id
  // passthrough, future keep-alive negotiation) without re-reading.
  out.head = buffer.substr(0, head_end);
  const std::string_view head(out.head);

  // Request line: METHOD SP TARGET SP HTTP/x.y
  std::size_t line_end = head.find('\n');
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.substr(sp2 + 1).rfind("HTTP/", 0) != 0) {
    return HttpReadStatus::Malformed;
  }
  out.method.assign(request_line.substr(0, sp1));
  out.target.assign(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (out.method.empty() || out.target.empty() || out.target[0] != '/') {
    return HttpReadStatus::Malformed;
  }

  // Body: exactly Content-Length bytes (no chunked encoding — the query
  // service's clients are curl and test harnesses).
  out.body.clear();
  const std::string_view length_text = find_header(head, "content-length");
  if (!length_text.empty()) {
    std::uint64_t declared = 0;
    for (const char c : length_text) {
      if (c < '0' || c > '9') return HttpReadStatus::Malformed;
      declared = declared * 10 + static_cast<std::uint64_t>(c - '0');
      if (declared > limits.max_body_bytes) return HttpReadStatus::TooLarge;
    }
    out.body = buffer.substr(body_start);
    if (out.body.size() > declared) out.body.resize(declared);
    while (out.body.size() < declared) {
      const ssize_t n = recv_with_timeout(
          fd, chunk, std::min(sizeof(chunk), declared - out.body.size()),
          limits.read_timeout_millis);
      if (n == -2) return HttpReadStatus::Timeout;
      if (n <= 0) return HttpReadStatus::Closed;
      out.body.append(chunk, static_cast<std::size_t>(n));
    }
  }
  return HttpReadStatus::Ok;
}

const char* http_status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void write_http_response(int fd, int status, std::string_view content_type,
                         std::string_view body, std::string_view extra_headers) {
  char status_line[256];
  std::snprintf(status_line, sizeof(status_line),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %.*s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n",
                status, http_status_text(status),
                static_cast<int>(content_type.size()), content_type.data(),
                body.size());
  std::string header(status_line);
  header.append(extra_headers);
  header.append("\r\n");
  (void)send(fd, header.data(), header.size(), MSG_NOSIGNAL);
  std::size_t sent = 0;
  while (sent < body.size()) {
    const ssize_t n =
        send(fd, body.data() + sent, body.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

void answer_metrics_scrape(int conn,
                           const std::function<std::string()>& provider) {
  // A scrape request is tiny; anything bigger is not a Prometheus scraper.
  constexpr HttpLimits kScrapeLimits{
      .max_head_bytes = 2048,
      .max_body_bytes = 0,
      .read_timeout_millis = 1000,
  };
  HttpRequest request;
  switch (read_http_request(conn, kScrapeLimits, request)) {
    case HttpReadStatus::Ok:
      break;
    case HttpReadStatus::TooLarge:
      write_http_response(conn, 413, "text/plain; charset=utf-8",
                          "request too large\n");
      return;
    case HttpReadStatus::Malformed:
      write_http_response(conn, 400, "text/plain; charset=utf-8",
                          "malformed request\n");
      return;
    case HttpReadStatus::Timeout:
    case HttpReadStatus::Closed:
      return;  // nothing useful to answer
  }

  const bool is_metrics = request.method == "GET" &&
                          request.target.rfind("/metrics", 0) == 0 &&
                          (request.target.size() == 8 ||
                           request.target[8] == '?');
  if (is_metrics) {
    write_http_response(conn, 200, "text/plain; version=0.0.4; charset=utf-8",
                        provider ? provider() : std::string());
  } else {
    write_http_response(conn, 404, "text/plain; charset=utf-8", "not found\n");
  }
}

int open_loopback_listener(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 16) != 0) {
    close(fd);
    return -1;
  }
  // Non-blocking so several workers can poll()+accept() the same listener:
  // one wins the race, the rest see EAGAIN and go back to waiting.
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  struct sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) == 0) {
    bound_port = ntohs(bound.sin_port);
  } else {
    bound_port = port;
  }
  return fd;
}

}  // namespace bgpsim::net
