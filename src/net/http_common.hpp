// Shared HTTP/1.1 plumbing for the loopback servers in this repo. The
// accept loop lives once, in net::LoopbackServer; these helpers are what its
// connection handlers speak through — the bgpsim::serve query router and
// answer_metrics_scrape() below, the heartbeat's /metrics endpoint.
//
// Scope is deliberately narrow — blocking sockets driven by poll(), one
// request per connection, Connection: close — because both servers are
// operational plumbing, not general web servers. Every connection gets:
//   * a per-connection read timeout (a stalled peer cannot pin a worker),
//   * oversized-request rejection (bounded head and body buffers), and
//   * request-line + Content-Length parsing so POST bodies work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace bgpsim::net {

/// One parsed request: "POST /v1/attack HTTP/1.1" + optional body.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as received)
  std::string target;  ///< request-target, e.g. "/metrics" or "/v1/attack"
  std::string body;    ///< Content-Length bytes (empty when none declared)
  std::string head;    ///< raw request head (request line + headers)

  /// Value of `name` (case-insensitive) from the retained head, or empty.
  std::string_view header(std::string_view name) const;
};

/// Case-insensitive search for a header name at line starts inside a raw
/// request head; returns the trimmed value substring or empty when absent.
std::string_view find_header(std::string_view head, std::string_view name);

/// Why read_http_request returned without a usable request.
enum class HttpReadStatus : std::uint8_t {
  Ok,        ///< request parsed; respond and close
  Closed,    ///< peer closed (or sent nothing) before a full head arrived
  Timeout,   ///< peer stalled past the read timeout; close without answering
  TooLarge,  ///< head or declared body exceeds the limits; answer 413
  Malformed, ///< not parseable as HTTP/1.x; answer 400
};

/// Bounds applied to every connection.
struct HttpLimits {
  std::size_t max_head_bytes = 8192;
  std::size_t max_body_bytes = 64 * 1024;
  /// Budget for each poll() wait while reading; a peer that sends nothing
  /// for this long is treated as stalled.
  int read_timeout_millis = 2000;
};

/// Observation hook fired once when the first request bytes arrive (plain
/// function pointer + user cookie so the serve layer can split "waiting for
/// the client" from "reading the request" without this layer owning clocks).
using HttpReadHook = void (*)(void* user);

/// Read and parse one request from `fd` (blocking socket, poll()-driven).
/// On anything but Ok the contents of `out` are unspecified.
/// `on_first_byte(user)` (when non-null) fires once, right after the first
/// successful recv of this request.
HttpReadStatus read_http_request(int fd, const HttpLimits& limits,
                                 HttpRequest& out,
                                 HttpReadHook on_first_byte = nullptr,
                                 void* user = nullptr);

/// Standard reason phrase for the handful of codes the servers emit.
const char* http_status_text(int status);

/// Serialize and send one response, Connection: close. `extra_headers`,
/// when non-empty, is spliced verbatim into the head and must be complete
/// CRLF-terminated header lines (e.g. "X-Request-Id: abc\r\n"). Short writes
/// and send errors are swallowed — the connection is closed right after
/// anyway.
void write_http_response(int fd, int status, std::string_view content_type,
                         std::string_view body,
                         std::string_view extra_headers = {});

/// Answer one Prometheus scrape on `conn`: `GET /metrics` (with or without a
/// query string) gets 200 and provider()'s exposition text, any other
/// request 404; an oversized head gets 413, an unparseable one 400, and a
/// peer that stalls or hangs up gets no answer. A scrape is tiny, so the
/// limits are tight: 2 KiB head, no body, 1 s read timeout. Does not close
/// `conn`.
void answer_metrics_scrape(int conn,
                           const std::function<std::string()>& provider);

/// Bind a loopback TCP listener (port 0 = ephemeral) and start listening.
/// Returns the listening fd (non-blocking) and fills `bound_port`, or -1.
int open_loopback_listener(std::uint16_t port, std::uint16_t& bound_port);

}  // namespace bgpsim::net
