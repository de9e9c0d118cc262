// Long-lived loopback HTTP server for hijack what-if queries.
//
// A fixed pool of worker threads on net::LoopbackServer, the accept loop the
// heartbeat's /metrics endpoint also runs on: every worker poll()s and
// accept()s one shared non-blocking listener and handles one connection at
// a time end-to-end (read -> route -> write), so the connection limit is the
// worker count and per-worker handler state needs no locks. This class adds
// the request lifecycle on top (handle_connection). stop() drains: workers
// finish their in-flight request, then the listener closes.
#pragma once

#include <cstdint>

#include "net/http_common.hpp"
#include "net/loopback_server.hpp"
#include "serve/router.hpp"

namespace bgpsim::serve {

struct QueryServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  unsigned workers = 4;    ///< clamped to [1, 64]
  net::HttpLimits limits;  ///< per-connection read bounds
};

class QueryServer {
 public:
  /// The router is copied per worker-visible shared state; handlers must be
  /// safe to call from `options.workers` threads at once (the worker index
  /// argument exists so they can shard state instead of locking).
  QueryServer(Router router, QueryServerOptions options);

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Bind and spawn the workers. Returns false when the port cannot be
  /// bound or the server is already running (no throw: the CLI turns this
  /// into an exit code).
  bool start();

  /// Drain and join. Safe to call from a signal-triggered main loop,
  /// idempotent, and safe to call concurrently: exactly one caller drains
  /// and the rest return immediately.
  void stop() { server_.stop(); }

  bool running() const { return server_.running(); }
  std::uint16_t port() const { return server_.port(); }

 private:
  /// One accepted connection end-to-end: read, route, write, account. Owns
  /// the request lifecycle — request-id assignment/echo, phase timing,
  /// status-class counters, in-flight gauge, and the access-log record.
  /// Does not close `conn`.
  void handle_connection(unsigned index, int conn);

  Router router_;
  QueryServerOptions options_;
  /// Declared after router_ and options_, so it is destroyed first: its
  /// destructor joins the workers before the state they read goes away.
  net::LoopbackServer server_;
};

}  // namespace bgpsim::serve
