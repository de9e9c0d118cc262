#include "serve/query_server.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "serve/request_obs.hpp"
#include "support/parallel.hpp"

namespace bgpsim::serve {

QueryServer::QueryServer(Router router, QueryServerOptions options)
    : router_(std::move(router)), options_(options) {
  options_.workers = std::clamp(options_.workers, 1u, kMaxWorkers);
}

bool QueryServer::start() {
  if (!server_.start(options_.port, options_.workers,
                     [this](unsigned worker, int conn) {
                       handle_connection(worker, conn);
                     })) {
    return false;
  }
  BGPSIM_GAUGE_SET("serve.workers", options_.workers);
  return true;
}

void QueryServer::handle_connection(unsigned index, int conn) {
  ServeStats& stats = serve_stats();
  // The counters must move in both modes (/statusz reads them); only the
  // gauge mirror is obs — hence [[maybe_unused]] under -DBGPSIM_OBS=OFF.
  [[maybe_unused]] const std::int64_t in_flight =
      stats.in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
  BGPSIM_GAUGE_SET("serve.in_flight", in_flight);
  BGPSIM_TRACE_SPAN(span, "serve.request");

  // The timer starts at accept: time until the client's first byte is the
  // queue-wait phase, kept out of the request latency so a slow client (or
  // health-check probe) cannot inflate our numbers — the old coarse
  // serve.request timer wrapped the whole read and lied about exactly that.
  RequestTimer timer;
  net::HttpRequest request;
  const net::HttpReadStatus read_status =
      net::read_http_request(conn, options_.limits, request,
                             &RequestTimer::first_byte_hook, &timer);
  timer.mark_read_done();

  RequestContext ctx;
  ctx.worker = index;

  HttpResponse response;
  bool respond = true;
  switch (read_status) {
    case net::HttpReadStatus::Ok:
      stats.total.fetch_add(1, std::memory_order_relaxed);
      BGPSIM_COUNTER_ADD("serve.requests", 1);
      ctx.request_id =
          make_request_id(request.header("x-request-id"), index);
      response = router_.dispatch(request, ctx);
      break;
    case net::HttpReadStatus::TooLarge:
      stats.total.fetch_add(1, std::memory_order_relaxed);
      BGPSIM_COUNTER_ADD("serve.requests", 1);
      ctx.request_id = make_request_id({}, index);
      response = error_response(413, "request too large");
      break;
    case net::HttpReadStatus::Malformed:
      stats.total.fetch_add(1, std::memory_order_relaxed);
      BGPSIM_COUNTER_ADD("serve.requests", 1);
      ctx.request_id = make_request_id({}, index);
      response = error_response(400, "malformed request");
      break;
    case net::HttpReadStatus::Timeout:
    case net::HttpReadStatus::Closed:
      // Nothing useful to answer; account the drop and bail.
      respond = false;
      stats.dropped.fetch_add(1, std::memory_order_relaxed);
      BGPSIM_COUNTER_ADD("serve.dropped", 1);
      break;
  }

  if (respond) {
    timer.mark_handled();
    net::write_http_response(conn, response.status, response.content_type,
                             response.body,
                             "X-Request-Id: " + ctx.request_id + "\r\n");
    timer.mark_written();

    stats.count_status(response.status);
    span.arg("status", response.status);
    span.arg("us", static_cast<double>(timer.total_us()));
    record_request(ctx, response.status, response.body.size(), request.body,
                   timer);
  }

  // Mirror the decrement into the gauge too, or /metrics (and the bench
  // report snapshot) would hold the last *increment* forever.
  [[maybe_unused]] const std::int64_t remaining =
      stats.in_flight.fetch_sub(1, std::memory_order_relaxed) - 1;
  BGPSIM_GAUGE_SET("serve.in_flight", remaining);
}

}  // namespace bgpsim::serve
