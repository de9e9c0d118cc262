// Request router for the bgpsim query service: exact method + path match
// over a small fixed route table. Query strings are stripped before
// matching, a path hit with the wrong method answers 405, anything else
// 404. Each route carries the metric label ("slug") it was registered with;
// dispatch stamps it on the request context for the access log and the
// per-route latency histograms. Handlers receive the per-request context;
// its worker index lets per-worker state (one HijackSimulator per worker)
// go lock-free, and handlers report engine facts (warm, generations) back
// through it for the access log.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_common.hpp"
#include "serve/request_obs.hpp"

namespace bgpsim::serve {

/// What a handler produces; the server serializes and closes.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// A JSON error document ({"error": "..."}), the service's one error shape.
HttpResponse error_response(int status, std::string_view message);

/// A request target without its query string.
std::string_view path_of(std::string_view target);

class Router {
 public:
  using Handler =
      std::function<HttpResponse(const net::HttpRequest&, RequestContext&)>;

  /// Register `method` + exact `path` (no query string) under the metric
  /// label `route` (a string literal: contexts keep the pointer). Later
  /// additions of the same (method, path) pair win — there is no route
  /// shadowing to debug.
  void add(std::string method, std::string path, const char* route,
           Handler handler);

  /// Register `method` + a path *prefix* (e.g. "/v1/campaign/"): any target
  /// whose path starts with the prefix dispatches here, and the handler
  /// parses the tail (a job id) itself. Exact routes win over prefixes, and
  /// longer prefixes over shorter, so wildcard ids can coexist with fixed
  /// sub-paths. One label covers every target under the prefix: a label per
  /// id would mint a metric series per job.
  void add_prefix(std::string method, std::string prefix, const char* route,
                  Handler handler);

  /// Match and invoke. Sets ctx.route to the matched path's label (also on
  /// a 405: a known path with the wrong method), or "other" on a 404. Never
  /// throws: a handler exception becomes a 500.
  HttpResponse dispatch(const net::HttpRequest& request,
                        RequestContext& ctx) const;

  std::size_t size() const { return routes_.size(); }

 private:
  struct Entry {
    std::string method;
    std::string path;
    const char* route = "other";
    Handler handler;
    bool prefix = false;
  };
  /// Append `entry`, or replace the entry with the same kind, method and path.
  void insert(Entry entry);

  std::vector<Entry> routes_;
};

}  // namespace bgpsim::serve
