#include "serve/router.hpp"

#include <exception>

#include "obs/json.hpp"

namespace bgpsim::serve {

HttpResponse error_response(int status, std::string_view message) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("error", message);
  json.end_object();
  return HttpResponse{status, "application/json", std::move(json).str()};
}

std::string_view path_of(std::string_view target) {
  const std::size_t query = target.find('?');
  return query == std::string_view::npos ? target : target.substr(0, query);
}

void Router::add(std::string method, std::string path, const char* route,
                 Handler handler) {
  insert(Entry{std::move(method), std::move(path), route, std::move(handler),
               false});
}

void Router::add_prefix(std::string method, std::string prefix,
                        const char* route, Handler handler) {
  insert(Entry{std::move(method), std::move(prefix), route, std::move(handler),
               true});
}

void Router::insert(Entry entry) {
  for (Entry& existing : routes_) {
    if (existing.prefix == entry.prefix && existing.method == entry.method &&
        existing.path == entry.path) {
      existing = std::move(entry);
      return;
    }
  }
  routes_.push_back(std::move(entry));
}

HttpResponse Router::dispatch(const net::HttpRequest& request,
                              RequestContext& ctx) const {
  const std::string_view path = path_of(request.target);
  const Entry* hit = nullptr;    // path and method match
  const Entry* known = nullptr;  // path matches; a 405 when nothing hits
  for (const Entry& entry : routes_) {
    if (entry.prefix || entry.path != path) continue;
    if (known == nullptr) known = &entry;
    if (entry.method == request.method) {
      hit = &entry;
      break;
    }
  }
  // Prefix routes: exact matches above win; among prefixes the longest
  // matching one does. A prefix hit with the wrong method still reports 405
  // so clients learn the verb set, like exact routes do.
  if (hit == nullptr) {
    for (const Entry& entry : routes_) {
      if (!entry.prefix || !path.starts_with(entry.path)) continue;
      if (known == nullptr ||
          (known->prefix && entry.path.size() > known->path.size())) {
        known = &entry;
      }
      if (entry.method == request.method &&
          (hit == nullptr || entry.path.size() > hit->path.size())) {
        hit = &entry;
      }
    }
  }
  if (hit == nullptr) {
    ctx.route = known != nullptr ? known->route : "other";
    return known != nullptr ? error_response(405, "method not allowed")
                            : error_response(404, "no such endpoint");
  }
  ctx.route = hit->route;
  try {
    return hit->handler(request, ctx);
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
}

}  // namespace bgpsim::serve
