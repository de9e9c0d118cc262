// Deliberate obs-io violation fixture: a JSON-emitting library file opening
// its own std::ofstream instead of routing output through bgpsim::obs.
// Pinned by the lint_detects_json_io CTest entry — never built.
#include <fstream>

#include "obs/json.hpp"

namespace bgpsim {

void dump_report_badly(const std::string& path) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("ok", true);
  json.end_object();
  std::ofstream out(path);  // obs-io: the obs sinks own file lifecycle
  out << json.str();
}

}  // namespace bgpsim
