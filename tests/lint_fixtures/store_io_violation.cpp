// Deliberate obs-io violation pinning the src/store/ exemption's boundary:
// snapshot-style code (binary std::ofstream next to a JsonWriter summary) is
// sanctioned *only* under src/store/ — the same pattern anywhere else must
// still fire. Pinned by lint_detects_store_io — never built.
#include <fstream>
#include <string>

#include "obs/json.hpp"

namespace bgpsim {

void save_world_badly(const std::string& path) {
  obs::JsonWriter json;
  json.begin_object();
  json.field("format_version", std::uint64_t{1});
  json.end_object();
  std::ofstream out(path, std::ios::binary);  // obs-io: not in src/store/
  out << json.str();
}

}  // namespace bgpsim
