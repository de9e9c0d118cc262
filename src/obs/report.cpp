#include "obs/report.hpp"

#include <fstream>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace bgpsim::obs {

const char* git_rev() {
#if defined(BGPSIM_GIT_REV)
  return BGPSIM_GIT_REV;
#else
  return "unknown";
#endif
}

std::string RunReport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.field("name", name_);
  json.field("seed", seed_);
  json.field("scale", static_cast<std::uint64_t>(scale_));
  json.field("topology_checksum", topology_checksum_);
  json.field("repeat", static_cast<std::uint64_t>(repeat_));
  json.field("git_rev", git_rev());
  json.key("wall_time_seconds");
  json.begin_object();
  json.field("total", total_wall_seconds_);
  json.key("phases");
  json.begin_object();
  for (const auto& [phase, seconds] : phases_) json.field(phase, seconds);
  json.end_object();
  json.end_object();
  if (!extras_.empty()) {
    json.key("extras");
    json.begin_object();
    for (const auto& [key, value] : extras_) json.field(key, value);
    json.end_object();
  }
  json.key("paper_rows");
  json.begin_array();
  for (const PaperRow& row : rows_) {
    json.begin_object();
    json.field("metric", row.metric);
    json.field("paper", row.paper);
    json.field("measured", row.measured);
    json.end_object();
  }
  json.end_array();
  json.key("metrics");
  json.raw(registry().to_json());
  json.end_object();
  return std::move(json).str();
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out = open_sink_file(path);
  if (!out) return false;
  out << to_json() << '\n';
  return out.good();
}

}  // namespace bgpsim::obs
