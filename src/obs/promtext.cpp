#include "obs/promtext.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/config.hpp"

namespace bgpsim::obs {
namespace {

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double parse_double(std::string_view token, const char* what) {
  if (token == "+Inf" || token == "Inf") return HUGE_VAL;
  if (token == "-Inf") return -HUGE_VAL;
  if (token == "NaN") return std::nan("");
  const std::string copy(token);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || (end != nullptr && *end != '\0')) {
    throw std::runtime_error(std::string("promtext: bad ") + what + ": '" +
                             copy + "'");
  }
  return v;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::string prom_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    out.push_back(alpha || (digit && i > 0) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string to_prom_text(const RegistrySnapshot& snapshot) {
  std::string out;
  char buf[160];

  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = prom_sanitize_name(name);
    out += "# TYPE " + n + " counter\n";
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(value));
    out += n + buf;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = prom_sanitize_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + format_double(value) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string n = prom_sanitize_name(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      cumulative += hist.counts[i];
      std::snprintf(buf, sizeof(buf), "\"} %llu\n",
                    static_cast<unsigned long long>(cumulative));
      out += n + "_bucket{le=\"" + format_double(hist.bounds[i]) + buf;
    }
    std::snprintf(buf, sizeof(buf), "_bucket{le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(hist.count));
    out += n + buf;
    out += n + "_sum " + format_double(hist.sum) + "\n";
    std::snprintf(buf, sizeof(buf), "_count %llu\n",
                  static_cast<unsigned long long>(hist.count));
    out += n + buf;
    // Explicit overflow-slot count (observations above the last finite
    // bound). Redundant with _count minus the last cumulative bucket, but a
    // saturated tail should be one glance away, not an arithmetic exercise.
    const std::uint64_t overflow = hist.counts.empty() ? 0 : hist.counts.back();
    out += "# TYPE " + n + "_overflow gauge\n";
    std::snprintf(buf, sizeof(buf), "_overflow %llu\n",
                  static_cast<unsigned long long>(overflow));
    out += n + buf;
  }
  return out;
}

RegistrySnapshot parse_prom_text(std::string_view text) {
  struct HistAcc {
    std::vector<std::pair<double, std::uint64_t>> buckets;  // (le, cumulative)
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, std::string> types;
  std::map<std::string, HistAcc> hists;
  RegistrySnapshot snap;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) continue;

    if (line.front() == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = trim(line.substr(7));
        const std::size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          throw std::runtime_error("promtext: malformed TYPE line");
        }
        types[std::string(rest.substr(0, space))] =
            std::string(trim(rest.substr(space + 1)));
      }
      continue;  // HELP and comments are ignored
    }

    // Sample line: name[{labels}] value
    std::string name;
    std::string le_label;
    std::string_view rest;
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    if (brace != std::string_view::npos &&
        (space == std::string_view::npos || brace < space)) {
      name = std::string(line.substr(0, brace));
      const std::size_t close = line.find('}', brace);
      if (close == std::string_view::npos) {
        throw std::runtime_error("promtext: unterminated label set: " + name);
      }
      std::string_view labels = line.substr(brace + 1, close - brace - 1);
      // Only the `le` label is understood (and produced).
      if (labels.rfind("le=\"", 0) == 0 && ends_with(labels, "\"")) {
        le_label = std::string(labels.substr(4, labels.size() - 5));
      } else if (!labels.empty()) {
        throw std::runtime_error("promtext: unsupported labels on " + name);
      }
      rest = trim(line.substr(close + 1));
    } else {
      if (space == std::string_view::npos) {
        throw std::runtime_error("promtext: sample without value: " +
                                 std::string(line));
      }
      name = std::string(line.substr(0, space));
      rest = trim(line.substr(space + 1));
    }
    // Drop an optional trailing timestamp (second whitespace-separated token).
    const std::size_t value_end = rest.find(' ');
    const std::string_view value_token =
        value_end == std::string_view::npos ? rest : trim(rest.substr(0, value_end));

    auto type_of = [&](const std::string& n) -> std::string {
      const auto it = types.find(n);
      return it == types.end() ? std::string() : it->second;
    };
    auto base_of = [&](std::string_view suffix) -> std::string {
      return name.substr(0, name.size() - suffix.size());
    };

    if (ends_with(name, "_bucket") && type_of(base_of("_bucket")) == "histogram") {
      if (le_label.empty()) {
        throw std::runtime_error("promtext: histogram bucket without le: " + name);
      }
      hists[base_of("_bucket")].buckets.emplace_back(
          parse_double(le_label, "le bound"),
          static_cast<std::uint64_t>(parse_double(value_token, "bucket count")));
    } else if (ends_with(name, "_sum") && type_of(base_of("_sum")) == "histogram") {
      hists[base_of("_sum")].sum = parse_double(value_token, "histogram sum");
    } else if (ends_with(name, "_count") &&
               type_of(base_of("_count")) == "histogram") {
      hists[base_of("_count")].count =
          static_cast<std::uint64_t>(parse_double(value_token, "histogram count"));
    } else if (ends_with(name, "_overflow") &&
               type_of(base_of("_overflow")) == "histogram") {
      // Derived overflow series the writer emits next to each histogram.
      // The histogram reconstruction below already recovers the overflow
      // slot from _count minus the last cumulative bucket, so the sample is
      // deliberately dropped here (instead of landing in snap.gauges) to
      // keep to_prom_text(parse_prom_text(text)) == text exact.
    } else if (type_of(name) == "counter") {
      snap.counters[name] =
          static_cast<std::uint64_t>(parse_double(value_token, "counter value"));
    } else if (type_of(name) == "gauge") {
      snap.gauges[name] = parse_double(value_token, "gauge value");
    } else {
      throw std::runtime_error("promtext: sample with unknown type: " + name);
    }
  }

  for (auto& [name, acc] : hists) {
    HistogramSnapshot hist;
    hist.sum = acc.sum;
    hist.count = acc.count;
    std::uint64_t prev_cumulative = 0;
    for (const auto& [le, cumulative] : acc.buckets) {
      if (cumulative < prev_cumulative) {
        throw std::runtime_error("promtext: non-monotonic buckets in " + name);
      }
      if (std::isinf(le)) continue;  // +Inf bucket == _count; overflow below
      hist.bounds.push_back(le);
      hist.counts.push_back(cumulative - prev_cumulative);
      prev_cumulative = cumulative;
    }
    if (hist.count < prev_cumulative) {
      throw std::runtime_error("promtext: _count below last bucket in " + name);
    }
    hist.counts.push_back(hist.count - prev_cumulative);  // overflow slot
    snap.histograms[name] = std::move(hist);
  }
  return snap;
}

bool write_prom_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::ofstream out = open_sink_file(tmp);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace bgpsim::obs
