#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/json_parse.hpp"
#include "stats.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace bgpbench {

std::vector<MetricSpec> load_metric_specs(const std::string& benchmark_json, const char* key) {
  const bgpsim::obs::JsonValue doc = bgpsim::obs::parse_json_file(benchmark_json);
  const bgpsim::obs::JsonValue* list = doc.find(key);
  if (list == nullptr || !list->is_array()) {
    throw bgpsim::ConfigError(benchmark_json + " has no " + key + " list");
  }
  std::vector<MetricSpec> specs;
  for (const bgpsim::obs::JsonValue& entry : list->items()) {
    const bgpsim::obs::JsonValue* name = entry.find("name");
    const bgpsim::obs::JsonValue* unit = entry.find("unit");
    const bgpsim::obs::JsonValue* better = entry.find("better");
    if (name == nullptr || unit == nullptr || better == nullptr) {
      throw bgpsim::ConfigError(benchmark_json + ": malformed " + key + " entry");
    }
    MetricSpec spec;
    spec.name = name->as_string();
    spec.unit = unit->as_string();
    spec.higher_is_better = better->as_string() == "higher";
    spec.bound = entry.number_at("bound");
    specs.push_back(spec);
  }
  return specs;
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::Better:
      return "better";
    case Verdict::Worse:
      return "worse";
    case Verdict::Same:
      return "same";
    case Verdict::Unresolved:
      return "unresolved";
  }
  return "?";
}

Comparison compare_samples(const std::vector<double>& a, const std::vector<double>& b,
                           const MetricSpec& spec) {
  Comparison c;
  c.median_a = median(a);
  c.median_b = median(b);
  const Quartiles qa = quartiles(a);
  const Quartiles qb = quartiles(b);
  c.q1_a = qa.q1;
  c.q3_a = qa.q3;
  c.q1_b = qb.q1;
  c.q3_b = qb.q3;
  if (a.empty() || b.empty()) {
    c.verdict = Verdict::Unresolved;
    return c;
  }
  // Orient everything so that "smaller is better".
  const double sign = spec.higher_is_better ? -1.0 : 1.0;
  const auto better = [&](double x, double y) { return sign * x < sign * y; };
  c.pairs = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < c.pairs; ++i) c.wins += better(b[i], a[i]) ? 1 : 0;
  const double base = std::fabs(c.median_a);
  c.change = base > 0.0 ? sign * (c.median_b - c.median_a) / base : 0.0;

  const auto spread = [](double q1, double q3, double m) {
    return m != 0.0 ? (q3 - q1) / std::fabs(m) : 0.0;
  };
  const double worst_spread =
      std::max(spread(qa.q1, qa.q3, c.median_a), spread(qb.q1, qb.q3, c.median_b));
  bool b_beats_all = true;
  for (const double x : b) {
    for (const double y : a) b_beats_all = b_beats_all && better(x, y);
  }

  if (worst_spread > spec.bound && !b_beats_all) {
    c.verdict = Verdict::Unresolved;
  } else if (c.change > spec.bound) {
    c.verdict = Verdict::Worse;
  } else if (c.change < 0.0 && c.pairs >= kMinPairsForGain && c.wins * 10 >= c.pairs * 9 &&
             std::fabs(c.median_b - c.median_a) > qa.q3 - qa.q1) {
    c.verdict = Verdict::Better;
  } else {
    c.verdict = Verdict::Same;
  }
  return c;
}

std::map<std::string, std::vector<RunRecord>> load_runs(const std::string& dir) {
  std::map<std::string, std::vector<RunRecord>> runs;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json" &&
        find_workload(entry.path().stem().string()) != nullptr) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    const bgpsim::obs::JsonValue doc = bgpsim::obs::parse_json_file(path.string());
    RunRecord record;
    record.attempted = doc.number_at("attempted");
    record.failed = doc.number_at("failed");
    if (const bgpsim::obs::JsonValue* metrics = doc.find("metrics")) {
      for (const auto& [name, metric] : metrics->members()) {
        record.metrics[name] = metric.number_at("value");
      }
    }
    runs[path.stem().string()].push_back(std::move(record));
  }
  return runs;
}

std::string compare_dirs(const std::string& dir_a, const std::string& dir_b,
                         const std::vector<MetricSpec>& specs) {
  const auto runs_a = load_runs(dir_a);
  const auto runs_b = load_runs(dir_b);
  std::string out;
  char line[512];
  for (const Workload& workload : workloads()) {
    const auto a = runs_a.find(workload.name);
    const auto b = runs_b.find(workload.name);
    if (a == runs_a.end() || b == runs_b.end()) continue;
    double failed_a = 0.0, failed_b = 0.0, attempted_a = 0.0, attempted_b = 0.0;
    for (const RunRecord& r : a->second) {
      failed_a += r.failed;
      attempted_a += r.attempted;
    }
    for (const RunRecord& r : b->second) {
      failed_b += r.failed;
      attempted_b += r.attempted;
    }
    std::snprintf(line, sizeof(line),
                  "%s  (A: %zu runs, %.0f/%.0f failed; B: %zu runs, %.0f/%.0f failed)\n",
                  workload.name.c_str(), a->second.size(), failed_a, attempted_a,
                  b->second.size(), failed_b, attempted_b);
    out += line;
    std::snprintf(line, sizeof(line), "  %-10s %-5s %-34s %-34s %8s %6s %5s  %s\n", "metric",
                  "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "won",
                  "verdict");
    out += line;
    for (const MetricSpec& spec : specs) {
      std::vector<double> va, vb;
      for (const RunRecord& r : a->second) {
        if (r.metrics.contains(spec.name)) va.push_back(r.metrics.at(spec.name));
      }
      for (const RunRecord& r : b->second) {
        if (r.metrics.contains(spec.name)) vb.push_back(r.metrics.at(spec.name));
      }
      const Comparison c = compare_samples(va, vb, spec);
      // Printed unoriented: the plain relative change of B's median.
      const double change = spec.higher_is_better ? -c.change : c.change;
      char side_a[64], side_b[64];
      std::snprintf(side_a, sizeof(side_a), "%.5g [%.5g, %.5g]", c.median_a, c.q1_a, c.q3_a);
      std::snprintf(side_b, sizeof(side_b), "%.5g [%.5g, %.5g]", c.median_b, c.q1_b, c.q3_b);
      std::snprintf(line, sizeof(line),
                    "  %-10s %-5s %-34s %-34s %+7.1f%% %5.0f%% %2zu/%-2zu  %s\n",
                    spec.name.c_str(), spec.unit.c_str(), side_a, side_b, 100.0 * change,
                    100.0 * spec.bound, c.wins, c.pairs, to_string(c.verdict));
      out += line;
    }
    out += "\n";
  }
  return out;
}

}  // namespace bgpbench
