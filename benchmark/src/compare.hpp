// `bgpbench compare <dirA> <dirB>`: per workload and end-to-end metric,
// each side's median and quartiles and a verdict, by the rules of the
// choosing-metrics method (§5, §8):
//
//   unresolved  the run-to-run spread (IQR/median, either side) exceeds
//               the metric's bound, unless every B run beats every A run
//   worse       B's median is worse than A's by more than the bound
//   better      at least ten pairs, B wins >= 9/10 of the (A_i, B_i)
//               pairs and the medians differ by more than A's
//               interquartile range
//   same        otherwise
//
// A is the parent (baseline), B the change.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace bgpbench {

/// One metric entry of BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  ///< share of A's median by which B may be worse (end_to_end)
};

/// The metrics listed under `key` ("end_to_end" or "per_layer") of a
/// BENCHMARK.json file, in file order.
std::vector<MetricSpec> load_metric_specs(const std::string& benchmark_json, const char* key);

/// Pairs of runs below which no gain is claimed.
inline constexpr std::size_t kMinPairsForGain = 10;

enum class Verdict { Better, Worse, Same, Unresolved };
const char* to_string(Verdict verdict);

struct Comparison {
  double median_a = 0.0, q1_a = 0.0, q3_a = 0.0;
  double median_b = 0.0, q1_b = 0.0, q3_b = 0.0;
  std::size_t pairs = 0;
  std::size_t wins = 0;  ///< pairs in which B is strictly better
  double change = 0.0;   ///< (B - A) / A, signed so that > 0 is worse
  Verdict verdict = Verdict::Same;
};

Comparison compare_samples(const std::vector<double>& a, const std::vector<double>& b,
                           const MetricSpec& spec);

/// One run's result line: metric name -> value, plus its counts.
struct RunRecord {
  double attempted = 0.0;
  double failed = 0.0;
  std::map<std::string, double> metrics;
};

/// Every `<workload>.json` result file under `dir` (recursively), grouped
/// by workload and ordered by path (which pairs runs across the two sides).
std::map<std::string, std::vector<RunRecord>> load_runs(const std::string& dir);

/// The comparison table for every workload present on both sides.
std::string compare_dirs(const std::string& dir_a, const std::string& dir_b,
                         const std::vector<MetricSpec>& specs);

}  // namespace bgpbench
