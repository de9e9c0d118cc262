// Machine-readable run reports: one JSON document per bench/experiment run
// carrying the scenario parameters (seed, scale), build identity (git rev),
// wall-time breakdown, paper-vs-measured comparison rows, and a full metrics
// registry snapshot. bench_common emits one of these per bench binary as
// BENCH_<name>.json in BGPSIM_OUTDIR so the perf trajectory accumulates.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bgpsim::obs {

/// Short git revision the binary was built from ("unknown" outside a
/// configured git checkout).
const char* git_rev();

/// One paper-vs-measured comparison row, as printed by the benches.
struct PaperRow {
  std::string metric;
  std::string paper;
  std::string measured;
};

class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  void set_scale(std::uint32_t scale) { scale_ = scale; }
  void set_total_wall_seconds(double seconds) { total_wall_seconds_ = seconds; }

  /// Fingerprint of the simulated topology (topology_checksum()). perfdiff
  /// refuses to diff reports whose checksums differ: same (slug, scale,
  /// seed) on different graph code produces incomparable wall times.
  void set_topology_checksum(std::uint64_t checksum) {
    topology_checksum_ = checksum;
  }

  /// How many within-process repetitions this report's wall times aggregate
  /// (BGPSIM_REPEAT; 1 = a single run). Recorded so perfdiff can report the
  /// sample provenance next to its verdict.
  void set_repeat(std::uint32_t repeat) { repeat_ = repeat; }

  /// Named wall-time component ("generate_topology", "sweep", ...).
  void add_phase(std::string phase, double seconds) {
    phases_.emplace_back(std::move(phase), seconds);
  }

  void add_row(PaperRow row) { rows_.push_back(std::move(row)); }

  /// Free-form numeric extras (attack counts, probe sizes, ...).
  void add_extra(std::string key, double value) {
    extras_.emplace_back(std::move(key), value);
  }

  const std::string& name() const { return name_; }

  /// Serialize the report, embedding the current registry snapshot under
  /// "metrics" (including every time.* histogram the run populated).
  std::string to_json() const;

  /// Write to `path`, creating parent directories as needed. Returns false
  /// (without throwing) when the filesystem refuses — observability must
  /// never take down an experiment.
  bool write(const std::string& path) const;

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  std::uint32_t scale_ = 0;
  std::uint64_t topology_checksum_ = 0;
  std::uint32_t repeat_ = 1;
  double total_wall_seconds_ = 0.0;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, double>> extras_;
  std::vector<PaperRow> rows_;
};

}  // namespace bgpsim::obs
