#include "viz/series_writer.hpp"

#include "support/csv.hpp"

namespace bgpsim {

void write_ccdf_csv(const std::string& path, const VulnerabilityCurve& curve) {
  CsvWriter csv(path);
  csv.row({"pollution_threshold", "attackers_at_least"});
  for (const CcdfPoint& point : curve.curve) {
    csv.field(point.threshold).field(point.count);
    csv.end_row();
  }
}

void write_ccdf_family_csv(const std::string& path,
                           const std::vector<VulnerabilityCurve>& curves) {
  CsvWriter csv(path);
  csv.row({"label", "pollution_threshold", "attackers_at_least"});
  for (const VulnerabilityCurve& curve : curves) {
    for (const CcdfPoint& point : curve.curve) {
      csv.field(std::string_view{curve.label}).field(point.threshold).field(point.count);
      csv.end_row();
    }
  }
}

void write_detector_csv(const std::string& path,
                        const std::vector<DetectorCaseResult>& cases) {
  CsvWriter csv(path);
  csv.row({"label", "probes_triggered", "attacks", "avg_pollution"});
  for (const DetectorCaseResult& result : cases) {
    for (std::size_t k = 0; k < result.histogram.size(); ++k) {
      csv.field(std::string_view{result.label})
          .field(std::uint64_t{k})
          .field(std::uint64_t{result.histogram[k]})
          .field(result.avg_pollution_by_triggered[k]);
      csv.end_row();
    }
  }
}

}  // namespace bgpsim
