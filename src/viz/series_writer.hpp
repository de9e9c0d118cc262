// Gnuplot/pandas-friendly CSV emitters for experiment outputs.
#pragma once

#include <string>
#include <vector>

#include "analysis/detector_experiment.hpp"
#include "analysis/vulnerability.hpp"

namespace bgpsim {

/// One CCDF curve: columns pollution_threshold,attacker_count.
void write_ccdf_csv(const std::string& path, const VulnerabilityCurve& curve);

/// Several labeled curves in long format: label,pollution_threshold,count.
void write_ccdf_family_csv(const std::string& path,
                           const std::vector<VulnerabilityCurve>& curves);

/// Figure 7 histogram: label,probes_triggered,attacks,avg_pollution.
void write_detector_csv(const std::string& path,
                        const std::vector<DetectorCaseResult>& cases);

}  // namespace bgpsim
