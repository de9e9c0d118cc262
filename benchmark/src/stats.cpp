#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace bgpbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool tail_supported(std::size_t n, double q) { return samples_beyond(n, q) >= 10; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::vector<double> durations(const std::vector<Interval>& intervals) {
  std::vector<double> out;
  out.reserve(intervals.size());
  for (const Interval& i : intervals) out.push_back(i.to_s - i.from_s);
  return out;
}

std::vector<double> rates(const std::vector<Segment>& segments) {
  std::vector<double> out;
  out.reserve(segments.size());
  for (const Segment& s : segments) out.push_back(s.units / (s.wall.to_s - s.wall.from_s));
  return out;
}

std::size_t tail_chunks(std::size_t n, double q) {
  constexpr std::size_t kBeyondPerChunk = 20;
  return std::max<std::size_t>(1, samples_beyond(n, q) / kBeyondPerChunk);
}

double chunked_percentile(const std::vector<double>& steps, double q) {
  const std::size_t n = steps.size();
  const std::size_t chunks = tail_chunks(n, q);
  std::vector<double> tails;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto from = static_cast<std::ptrdiff_t>(c * n / chunks);
    const auto to = static_cast<std::ptrdiff_t>((c + 1) * n / chunks);
    tails.push_back(percentile({steps.begin() + from, steps.begin() + to}, q));
  }
  return median(tails);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  if (values.size() == 1) return {values[0], values[0]};
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double out[2] = {0.0, 0.0};
  for (long i = 1, k = 0; i <= 3; i += 2, ++k) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const long delta = i * m - j * 4;
    out[k] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
              values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
             4.0;
  }
  return {out[0], out[1]};
}

bool more_setup_reps(const std::vector<double>& times_s) {
  constexpr std::size_t kMinReps = 3;
  constexpr std::size_t kMaxReps = 15;
  constexpr double kMinTotalS = 2.0;
  if (times_s.size() < kMinReps) return true;
  double total = 0.0;
  for (const double t : times_s) total += t;
  return total < kMinTotalS && times_s.size() < kMaxReps;
}

}  // namespace bgpbench
