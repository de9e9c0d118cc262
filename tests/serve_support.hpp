// Shared by the serve, campaign-job, access-log, snapshot and
// concurrency-stress tests: a minimal blocking loopback HTTP client and the
// small generated snapshot their query servers load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "store/snapshot.hpp"

namespace bgpsim::test {

struct ClientResponse {
  int status = 0;    ///< 0 when the connection failed or no status line came
  std::string head;  ///< status line + response headers
  std::string body;

  /// Case-insensitive response-header lookup ("" when absent).
  std::string header(std::string_view name) const;
};

/// One request on a fresh loopback connection to `port`, read to EOF
/// (Connection: close). `headers` must be complete CRLF-terminated lines.
ClientResponse http_request(std::uint16_t port, const std::string& method,
                            const std::string& target,
                            const std::string& body = std::string(),
                            const std::string& headers = std::string());

/// A generated `scale`-AS topology (seed `seed`) with converged baselines
/// for `num_targets` victims drawn from Rng(seed + 1).
store::Snapshot make_snapshot(std::uint32_t scale, std::uint64_t seed,
                              std::size_t num_targets = 4);

}  // namespace bgpsim::test
