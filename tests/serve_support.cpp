#include "serve_support.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "core/scenario.hpp"
#include "net/http_common.hpp"
#include "store/baseline.hpp"
#include "support/rng.hpp"

namespace bgpsim::test {

std::string ClientResponse::header(std::string_view name) const {
  return std::string(net::find_header(head, name));
}

ClientResponse http_request(std::uint16_t port, const std::string& method,
                            const std::string& target, const std::string& body,
                            const std::string& headers) {
  ClientResponse out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return out;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += headers;
  request += "Connection: close\r\n\r\n" + body;
  (void)send(fd, request.data(), request.size(), 0);

  std::string raw;
  char buf[8192];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);

  if (raw.rfind("HTTP/1.1 ", 0) == 0 && raw.size() > 12) {
    out.status = std::stoi(raw.substr(9, 3));
  }
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    out.head = raw.substr(0, split);
    out.body = raw.substr(split + 4);
  }
  return out;
}

store::Snapshot make_snapshot(std::uint32_t scale, std::uint64_t seed,
                              std::size_t num_targets) {
  ScenarioParams params;
  params.topology.total_ases = scale;
  params.topology.seed = seed;
  const Scenario scenario = Scenario::generate(params);
  Rng rng(seed + 1);
  std::vector<AsId> targets;
  for (std::size_t i = 0; i < num_targets; ++i) {
    targets.push_back(
        static_cast<AsId>(rng.bounded(scenario.graph().num_ases())));
  }
  store::Snapshot snapshot;
  snapshot.graph = scenario.graph();
  snapshot.params = scenario.snapshot_params();
  snapshot.baselines = store::BaselineStore::compute(scenario.graph(),
                                                     scenario.policy(), targets);
  return snapshot;
}

}  // namespace bgpsim::test
