// net/http_common: request parsing, limits, timeout, response writing and
// the /metrics scrape answers — driven over socketpairs, no real network.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "net/http_common.hpp"

namespace bgpsim::net {
namespace {

struct SocketPair {
  int client = -1;
  int server = -1;

  SocketPair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client = fds[0];
    server = fds[1];
  }
  ~SocketPair() {
    if (client >= 0) close(client);
    if (server >= 0) close(server);
  }
  void send_all(const std::string& bytes) const {
    ASSERT_EQ(send(client, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_client() {
    close(client);
    client = -1;
  }
  std::string drain_client() const {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = recv(client, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }
};

HttpLimits fast_limits() {
  HttpLimits limits;
  limits.read_timeout_millis = 200;
  return limits;
}

TEST(HttpCommon, ParsesGetRequest) {
  SocketPair pair;
  pair.send_all("GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, fast_limits(), request),
            HttpReadStatus::Ok);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpCommon, ParsesPostWithBody) {
  SocketPair pair;
  const std::string body = "{\"victim\": 12, \"attacker\": 99}";
  pair.send_all("POST /v1/attack HTTP/1.1\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, fast_limits(), request),
            HttpReadStatus::Ok);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/attack");
  EXPECT_EQ(request.body, body);
}

TEST(HttpCommon, BodySplitAcrossWrites) {
  SocketPair pair;
  pair.send_all("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345");
  pair.send_all("67890");
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, fast_limits(), request),
            HttpReadStatus::Ok);
  EXPECT_EQ(request.body, "1234567890");
}

TEST(HttpCommon, OversizedHeadRejected) {
  SocketPair pair;
  HttpLimits limits = fast_limits();
  limits.max_head_bytes = 64;
  pair.send_all("GET /" + std::string(128, 'a') + " HTTP/1.1\r\n");
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, limits, request),
            HttpReadStatus::TooLarge);
}

TEST(HttpCommon, OversizedDeclaredBodyRejected) {
  SocketPair pair;
  HttpLimits limits = fast_limits();
  limits.max_body_bytes = 16;
  pair.send_all("POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, limits, request),
            HttpReadStatus::TooLarge);
}

TEST(HttpCommon, MalformedRequestLineRejected) {
  SocketPair pair;
  pair.send_all("NOT_EVEN_HTTP\r\n\r\n");
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, fast_limits(), request),
            HttpReadStatus::Malformed);
}

TEST(HttpCommon, SilentPeerTimesOut) {
  SocketPair pair;
  HttpLimits limits = fast_limits();
  limits.read_timeout_millis = 50;
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, limits, request),
            HttpReadStatus::Timeout);
}

TEST(HttpCommon, StalledMidHeadTimesOut) {
  SocketPair pair;
  HttpLimits limits = fast_limits();
  limits.read_timeout_millis = 50;
  pair.send_all("GET /metrics HTTP/1.1\r\n");  // head never terminated
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, limits, request),
            HttpReadStatus::Timeout);
}

TEST(HttpCommon, PeerCloseBeforeRequestIsClosed) {
  SocketPair pair;
  pair.close_client();
  HttpRequest request;
  EXPECT_EQ(read_http_request(pair.server, fast_limits(), request),
            HttpReadStatus::Closed);
}

TEST(HttpCommon, WritesWellFormedResponse) {
  SocketPair pair;
  write_http_response(pair.server, 200, "application/json", "{\"ok\":true}");
  close(pair.server);
  pair.server = -1;
  const std::string response = pair.drain_client();
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n{\"ok\":true}"), std::string::npos);
}

TEST(HttpCommon, StatusTextKnowsTheServedCodes) {
  EXPECT_STREQ(http_status_text(200), "OK");
  EXPECT_STREQ(http_status_text(400), "Bad Request");
  EXPECT_STREQ(http_status_text(404), "Not Found");
  EXPECT_STREQ(http_status_text(405), "Method Not Allowed");
  EXPECT_STREQ(http_status_text(413), "Payload Too Large");
  EXPECT_STREQ(http_status_text(500), "Internal Server Error");
}

/// Send `request` to answer_metrics_scrape and return everything it wrote.
std::string scrape(const std::string& request) {
  SocketPair pair;
  pair.send_all(request);
  answer_metrics_scrape(pair.server, [] { return std::string("bgpsim_up 1\n"); });
  close(pair.server);
  pair.server = -1;
  return pair.drain_client();
}

TEST(HttpCommon, ScrapeOfMetricsAnswersTheProviderBody) {
  for (const char* target : {"/metrics", "/metrics?x=1"}) {
    const std::string response =
        scrape(std::string("GET ") + target + " HTTP/1.1\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << target;
    EXPECT_NE(response.find(
                  "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
              std::string::npos)
        << target;
    EXPECT_NE(response.find("\r\n\r\nbgpsim_up 1\n"), std::string::npos)
        << target;
  }
}

TEST(HttpCommon, ScrapeOfAnythingElseIsNotFound) {
  for (const char* request : {"GET /metricsx HTTP/1.1\r\n\r\n",
                              "GET / HTTP/1.1\r\n\r\n",
                              "POST /metrics HTTP/1.1\r\n\r\n"}) {
    const std::string response = scrape(request);
    EXPECT_EQ(response.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << request;
    EXPECT_NE(response.find("\r\n\r\nnot found\n"), std::string::npos)
        << request;
  }
}

TEST(HttpCommon, ScrapeWithMalformedRequestLineIsBadRequest) {
  const std::string response = scrape("NOT_EVEN_HTTP\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u);
  EXPECT_NE(response.find("\r\n\r\nmalformed request\n"), std::string::npos);
}

TEST(HttpCommon, ScrapeWithHeadOver2KiBIsTooLarge) {
  const std::string response =
      scrape("GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(2048, 'a'));
  EXPECT_EQ(response.rfind("HTTP/1.1 413 Payload Too Large\r\n", 0), 0u);
  EXPECT_NE(response.find("\r\n\r\nrequest too large\n"), std::string::npos);
}

TEST(HttpCommon, EphemeralListenerBindsLoopback) {
  std::uint16_t port = 0;
  const int fd = open_loopback_listener(0, port);
  ASSERT_GE(fd, 0);
  EXPECT_GT(port, 0);
  close(fd);
}

}  // namespace
}  // namespace bgpsim::net
