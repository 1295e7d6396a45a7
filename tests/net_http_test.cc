// src/net/http.h: the request-head parser (the http_fuzzer surface) and the
// HTTP metrics listener end to end over a real socket.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "api/service.h"
#include "core/seda.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/http.h"
#include "net/server.h"

namespace seda::net {
namespace {

// --- ParseHttpRequest ---------------------------------------------------

TEST(ParseHttpRequest, SimpleGet) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.0\r\n\r\n", &request),
            HttpParse::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(request.version, "HTTP/1.0");
  EXPECT_TRUE(request.headers.empty());
  EXPECT_EQ(request.head_bytes, 25u);
}

TEST(ParseHttpRequest, HeadersAndBareLf) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest(
                "GET /metrics?debug=1 HTTP/1.1\nHost: localhost:9090\n"
                "Accept: */*\n\n",
                &request),
            HttpParse::kOk);
  EXPECT_EQ(request.Path(), "/metrics");
  EXPECT_EQ(request.target, "/metrics?debug=1");
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(request.headers[0].first, "Host");
  EXPECT_EQ(request.headers[0].second, "localhost:9090");
  EXPECT_EQ(request.headers[1].second, "*/*");
}

TEST(ParseHttpRequest, IncompleteUntilBlankLine) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.0\r\n", &request),
            HttpParse::kIncomplete);
  EXPECT_EQ(ParseHttpRequest("GET /metr", &request), HttpParse::kIncomplete);
  EXPECT_EQ(ParseHttpRequest("", &request), HttpParse::kIncomplete);
}

TEST(ParseHttpRequest, TrailingBytesAfterHeadAreIgnored) {
  HttpRequest request;
  const std::string data = "POST / HTTP/1.1\r\n\r\nbody bytes";
  EXPECT_EQ(ParseHttpRequest(data, &request), HttpParse::kOk);
  EXPECT_EQ(request.head_bytes, data.size() - std::strlen("body bytes"));
}

TEST(ParseHttpRequest, MalformedRequestLines) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("\r\n\r\n", &request), HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET\r\n\r\n", &request), HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET /x\r\n\r\n", &request), HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET /a /b HTTP/1.0\r\n\r\n", &request),
            HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET x HTTP/1.0\r\n\r\n", &request),
            HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET /x FTP/1.0\r\n\r\n", &request),
            HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET /x HTTP/\r\n\r\n", &request),
            HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("G@T /x HTTP/1.0\r\n\r\n", &request),
            HttpParse::kBad);
}

TEST(ParseHttpRequest, MalformedHeaders) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.0\r\nno-colon\r\n\r\n", &request),
            HttpParse::kBad);
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.0\r\n: empty-name\r\n\r\n",
                             &request),
            HttpParse::kBad);
  // Obsolete line folding (leading whitespace) is rejected, not mis-joined.
  EXPECT_EQ(ParseHttpRequest("GET / HTTP/1.0\r\nA: b\r\n  folded\r\n\r\n",
                             &request),
            HttpParse::kBad);
}

TEST(ParseHttpRequest, AsteriskFormTarget) {
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest("OPTIONS * HTTP/1.1\r\n\r\n", &request),
            HttpParse::kOk);
  EXPECT_EQ(request.target, "*");
}

TEST(ParseHttpRequest, OversizedHeadIsBadNotIncomplete) {
  HttpRequest request;
  // An unterminated head past the cap can never become valid.
  const std::string trickle(kMaxHttpHeadBytes + 1, 'A');
  EXPECT_EQ(ParseHttpRequest(trickle, &request), HttpParse::kBad);
  // A terminated line past the cap is bad too.
  std::string long_head = "GET /metrics HTTP/1.0\r\n";
  long_head += "X: " + std::string(kMaxHttpHeadBytes, 'y') + "\r\n\r\n";
  EXPECT_EQ(ParseHttpRequest(long_head, &request), HttpParse::kBad);
}

TEST(ParseHttpRequest, TooManyHeaders) {
  std::string head = "GET / HTTP/1.0\r\n";
  for (size_t i = 0; i <= kMaxHttpHeaders; ++i) {
    head += 'H';
    head += std::to_string(i) + ": v\r\n";
  }
  head += "\r\n";
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest(head, &request), HttpParse::kBad);
}

// --- HttpResponseText ---------------------------------------------------

TEST(HttpResponseText, FullAndHeadOnly) {
  const std::string full = HttpResponseText(200, "OK", "text/plain", "hi\n");
  EXPECT_EQ(full,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
            "Content-Length: 3\r\nConnection: close\r\n\r\nhi\n");
  // HEAD keeps the Content-Length of the would-be body, elides the body.
  const std::string head =
      HttpResponseText(200, "OK", "text/plain", "hi\n", /*head_only=*/true);
  EXPECT_EQ(head,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
            "Content-Length: 3\r\nConnection: close\r\n\r\n");
}

// --- HttpMetricsListener end to end -------------------------------------

/// One blocking HTTP exchange against 127.0.0.1:port; returns the raw
/// response bytes (empty on connect failure).
std::string Fetch(uint16_t port, const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return {};
  }
  (void)!send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(HttpMetricsListener, ServesMetricsHealthzAndErrors) {
  HttpMetricsListener listener("127.0.0.1", 0, [] {
    return std::string("seda_test_total 1\n");
  });
  ASSERT_TRUE(listener.Start().ok());
  ASSERT_NE(listener.port(), 0u);

  const std::string metrics =
      Fetch(listener.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(metrics.find("seda_test_total 1\n"), std::string::npos);

  // Query strings are routed on the path alone.
  EXPECT_NE(Fetch(listener.port(), "GET /metrics?x=1 HTTP/1.1\r\n\r\n")
                .find("200 OK"),
            std::string::npos);
  // HEAD: status + headers, no body.
  const std::string head =
      Fetch(listener.port(), "HEAD /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_EQ(head.find("seda_test_total"), std::string::npos);

  EXPECT_NE(Fetch(listener.port(), "GET /healthz HTTP/1.0\r\n\r\n")
                .find("ok\n"),
            std::string::npos);
  EXPECT_NE(Fetch(listener.port(), "GET /nope HTTP/1.0\r\n\r\n")
                .find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(Fetch(listener.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(Fetch(listener.port(), "garbage\r\n\r\n")
                .find("400 Bad Request"),
            std::string::npos);

  // /metrics + /healthz + the query-string and HEAD scrapes served.
  EXPECT_EQ(listener.requests_served(), 4u);
  listener.Stop();
  listener.Stop();  // idempotent
}

TEST(HttpMetricsListener, RendersFreshPerScrape) {
  int calls = 0;
  HttpMetricsListener listener("127.0.0.1", 0, [&calls] {
    return "seda_scrapes_total " + std::to_string(++calls) + "\n";
  });
  ASSERT_TRUE(listener.Start().ok());
  EXPECT_NE(Fetch(listener.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .find("seda_scrapes_total 1"),
            std::string::npos);
  EXPECT_NE(Fetch(listener.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .find("seda_scrapes_total 2"),
            std::string::npos);
  listener.Stop();
}

TEST(HttpMetricsListener, StartFailsOnBadAddress) {
  HttpMetricsListener listener("not-an-address", 0, [] { return ""; });
  EXPECT_FALSE(listener.Start().ok());
}

TEST(HttpMetricsListener, StartFailsOnPortInUse) {
  HttpMetricsListener first("127.0.0.1", 0, [] { return ""; });
  ASSERT_TRUE(first.Start().ok());
  HttpMetricsListener second("127.0.0.1", first.port(), [] { return ""; });
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

// --- Server integration -------------------------------------------------

TEST(ServerMetrics, ScrapeSeesTransportAndServiceSeries) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  api::SedaService service(&seda);

  ServerOptions options;
  options.metrics_port = 0;  // ephemeral HTTP listener alongside the frames
  Server server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.metrics_port(), 0u);

  // Drive one frame request so the transport counters move.
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto response = client.Call(R"({"method":"statz"})");
  ASSERT_TRUE(response.ok());

  const std::string scrape =
      Fetch(server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  // Service families and the transport families registered by the server
  // render in one exposition.
  EXPECT_NE(scrape.find("seda_requests_total{method=\"statz\"} 1"),
            std::string::npos);
  EXPECT_NE(scrape.find("seda_net_frames_received_total 1"),
            std::string::npos);
  EXPECT_NE(scrape.find("# TYPE seda_net_connections_active gauge"),
            std::string::npos);
  EXPECT_NE(scrape.find("seda_net_connections_accepted_total 1"),
            std::string::npos);

  client.Close();
  server.Stop();
  // Stop() unregistered the transport families: the service's exposition no
  // longer mentions them (their callbacks would dangle otherwise).
  EXPECT_EQ(service.RenderMetrics().find("seda_net_"), std::string::npos);
}

TEST(ServerMetrics, DisabledByDefault) {
  core::Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize().ok());
  api::SedaService service(&seda);
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.metrics_port(), 0u);
  server.Stop();
}

}  // namespace
}  // namespace seda::net
