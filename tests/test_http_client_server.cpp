#include <gtest/gtest.h>

#include "http/client.h"
#include "http/server.h"
#include "net_fixture.h"

namespace bnm::http {
namespace {

using test::TwoHostFixture;

class HttpIntegration : public TwoHostFixture {
 protected:
  void SetUp() override {
    build();
    WebServer::Config wc;
    wc.port = 80;
    web = std::make_unique<WebServer>(*server, wc);
    http = std::make_unique<HttpClient>(*client);
  }

  HttpRequest get(const std::string& target) {
    HttpRequest r;
    r.method = "GET";
    r.target = target;
    return r;
  }

  std::unique_ptr<WebServer> web;
  std::unique_ptr<HttpClient> http;
};

TEST_F(HttpIntegration, GetEcho) {
  std::optional<HttpResponse> got;
  http->request(server_ep(80), get("/echo"),
                [&](HttpResponse r, HttpClient::TransferInfo) { got = r; });
  run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "pong");
  EXPECT_EQ(got->headers.get("Server").value_or("").find("Apache"), 0u);
}

TEST_F(HttpIntegration, PostSinkEchoesSize) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/sink";
  req.body = "abcde";
  std::optional<HttpResponse> got;
  http->request(server_ep(80), req,
                [&](HttpResponse r, HttpClient::TransferInfo) { got = r; });
  run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "got 5");
}

TEST_F(HttpIntegration, NotFoundAndMethodNotAllowed) {
  std::optional<int> s1, s2;
  http->request(server_ep(80), get("/nothing"),
                [&](HttpResponse r, HttpClient::TransferInfo) { s1 = r.status; });
  run_all();
  HttpRequest del;
  del.method = "DELETE";
  del.target = "/echo";
  http->request(server_ep(80), del,
                [&](HttpResponse r, HttpClient::TransferInfo) { s2 = r.status; });
  run_all();
  EXPECT_EQ(s1, 404);
  EXPECT_EQ(s2, 405);
}

TEST_F(HttpIntegration, PayloadSizeParameter) {
  std::optional<HttpResponse> got;
  http->request(server_ep(80), get("/payload?size=2048"),
                [&](HttpResponse r, HttpClient::TransferInfo) { got = r; });
  run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body.size(), 2048u);
}

TEST_F(HttpIntegration, ContainerPageEmbedsMethod) {
  std::optional<HttpResponse> got;
  http->request(server_ep(80), get("/?method=WebSocket"),
                [&](HttpResponse r, HttpClient::TransferInfo) { got = r; });
  run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->body.find("runMeasurement('WebSocket')"), std::string::npos);
  EXPECT_EQ(got->headers.get("Content-Type"), "text/html");
}

TEST_F(HttpIntegration, CrossDomainPolicyServed) {
  std::optional<HttpResponse> got;
  http->request(server_ep(80), get("/crossdomain.xml"),
                [&](HttpResponse r, HttpClient::TransferInfo) { got = r; });
  run_all();
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->body.find("cross-domain-policy"), std::string::npos);
}

TEST_F(HttpIntegration, KeepAliveReusesConnection) {
  int done = 0;
  http->request(server_ep(80), get("/echo"),
                [&](HttpResponse, HttpClient::TransferInfo info) {
                  ++done;
                  EXPECT_TRUE(info.opened_new_connection);
                });
  run_all();
  EXPECT_EQ(http->pooled_connections(server_ep(80)), 1u);
  http->request(server_ep(80), get("/echo"),
                [&](HttpResponse, HttpClient::TransferInfo info) {
                  ++done;
                  EXPECT_FALSE(info.opened_new_connection);
                  EXPECT_EQ(info.handshake_cost(), sim::Duration::zero());
                });
  run_all();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(http->connections_opened(), 1u);
  EXPECT_EQ(web->connections_accepted(), 1u);
  EXPECT_EQ(web->requests_served(), 2u);
}

TEST_F(HttpIntegration, ForcedNewConnectionSkipsPool) {
  http->request(server_ep(80), get("/echo"),
                [](HttpResponse, HttpClient::TransferInfo) {});
  run_all();
  HttpClient::Options opts;
  opts.reuse_pooled = false;
  bool checked = false;
  http->request(server_ep(80), get("/echo"),
                [&](HttpResponse, HttpClient::TransferInfo info) {
                  checked = true;
                  EXPECT_TRUE(info.opened_new_connection);
                  EXPECT_GT(info.handshake_cost(), sim::Duration::zero());
                },
                opts);
  run_all();
  EXPECT_TRUE(checked);
  EXPECT_EQ(http->connections_opened(), 2u);
  // Both connections end up pooled.
  EXPECT_EQ(http->pooled_connections(server_ep(80)), 2u);
}

TEST_F(HttpIntegration, ConnectionCloseHonored) {
  HttpRequest req = get("/echo");
  req.headers.set("Connection", "close");
  bool got = false;
  http->request(server_ep(80), req,
                [&](HttpResponse r, HttpClient::TransferInfo) {
                  got = true;
                  EXPECT_FALSE(r.wants_keep_alive());
                });
  run_all();
  EXPECT_TRUE(got);
  EXPECT_EQ(http->pooled_connections(server_ep(80)), 0u);
  // Full teardown on both hosts.
  EXPECT_EQ(client->open_connections(), 0u);
  EXPECT_EQ(server->open_connections(), 0u);
}

TEST_F(HttpIntegration, CloseAllTearsDownPool) {
  http->request(server_ep(80), get("/echo"),
                [](HttpResponse, HttpClient::TransferInfo) {});
  run_all();
  EXPECT_EQ(http->pooled_connections(server_ep(80)), 1u);
  http->close_all();
  run_all();
  EXPECT_EQ(http->pooled_connections(server_ep(80)), 0u);
  EXPECT_EQ(client->open_connections(), 0u);
}

TEST_F(HttpIntegration, ServerThinkTimeDelaysResponse) {
  WebServer::Config slow;
  slow.port = 81;
  slow.think_time = sim::Duration::millis(30);
  WebServer slow_server{*server, slow};
  const sim::TimePoint start = sim->now();
  sim::TimePoint done;
  http->request(server_ep(81), get("/echo"),
                [&](HttpResponse, HttpClient::TransferInfo) { done = sim->now(); });
  run_all();
  EXPECT_GE(done - start, sim::Duration::millis(30));
}

TEST_F(HttpIntegration, CustomRoute) {
  web->route("GET", "/version", [](const HttpRequest&) {
    return HttpResponse::make(200, "bnm/1.0");
  });
  std::optional<std::string> body;
  http->request(server_ep(80), get("/version"),
                [&](HttpResponse r, HttpClient::TransferInfo) { body = r.body; });
  run_all();
  EXPECT_EQ(body, "bnm/1.0");
}

TEST(WebServerStatics, ParseQuery) {
  const std::string target = "/payload?size=77&mode=fast&flag";
  EXPECT_EQ(WebServer::query_param(target, "size"), "77");
  EXPECT_EQ(WebServer::query_param(target, "mode"), "fast");
  EXPECT_EQ(WebServer::query_param(target, "flag"), "");
  EXPECT_FALSE(WebServer::query_param(target, "absent").has_value());
  EXPECT_EQ(WebServer::query_param("/p?a=1&a=2", "a"), "2");  // last wins
  EXPECT_FALSE(WebServer::query_param("/plain", "size").has_value());
}

TEST(WebServerStatics, PathOf) {
  EXPECT_EQ(WebServer::path_of("/a/b?x=1"), "/a/b");
  EXPECT_EQ(WebServer::path_of("/a/b"), "/a/b");
}

}  // namespace
}  // namespace bnm::http
