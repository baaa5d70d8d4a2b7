// The event-driven daemon (DESIGN.md §14): one poll loop serves frames and
// HTTP while searches and records wait on their replies, so neither a
// client that stalls mid-request nor searches entering at every daemon
// delay anyone; malformed HTTP gets a 400 instead of silence.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/daemon.h"
#include "net/http.h"

namespace sprite::net {
namespace {

using Clock = std::chrono::steady_clock;

// A Daemon serving from its own thread until destroyed.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& name, uint16_t join_udp = 0) {
    DaemonOptions options;
    options.name = name;
    if (join_udp != 0) {
      options.bootstrap_host = "127.0.0.1";
      options.bootstrap_udp = join_udp;
    }
    daemon_ = std::make_unique<Daemon>(options);
    const Status started = daemon_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { daemon_->RunUntil(stop_); });
  }
  ~LiveDaemon() { Stop(); }

  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }
  uint16_t http() const { return daemon_->http().port(); }
  uint16_t udp() const { return daemon_->transport().udp_port(); }
  // Touch only after Stop().
  Daemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// A blocking loopback TCP connection to `port` whose reads give up after
// 5 s.
int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Everything the server sends until it closes (or 5 s of silence).
std::string ReadToEof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return out;
    out.append(buf, static_cast<size_t>(n));
  }
}

// One raw exchange: sends `request` as is and returns the whole response.
std::string Exchange(uint16_t port, const std::string& request) {
  const int fd = Connect(port);
  SendAll(fd, request);
  std::string response = ReadToEof(fd);
  ::close(fd);
  return response;
}

std::string Request(const std::string& method, const std::string& target,
                    const std::string& body = "") {
  return method + " " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
}

int StatusOf(const std::string& response) {
  int status = 0;
  return std::sscanf(response.c_str(), "HTTP/1.1 %d", &status) == 1 ? status
                                                                    : 0;
}

std::string BodyOf(const std::string& response) {
  const size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

std::string SearchTarget(const std::string& query) {
  return "/search?q=" + HttpServer::UrlEncode(query) + "&k=10";
}

const char* const kDocs[] = {
    "1\tDistributed hash tables\tdistributed hash table routing protocols "
    "scale lookup chord pastry peer structured overlay routing lookup",
    "2\tText retrieval systems\ttext retrieval ranking relevance vector model "
    "cosine similarity document term weighting retrieval ranking",
    "3\tPeer to peer search\tpeer search network overlay gnutella flooding "
    "query distributed search peer network",
    "4\tMachine learning basics\tmachine learning model training gradient "
    "feature weight learning model training data",
    "5\tInformation retrieval evaluation\tinformation retrieval evaluation "
    "precision recall benchmark trec judgment relevance evaluation",
    "6\tQuery driven learning\tquery learning feedback cached history "
    "adaptive index term selection query feedback learning"};

const char* const kQueries[] = {
    "distributed hash table lookup", "text retrieval ranking",
    "peer network search", "query learning feedback"};

TEST(DaemonTest, StalledHttpClientDoesNotDelayASearch) {
  LiveDaemon node("solo");
  std::string docs;
  for (const char* doc : kDocs) docs += std::string(doc) + "\n";
  ASSERT_EQ(StatusOf(Exchange(node.http(), Request("POST", "/publish", docs))),
            200);

  // Half a request, then silence: the old inline server waited on it for
  // its whole 5 s read timeout before serving anyone else.
  const int stalled = Connect(node.http());
  SendAll(stalled, "GET /search?q=peer HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const Clock::time_point start = Clock::now();
  const std::string response =
      Exchange(node.http(), Request("GET", SearchTarget("peer search")));
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_NE(BodyOf(response).find("\"doc\":3"), std::string::npos) << response;
  EXPECT_LT(ms, 500.0);
  ::close(stalled);
}

TEST(DaemonTest, AtTheConnectionCapNewClientsWaitInTheBacklog) {
  LiveDaemon node("solo");
  ASSERT_EQ(StatusOf(Exchange(node.http(),
                              Request("POST", "/publish",
                                      std::string(kDocs[2]) + "\n"))),
            200);
  std::vector<int> stalled;
  for (size_t i = 0; i < HttpServer::kMaxConnections; ++i) {
    stalled.push_back(Connect(node.http()));
    SendAll(stalled.back(), "GET /health HTTP/1.1\r\n");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int waiting = Connect(node.http());  // completes in the backlog
  SendAll(waiting, Request("GET", SearchTarget("peer search")));
  pollfd pfd{waiting, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 300), 0);  // not accepted while at the cap
  ::close(stalled.front());  // frees a slot
  const std::string response = ReadToEof(waiting);
  EXPECT_EQ(StatusOf(response), 200) << response;
  ::close(waiting);
  for (size_t i = 1; i < stalled.size(); ++i) ::close(stalled[i]);
}

TEST(DaemonTest, MalformedRequestsGetA400AndAClose) {
  LiveDaemon node("solo");
  const std::string too_long =
      std::to_string(HttpServer::kMaxRequestBytes + 1);
  const std::pair<std::string, std::string> cases[] = {
      {"GARBAGE\r\n\r\n", "malformed request line"},
      {"GET /health\r\n\r\n", "malformed request line"},
      {"POST /record HTTP/1.1\r\nContent-Length: abc\r\n\r\nquery\n",
       "Content-Length"},
      {"POST /record HTTP/1.1\r\nContent-Length: 5x\r\n\r\nquery\n",
       "Content-Length"},
      {"POST /record HTTP/1.1\r\nContent-Length: " + too_long + "\r\n\r\n",
       "request body over"},
  };
  for (const auto& [request, error] : cases) {
    // ReadToEof returning at all means the server closed the connection.
    const std::string response = Exchange(node.http(), request);
    EXPECT_EQ(StatusOf(response), 400) << request;
    EXPECT_NE(response.find("Content-Type: application/json"),
              std::string::npos)
        << response;
    EXPECT_EQ(BodyOf(response).rfind("{\"error\":\"", 0), 0u) << response;
    EXPECT_NE(BodyOf(response).find(error), std::string::npos) << response;
  }
  // Nothing above was recorded; a well-formed request still is.
  EXPECT_EQ(BodyOf(Exchange(node.http(),
                            Request("POST", "/record", "peer search\n"))),
            "{\"recorded\":1}");
}

TEST(DaemonTest, SearchesEnteringAtEveryDaemonMatchTheIdleReference) {
  LiveDaemon n0("n0");
  LiveDaemon n1("n1", n0.udp());
  LiveDaemon n2("n2", n0.udp());
  LiveDaemon* nodes[] = {&n0, &n1, &n2};
  for (size_t i = 0; i < std::size(kDocs); ++i) {
    ASSERT_EQ(StatusOf(Exchange(nodes[i % 3]->http(),
                                Request("POST", "/publish",
                                        std::string(kDocs[i]) + "\n"))),
              200);
  }
  std::string training;
  for (const char* q : kQueries) training += std::string(q) + "\n";
  ASSERT_EQ(StatusOf(Exchange(n0.http(), Request("POST", "/record", training))),
            200);
  for (LiveDaemon* node : nodes) {
    ASSERT_EQ(StatusOf(Exchange(node->http(), Request("POST", "/learn"))), 200);
  }
  std::vector<std::string> reference;
  for (const char* q : kQueries) {
    const std::string response =
        Exchange(n0.http(), Request("GET", SearchTarget(q)));
    ASSERT_EQ(StatusOf(response), 200) << response;
    reference.push_back(BodyOf(response));
    ASSERT_NE(reference.back().find("\"doc\""), std::string::npos);
  }

  // One closed-loop client per daemon, so serve loops call each other
  // while their own searches wait.
  std::atomic<int> served{0};
  std::atomic<int> wrong{0};
  const Clock::time_point until = Clock::now() + std::chrono::seconds(1);
  std::vector<std::thread> clients;
  for (LiveDaemon* node : nodes) {
    const uint16_t port = node->http();
    clients.emplace_back([&, port] {
      for (size_t i = 0; Clock::now() < until; ++i) {
        const size_t q = i % std::size(kQueries);
        const std::string body =
            BodyOf(Exchange(port, Request("GET", SearchTarget(kQueries[q]))));
        (body == reference[q] ? served : wrong).fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (LiveDaemon* node : nodes) node->Stop();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 30);
  for (LiveDaemon* node : nodes) {
    EXPECT_EQ(node->daemon().transport().stats().TotalTimeouts(), 0u);
  }
}

}  // namespace
}  // namespace sprite::net
