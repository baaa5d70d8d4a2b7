// The event-driven daemon (DESIGN.md §14): one poll loop serves frames and
// HTTP while searches, records, shares and learning rounds wait on their
// replies, so neither a client that stalls mid-request, nor searches
// entering at every daemon, nor a learning round waiting on a stalled peer
// delay anyone; learning rounds at every daemon at once learn what rounds
// one at a time do; malformed HTTP gets a 400 instead of silence.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dht/id_space.h"
#include "net/daemon.h"
#include "net/http.h"
#include "text/analyzer.h"

namespace sprite::net {
namespace {

using Clock = std::chrono::steady_clock;

// A Daemon serving from its own thread until destroyed.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& name, uint16_t join_udp = 0,
                      const core::SpriteConfig& config = {}) {
    DaemonOptions options;
    options.name = name;
    options.config = config;
    if (join_udp != 0) {
      options.bootstrap_host = "127.0.0.1";
      options.bootstrap_udp = join_udp;
    }
    daemon_ = std::make_unique<Daemon>(options);
    const Status started = daemon_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        idle_.store(paused_.load());
        if (idle_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          daemon_->PollOnce(10);
        }
      }
    });
  }
  ~LiveDaemon() { Stop(); }

  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }
  // Stops serving, and resumes, with every socket left open: calls to a
  // paused daemon wait unanswered. Pause returns once the loop is idle.
  void Pause() {
    paused_.store(true);
    while (!idle_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Resume() { paused_.store(false); }
  uint16_t http() const { return daemon_->http().port(); }
  uint16_t udp() const { return daemon_->transport().udp_port(); }
  // Touch only after Stop().
  Daemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> idle_{false};  // the loop saw paused_ and polls nothing
  std::thread thread_;
};

// A blocking loopback TCP connection to `port` whose reads give up after
// 30 s (a learning round under a sanitizer takes seconds).
int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  timeval tv{};
  tv.tv_sec = 30;
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

// Everything the server sends until it closes (or 30 s of silence).
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

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The name of the member responsible for `term` among daemons named
// `names`: the successor of the term's ring key, as ClusterNode computes it.
std::string OwnerOf(const std::string& term,
                    const std::vector<std::string>& names) {
  const dht::IdSpace space(core::SpriteConfig{}.id_bits);
  const uint64_t key = space.KeyForString(term);
  std::string owner, lowest;
  uint64_t owner_id = 0, lowest_id = 0;
  for (const std::string& name : names) {
    const uint64_t id = space.KeyForString(name);
    if (lowest.empty() || id < lowest_id) {
      lowest = name;
      lowest_id = id;
    }
    if (id >= key && (owner.empty() || id < owner_id)) {
      owner = name;
      owner_id = id;
    }
  }
  return owner.empty() ? lowest : owner;
}

TEST(DaemonTest, LearningDaemonKeepsServingWhileAPeerStalls) {
  LiveDaemon n0("n0");
  LiveDaemon n1("n1", n0.udp());
  LiveDaemon n2("n2", n0.udp());
  // n0 owns every document, so its round polls n1 and n2, whose loops
  // stall below. Nothing is recorded, so the round changes no index term.
  std::string docs;
  for (const char* doc : kDocs) docs += std::string(doc) + "\n";
  ASSERT_EQ(StatusOf(Exchange(n0.http(), Request("POST", "/publish", docs))),
            200);
  // A query n0 answers from its own index half, and its answer.
  const text::Analyzer analyzer;
  std::string query, reference;
  for (size_t d = 0; d < std::size(kDocs) && query.empty(); ++d) {
    for (const std::string& term : analyzer.Analyze(kDocs[d])) {
      if (OwnerOf(term, {"n0", "n1", "n2"}) != "n0") continue;
      reference =
          BodyOf(Exchange(n0.http(), Request("GET", SearchTarget(term))));
      if (reference.find("\"doc\"") != std::string::npos) {
        query = term;
        break;
      }
    }
  }
  ASSERT_FALSE(query.empty());

  n1.Pause();
  n2.Pause();
  const Clock::time_point start = Clock::now();
  std::string learned;
  std::thread learner([&] {
    learned = Exchange(n0.http(), Request("POST", "/learn"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The round waits on its polls; n0 serves meanwhile.
  const Clock::time_point search_start = Clock::now();
  const std::string searched =
      Exchange(n0.http(), Request("GET", SearchTarget(query)));
  const double search_ms = MsSince(search_start);
  const std::string again = Exchange(n0.http(), Request("POST", "/learn"));
  const std::string publish = Exchange(
      n0.http(), Request("POST", "/publish", "7\tLate\tlate document\n"));
  learner.join();
  const double learn_ms = MsSince(start);
  n1.Resume();
  n2.Resume();

  EXPECT_EQ(StatusOf(searched), 200) << searched;
  EXPECT_EQ(BodyOf(searched), reference);
  EXPECT_LT(search_ms, 200.0);
  EXPECT_EQ(StatusOf(again), 409) << again;
  EXPECT_EQ(StatusOf(publish), 409) << publish;
  // The stalled polls time out after peer_timeout_ms; the round goes on
  // without them.
  EXPECT_EQ(StatusOf(learned), 200) << learned;
  EXPECT_GE(learn_ms, core::SpriteConfig{}.peer_timeout_ms);
  EXPECT_NE(BodyOf(Exchange(n0.http(), Request("GET", "/stats")))
                .find("\"documents\":6,"),
            std::string::npos);
  n0.Stop();
  EXPECT_GT(n0.daemon().transport().stats().TotalTimeouts(), 0u);
}

// A generated workload big enough that learning rounds last long enough
// to overlap: documents over a vocabulary of consonant-only words (the
// analyzer keeps them as they are) and skewed 3-term queries.
struct Workload {
  std::vector<std::string> publish;  // one /publish body per daemon
  std::vector<std::string> record;   // /record bodies
  std::vector<std::string> probes;   // queries to compare afterwards
};

Workload Generate(size_t docs, size_t queries) {
  const std::string letters = "bcdfghjklmnpqrtvwxz";
  std::vector<std::string> vocabulary;
  for (size_t i = 0; i < 600; ++i) {
    std::string word;
    for (size_t v = i + letters.size() * letters.size(); v > 0;
         v /= letters.size()) {
      word += letters[v % letters.size()];
    }
    vocabulary.push_back(word);
  }
  std::mt19937 rng(2026);
  // Word w is drawn with weight 1 / (w + 1).
  std::vector<double> weights;
  for (size_t w = 0; w < vocabulary.size(); ++w) {
    weights.push_back(1.0 / static_cast<double>(w + 1));
  }
  std::discrete_distribution<size_t> word(weights.begin(), weights.end());
  Workload out;
  out.publish.resize(3);
  for (size_t d = 0; d < docs; ++d) {
    std::string text;
    for (size_t t = 0; t < 30; ++t) text += vocabulary[word(rng)] + " ";
    out.publish[d % 3] += std::to_string(d + 1) + "\tdoc\t" + text + "\n";
  }
  std::string batch;
  for (size_t q = 0; q < queries; ++q) {
    const std::string query = vocabulary[word(rng)] + " " +
                              vocabulary[word(rng)] + " " +
                              vocabulary[word(rng)];
    batch += query + "\n";
    if ((q + 1) % 1000 == 0 || q + 1 == queries) {
      out.record.push_back(std::move(batch));
      batch.clear();
    }
    if (q % 50 == 0) out.probes.push_back(query);
  }
  return out;
}

// Three daemons named n0..n2 that recorded and shared `work`. Six
// daemons share this process and its term dictionary, and under a
// sanitizer one round of a loop can outlast the default 1 s peer timeout,
// so these wait up to 5 s for a reply.
std::vector<std::unique_ptr<LiveDaemon>> StartTrained(const Workload& work) {
  core::SpriteConfig config;
  config.peer_timeout_ms = 5000;
  std::vector<std::unique_ptr<LiveDaemon>> nodes;
  nodes.push_back(std::make_unique<LiveDaemon>("n0", 0, config));
  for (const char* name : {"n1", "n2"}) {
    nodes.push_back(
        std::make_unique<LiveDaemon>(name, nodes[0]->udp(), config));
  }
  for (const std::string& body : work.record) {
    EXPECT_EQ(StatusOf(Exchange(nodes[0]->http(),
                                Request("POST", "/record", body))),
              200);
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(StatusOf(Exchange(nodes[i]->http(),
                                Request("POST", "/publish", work.publish[i]))),
              200);
  }
  return nodes;
}

std::vector<std::string> SearchBodies(LiveDaemon& node,
                                      const std::vector<std::string>& queries) {
  std::vector<std::string> bodies;
  for (const std::string& q : queries) {
    bodies.push_back(
        BodyOf(Exchange(node.http(), Request("GET", SearchTarget(q)))));
  }
  return bodies;
}

TEST(DaemonTest, LearningAtEveryDaemonAtOnceMatchesOneAtATime) {
  // At 300 documents, rounds that blocked their daemon's loop already
  // timed out polling each other every time.
  const Workload work = Generate(/*docs=*/600, /*queries=*/2000);
  std::vector<std::unique_ptr<LiveDaemon>> one_at_a_time = StartTrained(work);
  for (auto& node : one_at_a_time) {
    EXPECT_EQ(StatusOf(Exchange(node->http(), Request("POST", "/learn"))),
              200);
  }
  const std::vector<std::string> reference =
      SearchBodies(*one_at_a_time[0], work.probes);

  std::vector<std::unique_ptr<LiveDaemon>> at_once = StartTrained(work);
  const std::vector<std::string> untrained =
      SearchBodies(*at_once[0], work.probes);
  std::atomic<bool> go{false};
  std::vector<std::string> learned(at_once.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < at_once.size(); ++i) {
    clients.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      learned[i] = Exchange(at_once[i]->http(), Request("POST", "/learn"));
    });
  }
  go.store(true);
  for (std::thread& client : clients) client.join();
  for (const std::string& response : learned) {
    EXPECT_EQ(StatusOf(response), 200) << response;
  }
  EXPECT_EQ(SearchBodies(*at_once[0], work.probes), reference);
  EXPECT_NE(untrained, reference);  // the rounds changed some index terms
  EXPECT_NE(std::count_if(reference.begin(), reference.end(),
                          [](const std::string& body) {
                            return body.find("\"doc\"") != std::string::npos;
                          }),
            0);
  for (auto* set : {&one_at_a_time, &at_once}) {
    for (auto& node : *set) {
      node->Stop();
      EXPECT_EQ(node->daemon().transport().stats().TotalTimeouts(), 0u);
    }
  }
}

}  // namespace
}  // namespace sprite::net
