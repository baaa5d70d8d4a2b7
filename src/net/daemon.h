#ifndef SPRITE_NET_DAEMON_H_
#define SPRITE_NET_DAEMON_H_

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/cluster.h"
#include "net/http.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/analyzer.h"

// One live SPRITE process: a SocketTransport (UDP control + TCP bulk), a
// ClusterNode plugged into it, and an HTTP/JSON frontend, all driven by a
// single poll loop on one thread. /search, /record, /publish and /learn
// answer from the loop once their replies are in, so neither a slow client
// nor a pending peer call stalls it. Only join blocks: it runs over UDP in
// Start(), before the loop serves.
namespace sprite::net {

struct DaemonOptions {
  std::string name = "node";
  core::SpriteConfig config;  // listen_host + udp/tcp/http ports honored
  // When set, join this cluster right after binding (host + UDP control
  // port of any existing member).
  std::string bootstrap_host;
  uint16_t bootstrap_udp = 0;
  // Live distributed tracing (DESIGN.md §16): spans on a wall clock,
  // trace context stamped into outbound frames, /trace drains the ring.
  // Off by default — tracing a daemon is an operator opt-in (--trace).
  bool enable_trace = false;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);

  // Binds the three listeners, wires the frame and HTTP handlers, and (if
  // a bootstrap was given) joins the cluster.
  Status Start();

  // Serves until `*stop` becomes true (checked between poll rounds).
  void RunUntil(const std::atomic<bool>& stop);
  // One poll round over every transport socket and HTTP connection, then
  // whatever is ready or due. It waits at most `timeout_ms` (-1: no
  // limit), and no later than the earliest call deadline, retry or HTTP
  // deadline. Exposed for in-process tests.
  void PollOnce(int timeout_ms);

  SocketTransport& transport() { return transport_; }
  HttpServer& http() { return http_; }

  // The HTTP surface (also reachable in-process for tests):
  //   GET  /health               -> {"name","id","git_commit","build_type",
  //                                  "wire_version","uptime_s",...}
  //   GET  /metrics              -> the full registry as JSON;
  //                                 ?format=prometheus -> text exposition
  //   GET  /trace                -> drains the span ring as JSONL (the
  //                                 collector's poll; empty when tracing
  //                                 is off)
  //   GET  /stats                -> membership + index counters
  //   GET  /members              -> the full member list
  //   POST /publish              -> TSV body, one "<id>\t<title>\t<text>"
  //                                 per line; shares all or none (409 for
  //                                 an id shared already or twice)
  //   POST /record               -> one raw query per line; analyzes and
  //                                 records each at the responsible members
  //   POST /flush                -> persist the index half to the data dir
  //                                 (400 when the daemon has no --data-dir)
  //   POST /learn                -> one SPRITE learning iteration
  //   GET  /search?q=...&k=N     -> analyzed query -> ranked {"doc","score"}
  // /search, /record, /publish and /learn answer through `respond` once
  // their calls are answered (a /publish or /learn while this daemon's
  // previous one runs gets 409); the rest answer before HandleHttp returns.
  void HandleHttp(const HttpRequest& req, HttpServer::Responder respond);

 private:
  HttpResponse HandleNow(const HttpRequest& req);
  void HandleSearch(const HttpRequest& req, HttpServer::Responder respond);
  void HandleRecord(const HttpRequest& req, HttpServer::Responder respond);
  void HandlePublish(const HttpRequest& req, HttpServer::Responder respond);

  DaemonOptions options_;
  SocketTransport transport_;
  ClusterNode cluster_;
  HttpServer http_;
  text::Analyzer analyzer_;
  obs::MetricsRegistry metrics_;
  obs::WallClock wall_clock_;
  obs::Tracer tracer_;
  std::chrono::steady_clock::time_point started_at_{};
  std::vector<pollfd> poll_fds_;  // reused by every PollOnce
};

}  // namespace sprite::net

#endif  // SPRITE_NET_DAEMON_H_
