#include "net/daemon.h"

#include <poll.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "corpus/query.h"

// Baked in by CMake's env capture (shared with bench/bench_common.h);
// default for builds driven outside CMake.
#ifndef SPRITE_GIT_COMMIT
#define SPRITE_GIT_COMMIT "unknown"
#endif
#ifndef SPRITE_BUILD_TYPE
#define SPRITE_BUILD_TYPE "unknown"
#endif

namespace sprite::net {
namespace {

std::string FormatScore(double score) {
  char buf[64];
  // Round-trippable doubles: the smoke compares cluster scores against the
  // in-process reference bit-for-bit through this formatting.
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  return buf;
}

// `body` if the operation succeeded; 409 if another share or learning
// round was running; else 500.
HttpResponse Finished(const Status& status, std::string body) {
  if (status.ok()) return {200, "application/json", std::move(body)};
  return JsonError(status.code() == StatusCode::kFailedPrecondition ? 409 : 500,
                   status.message());
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(options),
      transport_(dht::IdSpace(options.config.id_bits)
                     .KeyForString(options.name)),
      cluster_(ClusterOptions{options.name, options.config}, &transport_) {
  // Live observability wiring (DESIGN.md §16): transport counters + RTT
  // histograms mirror into this daemon's registry (mirror_traffic on — no
  // sim cost model mirrors net.* here to double-count against), and the
  // tracer runs on a wall clock with ids salted by this node's ring id so
  // traces minted on different daemons never collide.
  transport_.mutable_stats().AttachMetrics(&metrics_, /*mirror_traffic=*/true);
  cluster_.AttachObservability(&metrics_, &tracer_);
  tracer_.set_time_source(&wall_clock_);
  tracer_.set_id_salt(cluster_.self().id);
  tracer_.set_enabled(options_.enable_trace);
  transport_.set_tracer(&tracer_, options_.name);
}

Status Daemon::Start() {
  started_at_ = std::chrono::steady_clock::now();
  SocketTransport::Options topts;
  topts.host = options_.config.listen_host;
  topts.udp_port = options_.config.udp_port;
  topts.tcp_port = options_.config.tcp_port;
  SPRITE_RETURN_IF_ERROR(transport_.Bind(topts));
  transport_.set_handler(
      [this](const wire::Frame& frame) { return cluster_.HandleFrame(frame); });
  SPRITE_RETURN_IF_ERROR(
      http_.Bind(options_.config.listen_host, options_.config.http_port));
  http_.set_handler([this](HttpRequest req, HttpServer::Responder respond) {
    HandleHttp(req, std::move(respond));
  });
  cluster_.SetEndpoints(options_.config.listen_host, transport_.udp_port(),
                        transport_.tcp_port(), http_.port());
  // With a data dir configured, replay the durable store before joining:
  // the node re-enters the cluster already serving the index it persisted.
  if (!options_.config.data_dir.empty()) {
    SPRITE_RETURN_IF_ERROR(cluster_.Recover());
  }
  if (!options_.bootstrap_host.empty() && options_.bootstrap_udp != 0) {
    PeerAddress bootstrap;
    bootstrap.host = options_.bootstrap_host;
    bootstrap.udp_port = options_.bootstrap_udp;
    SPRITE_RETURN_IF_ERROR(cluster_.Join(bootstrap));
  }
  return Status::OK();
}

void Daemon::PollOnce(int timeout_ms) {
  // The transport's sockets (UDP, TCP listener, inbound and outbound frame
  // connections) first, then the HTTP listener and connections.
  poll_fds_.clear();
  transport_.AppendPollFds(&poll_fds_);
  const size_t transport_fds = poll_fds_.size();
  http_.AppendPollFds(&poll_fds_);
  int timeout = timeout_ms;
  for (const int due : {transport_.NextTimeoutMs(), http_.NextTimeoutMs()}) {
    if (due >= 0 && (timeout < 0 || due < timeout)) timeout = due;
  }
  if (poll(poll_fds_.data(), poll_fds_.size(), timeout) < 0) {
    for (pollfd& pfd : poll_fds_) pfd.revents = 0;  // EINTR: timers only
  }
  transport_.OnPollEvents(poll_fds_.data(), transport_fds);
  http_.OnPollEvents(poll_fds_.data() + transport_fds,
                     poll_fds_.size() - transport_fds);
}

void Daemon::RunUntil(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    PollOnce(100);
  }
}

void Daemon::HandleHttp(const HttpRequest& req,
                        HttpServer::Responder respond) {
  if ((req.path == "/record" || req.path == "/publish" ||
       req.path == "/learn" || req.path == "/flush") &&
      req.method != "POST") {
    respond(JsonError(405, "POST to " + req.path));
  } else if (req.path == "/search") {
    HandleSearch(req, std::move(respond));
  } else if (req.path == "/record") {
    HandleRecord(req, std::move(respond));
  } else if (req.path == "/publish") {
    HandlePublish(req, std::move(respond));
  } else if (req.path == "/learn") {
    cluster_.RunLearningIteration(
        [respond = std::move(respond)](const Status& status) {
          respond(Finished(status, "{\"learned\":true}"));
        });
  } else {
    respond(HandleNow(req));
  }
}

void Daemon::HandleSearch(const HttpRequest& req,
                          HttpServer::Responder respond) {
  const auto q = req.params.find("q");
  if (q == req.params.end() || q->second.empty()) {
    respond(JsonError(400, "missing ?q="));
    return;
  }
  size_t k = 20;
  const auto kit = req.params.find("k");
  if (kit != req.params.end() && !ParseWhole(kit->second, &k)) {
    respond(JsonError(400, "k must be a whole decimal number"));
    return;
  }
  const std::vector<std::string> terms = analyzer_.Analyze(q->second);
  if (terms.empty()) {
    respond(JsonError(400, "query has no indexable terms"));
    return;
  }
  cluster_.Search(terms, k, [respond = std::move(respond)](
                                StatusOr<ir::RankedList> results) {
    if (!results.ok()) {
      respond(JsonError(500, results.status().message()));
      return;
    }
    std::string body = "{\"results\":[";
    bool first = true;
    for (const auto& r : *results) {
      if (!first) body += ",";
      first = false;
      body += "{\"doc\":" + std::to_string(r.doc) +
              ",\"score\":" + FormatScore(r.score) + "}";
    }
    body += "]}";
    HttpResponse resp;
    resp.body = std::move(body);
    respond(std::move(resp));
  });
}

void Daemon::HandleRecord(const HttpRequest& req,
                          HttpServer::Responder respond) {
  std::vector<std::vector<std::string>> queries;
  std::istringstream in(req.body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> terms = analyzer_.Analyze(line);
    if (!terms.empty()) queries.push_back(std::move(terms));
  }
  const size_t recorded = queries.size();
  cluster_.RecordQueries(
      queries, [recorded, respond = std::move(respond)](Status status) {
        respond(Finished(status,
                         "{\"recorded\":" + std::to_string(recorded) + "}"));
      });
}

void Daemon::HandlePublish(const HttpRequest& req,
                           HttpServer::Responder respond) {
  // Every line is checked before anything is shared.
  std::vector<corpus::Document> docs;
  std::unordered_set<corpus::DocId> ids;
  std::istringstream in(req.body);
  std::string line;
  for (size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (line.empty() || line[0] == '#') continue;
    const std::string where = "line " + std::to_string(lineno) + ": ";
    const size_t tab1 = line.find('\t');
    const size_t tab2 =
        tab1 == std::string::npos ? std::string::npos
                                  : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      respond(JsonError(400, where + "want <id>\\t<title>\\t<text>"));
      return;
    }
    corpus::DocId id = 0;
    if (!ParseWhole(std::string_view(line).substr(0, tab1), &id) ||
        id == corpus::kInvalidDocId) {
      respond(JsonError(400, where +
                                 "doc id must be a whole decimal number "
                                 "below " +
                                 std::to_string(corpus::kInvalidDocId)));
      return;
    }
    if (cluster_.Owns(id) || !ids.insert(id).second) {
      respond(JsonError(409, where + "doc id " + std::to_string(id) +
                                 " is already shared"));
      return;
    }
    corpus::Document& doc = docs.emplace_back();
    doc.id = id;
    doc.title = line.substr(tab1 + 1, tab2 - tab1 - 1);
    doc.terms =
        analyzer_.AnalyzeToVector(std::string_view(line).substr(tab2 + 1));
  }
  const size_t shared = docs.size();
  cluster_.ShareDocuments(
      std::move(docs), [shared, respond = std::move(respond)](Status status) {
        respond(Finished(status,
                         "{\"shared\":" + std::to_string(shared) + "}"));
      });
}

HttpResponse Daemon::HandleNow(const HttpRequest& req) {
  HttpResponse resp;
  if (req.path == "/health") {
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"id\":%" PRIu64
                  ",\"git_commit\":\"%s\",\"build_type\":\"%s\","
                  "\"wire_version\":%u,\"uptime_s\":%.3f,"
                  "\"trace_enabled\":%s}",
                  JsonEscape(cluster_.self().name).c_str(), cluster_.self().id,
                  JsonEscape(SPRITE_GIT_COMMIT).c_str(),
                  JsonEscape(SPRITE_BUILD_TYPE).c_str(),
                  static_cast<unsigned>(wire::kWireVersion), uptime_s,
                  tracer_.enabled() ? "true" : "false");
    resp.body = buf;
    return resp;
  }
  if (req.path == "/metrics") {
    const obs::MetricsSnapshot snap = metrics_.Snapshot();
    const auto fmt = req.params.find("format");
    if (fmt != req.params.end() && fmt->second == "prometheus") {
      resp.content_type = "text/plain; version=0.0.4";
      resp.body = obs::PrometheusText(snap);
    } else {
      resp.body = snap.ToJson();
    }
    return resp;
  }
  if (req.path == "/trace") {
    // Drain: the collector owns retention once it has polled; counters
    // (traces_started) survive so repeated drains stay monotone.
    resp.content_type = "application/x-ndjson";
    resp.body = tracer_.DrainJsonl();
    return resp;
  }
  if (req.path == "/stats") {
    const ClusterNode::Stats s = cluster_.GetStats();
    std::ostringstream out;
    out << "{\"name\":\"" << JsonEscape(cluster_.self().name) << "\""
        << ",\"members\":" << s.members << ",\"documents\":" << s.documents
        << ",\"indexed_terms\":" << s.indexed_terms
        << ",\"postings\":" << s.postings
        << ",\"history_records\":" << s.history_records << "}";
    resp.body = out.str();
    return resp;
  }
  if (req.path == "/members") {
    std::ostringstream out;
    out << "[";
    bool first = true;
    for (const wire::NodeInfo& m : cluster_.members()) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << JsonEscape(m.name) << "\",\"id\":" << m.id
          << ",\"host\":\"" << JsonEscape(m.host)
          << "\",\"udp\":" << m.udp_port << ",\"tcp\":" << m.tcp_port
          << ",\"http\":" << m.http_port << "}";
    }
    out << "]";
    resp.body = out.str();
    return resp;
  }
  if (req.path == "/flush") {
    const Status status = cluster_.Flush();
    if (!status.ok()) {
      return JsonError(status.code() == StatusCode::kFailedPrecondition ? 400
                                                                        : 500,
                       status.message());
    }
    resp.body = "{\"flushed\":true}";
    return resp;
  }
  return JsonError(404, "unknown path: " + req.path);
}

}  // namespace sprite::net
