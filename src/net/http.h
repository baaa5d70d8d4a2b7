#ifndef SPRITE_NET_HTTP_H_
#define SPRITE_NET_HTTP_H_

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

// A deliberately small HTTP/1.1 server: the JSON query frontend of a live
// SPRITE daemon (DESIGN.md §14). One request per connection
// (Connection: close), bodies bounded, no keep-alive, no TLS — enough for
// `curl` and the multi-process smoke, and nothing more.
//
// Every accepted connection is a small state machine in the owner's poll
// loop, the same inversion SocketTransport uses: it reads into a buffer
// until the request is complete, hands it to the handler, waits for the
// handler's answer (which may come from a later poll round), then writes
// the response and closes. A request that is malformed or too large is
// answered 400 and closed; a connection that has not sent a whole request,
// or not taken its whole response, within 5 s is closed. At most
// kMaxConnections are open; at the cap the listener is not polled, so new
// connections wait in the kernel backlog.
namespace sprite::net {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // decoded path without the query string
  // Decoded query-string parameters (last wins on duplicates).
  std::map<std::string, std::string> params;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

class HttpServer {
 public:
  // Answers one request, at once or from a later poll round. A response
  // for a connection that was closed meanwhile is dropped.
  using Responder = std::function<void(HttpResponse)>;
  using Handler = std::function<void(HttpRequest, Responder)>;

  static constexpr size_t kMaxConnections = 64;
  // Bound on a request's header block, and separately on its body.
  static constexpr size_t kMaxRequestBytes = 16 * 1024 * 1024;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds and listens; port 0 picks an ephemeral port (see port()).
  Status Bind(const std::string& host, uint16_t port);
  // Closes the listener and every connection.
  void Close();

  uint16_t port() const { return port_; }

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  // Appends one entry for the listener (fd -1 at the connection cap), then
  // one per connection. Pass the polled entries, in the same order, to
  // OnPollEvents(), also when poll timed out: it reads, dispatches,
  // writes, expires deadlines and accepts.
  void AppendPollFds(std::vector<pollfd>* fds) const;
  void OnPollEvents(const pollfd* fds, size_t count);
  // Milliseconds until the earliest read or write deadline (0 when one is
  // due), or -1 when no connection has one.
  int NextTimeoutMs() const;

  // Percent-decodes a URL component ('+' becomes a space). Exposed for the
  // CLI's query subcommand and for tests.
  static std::string UrlDecode(const std::string& in);
  static std::string UrlEncode(const std::string& in);

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    enum class State { kReading, kWaiting, kWriting, kDone };
    uint64_t id = 0;
    int fd = -1;
    State state = State::kReading;
    Clock::time_point deadline{};  // while reading or writing
    std::string in;
    size_t want = 0;  // whole request size once the headers are parsed
    std::string out;
  };

  void Accept();
  // Reads what has arrived and dispatches a complete request.
  void OnReadable(Conn& conn);
  // Parses conn.in once it holds a whole request; answers 400 itself.
  void ParseAndDispatch(Conn& conn);
  void Respond(uint64_t id, HttpResponse resp);
  void Send(Conn& conn, const HttpResponse& resp);
  void Flush(Conn& conn);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  Handler handler_;
  std::vector<Conn> conns_;
  uint64_t next_conn_id_ = 1;
};

// Minimal JSON string escaping for the daemon's hand-rolled responses.
std::string JsonEscape(const std::string& in);
// A JSON error response: {"error":"<message>"} with `status`.
HttpResponse JsonError(int status, const std::string& message);

}  // namespace sprite::net

#endif  // SPRITE_NET_HTTP_H_
