#include "net/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/string_util.h"

namespace sprite::net {
namespace {

// How long a client may take to send its whole request, or to take its
// whole response. The frontend handles local traffic; anything slower is
// a client bug.
constexpr auto kIoTimeout = std::chrono::seconds(5);
// Bytes one readable event takes from a connection.
constexpr size_t kReadChunkBytes = 64 * 1024;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// The value of header `name` (lowercase) in the header lines of `head`
// (the request line excluded), whitespace-trimmed; false when absent.
bool FindHeader(std::string_view head, std::string_view name,
                std::string_view* value) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    const size_t start = pos + 2;
    pos = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, pos == std::string_view::npos ? std::string_view::npos
                                             : pos - start);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos ||
        AsciiLower(line.substr(0, colon)) != name) {
      continue;
    }
    *value = TrimWhitespace(line.substr(colon + 1));
    return true;
  }
  return false;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void ParseQueryString(const std::string& qs,
                      std::map<std::string, std::string>& params) {
  size_t pos = 0;
  while (pos < qs.size()) {
    size_t amp = qs.find('&', pos);
    if (amp == std::string::npos) amp = qs.size();
    const std::string pair = qs.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      params[HttpServer::UrlDecode(pair.substr(0, eq))] =
          HttpServer::UrlDecode(pair.substr(eq + 1));
    } else if (!pair.empty()) {
      params[HttpServer::UrlDecode(pair)] = "";
    }
    pos = amp + 1;
  }
}

}  // namespace

std::string HttpServer::UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size()) {
      const int hi = HexVal(in[i + 1]);
      const int lo = HexVal(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back(in[i]);
      }
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

std::string HttpServer::UrlEncode(const std::string& in) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0 || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 0xf]);
    }
  }
  return out;
}

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "{\"error\":\"" + JsonEscape(message) + "\"}";
  return resp;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

HttpServer::~HttpServer() { Close(); }

Status HttpServer::Bind(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string use_host = host.empty() ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, use_host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad http listen host: " + use_host);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("http socket() failed");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      listen(fd, 32) != 0 || !SetNonBlocking(fd)) {
    close(fd);
    return Status::Internal("http bind/listen failed: " +
                            std::string(std::strerror(errno)));
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) !=
      0) {
    close(fd);
    return Status::Internal("http getsockname failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void HttpServer::Close() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const Conn& conn : conns_) close(conn.fd);
  conns_.clear();
  port_ = 0;
}

void HttpServer::AppendPollFds(std::vector<pollfd>* fds) const {
  fds->push_back(
      {conns_.size() < kMaxConnections ? listen_fd_ : -1, POLLIN, 0});
  for (const Conn& conn : conns_) {
    short events = 0;  // waiting on the handler: only errors report
    if (conn.state == Conn::State::kReading) events = POLLIN;
    if (conn.state == Conn::State::kWriting) events = POLLOUT;
    fds->push_back({conn.fd, events, 0});
  }
}

void HttpServer::OnPollEvents(const pollfd* fds, size_t count) {
  // fds[1 + i] is conns_[i]. Handlers and responders change connection
  // states but never add or remove one, and Accept only appends, so the
  // indices hold until the sweep below.
  for (size_t i = 0; i + 1 < count && i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    const short revents = fds[i + 1].revents;
    if (revents == 0 || fds[i + 1].fd != conn.fd) continue;
    if (conn.state == Conn::State::kReading) {
      OnReadable(conn);
    } else if (conn.state == Conn::State::kWriting) {
      Flush(conn);
    } else if (conn.state == Conn::State::kWaiting &&
               (revents & (POLLERR | POLLHUP)) != 0) {
      conn.state = Conn::State::kDone;  // the client is gone
    }
  }
  if (count > 0 && (fds[0].revents & POLLIN) != 0) Accept();
  const Clock::time_point now = Clock::now();
  std::erase_if(conns_, [now](const Conn& conn) {
    const bool expired = conn.state != Conn::State::kWaiting &&
                         conn.deadline <= now;
    if (conn.state != Conn::State::kDone && !expired) return false;
    close(conn.fd);
    return true;
  });
}

int HttpServer::NextTimeoutMs() const {
  std::optional<Clock::time_point> next;
  for (const Conn& conn : conns_) {
    // A connection answered outside OnPollEvents closes on the next call.
    if (conn.state == Conn::State::kDone) return 0;
    if (conn.state == Conn::State::kWaiting) continue;
    if (!next.has_value() || conn.deadline < *next) next = conn.deadline;
  }
  if (!next.has_value()) return -1;
  const double ms =
      std::chrono::duration<double, std::milli>(*next - Clock::now()).count();
  return ms <= 0.0 ? 0 : static_cast<int>(std::ceil(ms));
}

void HttpServer::Accept() {
  while (conns_.size() < kMaxConnections) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained every pending connection
    }
    Conn conn;
    conn.id = next_conn_id_++;
    conn.fd = fd;
    conn.deadline = Clock::now() + kIoTimeout;
    conns_.push_back(std::move(conn));
    // Most requests are already here: serve them without a poll round.
    OnReadable(conns_.back());
  }
}

void HttpServer::OnReadable(Conn& conn) {
  char buf[kReadChunkBytes];
  for (;;) {
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      // The client stopped sending before its request was whole.
      ParseAndDispatch(conn);
      if (conn.state == Conn::State::kReading) conn.state = Conn::State::kDone;
      return;
    } else if (errno == EINTR) {
      continue;
    } else {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        conn.state = Conn::State::kDone;
        return;
      }
      break;
    }
  }
  ParseAndDispatch(conn);
}

void HttpServer::ParseAndDispatch(Conn& conn) {
  if (conn.state != Conn::State::kReading) return;
  if (conn.want == 0) {
    const size_t header_end = conn.in.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (conn.in.size() > kMaxRequestBytes) {
        Send(conn, JsonError(400, "request header over " +
                                      std::to_string(kMaxRequestBytes) +
                                      " bytes"));
      }
      return;
    }
    const std::string_view head(conn.in.data(), header_end);
    size_t length = 0;
    std::string_view value;
    if (FindHeader(head, "content-length", &value)) {
      if (!ParseWhole(value, &length)) {
        Send(conn,
             JsonError(400, "Content-Length must be a whole decimal number"));
        return;
      }
      if (length > kMaxRequestBytes) {
        Send(conn, JsonError(400, "request body over " +
                                      std::to_string(kMaxRequestBytes) +
                                      " bytes"));
        return;
      }
    }
    conn.want = header_end + 4 + length;
  }
  if (conn.in.size() < conn.want) return;

  // Request line: METHOD SP TARGET SP HTTP-VERSION.
  const std::string_view head(conn.in.data(), conn.in.find("\r\n"));
  const size_t sp1 = head.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : head.find(' ', sp1 + 1);
  if (sp1 == 0 || sp2 == std::string_view::npos || sp2 == sp1 + 1 ||
      !StartsWith(head.substr(sp2 + 1), "HTTP/")) {
    Send(conn, JsonError(400, "malformed request line"));
    return;
  }
  HttpRequest req;
  req.method = std::string(head.substr(0, sp1));
  std::string target(head.substr(sp1 + 1, sp2 - sp1 - 1));
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    ParseQueryString(target.substr(qmark + 1), req.params);
    target.resize(qmark);
  }
  req.path = UrlDecode(target);
  const size_t body_at = conn.in.find("\r\n\r\n") + 4;
  req.body = conn.in.substr(body_at, conn.want - body_at);
  conn.in.clear();
  conn.in.shrink_to_fit();
  conn.state = Conn::State::kWaiting;
  if (!handler_) {
    Send(conn, JsonError(500, "no handler"));
    return;
  }
  const uint64_t id = conn.id;
  // The handler may answer inline, which re-enters this connection.
  handler_(std::move(req),
           [this, id](HttpResponse resp) { Respond(id, std::move(resp)); });
}

void HttpServer::Respond(uint64_t id, HttpResponse resp) {
  for (Conn& conn : conns_) {
    if (conn.id == id && conn.state == Conn::State::kWaiting) {
      Send(conn, resp);
      return;
    }
  }
}

void HttpServer::Send(Conn& conn, const HttpResponse& resp) {
  conn.out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
             ReasonPhrase(resp.status) +
             "\r\nContent-Type: " + resp.content_type +
             "\r\nContent-Length: " + std::to_string(resp.body.size()) +
             "\r\nConnection: close\r\n\r\n" + resp.body;
  conn.state = Conn::State::kWriting;
  conn.deadline = Clock::now() + kIoTimeout;
  Flush(conn);
}

void HttpServer::Flush(Conn& conn) {
  size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + sent,
                           conn.out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      conn.state = Conn::State::kDone;
      return;
    }
  }
  conn.out.erase(0, sent);
  if (conn.out.empty()) conn.state = Conn::State::kDone;
}

}  // namespace sprite::net
