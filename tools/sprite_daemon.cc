// sprite_daemon — one live SPRITE cluster node (DESIGN.md §14).
//
// Binds a UDP control socket, a TCP bulk socket and an HTTP/JSON frontend,
// then serves until SIGINT/SIGTERM. Prints one READY line with the bound
// ports once it is serving, so scripts can start daemons on ephemeral
// ports and discover where they landed:
//
//   READY name=<name> udp=<port> tcp=<port> http=<port>
//
// Usage:
//   sprite_daemon [--name=NAME] [--host=IP] [--udp=P] [--tcp=P] [--http=P]
//                 [--join=HOST:UDPPORT] [--terms=N] [--initial-terms=N]
//                 [--per-iter=N] [--data-dir=PATH] [--trace]
//
// With --join the daemon joins an existing cluster through any member's
// UDP control port; without it, it starts a one-node cluster others can
// join. See README "Running a live cluster".
//
// With --data-dir the daemon replays the durable store found there before
// joining, and POST /flush persists the index half back to it — the
// kill/restart recovery leg of tools/cluster_smoke.py.
//
// With --trace the daemon records wall-clock spans for every operation and
// stamps trace context into outbound frames (DESIGN.md §16); GET /trace
// drains them as JSONL for `sprite_cli cluster-report`.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "net/daemon.h"

namespace {

using sprite::ParseWhole;

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

// Parses a port: a whole decimal number of at most 65535.
bool ParsePort(std::string_view text, uint16_t* port) {
  size_t value = 0;
  if (!ParseWhole(text, &value) ||
      value > std::numeric_limits<uint16_t>::max()) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sprite::net::DaemonOptions options;
  sprite::core::SpriteConfig& config = options.config;
  const std::pair<std::string_view, uint16_t*> ports[] = {
      {"--udp=", &config.udp_port},
      {"--tcp=", &config.tcp_port},
      {"--http=", &config.http_port}};
  const std::pair<std::string_view, size_t*> counts[] = {
      {"--terms=", &config.max_index_terms},
      {"--initial-terms=", &config.initial_terms},
      {"--per-iter=", &config.terms_per_iteration}};
  const std::pair<std::string_view, std::string*> strings[] = {
      {"--name=", &options.name},
      {"--host=", &config.listen_host},
      {"--data-dir=", &config.data_dir}};
  // An unknown flag, or a number that is not a whole decimal in range, is
  // a usage error: exit 2 rather than start with a silent default.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace") {
      options.enable_trace = true;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view flag =
        eq == std::string_view::npos ? arg : arg.substr(0, eq + 1);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    bool known = false;
    bool valid = true;
    for (const auto& [name, field] : ports) {
      if (flag != name) continue;
      known = true;
      valid = ParsePort(value, field);
    }
    for (const auto& [name, field] : counts) {
      if (flag != name) continue;
      known = true;
      valid = ParseWhole(value, field);
    }
    for (const auto& [name, field] : strings) {
      if (flag != name) continue;
      known = true;
      *field = std::string(value);
    }
    if (flag == "--join=") {
      known = true;
      const size_t colon = value.rfind(':');
      valid = colon != std::string_view::npos &&
              ParsePort(value.substr(colon + 1), &options.bootstrap_udp);
      if (valid) options.bootstrap_host = std::string(value.substr(0, colon));
    }
    if (!known || !valid) {
      const char* why = !known             ? "unknown flag"
                        : flag == "--join=" ? "--join wants HOST:UDPPORT"
                                            : "not a whole decimal in range";
      std::fprintf(stderr, "%s: %s\n", why, argv[i]);
      return 2;
    }
  }

  sprite::net::Daemon daemon(options);
  const sprite::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 std::string(started.message()).c_str());
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("READY name=%s udp=%u tcp=%u http=%u\n", options.name.c_str(),
              daemon.transport().udp_port(), daemon.transport().tcp_port(),
              daemon.http().port());
  std::fflush(stdout);
  daemon.RunUntil(g_stop);
  return 0;
}
