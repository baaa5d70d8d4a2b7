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
#include <string>

#include "common/flags.h"
#include "net/daemon.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  sprite::net::DaemonOptions options;
  sprite::core::SpriteConfig& config = options.config;
  sprite::Flags(
      "sprite_daemon [--name=NAME] [--host=IP] [--udp=P] [--tcp=P] "
      "[--http=P] [--join=HOST:UDPPORT] [--terms=N] [--initial-terms=N] "
      "[--per-iter=N] [--data-dir=PATH] [--trace]")
      .String("--name", &options.name)
      .String("--host", &config.listen_host)
      .Port("--udp", &config.udp_port)
      .Port("--tcp", &config.tcp_port)
      .Port("--http", &config.http_port)
      .HostPort("--join", &options.bootstrap_host, &options.bootstrap_udp)
      .Whole("--terms", &config.max_index_terms)
      .Whole("--initial-terms", &config.initial_terms)
      .Whole("--per-iter", &config.terms_per_iteration)
      .String("--data-dir", &config.data_dir)
      .Switch("--trace", &options.enable_trace)
      .ParseOrExit(argc, argv);

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
