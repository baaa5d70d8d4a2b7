// sprite_cli — run the SPRITE system on your own data.
//
// Usage:
//   sprite_cli search <corpus.tsv> "<keywords>" [options]
//       Share a TSV corpus (<title>\t<text> per line) in a simulated
//       SPRITE network and run one query, printing the ranked titles.
//
//   sprite_cli evaluate-trec <docs.sgml> <topics> <qrels> [options]
//       Load a TREC collection + topics + qrels (e.g. OHSUMED, the
//       paper's dataset), train SPRITE on half of the topics' queries,
//       and report precision/recall against the centralized baseline for
//       SPRITE and the eSearch baseline — i.e. reproduce the paper's
//       Section 6 pipeline on real data.
//
//   sprite_cli trace-report <trace-file> [--top=N]
//       Analyze a trace dump written by --trace-json/--trace-jsonl (here
//       or by any bench): critical-path breakdown per phase, the top-N
//       slowest searches as span trees, and per-peer busy time.
//
//   sprite_cli cluster-report <host:httpport> [--top=N] [--slo-rtt-p95-us=X]
//       Poll every member of a live cluster (via any member's HTTP port):
//       /health provenance, /metrics, and /trace drains. Stitches the
//       per-daemon span dumps into cross-node trace trees (trace context
//       rides the wire frames — DESIGN.md §16), reports per-hop wire
//       timing, and evaluates SLO rules against the live metrics.
//
//   sprite_cli explain <corpus.tsv> "<keywords>" [options]
//       Like `search`, but teaches the network the query (--train
//       issuances + --iters learning rounds) and then explains one
//       search end to end: which peer served each query term (with n'_k
//       and IDF), the per-term w_Qj*w_ij contribution behind every
//       ranked answer, and — against the centralized oracle — why each
//       relevant-but-missed document was missed (never-indexed,
//       withdrawn-by-learning, or churn-lost).
//
//   sprite_cli learning-ledger <corpus.tsv> "<keywords>" [options]
//       Same training setup, but prints the per-round decision ledger:
//       every publish/withdraw verdict with its Score(t,D) =
//       qScore * log10(QF) inputs (Section 5's Algorithm 1).
//
// Common options:
//   --peers=N     network size                (default 64)
//   --terms=N     max index terms/document    (default 20)
//   --iters=N     learning iterations         (default 3)
//   --k=N         answers per query           (default 20)
//   --seed=N      RNG seed                    (default 42)
//   --cache=MODE  querying-peer caches (DESIGN.md §9): "off" (default),
//                 "on" (result + posting tiers, version-validated), or
//                 "blind" (serve cached entries without validation)
//   --metrics-json=PATH  dump the system's observability snapshot
//                 (counters + simulated-latency histograms) as JSON
//   --trace-json=PATH    enable tracing; dump span trees as Chrome
//                 trace-event JSON (open at ui.perfetto.dev)
//   --trace-jsonl=PATH   enable tracing; dump one JSON span per line
//                 (input of `sprite_cli trace-report`)
//   --train=N     (explain/learning-ledger) times the query is recorded
//                 into peer histories before learning   (default 8)
//   --explain-jsonl=PATH (explain/learning-ledger) dump the explain
//                 ledger (decisions + search decompositions) as JSONL
// A usage error exits 2: an unknown flag, a number that is not a whole
// decimal, a --cache= other than on|off|blind, a HOST:PORT with a port over
// 65535, a missing or extra argument. A requested dump that cannot be
// written exits 1.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/json_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/sprite_system.h"
#include "corpus/loader.h"
#include "corpus/trec.h"
#include "ir/centralized_index.h"
#include "ir/metrics.h"
#include "net/http.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace_report.h"
#include "querygen/workload.h"
#include "text/analyzer.h"

namespace {

using namespace sprite;

struct Options {
  size_t peers = 64;
  size_t terms = 20;
  size_t iters = 3;
  size_t k = 20;
  uint64_t seed = 42;
  size_t train = 8;          // explain/learning-ledger: recorded issuances
  std::string cache;         // "", "on", "off", "blind"
  std::string metrics_json;  // empty: no dump
  std::string trace_json;    // empty: no Perfetto dump
  std::string trace_jsonl;   // empty: no JSONL dump
  std::string explain_jsonl; // empty: no explain-ledger dump
  // batch only: persist the trained system's indexes to this data dir
  // after answering the queries (DESIGN.md §15).
  std::string flush_to;
  // batch only: skip training/sharing/learning and instead recover the
  // indexes a prior --flush-to run persisted, then answer the queries —
  // the kill/restart leg of the CI storage smoke.
  std::string recover_from;
};

// Parses a subcommand's command line, argv[2..]: the positional arguments
// `flags` declares, then the shared options. A usage error exits 2, so a
// typo such as --trian=3 never runs with a silent default.
Options ParseOptions(int argc, char** argv, Flags flags) {
  Options o;
  flags.Whole("--peers", &o.peers)
      .Whole("--terms", &o.terms)
      .Whole("--iters", &o.iters)
      .Whole("--k", &o.k)
      .Whole("--seed", &o.seed)
      .Whole("--train", &o.train)
      .OneOf("--cache", &o.cache, core::kCacheModes)
      .String("--metrics-json", &o.metrics_json)
      .String("--trace-json", &o.trace_json)
      .String("--trace-jsonl", &o.trace_jsonl)
      .String("--explain-jsonl", &o.explain_jsonl)
      .String("--flush-to", &o.flush_to)
      .String("--recover-from", &o.recover_from)
      .ParseOrExit(argc, argv, 2);
  return o;
}

// Enables tracing when a --trace-json/--trace-jsonl flag was given. Call
// before the instrumented work.
void MaybeEnableTracing(const Options& options, core::SpriteSystem& system) {
  if (options.trace_json.empty() && options.trace_jsonl.empty()) return;
  system.mutable_tracer().set_enabled(true);
}

// Writes every dump the flags asked for: the explain ledger (when
// `explain`; explain/learning-ledger only), the metrics snapshot and the
// retained trace trees. Returns the process exit code: 1 when a requested
// file could not be written, else 0.
int WriteDumps(const Options& options, const core::SpriteSystem& system,
               bool explain = false) {
  bool ok = true;
  const auto write = [&ok](const std::string& path, const char* what,
                           const auto& body) {
    if (path.empty()) return;
    if (obs::WriteJsonFile(path, body())) {
      std::printf("%s written to %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write %s to %s\n", what,
                   path.c_str());
      ok = false;
    }
  };
  if (explain) {
    write(options.explain_jsonl, "explain ledger",
          [&] { return system.explainer().ToJsonl(); });
  }
  write(options.metrics_json, "metrics",
        [&] { return system.metrics().Snapshot().ToJson(); });
  write(options.trace_json, "perfetto trace",
        [&] { return system.tracer().ToPerfettoJson(); });
  write(options.trace_jsonl, "jsonl trace",
        [&] { return system.tracer().ToJsonl(); });
  return ok ? 0 : 1;
}

core::SpriteConfig MakeConfig(const Options& o) {
  core::SpriteConfig config;
  config.num_peers = o.peers;
  config.initial_terms = std::min<size_t>(5, o.terms);
  config.terms_per_iteration = 5;
  config.max_index_terms = o.terms;
  config.seed = o.seed;
  core::ApplyCacheMode(o.cache, config);
  return config;
}

// One summary line per enabled cache tier, after the searches ran.
void MaybePrintCacheStats(const core::SpriteSystem& system) {
  const cache::CacheManager& cm = system.query_cache();
  if (!cm.enabled()) return;
  for (cache::CacheTier tier :
       {cache::CacheTier::kResult, cache::CacheTier::kPosting}) {
    const cache::CacheTierStats& s = cm.stats(tier);
    std::printf("%s: %llu lookups, hit rate %.3f, %llu stale %s\n",
                cache::CacheTierPrefix(tier),
                static_cast<unsigned long long>(s.lookups), s.HitRate(),
                static_cast<unsigned long long>(
                    cm.validate() ? s.stale_rejects : s.stale_serves),
                cm.validate() ? "rejects" : "serves");
  }
}

int CmdSearch(int argc, char** argv) {
  std::string corpus_path, keywords;
  const Options options = ParseOptions(
      argc, argv,
      Flags("sprite_cli search <corpus.tsv> \"<keywords>\" [options]")
          .String("<corpus.tsv>", &corpus_path)
          .String("<keywords>", &keywords));
  text::Analyzer analyzer;
  corpus::Corpus corpus;
  auto loaded = corpus::LoadCorpusFromTsv(corpus_path, analyzer, corpus);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu documents (%zu distinct terms)\n", loaded.value(),
              corpus.vocabulary_size());

  core::SpriteSystem system(MakeConfig(options));
  MaybeEnableTracing(options, system);
  Status shared = system.ShareCorpus(corpus);
  if (!shared.ok()) {
    std::fprintf(stderr, "error: %s\n", shared.ToString().c_str());
    return 1;
  }

  corpus::Query query;
  query.id = 1;
  query.terms = corpus::DedupTerms(analyzer.Analyze(keywords));
  if (query.empty()) {
    std::fprintf(stderr, "error: query is empty after analysis\n");
    return 2;
  }
  std::printf("analyzed query:");
  for (const auto& t : query.terms) std::printf(" %s", t.c_str());
  std::printf("\n\n");

  auto results = system.Search(query, options.k);
  if (!results.ok()) {
    std::fprintf(stderr, "error: %s\n", results.status().ToString().c_str());
    return 1;
  }
  if (results->empty()) {
    std::printf("no results (only the top-%zu terms of each document are "
                "indexed;\nrepeated queries teach the owners — try "
                "--iters and re-run programmatically)\n",
                options.terms);
    return WriteDumps(options, system);
  }
  for (size_t i = 0; i < results->size(); ++i) {
    const auto& scored = (*results)[i];
    std::printf("%3zu. %-32s %.4f\n", i + 1,
                corpus.doc(scored.doc).title.c_str(), scored.score);
  }
  std::printf("\nDHT cost: %s\n", system.ring().stats().hops.Summary().c_str());
  MaybePrintCacheStats(system);
  return WriteDumps(options, system);
}

int CmdEvaluateTrec(int argc, char** argv) {
  std::string docs_path, topics_path, qrels_path;
  const Options options = ParseOptions(
      argc, argv,
      Flags("sprite_cli evaluate-trec <docs> <topics> <qrels> [options]")
          .String("<docs>", &docs_path)
          .String("<topics>", &topics_path)
          .String("<qrels>", &qrels_path));
  text::Analyzer analyzer;

  corpus::Corpus corpus;
  std::unordered_map<std::string, corpus::DocId> docno_map;
  auto docs =
      corpus::LoadTrecDocuments(docs_path, analyzer, corpus, &docno_map);
  if (!docs.ok()) {
    std::fprintf(stderr, "docs: %s\n", docs.status().ToString().c_str());
    return 1;
  }
  auto topics = corpus::LoadTrecTopics(topics_path);
  if (!topics.ok()) {
    std::fprintf(stderr, "topics: %s\n", topics.status().ToString().c_str());
    return 1;
  }
  std::unordered_map<int, corpus::QueryId> query_map;
  std::vector<corpus::Query> queries =
      corpus::TopicsToQueries(topics.value(), analyzer, &query_map);
  corpus::RelevanceJudgments judgments;
  auto qrels =
      corpus::LoadTrecQrels(qrels_path, docno_map, query_map, judgments);
  if (!qrels.ok()) {
    std::fprintf(stderr, "qrels: %s\n", qrels.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu docs, %zu queries, %zu judgments\n", docs.value(),
              queries.size(), qrels.value());

  // Train/test split over the queries, as in Section 6.2.
  Rng rng(options.seed);
  querygen::TrainTestSplit split =
      querygen::SplitTrainTest(queries.size(), 0.5, rng);

  ir::CentralizedIndex centralized(corpus);
  auto evaluate = [&](core::SpriteSystem& system) {
    std::vector<ir::PrecisionRecall> sys_prs, central_prs;
    for (size_t idx : split.test) {
      const corpus::Query& q = queries[idx];
      const auto& relevant = judgments.Relevant(q.id);
      auto result = system.Search(q, options.k, /*record=*/false);
      ir::RankedList list =
          result.ok() ? std::move(result).value() : ir::RankedList{};
      sys_prs.push_back(ir::EvaluateTopK(list, options.k, relevant));
      central_prs.push_back(ir::EvaluateTopK(
          centralized.Search(q, options.k), options.k, relevant));
    }
    ir::PrecisionRecall sys = ir::MeanPrecisionRecall(sys_prs);
    ir::PrecisionRecall central = ir::MeanPrecisionRecall(central_prs);
    ir::PrecisionRecall ratio = ir::Ratio(sys, central);
    std::printf("  P %.3f (%.1f%% of centralized)  R %.3f (%.1f%%)\n",
                sys.precision, 100 * ratio.precision, sys.recall,
                100 * ratio.recall);
  };

  std::printf("\nSPRITE (%zu terms, %zu learning iterations):\n",
              options.terms, options.iters);
  core::SpriteSystem sprite_system(MakeConfig(options));
  MaybeEnableTracing(options, sprite_system);
  for (size_t idx : split.train) sprite_system.RecordQuery(queries[idx]);
  SPRITE_CHECK_OK(sprite_system.ShareCorpus(corpus));
  for (size_t i = 0; i < options.iters; ++i) {
    sprite_system.RunLearningIteration();
  }
  evaluate(sprite_system);

  std::printf("eSearch (top-%zu frequent terms):\n", options.terms);
  core::SpriteSystem esearch(
      core::MakeESearchConfig(MakeConfig(options), options.terms));
  SPRITE_CHECK_OK(esearch.ShareCorpus(corpus));
  evaluate(esearch);
  MaybePrintCacheStats(sprite_system);
  return WriteDumps(options, sprite_system);
}

// Shared setup for explain/learning-ledger: loads the TSV corpus, builds
// a system with the explain ledger on, records the query --train times
// (so learning has a QF signal), shares the corpus, and runs --iters
// learning rounds. Returns 0 on success, else a process exit code.
int SetupExplainedSystem(const std::string& corpus_path,
                         const std::string& keywords, const Options& options,
                         corpus::Corpus& corpus, corpus::Query& query,
                         std::unique_ptr<core::SpriteSystem>& system) {
  text::Analyzer analyzer;
  auto loaded = corpus::LoadCorpusFromTsv(corpus_path, analyzer, corpus);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu documents (%zu distinct terms)\n", loaded.value(),
              corpus.vocabulary_size());

  query.id = 1;
  query.terms = corpus::DedupTerms(analyzer.Analyze(keywords));
  if (query.empty()) {
    std::fprintf(stderr, "error: query is empty after analysis\n");
    return 2;
  }
  std::printf("analyzed query:");
  for (const auto& t : query.terms) std::printf(" %s", t.c_str());
  std::printf("\n");

  core::SpriteConfig config = MakeConfig(options);
  config.enable_explain = true;
  system = std::make_unique<core::SpriteSystem>(config);
  MaybeEnableTracing(options, *system);
  for (size_t i = 0; i < options.train; ++i) system->RecordQuery(query);
  Status shared = system->ShareCorpus(corpus);
  if (!shared.ok()) {
    std::fprintf(stderr, "error: %s\n", shared.ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < options.iters; ++i) system->RunLearningIteration();
  std::printf("trained: %zu recorded issuances, %zu learning rounds\n\n",
              options.train, options.iters);
  return 0;
}

int CmdExplain(int argc, char** argv) {
  std::string corpus_path, keywords;
  const Options options = ParseOptions(
      argc, argv,
      Flags("sprite_cli explain <corpus.tsv> \"<keywords>\" [options]")
          .String("<corpus.tsv>", &corpus_path)
          .String("<keywords>", &keywords));
  corpus::Corpus corpus;
  corpus::Query query;
  std::unique_ptr<core::SpriteSystem> system;
  int rc = SetupExplainedSystem(corpus_path, keywords, options, corpus, query,
                                system);
  if (rc != 0) return rc;

  // k == 0 ranks every candidate the served posting lists contain, so a
  // document absent from the results is structurally missing — one of
  // the three miss causes — never a ranking cutoff.
  auto results = system->Search(query, 0, /*record=*/false);
  if (!results.ok()) {
    std::fprintf(stderr, "error: %s\n", results.status().ToString().c_str());
    return 1;
  }
  const obs::SearchExplain* ex = system->explainer().latest_search();
  SPRITE_CHECK(ex != nullptr);

  std::printf("term routing (n'_k = postings fetched):\n");
  for (const obs::TermExplain& t : ex->terms) {
    if (t.skipped) {
      std::printf("  %-20s unreachable — skipped (Section 7 policy)\n",
                  t.term.c_str());
    } else {
      std::printf("  %-20s peer-%llu  n'_k=%-5u idf=%.3f%s\n",
                  t.term.c_str(), static_cast<unsigned long long>(t.peer),
                  t.indexed_df, t.idf, t.from_cache ? "  [cache]" : "");
    }
  }

  const size_t shown = std::min<size_t>(
      options.k == 0 ? results->size() : options.k, results->size());
  std::printf("\nranked answers (top %zu of %zu candidates):\n", shown,
              results->size());
  for (size_t i = 0; i < shown; ++i) {
    const auto& scored = (*results)[i];
    std::printf("%3zu. %-32s %.4f\n", i + 1,
                corpus.doc(scored.doc).title.c_str(), scored.score);
    for (const obs::CandidateExplain& c : ex->candidates) {
      if (c.doc != scored.doc) continue;
      for (const auto& [term, w] : c.contributions) {
        std::printf("       %-20s w_Qj*w_ij = %+.4f\n", term.c_str(), w);
      }
      break;
    }
  }

  // Miss attribution against the centralized oracle over the same corpus.
  ir::CentralizedIndex centralized(corpus);
  ir::RankedList full = centralized.Search(query, 0);
  std::unordered_set<corpus::DocId> retrieved;
  for (const auto& scored : *results) retrieved.insert(scored.doc);
  std::vector<corpus::DocId> missed;
  for (const auto& scored : full) {
    if (retrieved.count(scored.doc) == 0) missed.push_back(scored.doc);
  }
  if (missed.empty()) {
    std::printf("\nno misses: every document the centralized oracle can "
                "reach was retrieved\n");
  } else {
    std::printf("\nmissed vs centralized oracle (%zu of %zu docs):\n",
                missed.size(), full.size());
    for (const core::MissAttribution& a :
         system->AttributeMisses(query, missed)) {
      std::printf("  %-32s %-21s (witness term: %s)\n",
                  corpus.doc(a.doc).title.c_str(),
                  core::MissCauseName(a.cause), a.term.c_str());
    }
  }

  return WriteDumps(options, *system, /*explain=*/true);
}

int CmdLearningLedger(int argc, char** argv) {
  std::string corpus_path, keywords;
  const Options options = ParseOptions(
      argc, argv,
      Flags("sprite_cli learning-ledger <corpus.tsv> \"<keywords>\" "
            "[options]")
          .String("<corpus.tsv>", &corpus_path)
          .String("<keywords>", &keywords));
  corpus::Corpus corpus;
  corpus::Query query;
  std::unique_ptr<core::SpriteSystem> system;
  int rc = SetupExplainedSystem(corpus_path, keywords, options, corpus, query,
                                system);
  if (rc != 0) return rc;

  const auto& decisions = system->explainer().decisions();
  if (decisions.empty()) {
    std::printf("no tuning decisions: the learned index already matches "
                "the term budget\n");
    return WriteDumps(options, *system, /*explain=*/true);
  }
  size_t publishes = 0, withdraws = 0;
  uint64_t round = 0;
  for (const obs::LearningDecision& d : decisions) {
    if (d.round != round) {
      round = d.round;
      std::printf("round %llu:\n", static_cast<unsigned long long>(round));
    }
    if (d.verdict == "publish") {
      ++publishes;
    } else {
      ++withdraws;
    }
    std::printf("  %-8s %-28s %-20s", d.verdict.c_str(),
                corpus.doc(d.doc).title.c_str(), d.term.c_str());
    if (d.score >= 0.0) {
      std::printf(" Score=%.3f (qScore=%.3f, QF=%llu)\n", d.score, d.qscore,
                  static_cast<unsigned long long>(d.query_freq));
    } else {
      std::printf(" (never queried — Algorithm 1 eviction)\n");
    }
  }
  std::printf("\n%zu publications, %zu withdrawals across %zu learning "
              "rounds\n",
              publishes, withdraws, options.iters);
  return WriteDumps(options, *system, /*explain=*/true);
}

int CmdTraceReport(int argc, char** argv) {
  std::string path;
  size_t top_k = 5;
  Flags("sprite_cli trace-report <trace-file> [--top=N]")
      .String("<trace-file>", &path)
      .Whole("--top", &top_k)
      .ParseOrExit(argc, argv, 2);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<obs::TraceSpanRecord> spans;
  std::string error;
  if (!obs::ParseTraceDump(buffer.str(), &spans, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s", obs::RenderTraceReport(spans, top_k).c_str());
  return 0;
}

// --- Live cluster subcommands (ISSUE 8, DESIGN.md §14) ---------------------

// `sprite_cli join <host:udpport>` — ask a live node for its member list
// without joining (a JoinRequest with the announce flag clear).
int CmdJoin(int argc, char** argv) {
  net::PeerAddress addr;
  Flags("sprite_cli join <host:udpport>")
      .HostPort("<host:udpport>", &addr.host, &addr.udp_port)
      .ParseOrExit(argc, argv, 2);
  net::SocketTransport transport(/*self=*/0);
  net::wire::JoinRequest req;
  req.self.name = "observer";
  req.announce = false;
  auto resp = transport.Call(addr, net::wire::ToFrame(req),
                             net::CallOptions{});
  if (!resp.ok()) {
    std::fprintf(stderr, "error: %s\n", resp.status().ToString().c_str());
    return 1;
  }
  auto parsed = net::wire::ParseJoinResponse(*resp);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu member(s):\n", parsed->members.size());
  for (const net::wire::NodeInfo& m : parsed->members) {
    std::printf("  %-16s id=%020llu %s udp=%u tcp=%u http=%u\n",
                m.name.c_str(), static_cast<unsigned long long>(m.id),
                m.host.c_str(), m.udp_port, m.tcp_port, m.http_port);
  }
  return 0;
}

// Minimal blocking HTTP/1.1 GET against a daemon frontend; returns the
// response body.
StatusOr<std::string> HttpGet(const std::string& host, uint16_t port,
                              const std::string& path) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + host);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed");
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return Status::Unavailable("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[8192];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      close(fd);
      return Status::Unavailable("recv failed");
    }
  }
  close(fd);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Corruption("malformed HTTP response");
  }
  return raw.substr(header_end + 4);
}

// `sprite_cli query <host:httpport> "<keywords>"` — one search against a
// live daemon's JSON frontend.
int CmdQuery(int argc, char** argv) {
  std::string host, keywords;
  uint16_t port = 0;
  const Options options = ParseOptions(
      argc, argv,
      Flags("sprite_cli query <host:httpport> \"<keywords>\" [--k=N]")
          .HostPort("<host:httpport>", &host, &port)
          .String("<keywords>", &keywords));
  const std::string path = "/search?q=" +
                           net::HttpServer::UrlEncode(keywords) +
                           "&k=" + std::to_string(options.k);
  auto body = HttpGet(host, port, path);
  if (!body.ok()) {
    std::fprintf(stderr, "error: %s\n", body.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", body->c_str());
  return 0;
}

// --- cluster-report: the trace/metrics collector (DESIGN.md §16) -----------

// The daemon's JSON output is flat and we control both ends of the
// exchange, so — like obs::ParseTraceDump — the line-oriented probes of
// common/json_util read it and a full JSON parser stays unnecessary.

// Splits "{...},{...},..." into one string per top-level object,
// string-aware so braces inside values cannot desynchronize the scan.
std::vector<std::string> SplitTopLevelObjects(const std::string& body) {
  std::vector<std::string> objects;
  size_t start = 0;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      if (depth > 0 && --depth == 0) {
        objects.push_back(body.substr(start, i - start + 1));
      }
    }
  }
  return objects;
}

// Extracts the bracketed contents of `"key": [...]`.
bool ExtractJsonArray(const std::string& body, const std::string& key,
                      std::string* out) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = body.find(needle);
  if (pos == std::string::npos) return false;
  pos = body.find('[', pos + needle.size());
  if (pos == std::string::npos) return false;
  int depth = 0;
  bool in_string = false;
  for (size_t i = pos; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']' && --depth == 0) {
      *out = body.substr(pos + 1, i - pos - 1);
      return true;
    }
  }
  return false;
}

// Rebuilds a live daemon's /metrics JSON dump as a TimeSeriesPoint so the
// stock SloWatchdog machinery (ResolveTimeSeriesMetric & friends) applies
// to a running cluster unchanged. Labeled metrics key as "name{label}";
// labeled counters additionally sum into the plain name as a cross-label
// aggregate (so a rule can watch "transport.timeouts" as a whole).
obs::TimeSeriesPoint PointFromMetricsJson(const std::string& json,
                                          uint64_t index,
                                          const std::string& label) {
  obs::TimeSeriesPoint point;
  point.index = index;
  point.label = label;
  const auto keyed = [](const std::string& name, const std::string& lab) {
    return lab.empty() ? name : name + "{" + lab + "}";
  };
  std::string arr;
  if (ExtractJsonArray(json, "counters", &arr)) {
    for (const std::string& obj : SplitTopLevelObjects(arr)) {
      std::string name, lab;
      double value = 0.0;
      if (!JsonFindString(obj, "name", &name) ||
          !JsonFindNumber(obj, "value", &value)) {
        continue;
      }
      JsonFindString(obj, "label", &lab);
      const uint64_t v = static_cast<uint64_t>(value);
      point.counters[keyed(name, lab)] += v;
      if (!lab.empty()) point.counters[name] += v;
    }
  }
  if (ExtractJsonArray(json, "gauges", &arr)) {
    for (const std::string& obj : SplitTopLevelObjects(arr)) {
      std::string name, lab;
      double value = 0.0;
      if (!JsonFindString(obj, "name", &name) ||
          !JsonFindNumber(obj, "value", &value)) {
        continue;
      }
      JsonFindString(obj, "label", &lab);
      point.gauges[keyed(name, lab)] = value;
    }
  }
  if (ExtractJsonArray(json, "histograms", &arr)) {
    for (const std::string& obj : SplitTopLevelObjects(arr)) {
      std::string name, lab;
      if (!JsonFindString(obj, "name", &name)) continue;
      JsonFindString(obj, "label", &lab);
      obs::HistogramView view;
      double value = 0.0;
      if (JsonFindNumber(obj, "count", &value)) {
        view.count = static_cast<uint64_t>(value);
      }
      if (JsonFindNumber(obj, "sum", &value)) view.sum = value;
      if (JsonFindNumber(obj, "mean", &value)) view.mean = value;
      if (JsonFindNumber(obj, "p50", &value)) view.p50 = value;
      if (JsonFindNumber(obj, "p90", &value)) view.p90 = value;
      if (JsonFindNumber(obj, "p95", &value)) view.p95 = value;
      if (JsonFindNumber(obj, "p99", &value)) view.p99 = value;
      point.histograms[keyed(name, lab)] = view;
    }
  }
  return point;
}

// `sprite_cli cluster-report <host:httpport>` — poll every member of a
// live cluster, merge the per-daemon trace drains into cross-node trees,
// and evaluate SLO rules against the live metrics.
int CmdClusterReport(int argc, char** argv) {
  std::string seed_host;
  uint16_t seed_port = 0;
  size_t top_k = 3;
  double slo_rtt_p95_us = std::nan("");
  Flags("sprite_cli cluster-report <host:httpport> [--top=N] "
        "[--slo-rtt-p95-us=X]")
      .HostPort("<host:httpport>", &seed_host, &seed_port)
      .Whole("--top", &top_k)
      .Number("--slo-rtt-p95-us", &slo_rtt_p95_us)
      .ParseOrExit(argc, argv, 2);
  const std::string target = StrFormat("%s:%u", seed_host.c_str(), seed_port);

  auto members_body = HttpGet(seed_host, seed_port, "/members");
  if (!members_body.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 members_body.status().ToString().c_str());
    return 1;
  }
  struct MemberEndpoint {
    std::string name;
    std::string host;
    uint16_t http_port = 0;
  };
  std::vector<MemberEndpoint> members;
  for (const std::string& obj : SplitTopLevelObjects(*members_body)) {
    MemberEndpoint m;
    double http_port = 0.0;
    if (!JsonFindString(obj, "name", &m.name) ||
        !JsonFindString(obj, "host", &m.host) ||
        !JsonFindNumber(obj, "http", &http_port)) {
      continue;
    }
    m.http_port = static_cast<uint16_t>(http_port);
    members.push_back(std::move(m));
  }
  if (members.empty()) {
    std::fprintf(stderr, "error: no members parsed from %s\n",
                 target.c_str());
    return 1;
  }

  // --- Poll: /health provenance, /metrics, /trace drains ------------------
  std::printf("cluster: %zu member(s) via %s\n", members.size(),
              target.c_str());
  std::string merged_traces;
  std::vector<obs::TimeSeriesPoint> points;
  for (size_t i = 0; i < members.size(); ++i) {
    const MemberEndpoint& m = members[i];
    auto health = HttpGet(m.host, m.http_port, "/health");
    if (!health.ok()) {
      std::printf("  %-12s http=%-5u UNREACHABLE (%s)\n", m.name.c_str(),
                  m.http_port, health.status().ToString().c_str());
      continue;
    }
    std::string commit = "?", build = "?";
    double wire_version = 0.0, uptime_s = 0.0;
    JsonFindString(*health, "git_commit", &commit);
    JsonFindString(*health, "build_type", &build);
    JsonFindNumber(*health, "wire_version", &wire_version);
    JsonFindNumber(*health, "uptime_s", &uptime_s);
    const bool traced = health->find("\"trace_enabled\":true") !=
                        std::string::npos;
    std::printf("  %-12s http=%-5u commit=%s build=%s wire=v%d "
                "uptime=%.1fs trace=%s\n",
                m.name.c_str(), m.http_port, commit.c_str(), build.c_str(),
                static_cast<int>(wire_version), uptime_s,
                traced ? "on" : "off");
    auto metrics = HttpGet(m.host, m.http_port, "/metrics");
    if (metrics.ok()) {
      points.push_back(PointFromMetricsJson(*metrics, i, m.name));
    }
    auto trace = HttpGet(m.host, m.http_port, "/trace");
    if (trace.ok()) merged_traces += *trace;
  }

  // --- Transport RTT histograms (per daemon, per message type) ------------
  bool any_rtt = false;
  for (const obs::TimeSeriesPoint& point : points) {
    for (const auto& [key, h] : point.histograms) {
      if (key.rfind("transport.rtt_us", 0) != 0) continue;
      if (!any_rtt) {
        std::printf("\ntransport RTT (wall us, client side):\n");
        any_rtt = true;
      }
      std::printf("  %-8s %-32s n=%-6llu mean=%-9.1f p95=%-9.1f p99=%.1f\n",
                  point.label.c_str(), key.c_str(),
                  static_cast<unsigned long long>(h.count), h.mean, h.p95,
                  h.p99);
    }
  }

  // --- Merged trace analysis + cross-node stitching -----------------------
  std::vector<obs::TraceSpanRecord> spans;
  std::string parse_error;
  if (!merged_traces.empty() &&
      obs::ParseTraceDump(merged_traces, &spans, &parse_error)) {
    std::printf("\n%s", obs::RenderTraceReport(spans, top_k).c_str());
    std::map<uint64_t, std::vector<const obs::TraceSpanRecord*>> by_trace;
    std::map<uint64_t, const obs::TraceSpanRecord*> by_span;
    for (const obs::TraceSpanRecord& s : spans) {
      by_trace[s.trace_id].push_back(&s);
      by_span[s.span_id] = &s;
    }
    size_t stitched = 0;
    std::string section;
    for (const auto& [trace_id, list] : by_trace) {
      std::set<std::string> daemons;
      for (const obs::TraceSpanRecord* s : list) daemons.insert(s->peer);
      if (daemons.size() < 2) continue;
      ++stitched;
      if (stitched > top_k) continue;  // count all, print the first top_k
      const obs::TraceSpanRecord* root = list.front();
      for (const obs::TraceSpanRecord* s : list) {
        if (s->parent_id == 0) root = s;
      }
      section += StrFormat("  trace %llu: %zu daemon(s)",
                           static_cast<unsigned long long>(trace_id),
                           daemons.size());
      bool first = true;
      for (const std::string& d : daemons) {
        section += first ? " [" : ",";
        section += d;
        first = false;
      }
      section += StrFormat("], %zu span(s), root %s %.3f ms\n", list.size(),
                           root->name.c_str(), root->dur_ms);
      for (const obs::TraceSpanRecord* s : list) {
        if (s->name.rfind("serve.", 0) != 0) continue;
        const auto parent = by_span.find(s->parent_id);
        if (parent == by_span.end()) continue;
        const obs::TraceSpanRecord* call = parent->second;
        section += StrFormat(
            "    hop %s -> %s (%s): call %.3f ms, serve %.3f ms, "
            "wire %.3f ms\n",
            call->peer.c_str(), s->peer.c_str(), s->name.c_str() + 6,
            call->dur_ms, s->dur_ms,
            std::max(0.0, call->dur_ms - s->dur_ms));
      }
    }
    std::printf("\ncross-node stitching: %zu of %zu trace(s) span >=2 "
                "daemons\n",
                stitched, by_trace.size());
    std::printf("%s", section.c_str());
    if (stitched > top_k) {
      std::printf("  ... %zu more (raise --top to show)\n",
                  stitched - top_k);
    }
  } else {
    std::printf("\nno trace data: start the daemons with --trace and run "
                "some queries before polling\n");
  }

  // --- SLO rules over the live metrics ------------------------------------
  obs::SloWatchdog watchdog;
  // Stock rule: a healthy cluster times out on nothing, so any timeout is
  // an alert. The cross-label "transport.timeouts" aggregate only exists
  // once a timeout was counted; absent metrics never fire.
  watchdog.AddRule({"transport-timeouts", "transport.timeouts",
                    obs::SloRuleKind::kUpperBound, 0.0});
  if (!std::isnan(slo_rtt_p95_us)) {
    std::set<std::string> rtt_keys;
    for (const obs::TimeSeriesPoint& point : points) {
      for (const auto& [key, h] : point.histograms) {
        if (key.rfind("transport.rtt_us", 0) == 0) rtt_keys.insert(key);
      }
    }
    for (const std::string& key : rtt_keys) {
      watchdog.AddRule({"rtt-p95-budget", key + ".p95",
                        obs::SloRuleKind::kUpperBound, slo_rtt_p95_us});
    }
  }
  std::string alert_lines;
  for (const obs::TimeSeriesPoint& point : points) {
    const size_t before = watchdog.alerts().size();
    watchdog.Evaluate(point, /*prev=*/nullptr);
    for (size_t a = before; a < watchdog.alerts().size(); ++a) {
      const obs::SloAlert& alert = watchdog.alerts()[a];
      alert_lines += StrFormat("  ALERT %s: %s = %.3f > %.3f (daemon %s)\n",
                               alert.rule.c_str(), alert.metric.c_str(),
                               alert.value, alert.threshold,
                               point.label.c_str());
    }
  }
  std::printf("\nSLO: %zu rule(s) x %zu daemon(s), %zu alert(s)\n",
              watchdog.rules().size(), points.size(),
              watchdog.alerts().size());
  std::printf("%s", alert_lines.c_str());
  return watchdog.alerts().empty() ? 0 : 3;
}

// `sprite_cli batch <corpus.tsv> <queries.txt>` — the in-process reference
// for the multi-process smoke: train a simulated SPRITE network on the
// query list (--train issuances each), share the corpus, learn --iters
// rounds, then print each query's ranked answers:
//
//   result <query-index> <doc>:<score> <doc>:<score> ...
//
// Scores print with %.17g; the smoke compares these lines against the live
// cluster's /search responses.
int CmdBatch(int argc, char** argv) {
  std::string corpus_path, queries_path;
  const Options options = ParseOptions(
      argc, argv,
      Flags("sprite_cli batch <corpus.tsv> <queries.txt> [options]")
          .String("<corpus.tsv>", &corpus_path)
          .String("<queries.txt>", &queries_path));
  text::Analyzer analyzer;
  corpus::Corpus corpus;
  auto loaded = corpus::LoadCorpusFromTsv(corpus_path, analyzer, corpus);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::ifstream in(queries_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", queries_path.c_str());
    return 1;
  }
  std::vector<corpus::Query> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    corpus::Query query;
    query.id = static_cast<corpus::QueryId>(queries.size() + 1);
    query.terms = corpus::DedupTerms(analyzer.Analyze(line));
    if (query.empty()) continue;
    queries.push_back(std::move(query));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "error: no usable queries in %s\n",
                 queries_path.c_str());
    return 1;
  }

  core::SpriteConfig config = MakeConfig(options);
  if (!options.recover_from.empty()) {
    config.data_dir = options.recover_from;
  } else if (!options.flush_to.empty()) {
    config.data_dir = options.flush_to;
  }
  core::SpriteSystem system(config);
  if (!options.recover_from.empty()) {
    // Restart leg: replay the durable stores a prior --flush-to run wrote
    // instead of re-training. Searches count their own issuances from
    // zero in both runs, so the recovered rankings must be byte-identical
    // to the never-restarted run's (the CI storage smoke cmp's them).
    const Status recovered = system.Recover();
    if (!recovered.ok()) {
      std::fprintf(stderr, "error: %s\n", recovered.ToString().c_str());
      return 1;
    }
  } else {
    // Same flow as eval::TrainSystem: record the training stream (each
    // query --train times), share, then learn.
    std::vector<const corpus::Query*> stream;
    stream.reserve(queries.size() * options.train);
    for (size_t t = 0; t < options.train; ++t) {
      for (const corpus::Query& query : queries) stream.push_back(&query);
    }
    system.RecordQueryEpoch(stream);
    const Status shared = system.ShareCorpus(corpus);
    if (!shared.ok()) {
      std::fprintf(stderr, "error: %s\n", shared.ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < options.iters; ++i) system.RunLearningIteration();
    if (!options.flush_to.empty()) {
      const Status flushed = system.Flush();
      if (!flushed.ok()) {
        std::fprintf(stderr, "error: %s\n", flushed.ToString().c_str());
        return 1;
      }
    }
  }

  std::printf("# docs=%zu queries=%zu train=%zu iters=%zu k=%zu\n",
              loaded.value(), queries.size(), options.train, options.iters,
              options.k);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto results = system.Search(queries[i], options.k, /*record=*/false);
    if (!results.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    std::printf("result %zu", i);
    for (const auto& r : *results) {
      std::printf(" %u:%.17g", r.doc, r.score);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::pair<std::string_view, int (*)(int, char**)> commands[] = {
      {"search", CmdSearch},
      {"join", CmdJoin},
      {"query", CmdQuery},
      {"batch", CmdBatch},
      {"evaluate-trec", CmdEvaluateTrec},
      {"trace-report", CmdTraceReport},
      {"cluster-report", CmdClusterReport},
      {"explain", CmdExplain},
      {"learning-ledger", CmdLearningLedger}};
  for (const auto& [name, run] : commands) {
    if (argc >= 2 && argv[1] == name) return run(argc, argv);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  sprite_cli search <corpus.tsv> \"<keywords>\" [options]\n"
               "  sprite_cli evaluate-trec <docs> <topics> <qrels> "
               "[options]\n"
               "  sprite_cli trace-report <trace-file> [--top=N]\n"
               "  sprite_cli cluster-report <host:httpport> [--top=N "
               "--slo-rtt-p95-us=X]\n"
               "  sprite_cli explain <corpus.tsv> \"<keywords>\" [options]\n"
               "  sprite_cli learning-ledger <corpus.tsv> \"<keywords>\" "
               "[options]\n"
               "  sprite_cli join <host:udpport>\n"
               "  sprite_cli query <host:httpport> \"<keywords>\" [--k=N]\n"
               "  sprite_cli batch <corpus.tsv> <queries.txt> [options]\n"
               "options: --peers=N --terms=N --iters=N --k=N --seed=N\n"
               "         --cache=on|off|blind --metrics-json=PATH\n"
               "         --trace-json=PATH --trace-jsonl=PATH\n"
               "         --train=N --explain-jsonl=PATH\n"
               "         --flush-to=DIR --recover-from=DIR (batch)\n");
  return 2;
}
