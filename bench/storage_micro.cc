// Storage micro-benchmark: measures what the compressed posting store
// (src/store, DESIGN.md §15) buys over the raw vector<PostingEntry>
// representation it replaced, and emits BENCH_storage.json for CI.
//
// Sections, all over the primary indexes of a trained fig4a-scale system:
//   1. encode  — canonical blob encoding (StoredPostings::EncodeAll, the
//      bytes a segment flush writes) vs. the raw in-memory struct bytes:
//      bytes/posting and the compression ratio. The resident footprint
//      (sealed prefix + raw tail actually held by the peers) is reported
//      alongside.
//   2. decode  — full-blob parse + block decode throughput, plus point
//      FindDoc probes (one block decode each), in entries/second.
//   3. flush   — writing every peer's live terms through PeerStore into
//      fresh per-peer segment directories (CRC'd segments + manifest).
//   4. recover — reopening those directories cold: mmap, CRC validation,
//      manifest replay, blob adoption. Recovered lists are verified
//      entry-for-entry against the live index.
//
// Timings use a real wall clock; the simulated clock models protocol
// latency, not CPU or disk cost.
//
// Flags: the common --docs/--peers/--seed, plus --out=PATH (JSON report,
// default BENCH_storage.json), and --min-ratio=R (exit nonzero when the
// encoded compression ratio lands below R; 0 disables the gate — CI runs
// with --min-ratio=4). --metrics-json and the trace flags dump the trained
// system.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/string_util.h"
#include "store/peer_store.h"
#include "store/postings.h"
#include "store/stored_postings.h"
#include "text/term_dict.h"

namespace {

using namespace sprite;

volatile uint64_t g_sink = 0;
void Sink(uint64_t v) { g_sink = g_sink + v; }

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One term of one peer's primary index, as the measured corpus.
struct LiveTerm {
  uint64_t peer = 0;
  text::TermId term = 0;
  uint64_t version = 0;
  store::StoredPostingsPtr postings;
};

std::vector<LiveTerm> CollectLiveTerms(const core::SpriteSystem& sys) {
  std::vector<LiveTerm> live;
  for (const uint64_t id : sys.ring().AliveIds()) {
    const core::IndexingPeer* peer = sys.indexing_peer(id);
    if (peer == nullptr) continue;
    for (const auto& [term, stored] : peer->index()) {
      if (stored == nullptr || stored->empty()) continue;
      live.push_back({id, term, peer->TermVersion(term), stored});
    }
  }
  return live;
}

int RunOnce(const spritebench::BenchArgs& args, const core::SpriteSystem& sys,
            const std::string& out_path, double min_ratio,
            const std::string& scratch_root, size_t rep,
            spritebench::PerfRecorder& perf) {
  const std::vector<LiveTerm> live = CollectLiveTerms(sys);
  const text::TermDict& dict = text::TermDict::Global();

  // --- 1. canonical encoding vs raw structs -------------------------------
  spritebench::PerfRecorder::Phase encode_phase(perf, "encode");
  std::vector<std::vector<uint8_t>> blobs;
  blobs.reserve(live.size());
  size_t entries = 0, raw_bytes = 0, encoded_bytes = 0, resident_bytes = 0;
  double encode_ms = 0;
  {
    const Clock::time_point t0 = Clock::now();
    for (const LiveTerm& t : live) {
      blobs.push_back(t.postings->EncodeAll());
    }
    encode_ms = MsSince(t0);
  }
  for (size_t i = 0; i < live.size(); ++i) {
    entries += live[i].postings->size();
    raw_bytes += live[i].postings->raw_bytes();
    resident_bytes += live[i].postings->encoded_bytes();
    encoded_bytes += blobs[i].size();
  }
  encode_phase.Stop();
  const double per_raw =
      entries == 0 ? 0.0 : static_cast<double>(raw_bytes) / entries;
  const double per_encoded =
      entries == 0 ? 0.0 : static_cast<double>(encoded_bytes) / entries;
  const double ratio =
      encoded_bytes == 0
          ? 1.0
          : static_cast<double>(raw_bytes) / static_cast<double>(encoded_bytes);
  const double resident_ratio =
      resident_bytes == 0
          ? 1.0
          : static_cast<double>(raw_bytes) /
                static_cast<double>(resident_bytes);

  // --- 2. decode throughput ----------------------------------------------
  spritebench::PerfRecorder::Phase decode_phase(perf, "decode");
  const size_t decode_reps =
      std::min<size_t>(200, std::max<size_t>(3, 20000000 /
                                                    std::max<size_t>(1,
                                                                     entries)));
  double decode_ms = 0, find_ms = 0;
  size_t decoded_entries = 0, probes = 0;
  {
    uint64_t s = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < decode_reps; ++r) {
      for (const std::vector<uint8_t>& blob : blobs) {
        StatusOr<store::CompressedPostingsPtr> parsed =
            store::CompressedPostings::Parse(
                store::BytesRef::Own(std::vector<uint8_t>(blob)));
        SPRITE_CHECK_OK(parsed.status());
        store::PostingList decoded;
        SPRITE_CHECK_OK((*parsed)->DecodeAll(&decoded));
        decoded_entries += decoded.size();
        s += decoded.back().doc;
      }
    }
    decode_ms = MsSince(t0);
    Sink(s);
    // Point probes: first, middle and last doc of every list; each costs
    // at most one block decode thanks to the skip table.
    const Clock::time_point t1 = Clock::now();
    for (size_t r = 0; r < decode_reps; ++r) {
      for (const LiveTerm& t : live) {
        const std::shared_ptr<const store::PostingList> snap =
            t.postings->Snapshot();
        store::PostingEntry got;
        for (const size_t at : {size_t{0}, snap->size() / 2,
                                snap->size() - 1}) {
          if (t.postings->FindDoc((*snap)[at].doc, &got)) s += got.doc;
          ++probes;
        }
      }
    }
    find_ms = MsSince(t1);
    Sink(s);
  }
  decode_phase.Stop();

  // --- 3/4. segment flush + cold recovery ---------------------------------
  // A fresh scratch directory per repetition: every rep pays the full
  // first-flush cost instead of an incremental no-op.
  const std::string scratch =
      scratch_root + StrFormat("/rep-%zu", rep);
  std::vector<std::string> peer_dirs;
  double flush_ms = 0;
  {
    // Group live terms per peer outside the timed region.
    std::vector<std::pair<uint64_t, std::vector<store::PeerStore::TermState>>>
        per_peer;
    for (const LiveTerm& t : live) {
      if (per_peer.empty() || per_peer.back().first != t.peer) {
        per_peer.push_back({t.peer, {}});
      }
      store::PeerStore::TermState state;
      state.term = dict.TermOf(t.term);
      state.version = t.version;
      state.postings = t.postings;
      per_peer.back().second.push_back(std::move(state));
    }
    spritebench::PerfRecorder::Phase flush_phase(perf, "flush");
    const Clock::time_point t0 = Clock::now();
    for (auto& [peer, terms] : per_peer) {
      const std::string dir =
          scratch + StrFormat("/peer-%016llx",
                              static_cast<unsigned long long>(peer));
      store::PeerStore ps(dir, peer, live.empty()
                                         ? store::StoreOptions{}
                                         : live[0].postings->options(),
                          /*compact_threshold=*/8);
      SPRITE_CHECK_OK(ps.Open());
      SPRITE_CHECK_OK(ps.Flush(std::move(terms)));
      peer_dirs.push_back(dir);
    }
    flush_ms = MsSince(t0);
  }
  size_t disk_bytes = 0, disk_files = 0;
  for (const std::string& dir : peer_dirs) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      disk_bytes += std::filesystem::file_size(entry.path());
      ++disk_files;
    }
  }

  double recover_ms = 0;
  size_t recovered_terms = 0, recovered_entries = 0;
  {
    spritebench::PerfRecorder::Phase recover_phase(perf, "recover");
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<store::PeerStore::TermState>> recovered;
    for (const std::string& dir : peer_dirs) {
      // Reopen with the owning peer id the flush used, re-derived from the
      // directory name.
      const uint64_t peer = std::strtoull(
          dir.substr(dir.rfind("peer-") + 5).c_str(), nullptr, 16);
      store::PeerStore real(dir, peer,
                            live.empty() ? store::StoreOptions{}
                                         : live[0].postings->options(),
                            8);
      SPRITE_CHECK_OK(real.Open());
      recovered.push_back(real.TakeRecovered());
    }
    recover_ms = MsSince(t0);
    for (const auto& terms : recovered) {
      recovered_terms += terms.size();
      for (const store::PeerStore::TermState& state : terms) {
        recovered_entries += state.postings->size();
      }
    }
  }
  std::filesystem::remove_all(scratch);
  const bool recovered_ok =
      recovered_terms == live.size() && recovered_entries == entries;

  const double entries_per_s = [](size_t n, double ms) {
    return ms > 0 ? 1000.0 * static_cast<double>(n) / ms : 0.0;
  }(decoded_entries, decode_ms);

  std::printf("encode  : %zu lists, %zu postings | raw %.2f B/posting | "
              "encoded %.2f B/posting | %5.2fx (resident %5.2fx) | %.3f ms\n",
              live.size(), entries, per_raw, per_encoded, ratio,
              resident_ratio, encode_ms);
  std::printf("decode  : %9.3f ms for %zu entries (%zu reps) | %.1f M "
              "entries/s | %zu probes in %.3f ms\n",
              decode_ms, decoded_entries, decode_reps, entries_per_s / 1e6,
              probes, find_ms);
  std::printf("flush   : %9.3f ms | %zu files, %zu bytes on disk across %zu "
              "peer dirs\n",
              flush_ms, disk_files, disk_bytes, peer_dirs.size());
  std::printf("recover : %9.3f ms | %zu terms, %zu postings | verified=%s\n",
              recover_ms, recovered_terms, recovered_entries,
              recovered_ok ? "true" : "false");

  const std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"storage_micro\",\n"
      "  \"config\": {\"docs\": %zu, \"peers\": %zu, \"seed\": %llu},\n"
      "  \"encode\": {\"lists\": %zu, \"postings\": %zu, "
      "\"raw_bytes\": %zu, \"encoded_bytes\": %zu, \"resident_bytes\": %zu, "
      "\"raw_bytes_per_posting\": %.3f, \"encoded_bytes_per_posting\": %.3f, "
      "\"compression_ratio\": %.3f, \"resident_ratio\": %.3f, "
      "\"encode_ms\": %.3f},\n"
      "  \"decode\": {\"reps\": %zu, \"entries\": %zu, \"decode_ms\": %.3f, "
      "\"entries_per_sec\": %.0f, \"probes\": %zu, \"probe_ms\": %.3f},\n"
      "  \"segments\": {\"flush_ms\": %.3f, \"recover_ms\": %.3f, "
      "\"disk_files\": %zu, \"disk_bytes\": %zu, \"recovered_terms\": %zu, "
      "\"recovered_postings\": %zu, \"recovered_verified\": %s}\n"
      "}\n",
      args.docs, args.peers, static_cast<unsigned long long>(args.seed),
      live.size(), entries, raw_bytes, encoded_bytes, resident_bytes, per_raw,
      per_encoded, ratio, resident_ratio, encode_ms, decode_reps,
      decoded_entries, decode_ms, entries_per_s, probes, find_ms, flush_ms,
      recover_ms, disk_files, disk_bytes, recovered_terms, recovered_entries,
      recovered_ok ? "true" : "false");
  if (obs::WriteJsonFile(out_path, json)) {
    std::printf("\nreport written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  if (!recovered_ok) {
    std::fprintf(stderr, "FATAL: recovery lost data (%zu/%zu terms, %zu/%zu "
                 "postings)\n",
                 recovered_terms, live.size(), recovered_entries, entries);
    return 1;
  }
  if (min_ratio > 0 && ratio < min_ratio) {
    std::fprintf(stderr,
                 "FATAL: compression ratio %.3f below the --min-ratio=%.2f "
                 "gate\n",
                 ratio, min_ratio);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_storage.json";
  double min_ratio = 0.0;
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(
      argc, argv,
      Flags().String("--out", &out_path).Number("--min-ratio", &min_ratio));
  spritebench::PrintHeader("Storage micro-benchmark", args);

  spritebench::PerfRecorder perf(args, "storage_micro");
  spritebench::PerfRecorder::Phase setup_phase(perf, "setup");
  eval::TestBed bed =
      eval::TestBed::Build(spritebench::DefaultExperiment(args));
  core::SpriteConfig config = spritebench::DefaultSpriteConfig(args);
  perf.ApplyConfig(config);
  core::SpriteSystem sys(config);
  spritebench::MaybeEnableTracing(args, sys);
  SPRITE_CHECK_OK(
      eval::TrainSystem(sys, bed, bed.split().train, /*iterations=*/3));
  setup_phase.Stop();

  char scratch_tmpl[] = "/tmp/sprite-storage-micro-XXXXXX";
  if (::mkdtemp(scratch_tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string scratch_root = scratch_tmpl;

  int rc = 0;
  size_t rep = 0;
  do {
    rc = RunOnce(args, sys, out_path, min_ratio, scratch_root, rep++, perf);
    if (rc != 0) break;
  } while (perf.NextRep());
  spritebench::MaybeWriteMetricsJson(args, sys);
  spritebench::MaybeWriteTraceFiles(args, sys);
  perf.CaptureSystem(sys);
  perf.WriteReport();
  std::filesystem::remove_all(scratch_root);
  return rc;
}
