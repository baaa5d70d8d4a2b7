// Section-7 features in action: successor replication of index entries
// and failure-tolerant query processing.

#include <cstdio>

#include "common/check.h"
#include "core/sprite_system.h"
#include "corpus/corpus.h"

namespace {

using namespace sprite;

text::TermVector TV(const std::vector<std::string>& tokens) {
  return text::TermVector::FromTokens(tokens);
}

corpus::Query Q(corpus::QueryId id, std::vector<std::string> terms) {
  return corpus::Query{id, std::move(terms)};
}

void Show(const char* when, const StatusOr<ir::RankedList>& result) {
  std::printf("%-42s", when);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result.value().empty()) {
    std::printf("(no results)\n");
    return;
  }
  for (const auto& scored : result.value()) {
    std::printf("doc %u (%.4f)  ", scored.doc, scored.score);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  corpus::Corpus corpus;
  corpus.AddDocument(TV({"storage", "storage", "replica", "replica",
                         "crash", "recovery"}), "doc-replication");
  corpus.AddDocument(TV({"consensus", "consensus", "paxos", "quorum",
                         "leader"}), "doc-consensus");
  corpus.AddDocument(TV({"storage", "consensus", "log", "snapshot"}),
                     "doc-logging");

  core::SpriteConfig config;
  config.num_peers = 24;
  config.initial_terms = 3;
  config.max_index_terms = 6;
  config.replication_factor = 2;  // Section 7: replicate to 2 successors
  core::SpriteSystem system(config);
  SPRITE_CHECK_OK(system.ShareCorpus(corpus));

  Show("before any failure, 'storage':",
       system.Search(Q(1, {"storage"}), 3, /*record=*/false));

  // Replicate every indexing peer's inverted lists to its successors.
  system.ReplicateIndexes();
  std::printf("replicated indexes (%llu replica messages)\n\n",
              static_cast<unsigned long long>(
                  system.network_stats().FramesOf(
                      p2p::MessageType::kReplicate)));

  // Kill the peer responsible for "storage". Routing repairs itself and
  // the successor serves its replica.
  const uint64_t key = system.ring().space().KeyForString("storage");
  const uint64_t victim = system.ring().ResponsibleNode(key).value();
  SPRITE_CHECK_OK(system.FailPeer(victim));
  system.StabilizeNetwork(2);
  std::printf("failed peer %llu (responsible for 'storage') and "
              "stabilized\n\n",
              static_cast<unsigned long long>(victim));

  Show("after failure, 'storage' (replica):",
       system.Search(Q(2, {"storage"}), 3, /*record=*/false));
  Show("multi-term 'storage consensus':",
       system.Search(Q(3, {"storage", "consensus"}), 3, /*record=*/false));

  std::printf("\nring: %zu of %zu peers alive; lookups so far: %llu "
              "(%.2f hops mean)\n",
              system.ring().num_alive(), system.ring().num_total(),
              static_cast<unsigned long long>(system.ring().stats().lookups),
              system.ring().stats().hops.Mean());
  return 0;
}
