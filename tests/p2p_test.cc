// Unit tests for the P2P message vocabulary and the simulation's one
// traffic ledger — the sim bus's cost model — plus the unreachable-peer
// regression: a probe to a departed peer must surface a *typed*
// DeadlineExceeded through the transport seam, honor the SpriteConfig
// retry/backoff knobs, and keep the default (retries = 0) accounting
// byte-identical to what the simulation always charged.

#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "corpus/query.h"
#include "net/sim_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/message.h"
#include "text/term_vector.h"

namespace sprite::p2p {
namespace {

TEST(MessageTest, NamesAreStable) {
  EXPECT_EQ(MessageTypeName(MessageType::kPublishTerm), "PublishTerm");
  EXPECT_EQ(MessageTypeName(MessageType::kLookupHop), "LookupHop");
  EXPECT_EQ(MessageTypeName(MessageType::kPollResponse), "PollResponse");
}

// --- The sim bus's cost model -------------------------------------------

// A bus wired the way SpriteSystem wires its own: charges mirror as net.*
// into a registry and onto the tracer's open span; transport.* carries
// only timeouts/retries.
struct CostedBus {
  net::SimTransport bus;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  bool peer_up = true;

  CostedBus() {
    bus.ConfigureCostModel(
        &metrics, &tracer, [this](PeerId) { return peer_up; }, {});
    bus.mutable_stats().AttachMetrics(&metrics, /*mirror_traffic=*/false);
  }
};

TEST(SimCostModelTest, HopsChargeOneLookupHopFramePerHop) {
  CostedBus b;
  b.bus.CostHops(3);
  b.bus.CostHops(0);   // no-op
  b.bus.CostHops(-1);  // no-op
  EXPECT_EQ(b.bus.stats().FramesOf(MessageType::kLookupHop), 3u);
  EXPECT_EQ(b.bus.stats().BytesOf(MessageType::kLookupHop),
            3 * kLookupHopBytes);
  EXPECT_EQ(b.bus.stats().TotalFrames(), 3u);
  EXPECT_EQ(b.metrics.counter("net.messages", "LookupHop"), 3u);
  EXPECT_EQ(b.metrics.counter("net.bytes", "LookupHop"), 3 * kLookupHopBytes);
}

TEST(SimCostModelTest, TotalsAggregateAcrossTypes) {
  CostedBus b;
  ASSERT_TRUE(
      b.bus.BeginExchange(1, MessageType::kQueryRequest, 10, {}).ok());
  b.bus.CompleteExchange(MessageType::kQueryResponse, 20);
  b.bus.CostHops(2);
  EXPECT_EQ(b.bus.stats().TotalFrames(), 4u);
  EXPECT_EQ(b.bus.stats().TotalBytes(),
            2 * kMessageHeaderBytes + 30 + 2 * kLookupHopBytes);
}

TEST(SimCostModelTest, ChargesAnnotateOnlyAnOpenSpan) {
  CostedBus b;
  b.tracer.set_enabled(true);
  b.bus.CostHops(5);  // no span open: nothing to annotate
  {
    obs::ScopedSpan span(&b.tracer, "op", "peer");
    b.bus.CostHops(2);
    ASSERT_TRUE(b.bus.CostSend(1, MessageType::kPublishTerm, 4, {}).ok());
  }
  ASSERT_EQ(b.tracer.num_retained(), 1u);
  const obs::Span& root = b.tracer.Retained()[0]->spans[0];
  EXPECT_EQ(root.annotations.at("net.LookupHop.msgs"), "2");
  EXPECT_EQ(root.annotations.at("net.LookupHop.bytes"),
            std::to_string(2 * kLookupHopBytes));
  EXPECT_EQ(root.annotations.at("net.PublishTerm.msgs"), "1");
  EXPECT_EQ(root.annotations.at("net.PublishTerm.bytes"),
            std::to_string(kMessageHeaderBytes + 4));
}

TEST(SimCostModelTest, ToStringListsNonZeroRowsAndTotal) {
  CostedBus b;
  ASSERT_TRUE(b.bus.CostSend(1, MessageType::kHeartbeat, 1, {}).ok());
  b.bus.CostHops(2);
  EXPECT_EQ(b.bus.stats().ToString(),
            "  LookupHop      msgs=         2 bytes=         128\n"
            "  Heartbeat      msgs=         1 bytes=          49\n"
            "  TOTAL          msgs=         3 bytes=         177\n");
}

TEST(SimCostModelTest, ClearStatsErasesNetAndTransportMirrors) {
  CostedBus b;
  b.bus.CostHops(1);
  b.peer_up = false;
  net::CallOptions opts;
  opts.retries = 1;
  ASSERT_FALSE(b.bus.CostSend(1, MessageType::kVersionCheck, 8, opts).ok());
  ASSERT_GT(b.metrics.counter("net.messages", "VersionCheck"), 0u);
  ASSERT_GT(b.metrics.counter("transport.timeouts", "VersionCheck"), 0u);
  b.bus.ClearStats();
  EXPECT_EQ(b.bus.stats().TotalFrames(), 0u);
  EXPECT_EQ(b.bus.stats().TotalBytes(), 0u);
  EXPECT_EQ(b.bus.stats().TotalTimeouts(), 0u);
  EXPECT_EQ(b.metrics.num_counters(), 0u);
}

// --- Unreachable-peer regression ----------------------------------------

core::SpriteConfig CachedConfig(size_t send_retries) {
  core::SpriteConfig config;
  config.num_peers = 16;
  config.initial_terms = 2;
  config.terms_per_iteration = 2;
  config.max_index_terms = 6;
  config.cache = core::CacheMode::kOn;
  config.send_retries = send_retries;
  return config;
}

corpus::Corpus PetCorpus() {
  corpus::Corpus corpus;
  corpus.AddDocument(text::TermVector::FromTokens(
      {"cat", "cat", "cat", "feline", "whisker", "purr"}));
  corpus.AddDocument(text::TermVector::FromTokens(
      {"dog", "dog", "dog", "canine", "leash", "bark"}));
  corpus.AddDocument(
      text::TermVector::FromTokens({"pet", "cat", "dog", "food"}));
  return corpus;
}

struct DeadPeerRun {
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t version_check_messages = 0;
};

// Warms a result cache whose entry is sourced at the peer responsible for
// "cat", abruptly fails that peer, then keeps querying: every validated
// hit at a previously warmed querying peer probes the dead source. Returns
// the transport-layer counters of the post-failure phase.
DeadPeerRun RunDeadPeerScenario(size_t send_retries) {
  const corpus::Corpus corpus = PetCorpus();
  core::SpriteSystem system(CachedConfig(send_retries));
  EXPECT_TRUE(system.ShareCorpus(corpus).ok());
  const corpus::Query query{1, {"cat", "dog"}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(system.Search(query, 10, /*record=*/false).ok());
  }
  EXPECT_EQ(system.transport_stats().TotalTimeouts(), 0u);

  const uint64_t key = system.ring().space().KeyForString("cat");
  EXPECT_TRUE(
      system.FailPeer(system.ring().ResponsibleNode(key).value()).ok());
  for (int i = 0; i < 20; ++i) {
    // The departed source never fails the query: the stale entry is
    // rejected and refetched from the ring's new responsible peer.
    EXPECT_TRUE(system.Search(query, 10, /*record=*/false).ok());
  }

  DeadPeerRun run;
  run.timeouts = system.transport_stats().TotalTimeouts();
  run.retries = system.transport_stats().TotalRetries();
  run.version_check_messages =
      system.network_stats().FramesOf(MessageType::kVersionCheck);
  return run;
}

TEST(UnreachablePeerTest, DefaultsKeepLegacyAccountingAndSurfaceTimeouts) {
  const DeadPeerRun run = RunDeadPeerScenario(/*send_retries=*/0);
  // The dead probes are visible as typed transport timeouts...
  EXPECT_GT(run.timeouts, 0u);
  // ...and with the default send_retries = 0 nothing is retried, so the
  // ledger books exactly one request (and no response) per dead probe —
  // the charge the simulation has always used.
  EXPECT_EQ(run.retries, 0u);
}

TEST(UnreachablePeerTest, RetryKnobsChargeEveryAttempt) {
  const DeadPeerRun baseline = RunDeadPeerScenario(/*send_retries=*/0);
  const DeadPeerRun retried = RunDeadPeerScenario(/*send_retries=*/2);
  // The workload is deterministic, so both runs hit the dead peer the same
  // number of times; the retried run books two extra attempts per probe.
  EXPECT_EQ(retried.timeouts, baseline.timeouts);
  EXPECT_EQ(retried.retries, 2 * retried.timeouts);
  EXPECT_EQ(retried.version_check_messages,
            baseline.version_check_messages + 2 * baseline.timeouts);
}

// --- One ledger ----------------------------------------------------------

// Every charge the simulation makes — direct sends, exchange legs and
// Chord routing hops alike — is booked once in the bus's ledger and
// mirrored once as net.*, so after a workload with caching, learning,
// replication, a failure and a departure the two views agree per type.
TEST(TrafficLedgerTest, LedgerMatchesNetMirrorsForEveryType) {
  const corpus::Corpus corpus = PetCorpus();
  core::SpriteConfig config = CachedConfig(/*send_retries=*/1);
  config.replication_factor = 1;
  core::SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());
  const corpus::Query cats{1, {"cat", "feline"}};
  const corpus::Query pets{2, {"cat", "dog"}};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(system.Search(cats, 10).ok());
    ASSERT_TRUE(system.Search(pets, 10).ok());
  }
  system.RunLearningIteration();
  system.ReplicateIndexes();
  const uint64_t key = system.ring().space().KeyForString("cat");
  ASSERT_TRUE(
      system.FailPeer(system.ring().ResponsibleNode(key).value()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(system.Search(pets, 10, /*record=*/false).ok());
  }
  (void)system.RunHeartbeats();
  const uint64_t dog = system.ring().space().KeyForString("dog");
  ASSERT_TRUE(
      system.LeavePeer(system.ring().ResponsibleNode(dog).value()).ok());
  ASSERT_TRUE(system.Search(cats, 10).ok());

  const net::TransportStats& ledger = system.transport_stats();
  const obs::MetricsRegistry& m = system.metrics();
  for (int i = 0; i < kNumMessageTypes; ++i) {
    const auto type = static_cast<MessageType>(i);
    const std::string label(MessageTypeName(type));
    EXPECT_EQ(m.counter("net.messages", label), ledger.FramesOf(type))
        << label;
    EXPECT_EQ(m.counter("net.bytes", label), ledger.BytesOf(type)) << label;
  }
  // The workload really exercised the interesting paths.
  EXPECT_GT(ledger.FramesOf(MessageType::kLookupHop), 0u);
  EXPECT_GT(ledger.FramesOf(MessageType::kVersionCheck), 0u);
  EXPECT_GT(ledger.FramesOf(MessageType::kPollRequest), 0u);
  EXPECT_GT(ledger.FramesOf(MessageType::kReplicate), 0u);
  EXPECT_GT(ledger.FramesOf(MessageType::kKeyTransfer), 0u);
  EXPECT_GT(ledger.TotalTimeouts(), 0u);
  EXPECT_EQ(&system.network_stats(), &ledger);
}

}  // namespace
}  // namespace sprite::p2p
