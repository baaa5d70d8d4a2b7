#include "core/sprite_system.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "common/check.h"
#include "common/string_util.h"
#include "common/topk.h"
#include "core/ranking.h"

namespace sprite::core {

namespace {

// "peer-<id>", the per-peer metric label (and the name of a peer the ring
// has no name for), formatted on the stack.
class PeerLabel {
 public:
  explicit PeerLabel(PeerId id) {
    std::memcpy(buf_, "peer-", 5);
    len_ = static_cast<size_t>(
        std::to_chars(buf_ + 5, buf_ + sizeof(buf_), id).ptr - buf_);
  }
  operator std::string_view() const { return {buf_, len_}; }

 private:
  char buf_[32];  // "peer-" and at most 20 digits
  size_t len_;
};

}  // namespace

SpriteSystem::SpriteSystem(SpriteConfig config)
    : config_(config),
      latency_(obs::LatencyParams{config.hop_rtt_ms,
                                  config.bandwidth_bytes_per_sec,
                                  obs::LatencyParams{}.rank_ms_per_posting}),
      ring_(dht::ChordOptions{config.id_bits, config.successor_list_size}),
      cache_(cache::CacheOptions{config.cache != CacheMode::kOff,
                                 config.cache != CacheMode::kBlind}) {
  SPRITE_CHECK(config_.num_peers >= 1);
  SPRITE_CHECK(config_.initial_terms >= 1);
  SPRITE_CHECK(config_.max_index_terms >= config_.initial_terms);
  for (size_t i = 0; i < config_.num_peers; ++i) {
    StatusOr<uint64_t> id = ring_.Join(StrFormat("peer%zu", i));
    SPRITE_CHECK(id.ok());
    peer_ids_.push_back(id.value());
    indexing_.emplace(id.value(),
                      IndexingPeer(id.value(), config_.history_capacity));
    owners_.emplace(id.value(), OwnerPeer(id.value()));
  }
  std::sort(peer_ids_.begin(), peer_ids_.end());
  // Start from converged routing tables (the protocol paths are exercised
  // separately by the DHT tests and churn experiments).
  ring_.BuildPerfect();
  ring_.ClearStats();
  // Attach the metrics mirrors only now, so bootstrap traffic (the initial
  // joins above) is excluded, matching the ClearStats() baseline.
  ring_.AttachMetrics(&metrics_);
  cache_.AttachMetrics(&metrics_);
  timeseries_.AttachMetrics(&metrics_);
  explain_.AttachMetrics(&metrics_);
  slo_.AttachMetrics(&metrics_);
  timeseries_.set_enabled(config_.enable_timeseries);
  explain_.set_enabled(config_.enable_explain);
  wall_.set_enabled(config_.enable_wall_profiler);
  tracer_.set_hop_cost_ms(latency_.HopsMs(1));
  tracer_.set_peer_namer([this](uint64_t id) { return PeerNameOf(id); });
  ring_.AttachTracer(&tracer_);
  slo_.AttachTracer(&tracer_);
  // The bus mirrors every charge as net.* counters and span annotations
  // and answers liveness from the ring; retry backoff advances the
  // simulated clock. Traffic is not double-mirrored as transport.*; only
  // timeouts/retries appear there, lazily.
  bus_.ConfigureCostModel(
      &metrics_, &tracer_,
      [this](PeerId id) {
        const dht::ChordNode* node = ring_.node(id);
        return node != nullptr && node->alive;
      },
      [this](double ms) { tracer_.clock().AdvanceMs(ms); });
  bus_.mutable_stats().AttachMetrics(&metrics_, /*mirror_traffic=*/false);
  UpdateMembershipGauges();
}

WorkerPool& SpriteSystem::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(
        std::max<size_t>(size_t{1}, config_.num_threads));
  }
  return *pool_;
}

std::string SpriteSystem::PeerNameOf(PeerId id) const {
  const dht::ChordNode* node = ring_.node(id);
  if (node != nullptr && !node->name.empty()) return node->name;
  return std::string(PeerLabel(id));
}

void SpriteSystem::ExportLoadMetrics() {
  std::vector<double> postings;
  std::vector<double> queries;
  double bytes_raw_total = 0.0;
  double bytes_encoded_total = 0.0;
  for (const auto& [id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(id);
    if (node == nullptr || !node->alive) continue;
    const double p = static_cast<double>(peer.num_postings());
    auto qit = query_load_.find(id);
    const double q =
        qit == query_load_.end() ? 0.0 : static_cast<double>(qit->second);
    const double braw = static_cast<double>(peer.PostingBytesRaw());
    const double benc = static_cast<double>(peer.PostingBytesEncoded());
    const PeerLabel label(id);
    metrics_.Set("load.postings", label, p);
    metrics_.Set("load.queries", label, q);
    // Resident posting bytes (primary + replicas + hot cache), raw vs as
    // actually stored; their quotient is the peer's compression ratio.
    metrics_.Set("load.posting_bytes_raw", label, braw);
    metrics_.Set("load.posting_bytes_encoded", label, benc);
    postings.push_back(p);
    queries.push_back(q);
    bytes_raw_total += braw;
    bytes_encoded_total += benc;
  }
  const auto summarize = [this](const std::string& prefix,
                                const std::vector<double>& values) {
    double sum = 0.0;
    double max = 0.0;
    for (double v : values) {
      sum += v;
      max = std::max(max, v);
    }
    metrics_.Set(prefix + ".max", max);
    metrics_.Set(prefix + ".mean",
                 values.empty() ? 0.0
                                : sum / static_cast<double>(values.size()));
    metrics_.Set(prefix + ".max_mean_ratio", obs::MaxMeanRatio(values));
    metrics_.Set(prefix + ".gini", obs::GiniCoefficient(values));
  };
  summarize("load.postings", postings);
  summarize("load.queries", queries);
  metrics_.Set("load.posting_bytes_raw.total", bytes_raw_total);
  metrics_.Set("load.posting_bytes_encoded.total", bytes_encoded_total);
  metrics_.Set("load.posting_compression_ratio",
               bytes_encoded_total == 0.0
                   ? 1.0
                   : bytes_raw_total / bytes_encoded_total);
}

const obs::TimeSeriesPoint* SpriteSystem::CaptureTimeSeriesPoint(
    const std::string& label) {
  if (!timeseries_.enabled()) return nullptr;
  // Copy the previous point out before capturing: the ring may evict it,
  // which would invalidate the reference the watchdog compares against.
  std::optional<obs::TimeSeriesPoint> prev;
  if (timeseries_.latest() != nullptr) prev = *timeseries_.latest();
  const obs::TimeSeriesPoint* point = timeseries_.Capture(
      metrics_.Snapshot(), learning_round_, tracer_.clock().now_ms(), label);
  if (point == nullptr) return nullptr;
  slo_.Evaluate(*point, prev.has_value() ? &*prev : nullptr);
  return point;
}

const char* MissCauseName(MissCause cause) {
  switch (cause) {
    case MissCause::kNeverIndexed:
      return "never-indexed";
    case MissCause::kWithdrawn:
      return "withdrawn";
    case MissCause::kChurnLost:
      return "churn-lost";
  }
  return "unknown";
}

bool SpriteSystem::TermServesDoc(TermId term, DocId doc) const {
  const StatusOr<uint64_t> responsible =
      ring_.ResponsibleNode(RingKeyOf(term));
  if (!responsible.ok()) return false;
  auto it = indexing_.find(responsible.value());
  if (it == indexing_.end()) return false;
  const StoredPostingsPtr stored = it->second.Stored(term);
  return stored != nullptr && stored->FindDoc(doc, nullptr);
}

std::vector<MissAttribution> SpriteSystem::AttributeMisses(
    const corpus::Query& query, const std::vector<DocId>& missed) const {
  std::vector<MissAttribution> out;
  out.reserve(missed.size());
  TermDict& dict = TermDict::Global();
  const std::vector<std::string> terms = corpus::DedupTerms(query.terms);
  for (const DocId doc : missed) {
    MissAttribution attr;
    attr.doc = doc;
    const OwnedDocument* owned = nullptr;
    if (auto oit = doc_owner_.find(doc); oit != doc_owner_.end()) {
      owned = owners_.at(oit->second).document(doc);
    }
    // Scan the query terms for the strongest witness: a term in the doc's
    // *current* index set that the responsible peer cannot serve proves
    // churn; otherwise a term once published but since removed proves a
    // learning withdrawal; otherwise no query term was ever indexed.
    bool found_withdrawn = false;
    std::string withdrawn_term;
    std::string never_term;
    bool done = false;
    for (const std::string& term : terms) {
      // A term absent from the document can never be one of its index
      // terms; it says nothing about why the doc was missed.
      if (owned != nullptr && owned->content->terms.Count(term) == 0) {
        continue;
      }
      const TermId id = dict.Lookup(term);
      if (owned != nullptr && owned->IsIndexed(term)) {
        if (id == kInvalidTermId || !TermServesDoc(id, doc)) {
          attr.cause = MissCause::kChurnLost;
          attr.term = term;
          done = true;
          break;
        }
        continue;  // indexed and serveable: not this term's fault
      }
      if (id != kInvalidTermId && explain_.EverPublished(doc, id)) {
        if (!found_withdrawn) {
          found_withdrawn = true;
          withdrawn_term = term;
        }
      } else if (never_term.empty()) {
        never_term = term;
      }
    }
    if (!done) {
      if (found_withdrawn) {
        attr.cause = MissCause::kWithdrawn;
        attr.term = withdrawn_term;
      } else {
        // Also the fallback when every in-doc query term is indexed and
        // serveable (a doc ranked below a finite-k cutoff): the weakest
        // diagnosis, with the first query term as a nominal witness.
        attr.cause = MissCause::kNeverIndexed;
        attr.term = never_term.empty() && !terms.empty() ? terms.front()
                                                         : never_term;
      }
    }
    out.push_back(std::move(attr));
  }
  return out;
}

void SpriteSystem::UpdateMembershipGauges() {
  metrics_.Set("peers.alive", static_cast<double>(ring_.num_alive()));
  metrics_.Set("peers.total", static_cast<double>(ring_.num_total()));
}

PeerId SpriteSystem::PickPeer(uint64_t hash) const {
  SPRITE_CHECK(!peer_ids_.empty());
  const size_t n = peer_ids_.size();
  size_t idx = static_cast<size_t>(hash % n);
  for (size_t scanned = 0; scanned < n; ++scanned) {
    const PeerId id = peer_ids_[(idx + scanned) % n];
    const dht::ChordNode* node = ring_.node(id);
    if (node != nullptr && node->alive) return id;
  }
  SPRITE_CHECK(false);  // no peers alive
  return 0;
}

StatusOr<dht::ChordRing::LookupResult> SpriteSystem::CommitRoute(
    const dht::ChordRing::LookupPlan& route) {
  StatusOr<dht::ChordRing::LookupResult> res = ring_.CommitLookup(route);
  if (res.ok()) bus_.CostHops(res->hops);
  return res;
}

Status SpriteSystem::PublishTerm(PeerId owner, const std::string& term,
                                 const PostingEntry& entry) {
  // Interning and planning the route have no observable effects.
  const TermId id = TermDict::Global().Intern(term);
  return PublishTermRouted(owner, term, id,
                           ring_.PlanFindSuccessor(owner, RingKeyOf(id)),
                           entry);
}

Status SpriteSystem::PublishTermRouted(PeerId owner, const std::string& term,
                                       TermId id,
                                       const dht::ChordRing::LookupPlan& route,
                                       const PostingEntry& entry) {
  obs::ScopedSpan span(&tracer_, "publish.term", owner);
  span.Annotate("term", term);
  StatusOr<dht::ChordRing::LookupResult> target = CommitRoute(route);
  if (!target.ok()) return target.status();
  (void)bus_.CostSend(target->node, p2p::MessageType::kPublishTerm,
                      p2p::kTermBytes + p2p::kPostingEntryBytes,
                      DirectCallOptions());
  tracer_.clock().AdvanceMs(
      latency_.RequestMs(1) +
      latency_.TransferMs(p2p::kMessageHeaderBytes + p2p::kTermBytes +
                          p2p::kPostingEntryBytes));
  indexing_.at(target->node).AddPosting(id, entry);
  // Feed the miss-attribution ledger: this (doc, term) pair has now been
  // published at least once, so a later absence means withdrawn (or
  // churn), not never-indexed.
  explain_.NotePublish(entry.doc, id);
  return Status::OK();
}

Status SpriteSystem::WithdrawTerm(PeerId owner, const std::string& term,
                                  DocId doc) {
  const TermId id = TermDict::Global().Intern(term);
  return WithdrawTermRouted(owner, term, id,
                            ring_.PlanFindSuccessor(owner, RingKeyOf(id)),
                            doc);
}

Status SpriteSystem::WithdrawTermRouted(
    PeerId owner, const std::string& term, TermId id,
    const dht::ChordRing::LookupPlan& route, DocId doc) {
  obs::ScopedSpan span(&tracer_, "withdraw.term", owner);
  span.Annotate("term", term);
  StatusOr<dht::ChordRing::LookupResult> target = CommitRoute(route);
  if (!target.ok()) return target.status();
  (void)bus_.CostSend(target->node, p2p::MessageType::kWithdrawTerm,
                      p2p::kTermBytes, DirectCallOptions());
  tracer_.clock().AdvanceMs(
      latency_.RequestMs(1) +
      latency_.TransferMs(p2p::kMessageHeaderBytes + p2p::kTermBytes));
  indexing_.at(target->node).RemovePosting(id, doc);
  return Status::OK();
}

Status SpriteSystem::ShareDocument(const corpus::Document& doc) {
  return ShareDocuments({&doc});
}

Status SpriteSystem::ShareCorpus(const corpus::Corpus& corpus) {
  std::vector<const corpus::Document*> docs;
  docs.reserve(corpus.docs().size());
  for (const corpus::Document& doc : corpus.docs()) docs.push_back(&doc);
  return ShareDocuments(docs);
}

Status SpriteSystem::ShareDocuments(
    const std::vector<const corpus::Document*>& docs) {
  // One parallel plan pass over the whole batch (owner choice,
  // initial-term selection, publish routes are all pure), then a
  // sequential commit in document order.
  struct SharePlan {
    const corpus::Document* doc = nullptr;
    PeerId owner = 0;
    std::vector<std::string> initial;  // selection order
    std::vector<TermId> ids;           // parallel to `initial`
    std::vector<dht::ChordRing::LookupPlan> routes;  // parallel to `initial`
  };
  // Prologue (sequential): validate and intern in document order. The
  // first invalid document truncates the batch; earlier documents still
  // share.
  obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.share.prologue");
  Status deferred = Status::OK();
  std::vector<SharePlan> plans;
  plans.reserve(docs.size());
  TermDict& dict = TermDict::Global();
  std::unordered_set<DocId> in_batch;
  for (const corpus::Document* doc : docs) {
    if (doc->terms.empty()) {
      deferred = Status::InvalidArgument("cannot share an empty document");
      break;
    }
    if (doc_owner_.count(doc->id) > 0 || !in_batch.insert(doc->id).second) {
      deferred = Status::AlreadyExists(
          StrFormat("document %u is already shared", doc->id));
      break;
    }
    SharePlan plan;
    plan.doc = doc;
    plan.initial = OwnerPeer::SelectInitialTerms(*doc, config_.initial_terms);
    plan.ids.reserve(plan.initial.size());
    for (const std::string& term : plan.initial) {
      plan.ids.push_back(dict.Intern(term));
    }
    plans.push_back(std::move(plan));
  }
  prologue_wall.Stop();
  // Plan (parallel, effect-free).
  obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.share.plan");
  pool().ParallelFor(plans.size(), [&](size_t i) {
    SharePlan& plan = plans[i];
    // A deterministic owner peer; mixing the id avoids correlating
    // document ids with ring positions.
    plan.owner = PickPeer(0x9e3779b97f4a7c15ULL * (plan.doc->id + 1));
    plan.routes.reserve(plan.ids.size());
    for (const TermId id : plan.ids) {
      plan.routes.push_back(ring_.PlanFindSuccessor(plan.owner, RingKeyOf(id)));
    }
  });
  plan_wall.Stop();
  // Commit (sequential, document order): adopt and publish; a routing
  // failure stops the batch at that document.
  obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.share.commit");
  for (SharePlan& plan : plans) {
    const corpus::Document& doc = *plan.doc;
    obs::ScopedSpan span(&tracer_, "share.document", plan.owner);
    span.Annotatef("doc", "%u", doc.id);
    OwnerPeer& owner = owners_.at(plan.owner);
    OwnedDocument& owned = owner.AdoptDocument(&doc);
    doc_owner_[doc.id] = plan.owner;
    owned.index_terms = plan.initial;
    for (size_t t = 0; t < plan.initial.size(); ++t) {
      SPRITE_RETURN_IF_ERROR(PublishTermRouted(
          plan.owner, plan.initial[t], plan.ids[t], plan.routes[t],
          MakePosting(owned, plan.initial[t], plan.owner)));
    }
  }
  return deferred;
}

QueryRecord SpriteSystem::MakeQueryRecord(const corpus::Query& query) {
  QueryRecord record;
  record.id = query.id;
  TermDict& dict = TermDict::Global();
  const std::vector<std::string> deduped = corpus::DedupTerms(query.terms);
  record.terms.reserve(deduped.size());
  for (const std::string& term : deduped) {
    record.terms.push_back(dict.Intern(term));
  }
  record.hash_key = ring_.space().KeyForString(query.CanonicalKey());
  record.seq = ++seq_counter_;
  // Every peer stores records in issue order, so the global seq is each
  // peer's arrival order too.
  record.arrival = record.seq;
  return record;
}

void SpriteSystem::RecordQuery(const corpus::Query& query) {
  RecordQueryEpoch({&query});
}

bool SpriteSystem::ValidateCachedSources(
    const std::vector<std::pair<TermId, cache::TermSource>>& sources,
    const std::optional<QueryRecord>& rec,
    std::unordered_set<PeerId>& recorded_at, uint64_t& requests,
    uint64_t& bytes) {
  // Group the cached terms by source peer: one round trip verifies all of
  // a peer's terms at once.
  std::map<PeerId, std::vector<const std::pair<TermId, cache::TermSource>*>>
      by_peer;
  for (const auto& source : sources) {
    by_peer[source.second.peer].push_back(&source);
  }
  bool all_current = true;
  const net::CallOptions direct = DirectCallOptions();
  for (const auto& [peer_id, items] : by_peer) {
    obs::ScopedSpan span(&tracer_, "cache.validate", peer_id);
    span.Annotatef("terms", "%zu", items.size());
    // The entry cached the source's address, so the probe is a direct
    // exchange over the transport — no Chord routing. A departed peer
    // surfaces DeadlineExceeded after the configured retries; every
    // attempt's request leg is charged (with the default send_retries = 0
    // that is exactly one request and no response, the accounting this
    // path has always used).
    uint64_t exchange_bytes = 0;
    const size_t request_payload =
        items.size() * (p2p::kTermBytes + p2p::kVersionBytes) +
        (rec.has_value() ? p2p::kQueryRecordBytes : 0);
    const Status sent = bus_.BeginExchange(
        peer_id, p2p::MessageType::kVersionCheck, request_payload, direct);
    const uint64_t attempts =
        sent.ok() ? 1 : 1 + static_cast<uint64_t>(direct.retries);
    requests += attempts;
    exchange_bytes += attempts * (p2p::kMessageHeaderBytes + request_payload);
    bool current = sent.ok();
    if (sent.ok()) {
      query_load_[peer_id] += 1;
      metrics_.Add("peer.queries_served", PeerLabel(peer_id), 1);
      if (rec.has_value() && recorded_at.insert(peer_id).second) {
        indexing_.at(peer_id).RecordQuery(*rec);
      }
      for (const auto* item : items) {
        const StatusOr<uint64_t> responsible =
            ring_.ResponsibleNode(RingKeyOf(item->first));
        if (!responsible.ok() || responsible.value() != peer_id ||
            indexing_.at(peer_id).TermVersion(item->first) !=
                item->second.version) {
          current = false;
          break;
        }
      }
      // The verdict response; a dead peer's probe just times out after
      // the request round trip(s).
      bus_.CompleteExchange(p2p::MessageType::kVersionCheck,
                            p2p::kVersionBytes);
      exchange_bytes += p2p::kMessageHeaderBytes + p2p::kVersionBytes;
    }
    bytes += exchange_bytes;
    tracer_.clock().AdvanceMs(latency_.RequestMs(1) +
                              latency_.TransferMs(exchange_bytes));
    span.Annotate("outcome",
                  !sent.ok() ? "dead" : current ? "current" : "stale");
    if (!current) all_current = false;
  }
  return all_current;
}

bool SpriteSystem::CachedSourcesStale(
    const std::vector<std::pair<TermId, cache::TermSource>>& sources) const {
  for (const auto& [term, source] : sources) {
    const dht::ChordNode* node = ring_.node(source.peer);
    if (node == nullptr || !node->alive) return true;
    const StatusOr<uint64_t> responsible =
        ring_.ResponsibleNode(RingKeyOf(term));
    if (!responsible.ok() || responsible.value() != source.peer) return true;
    auto it = indexing_.find(source.peer);
    if (it == indexing_.end() ||
        it->second.TermVersion(term) != source.version) {
      return true;
    }
  }
  return false;
}

StatusOr<ir::RankedList> SpriteSystem::Search(const corpus::Query& query,
                                              size_t k, bool record) {
  return std::move(SearchEpoch({&query}, k, record).front());
}

StatusOr<ir::RankedList> SpriteSystem::SearchImpl(const corpus::Query& query,
                                                  size_t k,
                                                  const SearchPlan& plan) {
  // Host-side wall profiling (DESIGN.md §13): the total timer covers every
  // exit (including cache-hit fast paths) via its destructor; route/fetch
  // are accumulated across the term loop and recorded on the full path.
  obs::ScopedWallTimer total_wall(&wall_, "perf.search.total");
  const bool wall_on = wall_.enabled();
  uint64_t route_wall_ns = 0;
  uint64_t fetch_wall_ns = 0;
  const uint64_t issuance = plan.issuance;
  // The issuance's record piggybacks on the search's own term requests
  // below (Section 3's normal operation): each directly contacted peer
  // caches it in the same exchange, costing extra bytes but no additional
  // Chord lookups or messages. Standalone RecordQuery() stays available
  // for seeding history without executing the query.
  const std::optional<QueryRecord>& rec = plan.rec;
  std::unordered_set<PeerId> recorded_at;

  TermDict& dict = TermDict::Global();
  const std::vector<TermId>& terms = plan.terms;
  // Explain ledger (enable_explain): per-term provenance and per-candidate
  // score contributions, collected only when the recorder is on so the hot
  // path stays untouched otherwise.
  const bool explain_on = explain_.enabled();
  std::vector<obs::TermExplain> term_explains;
  std::unordered_map<TermId, size_t> term_explain_idx;
  std::string query_spelling;
  if (explain_on) {
    term_explains.reserve(terms.size());
    for (const TermId term : terms) {
      if (!query_spelling.empty()) query_spelling += ' ';
      query_spelling += dict.TermOf(term);
    }
  }

  const PeerId querying_peer = plan.querying_peer;

  // The root span of the whole operation: its route/fetch/rank children
  // advance the simulated clock by exactly the per-phase latency-model
  // costs, so the tree's summed durations reproduce the
  // latency.search.*_ms observations below.
  obs::ScopedSpan search_span(&tracer_, "search", querying_peer);
  search_span.Annotatef("query", "%u", query.id);
  search_span.Annotatef("terms", "%zu", terms.size());

  // --- Query-result cache fast path (src/cache) -------------------------
  // A validated hit answers the query for the cost of the version probes;
  // a blind (CacheMode::kBlind) hit is free but may serve stale
  // results, which the stale_serves counter measures against the live
  // index instead of hiding.
  cache::ResultKey result_key;
  if (cache_.enabled()) {
    result_key = cache::MakeResultKey(terms, k);
    obs::ScopedSpan cache_span(&tracer_, "cache.lookup", querying_peer);
    cache_span.Annotate("tier", "result");
    const cache::CachedResult* hit =
        cache_.LookupResult(querying_peer, result_key);
    bool serve = false;
    const char* outcome = "miss";
    uint64_t check_requests = 0;
    uint64_t check_bytes = 0;
    if (hit != nullptr && cache_.validate()) {
      const std::vector<std::pair<TermId, cache::TermSource>> sources(
          hit->sources.begin(), hit->sources.end());
      cache_.NoteValidation(cache::CacheTier::kResult);
      if (ValidateCachedSources(sources, rec, recorded_at, check_requests,
                                check_bytes)) {
        serve = true;
        outcome = "hit";
      } else {
        outcome = "stale";
        cache_.NoteStaleReject(cache::CacheTier::kResult);
        cache_.InvalidateResult(querying_peer, result_key);
        hit = nullptr;  // dangling after the erase; refetch below
      }
    } else if (hit != nullptr) {
      serve = true;
      outcome = "hit";
      if (CachedSourcesStale({hit->sources.begin(), hit->sources.end()})) {
        cache_.NoteStaleServe(cache::CacheTier::kResult);
      }
    }
    cache_span.Annotate("outcome", outcome);
    if (serve) {
      // The hit's only cost is the validation exchanges, which belong to
      // the fetch phase; routing and ranking are skipped entirely.
      const double check_ms = latency_.RequestMs(check_requests) +
                              latency_.TransferMs(check_bytes);
      metrics_.Add("search.queries");
      metrics_.Observe("search.route_hops", 0.0);
      metrics_.Observe("search.postings_fetched", 0.0);
      metrics_.Observe("search.results",
                       static_cast<double>(hit->results.size()));
      metrics_.Observe("latency.search.route_ms", 0.0);
      metrics_.Observe("latency.search.fetch_ms", check_ms);
      metrics_.Observe("latency.search.rank_ms", 0.0);
      metrics_.Observe("latency.search.total_ms", check_ms);
      search_span.Annotate("cache", "hit");
      search_span.Annotatef("results", "%zu", hit->results.size());
      search_span.Annotatef("total_ms", "%.3f", check_ms);
      if (explain_on) {
        obs::SearchExplain se;
        se.issuance = issuance;
        se.query = query_spelling;
        se.k = k;
        se.served_from_result_cache = true;
        for (const auto& [term, source] : hit->sources) {
          obs::TermExplain te;
          te.term = dict.TermOf(term);
          te.peer = source.peer;
          te.from_cache = true;
          se.terms.push_back(std::move(te));
        }
        for (const auto& r : hit->results) {
          obs::CandidateExplain ce;
          ce.doc = r.doc;
          ce.score = r.score;
          se.candidates.push_back(std::move(ce));
        }
        explain_.RecordSearch(std::move(se));
      }
      return hit->results;
    }
  }

  // Searching phase: visit each term's indexing peer and pull the inverted
  // list plus metadata. With hot-term caching on, a contacted peer also
  // serves cached lists for the query's other terms, saving their lookups
  // (Section 7: "the peer responsible for the hot term will not be
  // contacted").
  std::vector<RetrievedList> lists;
  lists.reserve(terms.size());
  std::unordered_set<TermId> resolved;
  // With caching enabled, different queriers start from different term
  // positions (the plan's `start`); first contact — and with it the
  // serving load of cached hot pairs — then spreads across the terms' peers
  // instead of always landing on the first (typically hottest) term's peer.
  uint64_t route_hops = 0;
  uint64_t fetch_requests = 0;
  uint64_t fetch_bytes = 0;
  size_t fetched_postings = 0;
  size_t skipped_terms = 0;
  // Provenance of each term's list, collected (with the result cache on)
  // for the result-cache entry. A result is only cacheable when every term
  // has a known source (no skipped terms, no hot-term-cache extras of
  // unknown version).
  std::map<TermId, cache::TermSource> sources_used;
  for (size_t ti = 0; ti < terms.size(); ++ti) {
    const size_t term_idx = (plan.start + ti) % terms.size();
    const TermId term = terms[term_idx];
    if (resolved.count(term) > 0) continue;

    // --- Posting-cache path (src/cache): skip the DHT fetch ------------
    if (cache_.enabled()) {
      obs::ScopedSpan cache_span(&tracer_, "cache.lookup", querying_peer);
      cache_span.Annotate("tier", "posting");
      cache_span.Annotate("term", dict.TermOf(term));
      const cache::CachedPostings* hit =
          cache_.LookupPostings(querying_peer, term);
      bool serve = false;
      const char* outcome = "miss";
      if (hit != nullptr && cache_.validate()) {
        cache_.NoteValidation(cache::CacheTier::kPosting);
        if (ValidateCachedSources({{term, hit->source}}, rec, recorded_at,
                                  fetch_requests, fetch_bytes)) {
          serve = true;
          outcome = "hit";
        } else {
          outcome = "stale";
          cache_.NoteStaleReject(cache::CacheTier::kPosting);
          cache_.InvalidatePostings(querying_peer, term);
          hit = nullptr;  // dangling after the erase; fetch below
        }
      } else if (hit != nullptr) {
        serve = true;
        outcome = "hit";
        if (CachedSourcesStale({{term, hit->source}})) {
          cache_.NoteStaleServe(cache::CacheTier::kPosting);
        }
      }
      cache_span.Annotate("outcome", outcome);
      if (serve) {
        RetrievedList rl;
        rl.term = term;
        // The memoized decode: repeated hits share one snapshot.
        rl.postings = hit->postings->Snapshot();
        fetched_postings += rl.postings->size();
        sources_used.emplace(term, hit->source);
        resolved.insert(term);
        if (explain_on) {
          obs::TermExplain te;
          te.term = dict.TermOf(term);
          te.peer = hit->source.peer;
          te.indexed_df = static_cast<uint32_t>(rl.postings->size());
          te.from_cache = true;
          term_explain_idx[term] = term_explains.size();
          term_explains.push_back(std::move(te));
        }
        lists.push_back(std::move(rl));
        continue;
      }
    }

    const uint64_t route_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
    obs::ScopedSpan route_span(&tracer_, "route", querying_peer);
    route_span.Annotate("term", dict.TermOf(term));
    const StatusOr<dht::ChordRing::LookupResult> route =
        CommitRoute(plan.routes[term_idx]);
    route_span.End();
    if (wall_on) route_wall_ns += obs::MonotonicNowNs() - route_start_ns;
    if (!route.ok()) {
      ++skipped_terms;
      if (explain_on) {
        obs::TermExplain te;
        te.term = dict.TermOf(term);
        te.skipped = true;
        term_explain_idx[term] = term_explains.size();
        term_explains.push_back(std::move(te));
      }
      if (config_.skip_unreachable_terms) continue;  // Section 7, scheme 1
      return route.status();
    }
    route_hops += static_cast<uint64_t>(route->hops);
    const PeerId target = route->node;
    const uint64_t fetch_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
    // One fetch span per query term, attributed to the indexing peer that
    // serves the exchange (hot-term-cache extras ride in its response).
    obs::ScopedSpan fetch_span(&tracer_, "fetch", target);
    const uint64_t fetch_bytes_before = fetch_bytes;
    const size_t postings_before = fetched_postings;
    const size_t request_payload =
        p2p::kTermBytes + (rec.has_value() ? p2p::kQueryRecordBytes : 0);
    (void)bus_.BeginExchange(target, p2p::MessageType::kQueryRequest,
                             request_payload, DirectCallOptions());
    ++fetch_requests;
    fetch_bytes += p2p::kMessageHeaderBytes + request_payload;
    query_load_[target] += 1;
    metrics_.Add("peer.queries_served", PeerLabel(target), 1);
    IndexingPeer& peer = indexing_.at(target);
    if (rec.has_value() && recorded_at.insert(target).second) {
      peer.RecordQuery(*rec);
    }
    RetrievedList rl;
    rl.term = term;
    // Zero-copy fetch: share the peer's immutable decoded snapshot instead
    // of copying the vector; the response bytes are accounted as if the
    // full list had crossed the (simulated) wire. The stored (compressed)
    // handle is kept alongside for the posting cache, which holds encoded
    // blocks rather than decoded entries.
    StoredPostingsPtr stored = peer.Stored(term);
    PostingListPtr plist = stored != nullptr ? stored->Snapshot() : nullptr;
    rl.postings = plist != nullptr ? std::move(plist) : EmptyPostingList();
    const size_t response_payload =
        rl.postings->size() * p2p::kPostingEntryBytes;
    bus_.CompleteExchange(p2p::MessageType::kQueryResponse,
                          response_payload);
    fetch_bytes += p2p::kMessageHeaderBytes + response_payload;
    fetched_postings += rl.postings->size();
    resolved.insert(term);
    if (explain_on) {
      obs::TermExplain te;
      te.term = dict.TermOf(term);
      te.peer = target;
      te.indexed_df = static_cast<uint32_t>(rl.postings->size());
      term_explain_idx[term] = term_explains.size();
      term_explains.push_back(std::move(te));
    }
    if (cache_.enabled()) {
      // The response carries the serving peer's term version (one
      // uint64), which is what makes the fetched list cacheable and later
      // checkable.
      const cache::TermSource term_source{target, peer.TermVersion(term)};
      sources_used.emplace(term, term_source);
      cache::CachedPostings entry;
      entry.postings = stored != nullptr
                           ? std::move(stored)
                           : StoredPostings::Empty(store::StoreOptions{});
      entry.source = term_source;
      cache_.InsertPostings(querying_peer, term, std::move(entry));
    }
    lists.push_back(std::move(rl));

    if (config_.use_hot_term_cache) {
      for (const TermId other : terms) {
        if (resolved.count(other) > 0) continue;
        PostingListPtr cached = peer.CachedPostings(other);
        if (cached == nullptr) continue;
        // The cached list rides in the same response as the direct
        // request, so it adds bytes but no extra request load.
        RetrievedList extra;
        extra.term = other;
        extra.postings = std::move(cached);
        const size_t cached_payload =
            extra.postings->size() * p2p::kPostingEntryBytes;
        bus_.CompleteExchange(p2p::MessageType::kQueryResponse,
                              cached_payload);
        fetch_bytes += p2p::kMessageHeaderBytes + cached_payload;
        fetched_postings += extra.postings->size();
        resolved.insert(other);
        if (explain_on) {
          obs::TermExplain te;
          te.term = dict.TermOf(other);
          te.peer = target;  // the hot cache that served the list
          te.indexed_df = static_cast<uint32_t>(extra.postings->size());
          te.from_cache = true;
          term_explain_idx[other] = term_explains.size();
          term_explains.push_back(std::move(te));
        }
        lists.push_back(std::move(extra));
      }
    }

    // The fetch phase cost of this exchange: one request round trip plus
    // the serialized request/response bytes (linear, so per-term spans sum
    // to the aggregate fetch_ms below).
    tracer_.clock().AdvanceMs(
        latency_.RequestMs(1) +
        latency_.TransferMs(fetch_bytes - fetch_bytes_before));
    fetch_span.Annotate("term", dict.TermOf(term));
    fetch_span.Annotatef("peer_id", "%llu",
                         static_cast<unsigned long long>(target));
    fetch_span.Annotatef(
        "bytes", "%llu",
        static_cast<unsigned long long>(fetch_bytes - fetch_bytes_before));
    fetch_span.Annotatef("postings", "%zu",
                         fetched_postings - postings_before);
    if (wall_on) fetch_wall_ns += obs::MonotonicNowNs() - fetch_start_ns;
  }

  // Ranking at the querying peer: consolidate per-document entries and
  // apply the Lee et al. similarity. The document frequency is the indexed
  // document frequency n'_k (the list length) and N is the fixed constant
  // of Section 4.
  obs::ScopedSpan rank_span(&tracer_, "rank", querying_peer);
  rank_span.Annotatef("postings", "%zu", fetched_postings);
  tracer_.clock().AdvanceMs(latency_.RankMs(fetched_postings));
  // The plan's pre-ranking is reusable iff the commit fetched exactly the
  // snapshots the plan ranked — same lists, same order, by pointer
  // identity — and no explain decomposition is needed. The accumulation
  // below is then bit-for-bit the same arithmetic over the same inputs.
  bool reuse_planned_rank = plan.has_ranked && !explain_on &&
                            lists.size() == plan.ranked_over.size();
  if (reuse_planned_rank) {
    for (size_t i = 0; i < lists.size(); ++i) {
      if (lists[i].postings.get() != plan.ranked_over[i].get()) {
        reuse_planned_rank = false;
        break;
      }
    }
  }
  // The accumulation itself lives in core/ranking.h (shared with
  // PlanSearch's pre-rank and the live ClusterNode); the hooks feed the
  // explain ledger without perturbing the arithmetic. Per-doc distinct-term
  // counts and (term, w_Qj*w_ij) contributions are collected only for it.
  std::unordered_map<DocId, uint32_t> distinct_terms;
  std::unordered_map<DocId, std::vector<std::pair<std::string, double>>>
      contribs;
  struct ExplainHooks {
    bool on;
    const std::unordered_map<TermId, size_t>& idx;
    std::vector<obs::TermExplain>& explains;
    std::unordered_map<DocId, uint32_t>& distinct_terms;
    std::unordered_map<DocId,
                       std::vector<std::pair<std::string, double>>>& contribs;
    const TermDict& dict;
    void OnListIdf(TermId term, double idf) {
      if (!on) return;
      if (auto it = idx.find(term); it != idx.end()) {
        explains[it->second].idf = idf;
      }
    }
    void OnContribution(TermId term, const PostingEntry& p, double w) {
      if (on) contribs[p.doc].push_back({dict.TermOf(term), w});
    }
    void OnCandidate(DocId doc, uint32_t distinct) {
      if (on) distinct_terms[doc] = distinct;
    }
  };
  // perf.search.rank times the ranking wherever it ran: in the plan for a
  // reused pre-ranking, here otherwise.
  ir::RankedList results;
  uint64_t rank_wall_ns = plan.rank_ns;
  if (reuse_planned_rank) {
    results = plan.ranked;
  } else {
    const uint64_t rank_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
    ExplainHooks hooks{explain_on,     term_explain_idx, term_explains,
                       distinct_terms, contribs,         dict};
    results = RankRetrievedLists(lists, config_.idf_corpus_size,
                                 fetched_postings, k, hooks);
    if (wall_on) rank_wall_ns = obs::MonotonicNowNs() - rank_start_ns;
  }
  rank_span.End();
  if (wall_on) {
    wall_.RecordNs("perf.search.rank", rank_wall_ns);
    wall_.RecordNs("perf.search.route", route_wall_ns);
    wall_.RecordNs("perf.search.fetch", fetch_wall_ns);
  }

  // Materialize the answer at the querying peer. Only a fully attributable
  // result is cacheable: every term fetched from (or validated against) a
  // known source, none skipped, none served by a hot-term-cache extra —
  // otherwise a later version check could pass while part of the answer
  // has no version at all.
  if (cache_.enabled() && skipped_terms == 0 &&
      sources_used.size() == terms.size()) {
    cache::CachedResult entry;
    entry.results = results;
    entry.sources = std::move(sources_used);
    cache_.InsertResult(querying_peer, result_key, std::move(entry));
  }

  // Per-phase accounting: routing (sequential hops), fetching (request
  // round trips + payload transfer), ranking (local merge over the
  // retrieved postings).
  const double route_ms = latency_.HopsMs(route_hops);
  const double fetch_ms =
      latency_.RequestMs(fetch_requests) + latency_.TransferMs(fetch_bytes);
  const double rank_ms = latency_.RankMs(fetched_postings);
  metrics_.Add("search.queries");
  metrics_.Add("search.terms_skipped", skipped_terms);
  metrics_.Observe("search.route_hops", static_cast<double>(route_hops));
  metrics_.Observe("search.postings_fetched",
                   static_cast<double>(fetched_postings));
  metrics_.Observe("search.results", static_cast<double>(results.size()));
  metrics_.Observe("latency.search.route_ms", route_ms);
  metrics_.Observe("latency.search.fetch_ms", fetch_ms);
  metrics_.Observe("latency.search.rank_ms", rank_ms);
  metrics_.Observe("latency.search.total_ms", route_ms + fetch_ms + rank_ms);
  search_span.Annotatef("results", "%zu", results.size());
  search_span.Annotatef("total_ms", "%.3f", route_ms + fetch_ms + rank_ms);
  if (explain_on) {
    obs::SearchExplain se;
    se.issuance = issuance;
    se.query = query_spelling;
    se.k = k;
    se.terms = std::move(term_explains);
    const size_t keep =
        std::min(results.size(), explain_.options().max_candidates);
    se.candidates.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      obs::CandidateExplain ce;
      ce.doc = results[i].doc;
      ce.score = results[i].score;
      if (auto it = distinct_terms.find(results[i].doc);
          it != distinct_terms.end()) {
        ce.distinct_terms = it->second;
      }
      if (auto it = contribs.find(results[i].doc); it != contribs.end()) {
        ce.contributions = std::move(it->second);
      }
      se.candidates.push_back(std::move(ce));
    }
    explain_.RecordSearch(std::move(se));
  }
  return results;
}

void SpriteSystem::PlanSearch(const corpus::Query& query, size_t k,
                              SearchPlan& plan) const {
  // The query's canonical hash picks the querying peer and the contact
  // rotation; the MD5 is computed once.
  const uint64_t canonical_key =
      ring_.space().KeyForString(query.CanonicalKey());
  plan.querying_peer =
      PickPeer(canonical_key ^ (0x517cc1b727220a95ULL * (query.id + 1)) ^
               (0x2545f4914f6cdd1dULL * plan.issuance));
  plan.start = 0;
  if (config_.use_hot_term_cache && plan.terms.size() > 1) {
    plan.start = static_cast<size_t>(
        (canonical_key ^ (plan.issuance * 0x9e3779b97f4a7c15ULL)) %
        plan.terms.size());
  }
  plan.routes.reserve(plan.terms.size());
  for (const TermId term : plan.terms) {
    plan.routes.push_back(
        ring_.PlanFindSuccessor(plan.querying_peer, RingKeyOf(term)));
  }
  // Optimistic pre-ranking, attempted only when the commit will walk the
  // plain no-cache fetch path (the cache tiers, hot-term extras, and the
  // explain decomposition all change what ranking must observe). Nothing
  // mutates a posting list between plan and commit — searches only read
  // the indexes — so the snapshots gathered here are normally the very
  // lists the commit fetches; the commit verifies that by pointer identity
  // and falls back to live ranking otherwise.
  if (explain_.enabled() || cache_.enabled() || config_.use_hot_term_cache) {
    return;
  }
  size_t fetched = 0;
  plan.ranked_over.reserve(plan.terms.size());
  for (size_t i = 0; i < plan.terms.size(); ++i) {
    if (plan.routes[i].outcome != dht::ChordRing::LookupOutcome::kOk) {
      // With skip_unreachable_terms off the commit fails mid-query; do not
      // pre-rank a result that will never be returned.
      if (!config_.skip_unreachable_terms) return;
      continue;
    }
    const IndexingPeer& peer = indexing_.at(plan.routes[i].result.node);
    PostingListPtr plist = peer.Postings(plan.terms[i]);
    plan.ranked_over.push_back(plist != nullptr ? std::move(plist)
                                                : EmptyPostingList());
    fetched += plan.ranked_over.back()->size();
  }
  // core/ranking.h runs the identical merge SearchImpl uses over the same
  // lists in the same order, so the reused scores are bit-identical.
  const bool wall_on = wall_.enabled();
  const uint64_t rank_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
  plan.ranked =
      RankPostingLists(plan.ranked_over, config_.idf_corpus_size, fetched, k);
  if (wall_on) plan.rank_ns = obs::MonotonicNowNs() - rank_start_ns;
  plan.has_ranked = true;
}

std::vector<StatusOr<ir::RankedList>> SpriteSystem::SearchEpoch(
    const std::vector<const corpus::Query*>& queries, size_t k, bool record) {
  std::vector<StatusOr<ir::RankedList>> out;
  out.reserve(queries.size());
  // Fixed chunk size: the prologue batches issuance/seq assignment per
  // chunk, so chunk boundaries are part of the observable schedule and
  // must not vary with the thread count.
  constexpr size_t kChunk = 64;
  TermDict& dict = TermDict::Global();
  for (size_t base = 0; base < queries.size(); base += kChunk) {
    const size_t n = std::min(kChunk, queries.size() - base);
    std::vector<SearchPlan> plans(n);
    std::vector<char> planned(n, 0);
    obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.search.prologue");
    // Prologue (sequential, batch order): the schedule-sensitive steps —
    // issuance numbers, record seqs, and term interning — happen here.
    for (size_t i = 0; i < n; ++i) {
      const corpus::Query& q = *queries[base + i];
      if (q.empty()) continue;  // rejected before it counts as an issuance
      SearchPlan& plan = plans[i];
      plan.issuance = ++search_counter_;
      if (record) plan.rec = MakeQueryRecord(q);
      const std::vector<std::string> deduped = corpus::DedupTerms(q.terms);
      plan.terms.reserve(deduped.size());
      for (const std::string& term : deduped) {
        plan.terms.push_back(dict.Intern(term));
      }
      planned[i] = 1;
    }
    prologue_wall.Stop();
    // Plan (parallel, effect-free).
    obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.search.plan");
    pool().ParallelFor(n, [&](size_t i) {
      if (planned[i] != 0) PlanSearch(*queries[base + i], k, plans[i]);
    });
    plan_wall.Stop();
    // Commit (sequential, batch order): every effect — traffic, spans,
    // cache mutations, history appends, metrics — happens here, against
    // live state.
    obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.search.commit");
    for (size_t i = 0; i < n; ++i) {
      if (planned[i] == 0) {
        out.push_back(Status::InvalidArgument("empty query"));
      } else {
        out.push_back(SearchImpl(*queries[base + i], k, plans[i]));
      }
    }
  }
  return out;
}

void SpriteSystem::RecordQueryEpoch(
    const std::vector<const corpus::Query*>& queries) {
  struct RecordPlan {
    QueryRecord rec;
    uint32_t query_id = 0;
    PeerId origin = 0;
    std::vector<dht::ChordRing::LookupPlan> routes;  // parallel to rec.terms
  };
  constexpr size_t kChunk = 64;
  TermDict& dict = TermDict::Global();
  for (size_t base = 0; base < queries.size(); base += kChunk) {
    const size_t n = std::min(kChunk, queries.size() - base);
    obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.record.prologue");
    // Prologue (sequential): seq assignment and interning in query order.
    std::vector<RecordPlan> plans;
    plans.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const corpus::Query& q = *queries[base + i];
      if (q.empty()) continue;
      RecordPlan plan;
      plan.rec = MakeQueryRecord(q);
      plan.query_id = q.id;
      plans.push_back(std::move(plan));
    }
    prologue_wall.Stop();
    // Plan (parallel): pick the origin and plan one lookup per term.
    obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.record.plan");
    pool().ParallelFor(plans.size(), [&](size_t i) {
      RecordPlan& plan = plans[i];
      plan.origin = PickPeer(plan.rec.hash_key);
      plan.routes.reserve(plan.rec.terms.size());
      for (const TermId term : plan.rec.terms) {
        plan.routes.push_back(
            ring_.PlanFindSuccessor(plan.origin, RingKeyOf(term)));
      }
    });
    plan_wall.Stop();
    // Commit (sequential, query order): replay each route and append the
    // record at the peer it reached. Query order is seq order, so every
    // peer's bounded history receives its records in seq order.
    obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.record.commit");
    for (const RecordPlan& plan : plans) {
      obs::ScopedSpan span(&tracer_, "record.query", plan.origin);
      span.Annotatef("query", "%u", plan.query_id);
      // One history entry per responsible peer: a peer covering several of
      // the query's terms must not burn several slots of its bounded
      // history on the same issuance (the per-term lookups still happen —
      // the origin needs them to find the peers).
      std::unordered_set<PeerId> recorded_at;
      for (size_t t = 0; t < plan.rec.terms.size(); ++t) {
        obs::ScopedSpan route_span(&tracer_, "route", plan.origin);
        route_span.Annotate("term", dict.TermOf(plan.rec.terms[t]));
        const StatusOr<dht::ChordRing::LookupResult> target =
            CommitRoute(plan.routes[t]);
        route_span.End();
        if (!target.ok()) continue;  // unreachable arc: this copy is lost
        if (recorded_at.insert(target->node).second) {
          indexing_.at(target->node).RecordQuery(plan.rec);
        }
      }
    }
  }
}

void SpriteSystem::ApplyIndexUpdate(PeerId owner_id, OwnedDocument& owned,
                                    const OwnerPeer::IndexUpdate& update) {
  metrics_.Add("learning.terms_removed", update.remove.size());
  metrics_.Add("learning.terms_added", update.add.size());
  for (const std::string& term : update.remove) {
    WithdrawTerm(owner_id, term, owned.content->id);  // best effort
  }
  for (const std::string& term : update.add) {
    PublishTerm(owner_id, term, MakePosting(owned, term, owner_id));
  }
}

void SpriteSystem::RunLearningIteration() {
  metrics_.Add("learning.iterations");
  ++learning_round_;
  obs::ScopedSpan iter_span(&tracer_, "learning.iteration", "system");

  // One work unit per (alive owner, document), in the deterministic
  // std::map order the sequential loop iterated.
  struct LearnUnit {
    PeerId owner_id = 0;
    DocId doc_id = 0;
    OwnerPeer* owner = nullptr;
    OwnedDocument* owned = nullptr;
    // kLearned plan outputs.
    PollPlan plan;
    std::vector<dht::ChordRing::LookupPlan> routes;  // parallel to plan.terms
    std::vector<size_t> recs_per_poll;               // parallel to plan.polls
    uint64_t poll_hops = 0;
    size_t pulled_count = 0;
    // Common outputs.
    OwnerPeer::IndexUpdate update;
    std::vector<ScoredTerm> ranked;
  };
  obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.learning.prologue");
  std::vector<LearnUnit> units;
  for (auto& [owner_id, owner] : owners_) {
    const dht::ChordNode* node = ring_.node(owner_id);
    if (node == nullptr || !node->alive) continue;
    for (auto& [doc_id, owned] : owner.mutable_documents()) {
      LearnUnit unit;
      unit.owner_id = owner_id;
      unit.doc_id = doc_id;
      unit.owner = &owner;
      unit.owned = &owned;
      units.push_back(std::move(unit));
    }
  }

  const bool is_static =
      config_.selection == TermSelectionPolicy::kStaticFrequency;
  const bool explain_on = explain_.enabled();
  prologue_wall.Stop();

  obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.learning.plan");
  // Plan (parallel): route planning, history polling, the Algorithm-1
  // retune and the cursor advance touch only unit-local state — `owned`
  // belongs to exactly one unit, the peers' query histories and the ring
  // are only read, and no commit reads a cursor — so the units are
  // independent and this plan-all-then-commit-all schedule is
  // effect-equivalent to the sequential per-document interleaving.
  pool().ParallelFor(units.size(), [&](size_t u) {
    LearnUnit& unit = units[u];
    OwnedDocument& owned = *unit.owned;
    if (is_static) {
      unit.update = unit.owner->GrowStatic(owned, config_);
      return;
    }
    // A term whose route from the owner fails is in no poll.
    unit.routes.reserve(owned.index_terms.size());
    unit.plan = PlanPolls(owned, ring_.space(), [&](uint64_t key) {
      const dht::ChordRing::LookupPlan& route = unit.routes.emplace_back(
          ring_.PlanFindSuccessor(unit.owner_id, key));
      const bool ok = route.outcome == dht::ChordRing::LookupOutcome::kOk;
      if (ok) unit.poll_hops += static_cast<uint64_t>(route.result.hops);
      return ok ? std::optional<PeerId>(route.result.node) : std::nullopt;
    });
    // Pull the deduplicated incremental query history from each peer.
    std::vector<const QueryRecord*> pulled;
    std::vector<uint64_t> after;
    unit.recs_per_poll.reserve(unit.plan.polls.size());
    for (PollPlan::Poll& poll : unit.plan.polls) {
      after.clear();
      for (TermId t : poll.my_terms) after.push_back(owned.CursorOf(t).arrival);
      std::vector<const QueryRecord*> recs =
          indexing_.at(poll.member).CollectQueriesForPoll(
              unit.plan.terms, unit.plan.keys, poll.my_terms, after,
              ring_.space());
      unit.recs_per_poll.push_back(recs.size());
      pulled.insert(pulled.end(), recs.begin(), recs.end());
      poll.answer = PollCursor{0, seq_counter_};  // its high-water mark
    }
    unit.pulled_count = pulled.size();
    unit.update = unit.owner->LearnAndRetune(
        owned, unit.plan, pulled, config_, explain_on ? &unit.ranked : nullptr);
  });

  plan_wall.Stop();
  // Commit (sequential, unit order): replay the effect stream — spans,
  // lookup stats, poll traffic, metrics, publications — exactly as the
  // sequential engine ordered it.
  obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.learning.commit");
  TermDict& dict = TermDict::Global();
  for (LearnUnit& unit : units) {
    OwnedDocument& owned = *unit.owned;
    if (is_static) {
      obs::ScopedSpan grow_span(&tracer_, "learning.grow", unit.owner_id);
      grow_span.Annotatef("doc", "%u", unit.doc_id);
      ApplyIndexUpdate(unit.owner_id, owned, unit.update);
      if (explain_on) {
        RecordLearningDecisions(unit.owner_id, unit.doc_id, owned, {},
                                unit.update);
      }
      continue;
    }

    obs::ScopedSpan poll_span(&tracer_, "learning.poll", unit.owner_id);
    poll_span.Annotatef("doc", "%u", unit.doc_id);
    for (size_t t = 0; t < unit.plan.terms.size(); ++t) {
      obs::ScopedSpan route_span(&tracer_, "route", unit.owner_id);
      route_span.Annotate("term", dict.TermOf(unit.plan.terms[t]));
      (void)CommitRoute(unit.routes[t]);
    }

    // Poll each peer with the full term list (Section 3's index update
    // message); the pulled records were gathered in the plan phase.
    uint64_t poll_bytes = 0;
    for (size_t p = 0; p < unit.plan.polls.size(); ++p) {
      const PeerId peer_id = unit.plan.polls[p].member;
      const size_t nrecs = unit.recs_per_poll[p];
      obs::ScopedSpan exchange_span(&tracer_, "poll.exchange", peer_id);
      const uint64_t request = unit.plan.terms.size() * p2p::kTermBytes;
      const uint64_t reply = nrecs * p2p::kQueryRecordBytes;
      (void)bus_.BeginExchange(peer_id, p2p::MessageType::kPollRequest,
                               request, DirectCallOptions());
      bus_.CompleteExchange(p2p::MessageType::kPollResponse, reply);
      const uint64_t bytes = 2 * p2p::kMessageHeaderBytes + request + reply;
      poll_bytes += bytes;
      tracer_.clock().AdvanceMs(latency_.RequestMs(1) +
                                latency_.TransferMs(bytes));
      exchange_span.Annotatef("queries", "%zu", nrecs);
    }
    metrics_.Add("learning.polls", unit.plan.polls.size());
    metrics_.Add("learning.pulled_queries", unit.pulled_count);
    metrics_.Observe("latency.learning.poll_ms",
                     latency_.OperationMs(unit.poll_hops,
                                          unit.plan.polls.size(), poll_bytes));

    ApplyIndexUpdate(unit.owner_id, owned, unit.update);
    if (explain_on) {
      RecordLearningDecisions(unit.owner_id, unit.doc_id, owned, unit.ranked,
                              unit.update);
    }
  }
}

void SpriteSystem::RecordLearningDecisions(
    PeerId owner_id, DocId doc, const OwnedDocument& owned,
    const std::vector<ScoredTerm>& ranked,
    const OwnerPeer::IndexUpdate& update) {
  std::unordered_map<std::string, const ScoredTerm*> by_term;
  by_term.reserve(ranked.size());
  for (const ScoredTerm& st : ranked) by_term[st.term] = &st;
  const auto record = [&](const std::string& term, const char* verdict) {
    obs::LearningDecision d;
    d.round = learning_round_;
    d.doc = doc;
    d.owner = owner_id;
    d.term = term;
    d.verdict = verdict;
    if (auto it = by_term.find(term); it != by_term.end()) {
      d.score = it->second->score;
      d.query_freq = it->second->query_freq;
    }
    if (auto it = owned.stats.find(term); it != owned.stats.end()) {
      d.qscore = it->second.best_qscore;
      d.query_freq = it->second.query_freq;
    }
    explain_.RecordDecision(std::move(d));
  };
  for (const std::string& term : update.remove) record(term, "withdraw");
  for (const std::string& term : update.add) record(term, "publish");
}

void SpriteSystem::ReplicateIndexes() {
  if (config_.replication_factor == 0) return;
  obs::ScopedWallTimer run_wall(&wall_, "perf.replication.run");
  obs::ScopedSpan run_span(&tracer_, "replication.run", "system");
  for (auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    if (peer.num_terms() == 0) continue;
    obs::ScopedSpan push_span(&tracer_, "replication.push", peer_id);
    const std::vector<PeerId> succs =
        ring_.SuccessorsOf(peer_id, config_.replication_factor);
    uint64_t push_bytes = 0;
    uint64_t pushes = 0;
    // The index iterates in hash order; the push order fixes each
    // successor's replica-store insertion order and the message stream, so
    // pin it to the term ids.
    std::vector<std::pair<TermId, StoredPostingsPtr>> lists(
        peer.index().begin(), peer.index().end());
    std::sort(lists.begin(), lists.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [term, plist] : lists) {
      for (PeerId s : succs) {
        const size_t payload =
            p2p::kTermBytes + plist->size() * p2p::kPostingEntryBytes;
        (void)bus_.CostSend(s, p2p::MessageType::kReplicate, payload,
                            DirectCallOptions());
        push_bytes += p2p::kMessageHeaderBytes + payload;
        ++pushes;
        // The successor adopts a shared snapshot; copy-on-write at either
        // end keeps replica and primary independent without a deep copy.
        indexing_.at(s).StoreReplica(term, plist);
      }
    }
    metrics_.Add("replication.pushes", pushes);
    if (pushes > 0) {
      // Successors are one overlay hop away; the transfer dominates.
      metrics_.Observe("latency.replication.push_ms",
                       latency_.OperationMs(0, pushes, push_bytes));
      tracer_.clock().AdvanceMs(latency_.OperationMs(0, pushes, push_bytes));
    }
    push_span.Annotatef("pushes", "%llu",
                        static_cast<unsigned long long>(pushes));
    push_span.Annotatef("bytes", "%llu",
                        static_cast<unsigned long long>(push_bytes));
  }
}

Status SpriteSystem::FailPeer(PeerId id) {
  Status s = ring_.Fail(id);
  if (s.ok()) {
    metrics_.Add("peers.failed");
    UpdateMembershipGauges();
  }
  return s;
}

void SpriteSystem::StabilizeNetwork(int rounds) {
  ring_.StabilizeAll(rounds);
}

Status SpriteSystem::UnshareDocument(DocId doc) {
  auto it = doc_owner_.find(doc);
  if (it == doc_owner_.end()) {
    return Status::NotFound(StrFormat("document %u is not shared", doc));
  }
  const PeerId owner_id = it->second;
  obs::ScopedSpan span(&tracer_, "unshare.document", owner_id);
  span.Annotatef("doc", "%u", doc);
  OwnerPeer& owner = owners_.at(owner_id);
  OwnedDocument* owned = owner.document(doc);
  SPRITE_CHECK(owned != nullptr);
  for (const std::string& term : owned->index_terms) {
    WithdrawTerm(owner_id, term, doc);  // best effort under churn
  }
  owner.mutable_documents().erase(doc);
  doc_owner_.erase(it);
  return Status::OK();
}

Status SpriteSystem::UpdateDocument(const corpus::Document& doc) {
  auto it = doc_owner_.find(doc.id);
  if (it == doc_owner_.end()) {
    return Status::NotFound(StrFormat("document %u is not shared", doc.id));
  }
  if (doc.terms.empty()) {
    return Status::InvalidArgument("updated document is empty; unshare it");
  }
  const PeerId owner_id = it->second;
  obs::ScopedSpan span(&tracer_, "update.document", owner_id);
  span.Annotatef("doc", "%u", doc.id);
  OwnedDocument* owned = owners_.at(owner_id).document(doc.id);
  SPRITE_CHECK(owned != nullptr);

  owned->content = &doc;

  // Withdraw index terms that vanished from the new content; re-publish
  // the rest with fresh term frequencies and lengths.
  std::vector<std::string> kept;
  for (const std::string& term : owned->index_terms) {
    if (!doc.ContainsTerm(term)) {
      WithdrawTerm(owner_id, term, doc.id);
      owned->stats.erase(term);
      const TermId id = TermDict::Global().Lookup(term);
      if (id != kInvalidTermId) owned->poll_cursor.erase(id);
    } else {
      kept.push_back(term);
    }
  }
  owned->index_terms = std::move(kept);
  for (const std::string& term : owned->index_terms) {
    SPRITE_RETURN_IF_ERROR(
        PublishTerm(owner_id, term, MakePosting(*owned, term, owner_id)));
  }
  return Status::OK();
}

size_t SpriteSystem::RunHotTermCaching(size_t top_terms) {
  if (top_terms == 0) return 0;
  // Aggregate query frequencies and co-occurrences over the peers' caches,
  // deduplicating issuances (one query is stored at several peers).
  const TermDict& dict = TermDict::Global();
  std::unordered_set<uint64_t> seen;
  std::unordered_map<TermId, uint64_t> qf;
  std::vector<const QueryRecord*> unique_records;
  for (const auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    for (const QueryRecord& record : peer.history()) {
      if (!seen.insert(record.seq).second) continue;
      unique_records.push_back(&record);
      for (const TermId term : record.terms) qf[term] += 1;
    }
  }

  // Bounded selection of the hottest terms: qf desc, spelling asc (the
  // same order the string-keyed full sort produced), cost O(n + k log k).
  std::vector<std::pair<TermId, uint64_t>> ranked(qf.begin(), qf.end());
  TopKInPlace(ranked, top_terms, [&dict](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return dict.TermOf(a.first) < dict.TermOf(b.first);
  });

  size_t placements = 0;
  for (const auto& [hot, _] : ranked) {
    StatusOr<uint64_t> hot_peer = ring_.ResponsibleNode(RingKeyOf(hot));
    if (!hot_peer.ok()) continue;
    StoredPostingsPtr plist = indexing_.at(hot_peer.value()).Stored(hot);
    if (plist == nullptr || plist->empty()) continue;

    // Terms that co-occur with the hot term in cached queries — their
    // peers receive the hot term's list.
    std::unordered_set<TermId> co_set;
    for (const QueryRecord* record : unique_records) {
      if (std::find(record->terms.begin(), record->terms.end(), hot) ==
          record->terms.end()) {
        continue;
      }
      for (const TermId other : record->terms) {
        if (other != hot) co_set.insert(other);
      }
    }
    // The set iterates in hash order, which would make the cache-push
    // message stream (and tie-breaks among co-terms) run-dependent; push
    // in spelling order instead.
    std::vector<TermId> co_terms(co_set.begin(), co_set.end());
    std::sort(co_terms.begin(), co_terms.end(),
              [&dict](TermId a, TermId b) {
                return dict.TermOf(a) < dict.TermOf(b);
              });
    for (const TermId co : co_terms) {
      StatusOr<uint64_t> target = ring_.ResponsibleNode(RingKeyOf(co));
      if (!target.ok() || target.value() == hot_peer.value()) continue;
      // The hot term's list goes to the co-term's peer: queries that reach
      // the co-term's peer first then never contact the hot peer at all
      // (the contact order rotates per issuance, so most multi-term
      // queries start at a non-hot term). The pushed list is a shared
      // snapshot; the bytes are accounted as a full transfer.
      (void)bus_.CostSend(target.value(), p2p::MessageType::kCachePush,
                          p2p::kTermBytes +
                              plist->size() * p2p::kPostingEntryBytes,
                          DirectCallOptions());
      indexing_.at(target.value()).CachePostings(hot, plist);
      ++placements;
    }
  }
  return placements;
}

const std::vector<std::string>* SpriteSystem::IndexTermsOf(DocId doc) const {
  auto it = doc_owner_.find(doc);
  if (it == doc_owner_.end()) return nullptr;
  const OwnerPeer& owner = owners_.at(it->second);
  const OwnedDocument* owned = owner.document(doc);
  return owned == nullptr ? nullptr : &owned->index_terms;
}

PeerId SpriteSystem::OwnerOf(DocId doc) const {
  auto it = doc_owner_.find(doc);
  return it == doc_owner_.end() ? 0 : it->second;
}

size_t SpriteSystem::TotalIndexedTerms() const {
  size_t total = 0;
  for (const auto& [_, owner] : owners_) {
    for (const auto& [__, owned] : owner.documents()) {
      total += owned.index_terms.size();
    }
  }
  return total;
}

Status SpriteSystem::Flush() {
  for (const auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    SPRITE_RETURN_IF_ERROR(
        stores_.try_emplace(peer_id, config_, peer_id).first->second.Flush(
            peer));
  }
  return Status::OK();
}

Status SpriteSystem::Recover() {
  for (auto& [peer_id, peer] : indexing_) {
    SPRITE_RETURN_IF_ERROR(
        stores_.try_emplace(peer_id, config_, peer_id).first->second.Recover(
            peer));
  }
  return Status::OK();
}

const IndexingPeer* SpriteSystem::indexing_peer(PeerId id) const {
  auto it = indexing_.find(id);
  return it == indexing_.end() ? nullptr : &it->second;
}

const OwnerPeer* SpriteSystem::owner_peer(PeerId id) const {
  auto it = owners_.find(id);
  return it == owners_.end() ? nullptr : &it->second;
}

SpriteConfig MakeESearchConfig(SpriteConfig base, size_t num_index_terms) {
  base.selection = TermSelectionPolicy::kStaticFrequency;
  base.initial_terms = num_index_terms;
  base.max_index_terms = num_index_terms;
  return base;
}

}  // namespace sprite::core
