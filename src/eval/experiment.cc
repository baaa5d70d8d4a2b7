#include "eval/experiment.h"

#include "common/check.h"
#include "common/rng.h"

namespace sprite::eval {

TestBed TestBed::Build(const ExperimentOptions& options) {
  TestBed bed;
  bed.options_ = options;
  bed.dataset_ = corpus::SyntheticCorpusGenerator(options.corpus).Generate();
  bed.centralized_ =
      std::make_unique<ir::CentralizedIndex>(bed.dataset_.corpus);
  querygen::QueryGenerator generator(bed.dataset_.corpus, *bed.centralized_,
                                     options.generator);
  bed.workload_ =
      generator.Generate(bed.dataset_.base_queries, bed.dataset_.judgments);
  Rng rng(options.split_seed);
  bed.split_ = querygen::SplitTrainTest(bed.workload_.queries.size(),
                                        options.train_fraction, rng);
  return bed;
}

namespace {

// Batches a workload slice into query pointers for the epoch entry points.
std::vector<const corpus::Query*> GatherQueries(
    const TestBed& bed, const std::vector<size_t>& indices) {
  std::vector<const corpus::Query*> out;
  out.reserve(indices.size());
  for (size_t idx : indices) out.push_back(&bed.query(idx));
  return out;
}

}  // namespace

Status TrainSystem(core::SpriteSystem& system, const TestBed& bed,
                   const std::vector<size_t>& stream, size_t iterations) {
  system.RecordQueryEpoch(GatherQueries(bed, stream));
  SPRITE_RETURN_IF_ERROR(system.ShareCorpus(bed.corpus()));
  for (size_t i = 0; i < iterations; ++i) {
    system.RunLearningIteration();
  }
  return Status::OK();
}

StatusOr<std::vector<ConvergencePoint>> TrainSystemWithConvergence(
    core::SpriteSystem& system, const TestBed& bed,
    const std::vector<size_t>& stream, size_t iterations,
    const std::vector<size_t>& eval_queries, size_t answers) {
  system.RecordQueryEpoch(GatherQueries(bed, stream));
  SPRITE_RETURN_IF_ERROR(system.ShareCorpus(bed.corpus()));

  std::vector<ConvergencePoint> points;
  points.reserve(iterations + 1);
  for (size_t round = 0; round <= iterations; ++round) {
    if (round > 0) system.RunLearningIteration();
    ConvergencePoint point;
    point.round = system.learning_round();
    point.eval = EvaluateSystem(system, bed, eval_queries, answers);
    point.indexed_terms = system.TotalIndexedTerms();
    point.net_messages = system.network_stats().TotalFrames();
    point.net_bytes = system.network_stats().TotalBytes();
    // Unlabeled bench gauges: the convergence quantities the time-series
    // recorder captures (labeled per-peer/per-message metrics are not
    // carried into points) and the SLO rules watch.
    obs::MetricsRegistry& metrics = system.mutable_metrics();
    metrics.Set("bench.round", static_cast<double>(point.round));
    metrics.Set("bench.precision_ratio", point.eval.ratio.precision);
    metrics.Set("bench.recall_ratio", point.eval.ratio.recall);
    metrics.Set("bench.indexed_terms",
                static_cast<double>(point.indexed_terms));
    metrics.Set("bench.net_messages",
                static_cast<double>(point.net_messages));
    metrics.Set("bench.net_bytes", static_cast<double>(point.net_bytes));
    system.CaptureTimeSeriesPoint("round");
    points.push_back(std::move(point));
  }
  return points;
}

EvalResult EvaluateSystem(core::SpriteSystem& system, const TestBed& bed,
                          const std::vector<size_t>& queries, size_t answers,
                          const std::vector<double>* weights) {
  SPRITE_CHECK(weights == nullptr || weights->size() == queries.size());
  std::vector<ir::PrecisionRecall> sys_prs;
  std::vector<ir::PrecisionRecall> central_prs;
  sys_prs.reserve(queries.size());
  central_prs.reserve(queries.size());

  std::vector<StatusOr<ir::RankedList>> results =
      system.SearchEpoch(GatherQueries(bed, queries), answers,
                         /*record=*/false);
  SPRITE_CHECK(results.size() == queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const corpus::Query& q = bed.query(queries[i]);
    const auto& relevant = bed.workload().judgments.Relevant(q.id);

    ir::RankedList sys_list =
        results[i].ok() ? std::move(results[i]).value() : ir::RankedList{};
    sys_prs.push_back(ir::EvaluateTopK(sys_list, answers, relevant));

    const ir::RankedList central_list = bed.centralized().Search(q, answers);
    central_prs.push_back(ir::EvaluateTopK(central_list, answers, relevant));
  }

  EvalResult out;
  if (weights != nullptr) {
    out.system = ir::WeightedMeanPrecisionRecall(sys_prs, *weights);
    out.centralized = ir::WeightedMeanPrecisionRecall(central_prs, *weights);
  } else {
    out.system = ir::MeanPrecisionRecall(sys_prs);
    out.centralized = ir::MeanPrecisionRecall(central_prs);
  }
  out.ratio = ir::Ratio(out.system, out.centralized);
  return out;
}

}  // namespace sprite::eval
