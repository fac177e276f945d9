// query_stream: a closed loop with one client. Set-up builds the corpus and
// a GES overlay (40 adaptation rounds) from the deployment seed; the client
// then issues queries drawn from the workload seed, uniformly over the
// judged corpus queries, each from a random alive initiator, at a 30 %
// probe budget with the result cache off. A pass is one block of kBlock
// consecutive requests.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common.hpp"
#include "eval/metrics.hpp"
#include "ir/relevance.hpp"

namespace perfbench {
namespace {

using namespace ges;

constexpr size_t kBlock = 256;
// Deterministic metrics (recall, probes, bytes) cover this many requests
// from the start of the stream, which every run serves.
constexpr size_t kDetWindow = 1024;
constexpr double kProbeFraction = 0.30;

/// Checksum of a result list as (doc, score) pairs in DocId order, the
/// score rounded to 1e-9 so an independent re-evaluation can match it.
uint64_t results_checksum(std::vector<std::pair<ir::DocId, double>> docs) {
  std::sort(docs.begin(), docs.end());
  uint64_t h = kFnvOffset;
  for (const auto& [doc, score] : docs) {
    h = fnv1a_value(doc, h);
    h = fnv1a_value(static_cast<int64_t>(std::llround(score * 1e9)), h);
  }
  return h;
}

/// What a correct search must have returned: every document on the nodes
/// it probed whose REL(D, Q) passes the retrieval rule, scored afresh.
uint64_t expected_checksum(const p2p::Network& net, const ir::SparseVector& query,
                           const p2p::SearchTrace& trace, double threshold) {
  std::vector<std::pair<ir::DocId, double>> docs;
  for (const p2p::NodeId node : trace.probe_order) {
    for (const ir::DocId doc : net.documents(node)) {
      const double s = ir::rel_doc_query(net.document_vector(doc), query);
      if (threshold > 0.0 ? s >= threshold : s > 0.0) docs.emplace_back(doc, s);
    }
  }
  return results_checksum(std::move(docs));
}

uint64_t served_checksum(const p2p::SearchTrace& trace) {
  std::vector<std::pair<ir::DocId, double>> docs;
  docs.reserve(trace.retrieved.size());
  for (const auto& r : trace.retrieved) docs.emplace_back(r.doc, r.score);
  return results_checksum(std::move(docs));
}

}  // namespace

int run_query_stream(const Options& opt, Result& result) {
  corpus::Corpus corpus;
  std::unique_ptr<core::GesSystem> ges;
  AdaptationTotals adapt;
  for (int i = 0; i < opt.setups; ++i) {
    set_tracing(opt.trace);
    Span setup("perfbench.setup");
    const int64_t t0 = now_ns();
    ges.reset();
    corpus = make_corpus(opt);
    adapt = {};
    ges = build_ges(corpus, opt.deployment_seed, adapt);
    result.add("setup_s", seconds_between(t0, now_ns()));
  }
  set_tracing(false);
  adapt.record(result);

  const auto judged = judged_queries(corpus);
  std::vector<eval::Judgment> judgments;
  for (const size_t qi : judged) judgments.emplace_back(corpus.queries[qi].relevant);
  const auto alive = ges->network().alive_nodes();
  auto options = ges->default_search_options();
  options.probe_budget = static_cast<size_t>(
      std::llround(kProbeFraction * static_cast<double>(alive.size())));
  options.use_result_cache = false;
  const double threshold = options.doc_rel_threshold;
  result.meta["probe_budget"] = std::to_string(options.probe_budget);

  size_t next = 0;  // global request index
  size_t misses = 0;
  double recall_sum = 0.0;
  TraceTotals totals;
  double busy_s = 0.0;
  std::vector<double> latency_us;
  run_passes(opt, result, kDetWindow / kBlock, [&](size_t, bool traced) {
    double block_s = 0.0;
    Span root("perfbench.pass");
    for (size_t k = 0; k < kBlock; ++k, ++next) {
      util::Rng pick(util::derive_seed(opt.seed, 0x51000000 + next));
      const size_t j = pick.index(judged.size());
      const auto& query = corpus.queries[judged[j]];
      const p2p::NodeId initiator = alive[pick.index(alive.size())];
      util::Rng rng(util::derive_seed(opt.seed, 0x52000000 + next));
      const uint64_t qid = new_query_id();

      int64_t start = 0;
      p2p::SearchTrace trace;
      {
        Span span("ges.search", qid);
        start = span.start_ns();
        trace = ges->search(query.vector, initiator, options, rng);
      }
      const double s = seconds_between(start, now_ns());
      block_s += s;
      ++result.attempted;

      bool ok = true;
      double recall = 0.0;
      {
        Span span("perfbench.check", qid);
        ok = served_checksum(trace) ==
             expected_checksum(ges->network(), query.vector, trace, threshold);
      }
      {
        Span span("eval.recall", qid);
        recall = eval::recall(trace, judgments[j]);
      }
      if (!ok) {
        ++result.failed;
        result.check("request.checksum", false,
                     "request " + std::to_string(next));
      }
      // Every node is alive, so an empty answer missed a reachable document.
      if (trace.retrieved.empty()) ++misses;
      if (!traced) {
        latency_us.push_back(s * 1e6);
        busy_s += s;
      }
      if (next < kDetWindow) {
        recall_sum += recall;
        totals.add(trace);
      }
    }
    return block_s;
  });

  result.values["misses"] = static_cast<double>(misses);
  const double n = static_cast<double>(kDetWindow);
  result.values["served_recall"] = recall_sum / n;
  totals.record(result, n);
  result.values["query_wall_s"] = busy_s;
  result.samples["query_us"] = std::move(latency_us);
  return 0;
}

}  // namespace perfbench
