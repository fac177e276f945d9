// churn_stream: writes beside reads. A ScenarioRunner drives churn (mean
// session 120 s, downtime 60 s), uniform 5 % message faults, heartbeats and
// 20 adaptation rounds. After every round a batch of Zipf(1.0) repeat
// queries goes to an AsyncSearchEngine on a private EventQueue over the
// runner's network, fault injector and result-cache bank (cache on), each
// query run to quiescence. The deployment seed fixes the scenario (churn,
// faults, adaptation); the workload seed draws the queries. A pass is one
// runner.run(); set-up is the corpus plus the runner's construction and
// start(). The pass time leaves out the benchmark's own checking of each
// served query, which runs inside run()'s hook.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "eval/metrics.hpp"
#include "ges/async_search.hpp"
#include "ges/scenario.hpp"
#include "ir/relevance.hpp"
#include "p2p/invariants.hpp"

namespace perfbench {
namespace {

using namespace ges;

// Queries per round: the length of the Zipf(1.0) repeat stream that
// bench/micro_result_cache.cpp replays at medium scale.
constexpr size_t kBatch = 400;
constexpr double kProbeFraction = 0.30;

core::ScenarioParams scenario_params(uint64_t seed) {
  core::ScenarioParams sp;
  sp.churn_enabled = true;
  sp.churn.mean_session = 120.0;
  sp.churn.mean_downtime = 60.0;
  sp.churn.seed = util::derive_seed(seed, 31);
  sp.faults = p2p::FaultPlan::uniform(0.05, util::derive_seed(seed, 32));
  sp.rounds = 20;
  sp.seed = seed;
  return sp;
}

std::unique_ptr<core::ScenarioRunner> start_runner(const corpus::Corpus& corpus,
                                                   uint64_t seed) {
  std::unique_ptr<core::ScenarioRunner> runner;
  {
    Span span("p2p.network_build");
    runner = std::make_unique<core::ScenarioRunner>(corpus, scenario_params(seed));
  }
  Span span("p2p.bootstrap");
  runner->start();
  return runner;
}

/// Everything one pass observed; every field is a pure function of the
/// seed, so all passes of a run must agree.
struct PassOutcome {
  uint64_t digest = kFnvOffset;
  size_t submitted = 0;
  size_t completed = 0;
  size_t cache_served = 0;
  size_t misses = 0;
  double recall_sum = 0.0;
  TraceTotals totals;
  double async_events = 0.0;
  std::vector<double> first_hit_s;
  std::vector<double> events_per_round;
  AdaptationTotals adapt;
  core::ResultCacheStats cache;
  size_t alive_at_end = 0;
};

/// Zipf(1.0) over the judged queries, ranked by a seeded permutation.
struct ZipfQueries {
  std::vector<size_t> ranked;
  util::ZipfSampler ranks;

  ZipfQueries(std::vector<size_t> judged, uint64_t seed)
      : ranked(std::move(judged)), ranks(ranked.size(), 1.0) {
    util::Rng rng(util::derive_seed(seed, 33));
    for (size_t i = ranked.size(); i > 1; --i) std::swap(ranked[i - 1], ranked[rng.index(i)]);
  }

  size_t draw(util::Rng& rng) const { return ranked[ranks.sample(rng) - 1]; }
};

}  // namespace

int run_churn_stream(const Options& opt, Result& result) {
  corpus::Corpus corpus;
  std::unique_ptr<core::ScenarioRunner> runner;
  for (int i = 0; i < opt.setups; ++i) {
    set_tracing(opt.trace);
    Span setup("perfbench.setup");
    const int64_t t0 = now_ns();
    runner.reset();
    corpus = make_corpus(opt);
    runner = start_runner(corpus, opt.deployment_seed);
    result.add("setup_s", seconds_between(t0, now_ns()));
  }
  set_tracing(false);

  // Query popularity belongs to the deployment; the seed draws the stream.
  const ZipfQueries zipf(judged_queries(corpus), opt.deployment_seed);
  std::vector<std::optional<eval::Judgment>> judgments(corpus.queries.size());
  for (const size_t qi : zipf.ranked) judgments[qi].emplace(corpus.queries[qi].relevant);

  std::vector<PassOutcome> outcomes;
  std::vector<double> latency_us;
  double busy_s = 0.0;
  std::string invariant_failure;
  run_passes(opt, result, 3, [&](size_t pass, bool traced) {
    if (pass > 0) runner = start_runner(corpus, opt.deployment_seed);  // outside the timed span
    core::ScenarioRunner& run = *runner;
    const core::GesParams& gp = run.params().params;
    PassOutcome out;
    size_t request = 0;
    uint64_t run_span = 0;
    int64_t round_start = 0;
    size_t events_before = run.queue().processed();
    double node_rounds = 0.0;  // alive nodes summed over rounds
    int64_t check_ns = 0;      // checking inside the hook, left out of the pass

    auto after_round = [&](size_t round) {
      const int64_t hook_start = now_ns();
      // run() exposes rounds only through this hook: the interval since the
      // previous hook is the queue advance plus the adaptation round.
      record_interval("ges.adapt_round", round_start, hook_start, run_span);
      const size_t processed = run.queue().processed();
      out.events_per_round.push_back(static_cast<double>(processed - events_before));
      events_before = processed;
      const p2p::Network& net = run.network();
      node_rounds += static_cast<double>(net.alive_count());

      Span batch("ges.async_batch");
      const auto alive = net.alive_nodes();
      core::SearchOptions options;
      options.doc_rel_threshold = gp.doc_rel_threshold;
      options.flood_radius = gp.flood_radius;
      options.use_result_cache = true;
      options.probe_budget = static_cast<size_t>(
          std::llround(kProbeFraction * static_cast<double>(alive.size())));
      p2p::EventQueue queue;
      core::AsyncSearchEngine engine(net, queue, options, core::LatencyModel{},
                                     &run.faults(), &run.result_cache());
      for (size_t b = 0; b < kBatch; ++b, ++request) {
        util::Rng pick(util::derive_seed(opt.seed, (round << 20) + 0x61000 + b));
        const size_t qi = zipf.draw(pick);
        const auto& query = corpus.queries[qi];
        const p2p::NodeId initiator = alive[pick.index(alive.size())];
        const uint64_t qid = new_query_id();
        std::optional<core::AsyncQueryResult> done;
        const size_t events0 = queue.processed();
        int64_t start = 0;
        {
          Span span("ges.async_query", qid);
          start = span.start_ns();
          engine.submit(query.vector, initiator,
                        util::derive_seed(opt.seed, 0x62000000 + request),
                        [&done](const core::AsyncQueryResult& r) { done = r; });
          queue.run();
        }
        const double s = seconds_between(start, now_ns());
        ++out.submitted;
        if (!traced) {
          latency_us.push_back(s * 1e6);
          busy_s += s;
        }
        out.async_events += static_cast<double>(queue.processed() - events0);
        if (!done) {
          out.digest = fnv1a_value(~uint64_t{0}, out.digest);
          continue;
        }
        ++out.completed;
        const int64_t check_start = now_ns();
        {
          Span check("perfbench.check", qid);
          const p2p::SearchTrace& trace = done->trace;
          bool ok = true;
          bool relevant_owner_alive = false;
          for (const auto& r : trace.retrieved) {
            const double expected =
                ir::rel_doc_query(net.document_vector(r.doc), query.vector);
            ok = ok && net.alive(net.document_owner(r.doc)) &&
                 std::abs(expected - r.score) <= 1e-9;
            out.digest = fnv1a_value(r.doc, out.digest);
            out.digest = fnv1a_value(r.score, out.digest);
          }
          for (const ir::DocId d : query.relevant) {
            relevant_owner_alive = relevant_owner_alive || net.alive(net.document_owner(d));
          }
          if (!ok) {
            ++result.failed;
            result.check("request.served_docs", false,
                         "request " + std::to_string(request) +
                             " served a wrong score or a dead owner's document");
          } else if (trace.retrieved.empty() && relevant_owner_alive) {
            ++out.misses;  // a served query that found nothing it could have
          }
          out.digest = fnv1a_value(done->first_hit_at, out.digest);
          out.digest = fnv1a_value(done->completed_at, out.digest);
          out.recall_sum += eval::recall(trace, *judgments[qi]);
          out.totals.add(trace);
          if (trace.cache_hits > 0) ++out.cache_served;
          if (done->time_to_first_hit() >= 0.0) {
            out.first_hit_s.push_back(done->time_to_first_hit());
          }
        }
        check_ns += now_ns() - check_start;
      }
      round_start = now_ns();
    };

    double s = 0.0;
    {
      Span root("perfbench.pass");
      Span span("ges.scenario_run");
      run_span = span.id();
      round_start = span.start_ns();
      run.run(after_round);
      s = seconds_between(span.start_ns(), now_ns() - check_ns);
    }
    out.adapt.add(run.total_stats(), run.params().rounds, node_rounds);
    result.attempted += out.submitted;
    if (out.completed != out.submitted) result.failed += out.submitted - out.completed;

    // Output checks, outside the timed span. Rejoining nodes bootstrap
    // links past the degree policy; the slack covers two rejoins' worth.
    const auto report = p2p::check_overlay_invariants(
        run.network(), run.invariant_options(2 * run.params().churn.bootstrap_links));
    if (!report.ok() && invariant_failure.empty()) invariant_failure = report.to_string();
    out.cache = run.result_cache().stats();
    out.alive_at_end = run.network().alive_count();
    out.digest = fnv1a_value(out.cache.hits, out.digest);
    out.digest = fnv1a_value(out.cache.invalidations, out.digest);
    out.digest = fnv1a_value(out.alive_at_end, out.digest);
    outcomes.push_back(std::move(out));
    return s;
  });

  const PassOutcome& o = outcomes.front();
  bool same = true;
  size_t completed = 0;
  size_t submitted = 0;
  for (const auto& x : outcomes) {
    same = same && x.digest == o.digest;
    completed += x.completed;
    submitted += x.submitted;
  }
  result.check("churn_stream.passes_agree", same, "every pass must serve the same results");
  result.check("churn_stream.completed_equals_submitted", completed == submitted,
               std::to_string(completed) + " of " + std::to_string(submitted));
  result.check("churn_stream.invariants", invariant_failure.empty(), invariant_failure);
  result.meta["pass_digest"] = hex64(o.digest);
  result.meta["alive_at_end"] = std::to_string(o.alive_at_end);

  const double n = o.completed > 0 ? static_cast<double>(o.completed) : 1.0;
  result.values["misses"] = static_cast<double>(o.misses);
  result.values["served_recall"] = o.recall_sum / n;
  o.totals.record(result, n);
  result.values["async_events_per_query"] =
      o.async_events / static_cast<double>(std::max<size_t>(o.submitted, 1));
  result.values["cache_hit_ratio"] =
      static_cast<double>(o.cache_served) / static_cast<double>(std::max<size_t>(o.submitted, 1));
  const double probes = static_cast<double>(o.cache.hits + o.cache.misses);
  result.values["cache_probe_hit_ratio"] =
      probes > 0.0 ? static_cast<double>(o.cache.hits) / probes : 0.0;
  result.values["cache_invalidations"] = static_cast<double>(o.cache.invalidations);
  result.samples["first_hit_sim_s"] = o.first_hit_s;
  result.samples["events_per_round"] = o.events_per_round;
  o.adapt.record(result);
  result.values["query_wall_s"] = busy_s;
  result.samples["query_us"] = std::move(latency_us);
  return 0;
}

}  // namespace perfbench
