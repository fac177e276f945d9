// fig1_pipeline: the paper's Fig. 1 end to end — GES overlay (bootstrap +
// 40 adaptation rounds), the SETS baseline, the degree-8 Random graph and
// the recall-vs-cost sweep of all three. The deployment seed builds the
// three overlays; the workload seed draws each sweep query's initiator and
// tie-breaking. Set-up is corpus generation; one pass is everything from
// the finished corpus to the three curves.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "baselines/random_walk_search.hpp"
#include "baselines/sets.hpp"
#include "common.hpp"
#include "eval/experiment.hpp"
#include "ges/system.hpp"

namespace perfbench {
namespace {

using namespace ges;

constexpr double kOperatingCost = 0.30;

/// Per-call latency and trace counters of the GES sweep's searches, which
/// run in parallel on the pool, plus the sweeps' wall time.
struct SweepStats {
  std::mutex mutex;
  std::vector<double> call_us;
  double wall_s = 0.0;
  TraceTotals totals;
  size_t calls = 0;
};

struct Fig1Curves {
  eval::RecallCostCurve ges;
  eval::RecallCostCurve sets;
  eval::RecallCostCurve random;
  AdaptationTotals adapt;
};

/// Wrap a searcher so each call is traced under `parent` and, with
/// `stats`, timed and counted.
eval::Searcher timed(const char* span_name, uint64_t parent, eval::Searcher inner,
                     SweepStats* stats) {
  return [=](const corpus::Query& q, p2p::NodeId initiator, util::Rng& rng) {
    p2p::SearchTrace trace;
    int64_t start = 0;
    {
      Span span(span_name, new_query_id(), parent);
      start = span.start_ns();
      trace = inner(q, initiator, rng);
    }
    const int64_t end = now_ns();
    if (stats == nullptr) return trace;
    std::lock_guard lock(stats->mutex);
    stats->call_us.push_back(static_cast<double>(end - start) * 1e-3);
    stats->totals.add(trace);
    ++stats->calls;
    return trace;
  };
}

uint64_t curves_checksum(const Fig1Curves& c) {
  uint64_t h = kFnvOffset;
  for (const auto* curve : {&c.ges, &c.sets, &c.random}) {
    for (const double r : curve->recall) h = fnv1a_value(r, h);
  }
  return h;
}

std::unique_ptr<baselines::SetsSystem> build_sets(const corpus::Corpus& corpus,
                                                  uint64_t seed) {
  baselines::SetsParams params;
  params.seed = util::derive_seed(seed, 88);
  std::unique_ptr<baselines::SetsSystem> sets;
  {
    Span span("p2p.network_build");
    sets = std::make_unique<baselines::SetsSystem>(
        corpus, std::vector<p2p::Capacity>(corpus.num_nodes(), 1.0),
        p2p::NetworkConfig{}, params);
  }
  Span span("baselines.sets_build");
  sets->build();
  return sets;
}

std::unique_ptr<p2p::Network> build_random(const corpus::Corpus& corpus, uint64_t seed) {
  std::unique_ptr<p2p::Network> net;
  {
    Span span("p2p.network_build");
    net = std::make_unique<p2p::Network>(
        corpus, std::vector<p2p::Capacity>(corpus.num_nodes(), 1.0),
        p2p::NetworkConfig{});
  }
  Span span("p2p.bootstrap");
  util::Rng rng(util::derive_seed(seed, 77));
  p2p::bootstrap_random_graph(*net, 8.0, rng);
  return net;
}

eval::Searcher ges_search(const core::GesSystem& system) {
  return [&system](const corpus::Query& q, p2p::NodeId initiator, util::Rng& rng) {
    return system.search(q.vector, initiator, rng);
  };
}

eval::Searcher sets_search(const baselines::SetsSystem& sets) {
  baselines::SetsSearchOptions options;
  options.route_segments = std::max<size_t>(4, sets.segment_count() / 8);
  return [&sets, options](const corpus::Query& q, p2p::NodeId initiator,
                          util::Rng& rng) {
    return sets.search(q.vector, initiator, options, rng);
  };
}

eval::Searcher random_search(const p2p::Network& net) {
  return [&net](const corpus::Query& q, p2p::NodeId initiator, util::Rng& rng) {
    return baselines::random_walk_search(net, q.vector, initiator, {}, rng);
  };
}

/// The pipeline as the program's facade runs it: GesSystem::build(). Its
/// checksum is the reference the timed passes (which drive the rounds
/// themselves to time each one) must reproduce.
uint64_t reference_checksum(const corpus::Corpus& corpus, uint64_t build_seed,
                            uint64_t seed) {
  core::GesBuildConfig config;
  config.seed = build_seed;
  core::GesSystem ges(corpus, config);
  ges.build();
  const auto sets = build_sets(corpus, build_seed);
  const auto random = build_random(corpus, build_seed);
  const auto grid = eval::standard_cost_grid();
  Fig1Curves c;
  c.ges = eval::recall_cost_curve(corpus, ges.network(), ges_search(ges), grid, seed);
  c.sets = eval::recall_cost_curve(corpus, sets->network(), sets_search(*sets), grid,
                                   seed);
  c.random = eval::recall_cost_curve(corpus, *random, random_search(*random), grid, seed);
  return curves_checksum(c);
}

/// One pass from the finished corpus to the three curves.
Fig1Curves run_pass(const corpus::Corpus& corpus, uint64_t build_seed, uint64_t seed,
                    SweepStats* ges_stats) {
  Fig1Curves c;
  auto ges = build_ges(corpus, build_seed, c.adapt);
  auto sets = build_sets(corpus, build_seed);
  auto random = build_random(corpus, build_seed);

  const auto grid = eval::standard_cost_grid();
  auto sweep_curve = [&](const char* curve_span, const char* call_span,
                         const p2p::Network& net, eval::Searcher searcher,
                         SweepStats* stats) {
    Span span(curve_span);
    auto curve = eval::recall_cost_curve(
        corpus, net, timed(call_span, span.id(), std::move(searcher), stats), grid, seed);
    if (stats != nullptr) stats->wall_s += seconds_between(span.start_ns(), now_ns());
    return curve;
  };
  c.ges = sweep_curve("eval.ges_curve", "ges.search", ges->network(), ges_search(*ges),
                      ges_stats);
  c.sets = sweep_curve("baselines.sets_eval", "baselines.sets_search", sets->network(),
                       sets_search(*sets), nullptr);
  c.random = sweep_curve("baselines.random_eval", "baselines.random_search", *random,
                         random_search(*random), nullptr);
  Span span("p2p.teardown");  // freeing three overlays is part of the pass
  ges.reset();
  sets.reset();
  random.reset();
  return c;
}

}  // namespace

int run_fig1_pipeline(const Options& opt, Result& result) {
  if (opt.reference_only) {
    const auto corpus = make_corpus(opt);
    const uint64_t h = reference_checksum(corpus, opt.deployment_seed, opt.seed);
    std::printf("%s\n", hex64(h).c_str());
    return 0;
  }
  corpus::Corpus corpus;
  for (int i = 0; i < opt.setups; ++i) {
    set_tracing(opt.trace);
    Span setup("perfbench.setup");
    const int64_t t0 = now_ns();
    corpus = make_corpus(opt);
    result.add("setup_s", seconds_between(t0, now_ns()));
  }
  set_tracing(false);
  const size_t judged = judged_queries(corpus).size();
  result.meta["nodes"] = std::to_string(corpus.num_nodes());
  result.meta["docs"] = std::to_string(corpus.num_docs());
  result.meta["queries"] = std::to_string(corpus.queries.size());

  SweepStats sweep;
  std::vector<uint64_t> checksums;
  Fig1Curves last;
  run_passes(opt, result, 2, [&](size_t, bool traced) {
    const int64_t t0 = now_ns();
    Fig1Curves c;
    {
      Span root("perfbench.pass");
      c = run_pass(corpus, opt.deployment_seed, opt.seed, traced ? nullptr : &sweep);
    }
    const double s = seconds_between(t0, now_ns());
    checksums.push_back(curves_checksum(c));
    result.attempted += 3 * judged;
    last = c;
    return s;
  });

  // Output checks, outside every timed span.
  bool same = true;
  for (const uint64_t h : checksums) same = same && h == checksums.front();
  result.check("fig1.passes_agree", same, "every pass must give the same curves");
  result.meta["curve_checksum"] = hex64(checksums.front());
  if (opt.fresh_reference) {
    result.meta["fresh_reference_checksum"] =
        hex64(reference_checksum(corpus, opt.deployment_seed, opt.seed));
  }
  std::string shape_detail;
  for (size_t i = 0; i < last.ges.cost.size(); ++i) {
    if (last.ges.cost[i] >= 1.0) continue;
    if (!(last.ges.recall[i] > last.random.recall[i])) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "cost %.2f: GES %.4f <= Random %.4f ",
                    last.ges.cost[i], last.ges.recall[i], last.random.recall[i]);
      shape_detail += buf;
    }
  }
  result.check("fig1.ges_above_random", shape_detail.empty(), shape_detail);

  result.values["served_recall"] = last.ges.recall_at(kOperatingCost);
  result.values["sets_recall_at_30pct"] = last.sets.recall_at(kOperatingCost);
  last.adapt.record(result);
  sweep.totals.record(result, static_cast<double>(sweep.calls));
  result.samples["query_us"] = sweep.call_us;
  result.values["query_wall_s"] = sweep.wall_s;
  return 0;
}

}  // namespace perfbench
