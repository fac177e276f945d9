#pragma once

// Shared plumbing of the benchmark harness: wall-clock spans recorded
// around calls into the program's public API, the per-run result record
// that perfbench/run.py reduces to metrics, and the pass loop that fills
// the measured window.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "ges/system.hpp"
#include "ges/topology_adaptation.hpp"
#include "util/env.hpp"

namespace perfbench {

int64_t now_ns();

inline double seconds_between(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---------------------------------------------------------------- spans

/// One closed span: a named interval with the span that caused it and the
/// query it belongs to (0 = not part of a query).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t query = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide, thread-safe span store. Spans stay in memory while the
/// workload runs and are written out once, at exit. Recording is off by
/// default; a disabled log makes Span a pair of clock reads.
void set_tracing(bool on);
bool tracing();
uint64_t new_query_id();
void write_spans(const std::string& path);

constexpr uint64_t kImplicitParent = ~uint64_t{0};

/// RAII span around one call. Without an explicit parent the span nests
/// under the innermost open span of the calling thread; calls made on pool
/// threads pass their parent explicitly.
class Span {
 public:
  explicit Span(const char* name, uint64_t query = 0,
                uint64_t parent = kImplicitParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t query_ = 0;
  int64_t start_ns_ = 0;
};

/// Innermost open span of the calling thread (0 = none).
uint64_t current_span();

/// Record an interval the caller timed itself — for work the program's
/// API only bounds from outside (e.g. between two hook invocations).
void record_interval(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t parent, uint64_t query = 0);

// --------------------------------------------------------------- results

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Seed of the deployment: the corpus (standing in for the paper's fixed
  /// TREC collection) and the overlays, churn and faults built over it.
  /// The workload seed drives the traffic: which queries are asked, from
  /// which initiators, with which tie-breaking.
  static constexpr uint64_t deployment_seed = 42;
  double seconds = 10.0;
  int setups = 3;  // set-up repetitions; samples["setup_s"] gets one each
  bool trace = false;
  ges::util::Scale scale = ges::util::Scale::kMedium;
  std::string out;           // result JSON path
  std::string spans_out;     // span JSON path (trace runs)
  bool fresh_reference = false;  // fig1: recompute the reference via build()
  bool reference_only = false;   // fig1: print the build() checksum and exit
};

/// Everything one harness run measured, written as JSON for run.py.
struct Result {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::map<std::string, std::string> meta;
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void add(const std::string& key, double v) { samples[key].push_back(v); }
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void write_json(const std::string& path) const;
};

/// Run `pass(index, traced)` until `opt.seconds` of passes have elapsed and
/// at least `min_passes` ran. The callback returns the wall seconds of its
/// timed part; they land in samples["pass_s"] (untraced passes) or
/// samples["pass_traced_s"]. A trace run alternates untraced and traced
/// passes, starting untraced, so both kinds see the same machine state.
void run_passes(const Options& opt, Result& result, size_t min_passes,
                const std::function<double(size_t, bool)>& pass);

/// Adaptation traffic summed over rounds (AdaptationRoundStats), with the
/// alive-node count each round ran on.
struct AdaptationTotals {
  size_t rounds = 0;
  double node_rounds = 0.0;  // sum over rounds of alive nodes
  double walk = 0.0;
  double handshake = 0.0;
  double gossip = 0.0;
  double links_changed = 0.0;

  /// `s` covers `rounds` rounds that ran on `node_rounds` alive nodes in all.
  void add(const ges::core::AdaptationRoundStats& s, size_t rounds, double node_rounds);
  /// Walk + handshake + gossip messages per alive node per round.
  double messages_per_node_round() const;
  /// Per-round means under "adapt.*" keys.
  void record(Result& result) const;
};

/// Cost counters of served queries (SearchTrace) summed over a workload.
struct TraceTotals {
  double probes = 0.0;
  double bytes = 0.0;
  double walk = 0.0;
  double flood = 0.0;
  double rel_evals = 0.0;
  double rel_hits = 0.0;

  void add(const ges::p2p::SearchTrace& trace);
  /// Means over `n` queries under the "*_per_query" keys, plus the REL memo
  /// hit ratio hits / (hits + evals).
  void record(Result& result, double n) const;
};

/// GesSystem construction plus GesSystem::build(), unrolled so that each
/// adaptation round gets its own span and its traffic lands in `adapt`.
std::unique_ptr<ges::core::GesSystem> build_ges(const ges::corpus::Corpus& corpus,
                                                uint64_t seed, AdaptationTotals& adapt);

// --------------------------------------------------------------- helpers

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
uint64_t fnv1a(const void* data, size_t bytes, uint64_t hash = kFnvOffset);
template <class T>
uint64_t fnv1a_value(const T& v, uint64_t hash) {
  return fnv1a(&v, sizeof(T), hash);
}
std::string hex64(uint64_t v);

/// The synthetic corpus of the workload's scale, generated from
/// opt.deployment_seed under a corpus.generate span.
ges::corpus::Corpus make_corpus(const Options& opt);

/// Queries with at least one judged-relevant document (the eval harness
/// skips the others too).
std::vector<size_t> judged_queries(const ges::corpus::Corpus& corpus);

double peak_rss_mb();

/// Seed, scale, pool size, core count, build flags and telemetry state.
void record_run_metadata(const Options& opt, Result& result);

int run_fig1_pipeline(const Options& opt, Result& result);
int run_query_stream(const Options& opt, Result& result);
int run_churn_stream(const Options& opt, Result& result);

}  // namespace perfbench
