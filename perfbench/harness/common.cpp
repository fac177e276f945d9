#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "corpus/synthetic_corpus.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

namespace {

struct SpanStore {
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> next_id{1};
  std::atomic<uint64_t> next_query{1};
  std::mutex mutex;
  std::vector<SpanRecord> spans;
};

SpanStore& store() {
  static SpanStore s;
  return s;
}

thread_local std::vector<uint64_t> t_open;  // open span ids, innermost last

void push_record(const SpanRecord& r) {
  std::lock_guard lock(store().mutex);
  store().spans.push_back(r);
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

void set_tracing(bool on) { store().enabled = on; }
bool tracing() { return store().enabled.load(std::memory_order_relaxed); }
uint64_t new_query_id() { return store().next_query++; }

uint64_t current_span() { return t_open.empty() ? 0 : t_open.back(); }

Span::Span(const char* name, uint64_t query, uint64_t parent) : name_(name) {
  if (tracing()) {
    id_ = store().next_id++;
    parent_ = parent == kImplicitParent ? current_span() : parent;
    query_ = query;
    t_open.push_back(id_);
  }
  start_ns_ = now_ns();
}

Span::~Span() {
  const int64_t end = now_ns();
  if (id_ == 0) return;
  t_open.pop_back();
  push_record({id_, parent_, query_, name_, start_ns_, end});
}

void record_interval(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t parent, uint64_t query) {
  if (!tracing()) return;
  push_record({store().next_id++, parent, query, name, start_ns, end_ns});
}

void write_spans(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::lock_guard lock(store().mutex);
  os << "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n";
  for (size_t i = 0; i < store().spans.size(); ++i) {
    const auto& s = store().spans[i];
    os << (i == 0 ? "" : ",\n") << "[" << s.id << "," << s.parent << "," << s.query
       << ",\"" << s.name << "\"," << s.start_ns << "," << s.end_ns << "]";
  }
  os << "\n], \"fields\": [\"id\", \"parent\", \"query\", \"name\", \"start_ns\", "
        "\"end_ns\"]}\n";
}

// --------------------------------------------------------------- results

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", name.c_str(),
                        detail.c_str());
}

void Result::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os.precision(17);
  os << "{\n\"schema\": \"perfbench.result.v1\",\n\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    os << (first ? "" : ", ");
    write_json_string(os, k);
    os << ": ";
    write_json_string(os, v);
    first = false;
  }
  os << "},\n\"values\": {";
  first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ", ");
    write_json_string(os, k);
    os << ": " << v;
    first = false;
  }
  os << "},\n\"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    os << (first ? "\n" : ",\n");
    write_json_string(os, k);
    os << ": [";
    for (size_t i = 0; i < vs.size(); ++i) os << (i == 0 ? "" : ", ") << vs[i];
    os << "]";
    first = false;
  }
  os << "},\n\"checks\": [";
  for (size_t i = 0; i < checks.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": ";
    write_json_string(os, checks[i].name);
    os << ", \"ok\": " << (checks[i].ok ? "true" : "false") << ", \"detail\": ";
    write_json_string(os, checks[i].detail);
    os << "}";
  }
  os << "],\n\"attempted\": " << attempted << ",\n\"failed\": " << failed << "\n}\n";
}

void run_passes(const Options& opt, Result& result, size_t min_passes,
                const std::function<double(size_t, bool)>& pass) {
  const int64_t start = now_ns();
  for (size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    set_tracing(traced);
    const double s = pass(i, traced);
    set_tracing(false);
    result.add(traced ? "pass_traced_s" : "pass_s", s);
    const size_t done = i + 1;
    if (done >= min_passes && seconds_between(start, now_ns()) >= opt.seconds) break;
  }
}

void AdaptationTotals::add(const ges::core::AdaptationRoundStats& s, size_t round_count,
                           double alive_node_rounds) {
  rounds += round_count;
  node_rounds += alive_node_rounds;
  walk += static_cast<double>(s.walk_messages);
  handshake += static_cast<double>(s.handshake_messages);
  gossip += static_cast<double>(s.gossip_messages);
  links_changed += static_cast<double>(s.semantic_links_added + s.semantic_links_dropped +
                                       s.random_links_added + s.random_links_dropped +
                                       s.links_reclassified);
}

double AdaptationTotals::messages_per_node_round() const {
  return node_rounds > 0.0 ? (walk + handshake + gossip) / node_rounds : 0.0;
}

void AdaptationTotals::record(Result& result) const {
  const double n = rounds > 0 ? static_cast<double>(rounds) : 1.0;
  result.values["adapt.walk_messages_per_round"] = walk / n;
  result.values["adapt.handshake_messages_per_round"] = handshake / n;
  result.values["adapt.links_changed_per_round"] = links_changed / n;
  result.values["adapt_messages_per_node_round"] = messages_per_node_round();
}

void TraceTotals::add(const ges::p2p::SearchTrace& trace) {
  probes += static_cast<double>(trace.probes());
  bytes += static_cast<double>(trace.bytes_sent);
  walk += static_cast<double>(trace.walk_steps);
  flood += static_cast<double>(trace.flood_messages);
  rel_evals += static_cast<double>(trace.rel_evals);
  rel_hits += static_cast<double>(trace.rel_memo_hits);
}

void TraceTotals::record(Result& result, double n) const {
  n = n > 0.0 ? n : 1.0;
  result.values["probes_per_query"] = probes / n;
  result.values["bytes_per_query"] = bytes / n;
  result.values["walk_steps_per_query"] = walk / n;
  result.values["flood_messages_per_query"] = flood / n;
  result.values["rel_evals_per_query"] = rel_evals / n;
  result.values["rel_memo_hit_ratio"] =
      rel_hits + rel_evals > 0.0 ? rel_hits / (rel_hits + rel_evals) : 0.0;
}

std::unique_ptr<ges::core::GesSystem> build_ges(const ges::corpus::Corpus& corpus,
                                                uint64_t seed, AdaptationTotals& adapt) {
  ges::core::GesBuildConfig config;  // uniform capacities, full node vectors
  config.seed = seed;
  std::unique_ptr<ges::core::GesSystem> ges;
  {
    Span span("p2p.network_build");
    ges = std::make_unique<ges::core::GesSystem>(corpus, config);
  }
  {
    Span span("p2p.bootstrap");
    ges::util::Rng boot(ges::util::derive_seed(config.seed, 12));
    ges::p2p::bootstrap_random_graph(ges->network(), config.bootstrap_avg_degree, boot);
  }
  for (size_t r = 0; r < config.adaptation_rounds; ++r) {
    const size_t alive = ges->network().alive_count();
    ges::core::AdaptationRoundStats stats;
    {
      Span span("ges.adapt_round");
      stats = ges->adaptation().run_round();
    }
    adapt.add(stats, 1, static_cast<double>(alive));
  }
  return ges;
}

// --------------------------------------------------------------- helpers

uint64_t fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

ges::corpus::Corpus make_corpus(const Options& opt) {
  Span span("corpus.generate");
  auto params = ges::corpus::SyntheticCorpusParams::for_scale(opt.scale);
  params.seed = opt.deployment_seed;
  return ges::corpus::generate_synthetic_corpus(params);
}

std::vector<size_t> judged_queries(const ges::corpus::Corpus& corpus) {
  std::vector<size_t> out;
  for (size_t i = 0; i < corpus.queries.size(); ++i) {
    if (!corpus.queries[i].relevant.empty()) out.push_back(i);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void record_run_metadata(const Options& opt, Result& result) {
  auto& m = result.meta;
  m["workload"] = opt.workload;
  m["seed"] = std::to_string(opt.seed);
  m["deployment_seed"] = std::to_string(opt.deployment_seed);
  m["scale"] = ges::util::scale_name(opt.scale);
  m["seconds"] = std::to_string(opt.seconds);
  m["trace"] = opt.trace ? "1" : "0";
  m["pool_threads"] = std::to_string(ges::util::global_pool().size());
  m["nproc"] = std::to_string(std::thread::hardware_concurrency());
  m["online_cpus"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
#ifdef NDEBUG
  m["ndebug"] = "1";
#else
  m["ndebug"] = "0";
#endif
#ifdef __OPTIMIZE__
  m["optimized"] = "1";
#else
  m["optimized"] = "0";
#endif
  m["ges_obs_compiled"] = GES_OBS ? "1" : "0";
  m["ges_obs_enabled"] = ges::obs::enabled() ? "1" : "0";
  m["compiler"] = __VERSION__;
}

}  // namespace perfbench
