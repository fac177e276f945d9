// perfbench_harness: runs one benchmark workload against the program's
// public API and writes what it measured as JSON. perfbench/run.py builds
// and drives it; run it directly only to debug a workload:
//
//   perfbench_harness --workload query_stream --seed 1 --seconds 10
//                     --trace 0 --out result.json [--spans-out spans.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "obs/telemetry.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE [--spans-out FILE] [--scale medium|full]\n"
               "       [--setups N]\n"
               "       [--fresh-reference] [--reference-only]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--setups") {
      opt.setups = std::max(1, std::atoi(value().c_str()));
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--spans-out") {
      opt.spans_out = value();
    } else if (arg == "--scale") {
      const std::string s = value();
      if (s == "medium") {
        opt.scale = ges::util::Scale::kMedium;
      } else if (s == "full") {
        opt.scale = ges::util::Scale::kFull;
      } else {
        usage("unknown scale");
      }
    } else if (arg == "--fresh-reference") {
      opt.fresh_reference = true;
    } else if (arg == "--reference-only") {
      opt.reference_only = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.out.empty() && !opt.reference_only) usage("--out is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  // Telemetry counters cost time and are observation-only: keep them off
  // in every measured run, whatever GES_TELEMETRY says.
  ges::obs::global().set_enabled(false);
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: WARNING: harness built without optimisation or with "
               "assertions; its timings are not comparable with a Release build\n");
#endif
  Result result;
  record_run_metadata(opt, result);
  int rc = 0;
  try {
    if (opt.workload == "fig1_pipeline") {
      rc = run_fig1_pipeline(opt, result);
    } else if (opt.workload == "query_stream") {
      rc = run_query_stream(opt, result);
    } else if (opt.workload == "churn_stream") {
      rc = run_churn_stream(opt, result);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload failed: %s\n", e.what());
    return 3;
  }
  if (opt.reference_only) return rc;
  result.values["peak_rss_mb"] = peak_rss_mb();
  result.write_json(opt.out);
  if (!opt.spans_out.empty()) write_spans(opt.spans_out);
  return rc;
}
