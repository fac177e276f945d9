#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_harness from source, runs one
workload, checks its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload query_stream --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list; with --trace 1 its per_layer list, reduced from spans the
harness records around each call into a layer. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

WORKLOADS = ("fig1_pipeline", "query_stream", "churn_stream")
REFERENCES = HERE / "references" / "fig1_pipeline.json"
FIRST_BUILD_BUDGET_S = 880
RUN_BUDGET_S = 175

# An untraced run is several short harness processes, each given an equal
# share of --seconds and one set-up. A process keeps its main thread on one
# CPU and one memory layout for its whole life, and on a shared host that
# alone moved query-path medians by up to 2x between otherwise identical
# processes. Samples are pooled over the processes before taking medians
# and percentiles. A traced run is one process with three set-ups.
PROCESSES = {"fig1_pipeline": 3, "query_stream": 7, "churn_stream": 3}
# Values every process must reproduce exactly (same seed, same inputs).
DETERMINISTIC = ("served_recall", "probes_per_query", "bytes_per_query",
                 "adapt_messages_per_node_round")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configure (once) and build the harness; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "perfbench_harness",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    harness = out_dir / "perfbench_harness"
    return harness if harness.exists() else None


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the program's sources, to tie a result to its code when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_spans(path):
    raw = json.loads(Path(path).read_text())
    fields = raw["fields"]
    return [dict(zip(fields, row)) for row in raw["spans"]]


# ------------------------------------------------------------ end to end

def end_to_end_metrics(runs):
    """Metrics of an untraced run, from samples pooled over its processes."""
    def pooled(key):
        return [x for r in runs for x in r["samples"].get(key, [])]

    lat = pooled("query_us")
    wall = sum(r["values"].get("query_wall_s", 0.0) for r in runs)
    p_tail = analysis.tail_percentile(len(lat))
    if p_tail is None or wall <= 0.0:
        raise RuntimeError(f"too few timed queries ({len(lat)}) for latency percentiles")
    meta, v = runs[0]["meta"], runs[0]["values"]
    meta["query_samples"] = str(len(lat))
    meta["query_tail_percentile"] = f"{p_tail:.4g}"
    return {
        "setup_s": (analysis.median(pooled("setup_s")), "s"),
        "pipeline_s": (analysis.median(pooled("pass_s")), "s"),
        "queries_per_s": (len(lat) / wall, "1/s"),
        "query_p50_us": (analysis.percentile(lat, 50.0), "us"),
        "query_p99_us": (analysis.percentile(lat, p_tail), "us"),
        "peak_rss_mb": (analysis.median([r["values"]["peak_rss_mb"] for r in runs]), "MB"),
        "served_recall": (v["served_recall"], "ratio"),
        "probes_per_query": (v["probes_per_query"], "count"),
        "bytes_per_query": (v["bytes_per_query"], "bytes"),
        "adapt_messages_per_node_round": (v["adapt_messages_per_node_round"], "count"),
    }


# ------------------------------------------------------------- per layer

def span_table(spans):
    """Self and inclusive time per span name over the traced pass roots, as
    shares of those roots' total duration."""
    selfs = analysis.self_times(spans)
    roots = [s for s in spans if s["name"] == "perfbench.pass" and s["parent"] == 0]
    total = sum(r["end_ns"] - r["start_ns"] for r in roots) or 1
    table = {}
    for r in roots:
        for s in [r] + analysis.subtree(spans, r["id"]):
            row = table.setdefault(s["name"], {"calls": 0, "self_ns": 0, "incl_ns": 0})
            row["calls"] += 1
            row["self_ns"] += selfs[s["id"]]
            row["incl_ns"] += s["end_ns"] - s["start_ns"]
    for name, row in table.items():
        row["self_share"] = row["self_ns"] / total
        row["incl_share"] = row["incl_ns"] / total
        # Wall time covered by this span kind. Spans on pool threads overlap,
        # so their summed self time can exceed the wall time they cover.
        row["wall_share"] = analysis.union_length(
            (s["start_ns"], s["end_ns"]) for r in roots
            for s in [r] + analysis.subtree(spans, r["id"]) if s["name"] == name) / total
    return table, total


def per_root_sum(spans, name):
    """Median over roots (traced passes if the span occurs there, else
    set-ups) of the summed inclusive seconds of `name` under each root."""
    for root_name in ("perfbench.pass", "perfbench.setup"):
        sums = []
        for r in (s for s in spans if s["name"] == root_name and s["parent"] == 0):
            under = [x for x in analysis.subtree(spans, r["id"]) if x["name"] == name]
            if under:
                sums.append(sum(x["end_ns"] - x["start_ns"] for x in under) * 1e-9)
        if sums:
            return analysis.median(sums)
    return 0.0


def durations(spans, name):
    """Inclusive durations (ns) of every `name` span, from traced passes when
    the span occurs there, else from the set-ups."""
    by_id = {s["id"]: s for s in spans}

    def root_of(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["name"]

    found = [s for s in spans if s["name"] == name]
    in_pass = [s for s in found if root_of(s) == "perfbench.pass"]
    chosen = in_pass or found
    return [s["end_ns"] - s["start_ns"] for s in chosen]


def per_layer_metrics(res, spans):
    v, s = res["values"], res["samples"]
    selfs = analysis.self_times(spans)
    table, _ = span_table(spans)

    def med(values, scale):
        return analysis.median(values) * scale if values else 0.0

    def share(name):
        # Calls that only some workloads make are reported as their share of
        # the traced passes, so the workloads without them read a plain 0.
        return table[name]["incl_share"] if name in table else 0.0

    rounds_ns = durations(spans, "ges.adapt_round")
    search_name = "ges.search" if any(x["name"] == "ges.search" for x in spans) \
        else "ges.async_query"
    search_self = [selfs[x["id"]] for x in spans if x["name"] == search_name]
    untraced = s.get("pass_s", [])
    traced = s.get("pass_traced_s", [])
    attempted = max(res["attempted"], 1)
    m = {
        "corpus.generate_s": (med(durations(spans, "corpus.generate"), 1e-9), "s"),
        "p2p.network_build_s": (per_root_sum(spans, "p2p.network_build"), "s"),
        "p2p.bootstrap_s": (per_root_sum(spans, "p2p.bootstrap"), "s"),
        "p2p.events_per_round": (
            analysis.median(s["events_per_round"]) if s.get("events_per_round") else 0.0,
            "count"),
        "ges.adapt_round_ms_p50": (med(rounds_ns, 1e-6), "ms"),
        "ges.adapt_round_ms_max": (max(rounds_ns) * 1e-6 if rounds_ns else 0.0, "ms"),
        "ges.adapt_total_s": (per_root_sum(spans, "ges.adapt_round"), "s"),
        "ges.adapt.walk_messages": (v.get("adapt.walk_messages_per_round", 0.0), "count"),
        "ges.adapt.handshake_messages": (
            v.get("adapt.handshake_messages_per_round", 0.0), "count"),
        "ges.adapt.links_changed": (v.get("adapt.links_changed_per_round", 0.0), "count"),
        "ges.search_us": (med(search_self, 1e-3), "us"),
        "ges.walk_steps_per_query": (v.get("walk_steps_per_query", 0.0), "count"),
        "ges.flood_messages_per_query": (v.get("flood_messages_per_query", 0.0), "count"),
        "ges.rel_evals_per_query": (v.get("rel_evals_per_query", 0.0), "count"),
        "ges.rel_memo_hit_ratio": (v.get("rel_memo_hit_ratio", 0.0), "ratio"),
        "ges.async_batch_share": (share("ges.async_batch"), "ratio"),
        "ges.async_events_per_query": (v.get("async_events_per_query", 0.0), "count"),
        "ges.cache_probe_hit_ratio": (v.get("cache_probe_hit_ratio", 0.0), "ratio"),
        "ges.cache_invalidations": (v.get("cache_invalidations", 0.0), "count"),
        "ges.cache_hit_ratio": (v.get("cache_hit_ratio", 0.0), "ratio"),
        "ges.first_hit_p50_sim_s": (
            analysis.percentile(s["first_hit_sim_s"], 50.0)
            if s.get("first_hit_sim_s") else 0.0, "sim_s"),
        "baselines.sets_build_share": (share("baselines.sets_build"), "ratio"),
        "baselines.sets_eval_share": (share("baselines.sets_eval"), "ratio"),
        "baselines.random_eval_share": (share("baselines.random_eval"), "ratio"),
        "baselines.sets_recall_at_30pct": (v.get("sets_recall_at_30pct", 0.0), "ratio"),
        "eval.ges_curve_share": (share("eval.ges_curve"), "ratio"),
        "obs.trace_overhead_ratio": (
            analysis.median(traced) / analysis.median(untraced)
            if traced and untraced else 0.0, "ratio"),
        "query_fail_ratio": ((res["failed"] + v.get("misses", 0.0)) / attempted, "ratio"),
    }
    for layer in ("corpus", "p2p", "ges", "baselines", "eval", "perfbench"):
        share = sum(row["self_share"] for name, row in table.items()
                    if analysis.layer_of(name) == layer)
        m[f"{layer}.self_share"] = (share, "ratio")
    return m


# ---------------------------------------------------------------- checks

def reference_for(seed, path, scale):
    refs = json.loads(Path(path).read_text())
    if refs.get("scale") != scale:
        return None
    return refs.get("checksums", {}).get(str(seed))


def gather_checks(runs, rcs, args):
    """(name, ok, detail) for every output check of the run's processes."""
    res = runs[0]
    checks = [(c["name"], c["ok"], c["detail"]) for r in runs for c in r["checks"]]
    checks.append(("harness.exit_code", all(rc == 0 for rc in rcs), f"exit codes {rcs}"))
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    checks.append(("requests.failed", failed == 0, f"{failed} of {attempted} failed"))
    for key in DETERMINISTIC:
        seen = {repr(r["values"].get(key)) for r in runs}
        checks.append((f"processes_agree.{key}", len(seen) == 1, f"values {sorted(seen)}"))
    if args.workload == "fig1_pipeline":
        got = res["meta"].get("curve_checksum")
        want = reference_for(args.seed, args.reference, args.scale)
        source = "committed reference"
        if want is None:
            want = res["meta"].get("fresh_reference_checksum")
            source = "GesSystem::build() run (no committed reference for this seed)"
        checks.append(("fig1.reference_checksum", got is not None and got == want,
                       f"curves {got} vs {source} {want}"))
    return checks


def run_harness(harness, args, out_dir, deadline, index, processes):
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-p{index}"
    result_path = out_dir / f"{tag}.result.json"
    spans_path = out_dir / f"{tag}.spans.json"
    for p in (result_path, spans_path):
        if p.exists():
            p.unlink()
    setups = 3 if args.trace else 1
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / processes), "--trace", str(args.trace),
           "--setups", str(setups), "--scale", args.scale, "--out", str(result_path)]
    if args.trace:
        cmd += ["--spans-out", str(spans_path)]
    if (index == 0 and args.workload == "fig1_pipeline"
            and reference_for(args.seed, args.reference, args.scale) is None):
        cmd.append("--fresh-reference")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("harness ran past its time budget")
        return None, None, -1
    if not result_path.exists():
        return None, None, rc
    res = json.loads(result_path.read_text())
    spans = load_spans(spans_path) if args.trace and spans_path.exists() else []
    return res, spans, rc


def print_report(args, runs, metrics, checks, spans):
    res = runs[0]
    meta = res["meta"]
    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={meta.get('scale')} ==")
    keys = ("git_revision", "source_digest", "pool_threads", "nproc", "online_cpus",
            "ndebug", "optimized", "ges_obs_compiled", "ges_obs_enabled", "nodes", "docs",
            "queries", "probe_budget", "query_samples", "query_tail_percentile",
            "curve_checksum", "pass_digest", "alive_at_end")
    print("run: " + ", ".join(f"{k}={meta[k]}" for k in keys if k in meta))
    def count(key):
        return "+".join(str(len(r["samples"].get(key, []))) for r in runs)
    print(f"processes={len(runs)} samples: setup={count('setup_s')} passes={count('pass_s')} "
          f"traced_passes={count('pass_traced_s')} queries={count('query_us')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if spans:
        table, total = span_table(spans)
        print(f"self time over traced passes ({total * 1e-9:.3f} s):")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
            print(f"  {name:28s} calls={row['calls']:7d} self={row['self_ns'] * 1e-9:9.4f}s "
                  f"({100 * row['self_share']:5.1f}%) incl={100 * row['incl_share']:5.1f}% "
                  f"wall={100 * row['wall_share']:5.1f}%")
        bal = analysis.root_balance(spans)
        bad = [b for b in bal if not b[1]]
        print(f"root balance: {len(bal) - len(bad)} of {len(bal)} serial roots add up")
    for name, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("medium", "full"), default="medium")
    ap.add_argument("--reference", default=str(REFERENCES),
                    help="fig1_pipeline per-seed curve checksums")
    args = ap.parse_args(argv)

    start = time.monotonic()
    out_dir = build_dir()
    first_build = not (out_dir / "perfbench_harness").exists()
    harness = build(out_dir)
    if harness is None:
        return 2
    budget = FIRST_BUILD_BUDGET_S if first_build else RUN_BUDGET_S
    processes = 1 if args.trace else PROCESSES[args.workload]
    runs, rcs, spans = [], [], []
    for i in range(processes):
        res, spans, rc = run_harness(harness, args, out_dir / "out", start + budget, i,
                                     processes)
        if res is None:
            log(f"harness produced no result (exit code {rc})")
            return 3
        runs.append(res)
        rcs.append(rc)
    res = runs[0]
    res["meta"]["processes"] = str(processes)
    res["meta"]["git_revision"] = git_revision()
    res["meta"]["source_digest"] = source_digest()
    if res["meta"].get("optimized") != "1" or res["meta"].get("ndebug") != "1":
        log("WARNING: non-optimised build; these numbers are not comparable "
            "with a Release build")

    checks = gather_checks(runs, rcs, args)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # A failed run-level check (curves, invariants, determinism) voids every
    # query of the run; request-level failures are already counted.
    if any(not ok for name, ok, _ in checks
           if name != "requests.failed" and not name.startswith("request.")):
        failed = max(failed, attempted)
    res["failed"] = failed
    metrics = per_layer_metrics(res, spans) if args.trace else end_to_end_metrics(runs)
    bad_names = [n for n in metrics if not analysis.valid_metric_name(n)]
    checks.append(("metric_names", not bad_names, f"invalid names {bad_names}"))
    correct = all(ok for _, ok, _ in checks)
    print_report(args, runs, metrics, checks, spans)

    record = {"meta": res["meta"], "checks": checks,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / "out" / f"{tag}.metrics.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
