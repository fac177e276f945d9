"""Tests of the benchmark itself. Run from the repo root:

    python3 -m unittest discover -s perfbench/tests -v

The reference-mismatch test builds the harness (as run.py does) and runs
one short fig1_pipeline pass set, so it takes about half a minute.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import analysis  # noqa: E402


def span(id_, parent, start, end, name="x.y"):
    return {"id": id_, "parent": parent, "query": 0, "name": name,
            "start_ns": start, "end_ns": end}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(5000), 99.0)
        self.assertAlmostEqual(analysis.tail_percentile(999), 100.0 * 989 / 999)
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(20), 50.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(analysis.tail_percentile(10))
        self.assertIsNone(analysis.tail_percentile(0))

    def test_ten_samples_lie_beyond_the_tail(self):
        for n in (11, 37, 100, 270, 999, 1000, 4321):
            values = list(range(1, n + 1))
            cut = analysis.percentile(values, analysis.tail_percentile(n))
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)
            if n < 1000:  # the rule, not the 99 % cap, sets the percentile
                self.assertEqual(sum(v > cut for v in values), 10, n)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(analysis.percentile(values, 50), 3)
        self.assertEqual(analysis.percentile(values, 100), 5)
        self.assertEqual(analysis.percentile(values, 0), 1)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),   # overlaps 2 on [20, 30)
            span(4, 1, 90, 120),  # runs past the parent: clipped to [90, 100)
            span(5, 2, 12, 18),
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs[1], 100 - (40 + 10))
        self.assertEqual(selfs[2], 20 - 6)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 6)

    def test_serial_root_adds_up(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 40), span(3, 1, 40, 90),
                 span(4, 3, 50, 60)]
        ((root, ok, diff),) = analysis.root_balance(spans)
        self.assertEqual(root["id"], 1)
        self.assertTrue(ok)
        self.assertEqual(diff, 0)
        # Self time over the whole serial tree is the root's duration.
        self.assertEqual(sum(analysis.self_times(spans).values()), 100)

    def test_overlapping_children_are_not_balanced(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 1, 50, 90)]
        self.assertEqual(analysis.root_balance(spans), [])

    def test_union_length(self):
        self.assertEqual(analysis.union_length([]), 0)
        self.assertEqual(analysis.union_length([(0, 5), (3, 8), (10, 12)]), 10)
        self.assertEqual(analysis.union_length([(0, 5), (5, 8)]), 8)


class MetricNames(unittest.TestCase):
    def test_regex(self):
        for good in ("setup_s", "ges.adapt.walk_messages", "p2p.events_per_round",
                     "a-b.c_d", "0x"):
            self.assertTrue(analysis.valid_metric_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/name", "ünï", "x" * 65,
                    "semi;colon"):
            self.assertFalse(analysis.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "sim_s"):
            self.assertTrue(analysis.valid_unit(good), good)
        self.assertFalse(analysis.valid_unit("m s"))
        self.assertFalse(analysis.valid_unit("x" * 17))

    def test_benchmark_json_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                names.append(m["name"])
                self.assertTrue(analysis.valid_unit(m["unit"]), m)
        for name in names:
            self.assertTrue(analysis.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class ReferenceMismatch(unittest.TestCase):
    def run_fig1(self, reference):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "fig1_pipeline",
             "--seed", "1", "--seconds", "1", "--trace", "0", "--reference", str(reference)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, json.loads(lines[-1]) if lines else None

    def test_corrupted_reference_fails_the_run(self):
        refs = json.loads((BENCH / "references" / "fig1_pipeline.json").read_text())
        good = refs["checksums"]["1"]
        refs["checksums"]["1"] = ("0" if good[0] != "0" else "1") + good[1:]
        tmp = ROOT / ".bench_build" / "perfbench-test"
        tmp.mkdir(parents=True, exist_ok=True)
        corrupted = tmp / "corrupted_reference.json"
        corrupted.write_text(json.dumps(refs))

        rc, result = self.run_fig1(corrupted)
        self.assertNotEqual(rc, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
