"""Pure reductions behind perfbench/run.py: percentiles, span self time and
the checks on metric names. Kept free of I/O so perfbench/tests can cover
them directly."""

import math
import re

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def valid_metric_name(name):
    """Names start with a letter or digit: at most 64 of [A-Za-z0-9_.-]."""
    return (
        isinstance(name, str)
        and 0 < len(name) <= 64
        and METRIC_NAME.fullmatch(name) is not None
        and name[0].isalnum()
    )


def valid_unit(unit):
    return isinstance(unit, str) and 0 < len(unit) <= 16 and UNIT.fullmatch(unit) is not None


def median(values):
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail_percentile(n, target=99.0):
    """The highest percentile <= target that leaves at least ten of n samples
    beyond it (nearest-rank), or None when n is too small for any."""
    if n <= 10:
        return None
    return min(target, 100.0 * (n - 10) / n)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of the
    samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    # Round before ceil so p = 100 (n - 10) / n lands exactly on rank n - 10.
    rank = max(1, math.ceil(round(p / 100.0 * len(s), 9)))
    return s[min(rank, len(s)) - 1]


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def index_spans(spans):
    """id -> span and id -> list of child spans."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    return by_id, children


def self_times(spans):
    """id -> self time: the span's duration minus the part of its interval
    that its children cover (children clipped to the parent)."""
    _, children = index_spans(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
            for c in children.get(s["id"], [])
            if c["end_ns"] > s["start_ns"] and c["start_ns"] < s["end_ns"]
        )
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def siblings_overlap(children):
    ordered = sorted((c["start_ns"], c["end_ns"]) for c in children)
    return any(ordered[i + 1][0] < ordered[i][1] for i in range(len(ordered) - 1))


def root_balance(spans, selfs=None):
    """For each root span whose direct children run one after another, the
    root's self time plus its children's durations must equal the root's
    duration. Returns [(root, ok, difference_ns)]; roots whose children
    overlap are skipped."""
    selfs = selfs if selfs is not None else self_times(spans)
    by_id, children = index_spans(spans)
    out = []
    for s in spans:
        if s["parent"] in by_id:
            continue
        kids = children.get(s["id"], [])
        if siblings_overlap(kids):
            continue
        covered = sum(k["end_ns"] - k["start_ns"] for k in kids)
        diff = selfs[s["id"]] + covered - (s["end_ns"] - s["start_ns"])
        out.append((s, diff == 0, diff))
    return out


def subtree(spans, root_id):
    """Every span under root_id (the root excluded)."""
    _, children = index_spans(spans)
    out, stack = [], list(children.get(root_id, []))
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(children.get(s["id"], []))
    return out


def layer_of(name):
    return name.split(".", 1)[0]
