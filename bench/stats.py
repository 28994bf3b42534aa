"""Summary statistics for the benchmark: task percentiles, error counts, span self time.

Pure functions over plain numbers and lists, so they can be tested without
importing rotosense.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

# The tail percentile is the highest one with at least this many samples above it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with `beyond` samples above it.

    With n sorted samples the value is the (n - beyond)-th smallest, so
    exactly `beyond` samples lie above its rank; it is the
    100 * (n - beyond) / n percentile.  Needs at least beyond + 1 samples.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail percentile, got {n}")
    ordered = sorted(samples)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def count_errors(outcomes: Iterable[Mapping]) -> Dict[str, float]:
    """Attempted, failed and unexpected failures over task outcomes.

    Every outcome is one attempted task.  A task fails when it raised or when
    one of its answer checks failed (`ok` false).  A failure is unexpected
    unless it is flagged as a documented known defect.
    """
    attempted = failed = unexpected = 0
    for outcome in outcomes:
        attempted += 1
        if not outcome["ok"]:
            failed += 1
            if not outcome.get("known_defect", False):
                unexpected += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "error_rate": failed / attempted if attempted else 0.0,
    }


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the part its children cover.

    A span is (name, task, parent, start, end, ...); `parent` is the index of
    the enclosing span in `spans`, or -1.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[2]
        if parent >= 0:
            children.setdefault(parent, []).append((span[3], span[4]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[3], span[4]
        out.append((end - start) - _covered(children.get(i, []), start, end))
    return out


def outermost(spans: Sequence[Sequence]) -> List[bool]:
    """For each span, whether no enclosing span carries the same name."""
    flags = []
    for span in spans:
        parent = span[2]
        nested = False
        while parent >= 0:
            if spans[parent][0] == span[0]:
                nested = True
                break
            parent = spans[parent][2]
        flags.append(not nested)
    return flags


def module_of(span_name: str) -> str:
    """Layer of a span named '<module>.<function>'."""
    return span_name.split(".", 1)[0]


def summarize_spans(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds (outermost calls only), self seconds, failures."""
    selfs = self_times(spans)
    top = outermost(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span, own, is_top in zip(spans, selfs, top):
        entry = out.setdefault(span[0], {"calls": 0, "seconds": 0.0, "self_s": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        if is_top:
            entry["seconds"] += span[4] - span[3]
        if len(span) > 5 and span[5]:
            entry["failed"] += 1
    return out


def module_self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time summed per layer (the part of each span name before the first dot)."""
    out: Dict[str, float] = {}
    for name, entry in summarize_spans(spans).items():
        out[module_of(name)] = out.get(module_of(name), 0.0) + entry["self_s"]
    return out

