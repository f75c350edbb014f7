"""Arithmetic of the benchmark's reductions.

Medians and quartile spreads of samples, nearest-rank percentiles with
the ten-samples-beyond rule, span self time, and the metric-name rule.
"""

import math
import re
import statistics
from collections import defaultdict

# A metric or workload name: a letter or digit, then letters, digits,
# '_', '.' and '-', at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def percentile_rank(n, p):
    """0-based index of the nearest-rank p-th percentile of n samples."""
    if n < 1 or not 0 < p <= 100:
        raise ValueError("percentile_rank needs n >= 1 and 0 < p <= 100")
    return max(0, math.ceil(p * n / 100 - 1e-9) - 1)


def beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - 1 - percentile_rank(n, p)


def percentile(values, p):
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), p)]


def tail_supported(n, p):
    """Whether n samples leave TAIL_BEYOND samples beyond percentile p."""
    return n >= 1 and beyond(n, p) >= TAIL_BEYOND


def self_times(spans):
    """Self time of every span, keyed by id: its duration minus the part
    of its interval that its direct children cover.  Overlapping children
    count once; a child's own children never reach the grandparent."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        pieces = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]])
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
