"""Pure helpers of the harness: the tail-percentile rule, the k-exponent fit,
metric-name rules and the quartile spread used to judge steadiness."""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail(times) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ten ops beyond it.

    Returns ``(value, percentile, ops_beyond)``.  With n sorted times the
    value is the 11th largest, whose nearest-rank percentile is
    100 * (n - 10) / n.  Fewer than 11 ops have no such percentile; the
    maximum is returned with percentile 100 and 0 ops beyond.
    """
    s = sorted(times)
    n = len(s)
    if n == 0:
        raise ValueError("no op times")
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    j = n - TAIL_BEYOND - 1
    return s[j], 100.0 * (j + 1) / n, n - 1 - j


def k_exponent(sizes, times) -> float:
    """Least-squares slope of log(op time) against log(k); 0 when k never varies."""
    if len(set(sizes)) < 2:
        return 0.0
    lx = [math.log(k) for k in sizes]
    ly = [math.log(t) for t in times]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    return sxy / sxx


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
