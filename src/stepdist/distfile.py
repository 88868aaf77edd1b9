"""Reading distribution spec files.

A spec file is one JSON document::

    {
      "base": 0,
      "breakpoints": [{"x": 0.0, "atom": 0.5}, {"x": 1.0, "atom": 0.5}],
      "segments":    [{"from": 0.0, "to": 0.25, "increase": 0.25}]
    }

``base`` defaults to 0; ``breakpoints`` and ``segments`` default to empty.
Segment endpoints become breakpoints (atom 0) when not already present, and
a segment spanning existing breakpoints has its increase split across the
sub-intervals in proportion to length, preserving the exact total.  Total
mass must equal 1 within 1e-9; accepted inputs are renormalized exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from bisect import bisect_left

from .cdf import Cdf, normalize
from .errors import DegenerateRange, ValidationError
from .monotone import MonotoneStepLinear

__all__ = ["parse_distribution", "load_distribution", "file_digest"]

MASS_TOL = 1e-9


def _number(obj, fieldname: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{fieldname}: expected a number, got {obj!r}")
    try:
        v = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError(f"{fieldname}: must be finite, got an integer beyond the float range") from None
    if math.isnan(v) or math.isinf(v):
        raise ValidationError(f"{fieldname}: must be finite, got {v}")
    return v


def parse_distribution(doc, name: str = "distribution") -> Cdf:
    """Validate a parsed spec document and return the normalized CDF."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: expected an object at the top level")
    unknown = set(doc) - {"base", "breakpoints", "segments"}
    if unknown:
        raise ValidationError(f"{name}: unknown field {sorted(unknown)[0]!r}")
    base = _number(doc.get("base", 0), f"{name}.base")

    bps: dict[float, float] = {}
    raw_bps = doc.get("breakpoints", [])
    if not isinstance(raw_bps, list):
        raise ValidationError(f"{name}.breakpoints: expected a list")
    for i, entry in enumerate(raw_bps):
        where = f"{name}.breakpoints[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        if set(entry) - {"x", "atom"}:
            raise ValidationError(f"{where}: unknown field")
        if "x" not in entry:
            raise ValidationError(f"{where}.x: missing")
        x = _number(entry["x"], f"{where}.x")
        atom = _number(entry.get("atom", 0), f"{where}.atom")
        if atom < 0:
            raise ValidationError(f"{where}.atom: must be >= 0, got {atom}")
        if x in bps:
            raise ValidationError(f"{where}.x: duplicate breakpoint {x}")
        bps[x] = atom

    segs = []
    raw_segs = doc.get("segments", [])
    if not isinstance(raw_segs, list):
        raise ValidationError(f"{name}.segments: expected a list")
    for i, entry in enumerate(raw_segs):
        where = f"{name}.segments[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: expected an object")
        if set(entry) - {"from", "to", "increase"}:
            raise ValidationError(f"{where}: unknown field")
        for key in ("from", "to", "increase"):
            if key not in entry:
                raise ValidationError(f"{where}.{key}: missing")
        lo = _number(entry["from"], f"{where}.from")
        hi = _number(entry["to"], f"{where}.to")
        inc = _number(entry["increase"], f"{where}.increase")
        if not lo < hi:
            raise ValidationError(f"{where}.to: must exceed 'from' ({lo})")
        if inc < 0:
            raise ValidationError(f"{where}.increase: must be >= 0, got {inc}")
        segs.append((lo, hi, inc, where))
        bps.setdefault(lo, 0.0)
        bps.setdefault(hi, 0.0)

    segs.sort()
    for (alo, ahi, _, _), (blo, _, _, where) in zip(segs, segs[1:]):
        if blo < ahi:
            raise ValidationError(f"{where}.from: overlaps the previous segment")

    xs = sorted(bps)
    if not xs:
        raise DegenerateRange(f"{name}: no breakpoints or segments; the function is constant")
    atoms = [bps[x] for x in xs]
    rises = [0.0] * (len(xs) - 1)
    for lo, hi, inc, where in segs:
        i0 = bisect_left(xs, lo)
        i1 = bisect_left(xs, hi)
        span = hi - lo
        placed = 0.0
        for j in range(i0, i1):
            if j == i1 - 1:
                part = inc - placed
            else:
                part = inc * (xs[j + 1] - xs[j]) / span
                placed += part
            if part < 0:  # float crumbs from the proportional split
                if part < -1e-12 * max(inc, 1.0):
                    raise ValidationError(f"{where}.increase: inconsistent split")
                part = 0.0
            rises[j] += part

    g = MonotoneStepLinear(xs=tuple(xs), atoms=tuple(atoms), rises=tuple(rises), base=base)
    span = g.top - g.base
    if span <= 0.0:
        raise DegenerateRange(f"{name}: total mass is 0; the function is constant")
    if abs(span - 1.0) > MASS_TOL:
        raise ValidationError(
            f"{name}: total mass {span!r} differs from 1 by more than {MASS_TOL}"
        )
    return normalize(g)


def _read_int(path, literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # past the int conversion limit, so far past the float range
        digits = len(literal.lstrip("-"))
        raise ValidationError(f"{path}: integer literal of {digits} digits is beyond the float range") from None


def load_distribution(path) -> Cdf:
    """Parse and validate one spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=functools.partial(_read_int, path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # unreadable or not UTF-8
        raise ValidationError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_distribution(doc, name=str(path))


def file_digest(path) -> str:
    """sha256 of the raw file bytes, for reproducible report headers."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
