"""File-driven command line front end.

Commands load distribution spec files, run single operations or whole
verification suites, and emit reproducible reports.  Exit codes: 0 success,
1 at least one verification check failed (the report is still printed),
2 usage or input error.

Report bodies are byte-identical across reruns with the same inputs, seeds
and version; the wall-clock duration is printed to stderr only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import replace

from .cdf import level_set, quantile_pair
from .checks import CheckResult, analytic_checks, sklar_checks, stochastic_checks
from .distfile import file_digest, load_distribution
from .errors import StepDistError, ValidationError
from .measure import measure_interval
from .realset import Interval
from .stochastic import SeededStream, sample_inverse, transform_cdf_exact
from .transform import lambda_transform

__all__ = ["main"]

DEFAULT_N = 100_000
DEFAULT_SEED = 42


def _report(args, command: str, start: float, checks: list[CheckResult], seeded: bool = True) -> int:
    """Print the run's report in ``args.format`` and return its exit code: 0 pass, 1 fail."""
    inputs = [{"path": str(p), "sha256": file_digest(p)} for p in args.dist]
    duration_s = time.perf_counter() - start
    passed = all(c.passed for c in checks)
    if args.format == "json":
        body = {
            "command": command,
            "inputs": inputs,
            "result": "pass" if passed else "fail",
            "checks": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "value": c.value,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in checks
            ],
        }
        if seeded:
            body["seed"], body["n"] = args.seed, args.n
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        print(f"command: {command}")
        for item in inputs:
            print(f"input: {item['path']} sha256={item['sha256']}")
        if seeded:
            print(f"seed: {args.seed}")
            print(f"n: {args.n}")
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            print(f"{status} {c.name:<28} value={c.value:.6g} threshold={c.threshold:.6g}{extra}")
        done = sum(1 for c in checks if c.passed)
        print(f"result: {'PASS' if passed else 'FAIL'} ({done}/{len(checks)})")
    print(f"elapsed: {duration_s:.2f}s", file=sys.stderr)
    return 0 if passed else 1


def _emit(fmt: str, pairs: list[tuple[str, object]]):
    if fmt == "json":
        print(json.dumps(dict(pairs), sort_keys=True, indent=2))
    else:
        for key, val in pairs:
            print(f"{key}: {val}")


def _endpoint(text: str, token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"interval {text!r}: {exc}") from exc


def _parse_interval_text(text: str) -> Interval:
    t = "".join(text.split())
    if len(t) >= 3 and t[0] == "{" and t[-1] == "}":
        return Interval.point(_endpoint(text, t[1:-1]))
    if len(t) < 5 or t[0] not in "([" or t[-1] not in ")]":
        raise ValidationError(f"cannot parse interval {text!r}; use forms like (a,b], [a,b), {{a}}")
    inner = t[1:-1].split(",")
    if len(inner) != 2:
        raise ValidationError(f"interval {text!r} needs exactly two endpoints")
    return Interval(_endpoint(text, inner[0]), _endpoint(text, inner[1]), t[0] == "[", t[-1] == "]")


# -- commands -----------------------------------------------------------------


def _load_one(args):
    """The distribution of a command that reads one --dist file; a second one is an error."""
    if len(args.dist) > 1:
        raise ValidationError(f"{args.cmd} takes one --dist file, got {len(args.dist)}")
    return load_distribution(args.dist[0])


def _cmd_eval(args) -> int:
    f = _load_one(args)
    x = args.x
    _emit(args.format, [
        ("value", f.value(x)),
        ("left_value", f.left_value(x)),
        ("jump", f.jump(x)),
    ])
    return 0


def _cmd_level_set(args) -> int:
    """``quantile`` (alias ``levelset``): the quantile pair and the level set."""
    f = _load_one(args)
    lo, hi = quantile_pair(f, args.alpha)
    ls = level_set(f, args.alpha)
    if ls.is_empty():
        case = "empty"
    elif ls.components[0].is_point():
        case = "singleton"
    elif ls.components[0].closed_hi:
        case = "closed"
    else:
        case = "half-open"
    _emit(args.format, [
        ("left_quantile", lo),
        ("right_quantile", hi),
        ("level_set_case", case),
        ("level_set", str(ls)),
    ])
    return 0


def _cmd_transform(args) -> int:
    f = _load_one(args)
    _emit(args.format, [
        ("transform", lambda_transform(f, args.x, args.lam)),
        ("left_value", f.left_value(args.x)),
        ("value", f.value(args.x)),
    ])
    return 0


def _cmd_measure(args) -> int:
    f = _load_one(args)
    iv = _parse_interval_text(args.interval)
    _emit(args.format, [
        ("interval", str(iv)),
        ("mass", measure_interval(f, iv)),
    ])
    return 0


def _cmd_sample(args) -> int:
    f = _load_one(args)
    xs = sample_inverse(f, SeededStream(args.seed, args.stream_id), args.n)
    if args.format == "json":
        print(json.dumps({
            "seed": args.seed,
            "stream_id": args.stream_id,
            "n": args.n,
            "samples": xs.tolist(),
        }, sort_keys=True))
    else:
        for v in xs:
            print(repr(float(v)))
    return 0


def _cmd_transform_cdf(args) -> int:
    f = _load_one(args)
    law = load_distribution(args.law) if args.law else f
    br = transform_cdf_exact(f, law, args.alpha)
    _emit(args.format, [
        ("alpha", args.alpha),
        ("quantile", br.quantile),
        ("atom", br.atom),
        ("left_value", br.left_value),
        ("atom_coef", br.atom_coef),
        ("term_flat", br.term_flat),
        ("term_atom", br.term_atom),
        ("term_left", br.term_left),
        ("total", br.total),
    ])
    return 0


def _cmd_verify(args) -> int:
    start = time.perf_counter()
    dists = [(path, load_distribution(path)) for path in args.dist]
    suites: list[tuple[str, list[CheckResult]]] = []
    for path, f in dists:
        if args.suite in ("analytic", "all"):
            suites.append((str(path), analytic_checks(f)))
        if args.suite in ("stochastic", "all"):
            suites.append((str(path), stochastic_checks(f, args.seed, args.n)))
    if args.suite in ("stochastic", "all"):
        marginals = [f for _, f in dists]
        if len(marginals) == 1:
            marginals = marginals * 2
        for dep in ("independent", "comonotone"):
            suites.append((f"sklar[{dep}]", sklar_checks(marginals, dep, args.n, args.seed)))
    checks = [replace(c, name=f"{tag}:{c.name}") for tag, suite in suites for c in suite]
    return _report(args, "verify", start, checks, seeded=args.suite != "analytic")


def _cmd_copula_check(args) -> int:
    start = time.perf_counter()
    marginals = [load_distribution(path) for path in args.dist]
    if len(marginals) < 2:
        raise ValidationError("copula-check needs at least two --dist files")
    if args.dependence == "countermonotone" and len(marginals) != 2:
        raise ValidationError("countermonotone exists only for exactly 2 marginals")
    axes = None
    if args.grid:
        try:
            axis = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"--grid: {exc}") from exc
        if not axis:
            raise ValidationError("--grid: no values")
        axes = [axis] * len(marginals)
    checks = sklar_checks(marginals, args.dependence, args.n, args.seed, axes=axes)
    return _report(args, "copula-check", start, checks)


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stepdist",
        description="Exact distribution-function library: evaluation, quantiles, "
        "measures, transforms, sampling and copula verification.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, seeded=False):
        p.add_argument("--dist", action="append", required=True, metavar="FILE",
                       help="distribution spec file (repeatable where it makes sense)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if seeded:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--n", type=int, default=DEFAULT_N)

    p = sub.add_parser("eval", help="print F(x), F(x-), and the jump at x")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("quantile", aliases=["levelset"], help="quantiles and level set at a level")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_level_set)

    p = sub.add_parser("transform", help="jump-interpolated evaluation F(x-) + lam*jump(x)")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("measure", help="mass of one interval, e.g. --interval '(0.25,0.5]'")
    common(p)
    p.add_argument("--interval", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("sample", help="inverse-transform samples, one per line")
    common(p, seeded=True)
    p.add_argument("--stream-id", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("transform-cdf", help="exact law of the distributional transform at a level")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--law", metavar="FILE", default=None,
                   help="law of the input variable when it differs from --dist")
    p.set_defaults(func=_cmd_transform_cdf)

    p = sub.add_parser("verify", help="run the verification suites on the given distributions")
    common(p, seeded=True)
    p.add_argument("--suite", choices=("analytic", "stochastic", "all"), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("copula-check", help="extract the empirical copula and test the Sklar identity")
    common(p, seeded=True)
    p.add_argument("--dependence", choices=("independent", "comonotone", "countermonotone"),
                   default="independent")
    p.add_argument("--grid", default=None,
                   help="comma-separated values, in any order, of the axis used for every "
                   "coordinate; the grid is the product of one copy per --dist")
    p.set_defaults(func=_cmd_copula_check)
    return top


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Write ``--opt -V`` as ``--opt=-V`` when V starts with a negative number: argparse
    takes ``-0.5,0,1``, ``-1e-3`` or ``-inf``, which are not plain decimals, for
    options.  Every option here but --help takes a value."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-(\d|\.\d|inf)", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except StepDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
