"""Closed-loop benchmark of stepdist: one client, one process, one thread.

Usage, from the repository root::

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Each run sets up its inputs three times in a row at nine points spread over
the run (``setup_s`` is the median of the 27), runs one untimed warm-up op,
then runs ops back to back for ``--seconds`` seconds, verifying every op's
output between ops and timing the workload's reference kernel between ops
(the ``*_ref`` metrics divide each op time by the mean kernel time just
before and after it).  It prints a table of metrics and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A traced run first repeats the untraced measurement, then
installs the layer wrappers for one traced set-up and a fixed number of
ops, and removes them.  Details, op times and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# the library is imported from this checkout's src, never from elsewhere
sys.path.insert(0, str(SRC))
try:
    import stepdist
except ImportError as exc:
    raise SystemExit(f"cannot import stepdist from {SRC}: {exc}") from exc

if not Path(stepdist.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"stepdist was imported from {stepdist.__file__}, not from {SRC}")

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9
SETUP_REPEATS = 3
DIGEST_OPS = 8
TRACE_OPS = {"verify-exact": 8, "sample-stream": 4, "sklar-copula": 8}

CHECK_FUNCTIONS = {
    "_check_transform_sandwich": "transform_sandwich",
    "_check_quantile_sandwich": "quantile_sandwich",
    "_check_halfline_sets": "halfline_sets",
    "_check_level_set_cases": "level_set_cases",
    "_check_flat_mass": "flat_piece_mass",
    "_check_sublevel_union": "sublevel_union",
    "_check_quantile_ranges": "quantile_range_of_point",
    "_check_jump_gaps": "jump_gap_complement",
    "_check_phi_roundtrip": "jump_gap_roundtrip",
    "_check_null_sets": "null_set_inversion",
    "_check_transform_cdf": "transform_cdf_uniform",
    "_check_uniformity_displays": "uniformity_displays",
    "_check_jump_characterization": "jump_characterization",
    "_check_total_mass": "total_mass_and_df_conditions",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "draws_per_s": "1/s",
    "fail_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "ref_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
}
# every per-layer quantity is per traced op unless its unit says otherwise
PER_LAYER_UNITS = {
    **{f"checks.{c}.self_s": "s/op" for c in CHECK_FUNCTIONS.values()},
    "checks.op_k_exponent": "slope",
    "cdf.calls": "count/op",
    "cdf.self_s": "s/op",
    "cdf.quantile_calls": "count/op",
    "cdf.quantile_distinct_ratio": "ratio",
    "cdf.nudge_evals": "count/op",
    "realset.calls": "count/op",
    "realset.self_s": "s/op",
    "realset.contains_calls": "count/op",
    "measure.calls": "count/op",
    "measure.self_s": "s/op",
    "transform.calls": "count/op",
    "transform.self_s": "s/op",
    "monotone.scalar_eval_calls": "count/op",
    "monotone.scalar_eval_self_s": "s/op",
    "monotone.build_s": "s/call",
    "cdf.normalize_s": "s/call",
    "distfile.parse_s": "s/call",
    "monotone.vector_eval_self_s": "s/op",
    "stochastic.sample_inverse_s": "s/op",
    "stochastic.distributional_transform_s": "s/op",
    "stochastic.ks_uniformity_s": "s/op",
    "stochastic.inversion_check_s": "s/op",
    "stochastic.elements": "count/op",
    "stochastic.bytes_computed": "B/op",
    "copula.sklar_identity_check_s": "s/op",
    "copula.dt_copula_s": "s/op",
    "copula.generate_joint_sample_s": "s/op",
    "copula.empirical_joint_cdf_calls": "count/op",
    "copula.copula_eval_calls": "count/op",
    "copula.rows_scanned": "count/op",
    "stochastic.ks_rejections": "count",
    "trace.overhead_ratio": "ratio",
}
SCALAR_EVAL = ("value", "left_value", "jump")
VECTOR_EVAL = ("values", "left_values", "jumps")


class Tally:
    """Ops attempted and failed, the reasons, and KS rejections (not failures)."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: list[str] = []
        self.ks_rejections = 0

    def fail(self, i: int, reason: str):
        self.failed_ops.add(i)
        if len(self.reasons) < 20:
            self.reasons.append(f"op {i}: {reason}")


def run_ops(work, first: int, stop, tally, digest=None, tracer=None, reference=None):
    """Run ops first, first+1, ... until ``stop(count, elapsed)``; return op times.

    With ``reference`` (a kernel and a list), the kernel is timed before
    every op and once after the last, and its times are appended to the
    list, so that each op lies between two kernel timings.
    """
    times = []
    t_start = time.perf_counter()
    i = first
    while not times or not stop(len(times), time.perf_counter() - t_start):
        if reference is not None:
            kernel, ref_times = reference
            t0 = time.perf_counter()
            kernel()
            ref_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.begin("ops")
            tracer.begin_op(i)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = work.run_op(i)
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            times.append(time.perf_counter() - t0)
            tally.fail(i, f"raised {type(exc).__name__}: {exc}")
        else:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.begin("verify")
            chunks = work.verify(i, out, tally)
            if digest is not None:
                digest.add(i, chunks)
        i += 1
    if reference is not None:
        kernel, ref_times = reference
        t0 = time.perf_counter()
        kernel()
        ref_times.append(time.perf_counter() - t0)
    return times


def local_ratios(times, ref_times) -> list[float]:
    """Each op time over the mean of the kernel times just before and after it.

    The machine's speed drifts within a run as well as between runs, so an
    op is compared with the kernel timed next to it, not with a run-wide
    figure; ``ref_times`` has one more entry than ``times``.
    """
    if len(ref_times) != len(times) + 1:
        raise ValueError("need one kernel time before every op and one after the last")
    return [2.0 * t / (a + b) for t, a, b in zip(times, ref_times, ref_times[1:])]


def end_to_end(work, setup_times, times, ratios, ref_times, tally) -> tuple[dict, dict]:
    tail_value, tail_pct, beyond = metrics.tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "draws_per_s": (
            workloads.SAMPLE_N / statistics.median(work.sample_s)
            if getattr(work, "sample_s", None)
            else 0.0
        ),
        "fail_ratio": len(tally.failed_ops) / tally.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_s": statistics.median(ref_times),
        "ops_per_ref": len(ratios) / sum(ratios),
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": metrics.tail(ratios)[0],
    }
    details = {
        "ops": len(times),
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": beyond,
        "setup_runs": setup_times,
    }
    return values, details


def per_layer(tracer, n_ops, untraced, traced, sizes, tally) -> dict:
    ops = tracer.stats_by_phase["ops"]
    counters = tracer.counters_by_phase["ops"]
    both = {}
    for phase in ("setup", "ops"):
        for name, row in tracer.stats_by_phase[phase].items():
            acc = both.setdefault(name, [0, 0.0, 0.0])
            for c in range(3):
                acc[c] += row[c]

    def row(name):
        return ops.get(name, (0, 0.0, 0.0))

    def layer(prefix, col):
        return sum(r[col] for name, r in ops.items() if name.startswith(prefix + "."))

    def per_call(name):
        calls, total, _ = both.get(name, (0, 0.0, 0.0))
        return total / calls if calls else 0.0

    def per_op(v):
        return v / n_ops

    mono = "monotone.MonotoneStepLinear."
    quantile_calls = sum(row(f"cdf._{s}_quantile_unchecked")[0] for s in ("left", "right"))
    common = min(len(untraced), len(traced))
    m = {f"checks.{c}.self_s": per_op(row(f"checks.{fn}")[2]) for fn, c in CHECK_FUNCTIONS.items()}
    m["checks.op_k_exponent"] = metrics.k_exponent(sizes, untraced)
    for lay in ("cdf", "realset", "measure", "transform"):
        m[f"{lay}.calls"] = per_op(layer(lay, 0))
        m[f"{lay}.self_s"] = per_op(layer(lay, 2))
    m["cdf.quantile_calls"] = per_op(quantile_calls)
    m["cdf.quantile_distinct_ratio"] = (
        counters["quantile_distinct"] / quantile_calls if quantile_calls else 0.0
    )
    m["realset.contains_calls"] = per_op(row("realset.RealSet.contains")[0])
    m["monotone.scalar_eval_calls"] = per_op(sum(row(mono + n)[0] for n in SCALAR_EVAL))
    m["monotone.scalar_eval_self_s"] = per_op(sum(row(mono + n)[2] for n in SCALAR_EVAL))
    m["monotone.vector_eval_self_s"] = per_op(sum(row(mono + n)[2] for n in VECTOR_EVAL))
    m["cdf.nudge_evals"] = per_op(counters["cdf.nudge_evals"])
    m["monotone.build_s"] = per_call(mono + "__post_init__")
    m["cdf.normalize_s"] = per_call("cdf.normalize")
    m["distfile.parse_s"] = per_call("distfile.parse_distribution")
    for fn in ("sample_inverse", "distributional_transform", "ks_uniformity", "inversion_check"):
        m[f"stochastic.{fn}_s"] = per_op(row(f"stochastic.{fn}")[1])
    m["stochastic.elements"] = per_op(counters["stochastic.elements"])
    m["stochastic.bytes_computed"] = per_op(counters["stochastic.bytes_computed"])
    for fn in ("sklar_identity_check", "dt_copula", "generate_joint_sample"):
        m[f"copula.{fn}_s"] = per_op(row(f"copula.{fn}")[1])
    m["copula.empirical_joint_cdf_calls"] = per_op(row("copula.empirical_joint_cdf")[0])
    m["copula.copula_eval_calls"] = per_op(row("copula.copula_eval")[0])
    m["copula.rows_scanned"] = per_op(counters["copula.rows_scanned"])
    m["stochastic.ks_rejections"] = float(tally.ks_rejections)
    m["trace.overhead_ratio"] = sum(traced[:common]) / sum(untraced[:common])
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    cls = workloads.WORKLOADS[name]

    def timed_setup():
        for _ in range(SETUP_REPEATS):
            fresh = cls(seed)
            t0 = time.perf_counter()
            fresh.setup()
            setup_times.append(time.perf_counter() - t0)
        return fresh

    # the set-ups are spread over the run, so that their median samples the
    # machine's speed over the whole run rather than in one short moment
    setup_times: list[float] = []
    work = timed_setup()
    tally = Tally()
    work.run_op(0)  # warm-up, untimed and unverified
    if hasattr(work, "sample_s"):
        work.sample_s.clear()
    gc.collect()
    digest = workloads.Digest(DIGEST_OPS)
    # a traced run spends half its time untraced, for the overhead ratio and k slope
    untraced_s = seconds / 2 if trace else seconds
    chunk_s = untraced_s / (SETUPS - 1)
    times: list[float] = []
    ratios: list[float] = []
    all_ref_times: list[float] = []
    kernel = cls.reference()
    measured_s = 0.0
    for j in range(SETUPS - 1):
        # each chunk ends at its share of the whole measured time, so that
        # the op a chunk ends on does not lengthen the run once per chunk
        budget = (j + 1) * chunk_s - measured_s
        ref_times: list[float] = []
        t0 = time.perf_counter()
        chunk = run_ops(
            work, len(times), lambda n, elapsed: elapsed >= budget, tally, digest,
            reference=(kernel, ref_times),
        )
        measured_s += time.perf_counter() - t0
        times += chunk
        ratios += local_ratios(chunk, ref_times)
        all_ref_times += ref_times
        timed_setup()
    sizes = [work.op_size(i) for i in range(len(times))]
    values, details = end_to_end(work, setup_times, times, ratios, all_ref_times, tally)
    details.update(
        {
            "workload": name,
            "seed": seed,
            "measured_s": measured_s,
            "params": cls.params,
            "op_shape": cls.op_shape,
            "digest": digest.hexdigest(),
            "digest_ops": digest.ops,
            "ks_rejections": tally.ks_rejections,
            "op_times": times,
            "op_ref_ratios": ratios,
            "ref_times": all_ref_times,
            "op_sizes": sizes,
        }
    )

    layer_values = None
    if trace:
        tracer = tracing.Tracer()
        traced_ops = TRACE_OPS[name]
        with tracer:
            traced_work = cls(seed)
            traced_work.setup()
            traced = run_ops(traced_work, 0, lambda n, _: n >= traced_ops, tally, tracer=tracer)
            tracer.finish()
        unknown = {
            n: c for n, c in tracer.check_names.items()
            if CHECK_FUNCTIONS.get(n.partition(".")[2]) != c
        }
        if unknown:
            raise SystemExit(f"check functions and result names disagree: {unknown}")
        layer_values = per_layer(tracer, len(traced), times, traced, sizes, tally)
        details["traced_op_times"] = traced
        spans_path = out_dir / f"{name}-seed{seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write('["span_id", "name", "start_s", "end_s", "parent_span_id", "op (-1: set-up)"]\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["spans"] = len(tracer.spans)

    return {
        "end_to_end": values,
        "per_layer": layer_values,
        "details": details,
        "tally": tally,
    }


def print_table(res: dict):
    d = res["details"]
    print(f"== {d['workload']}  seed {d['seed']}  {d['ops']} untraced ops in {d['measured_s']:.1f} s")
    for key, value in res["end_to_end"].items():
        note = ""
        if key == "op_tail_s":
            note = f"  (p{d['op_tail_percentile']:.1f}, {d['op_tail_ops_beyond']} ops beyond, {d['ops']} ops)"
        if key == "draws_per_s" and d["workload"] != "sample-stream":
            note = "  (this workload draws no samples through sample_inverse)"
        print(f"  {key:<14} {value:>14.6g} {END_TO_END_UNITS[key]:<6}{note}")
    print(f"  digest of the first {d['digest_ops']} ops: {d['digest']}")
    print(f"  KS rejections (1% test, not failures): {d['ks_rejections']}")
    if res["per_layer"] is not None:
        for key, value in res["per_layer"].items():
            print(f"  {key:<44} {value:>14.6g} {PER_LAYER_UNITS[key]}")
    for reason in res["tally"].reasons:
        print(f"  FAILED {reason}")


def emit(listed, values, units) -> dict:
    out = {}
    for entry in listed:
        name = entry["name"]
        if name not in values:
            raise SystemExit(f"BENCHMARK.json lists {name}, which the harness does not compute")
        if not (metrics.valid_name(name) and metrics.valid_unit(units[name])):
            raise SystemExit(f"invalid metric name or unit: {name} [{units[name]}]")
        out[name] = {"value": values[name], "unit": units[name]}
    return out


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must lie in [0, 2**32)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)

    chosen = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), out_dir)
        print_table(res)
        tally = res["tally"]
        if args.trace:
            metrics_out = emit(spec["per_layer"], res["per_layer"], PER_LAYER_UNITS)
        else:
            metrics_out = emit(spec["end_to_end"], res["end_to_end"], END_TO_END_UNITS)
        record = {
            "correct": not tally.failed_ops,
            "attempted": tally.attempted,
            "failed": len(tally.failed_ops),
            "metrics": metrics_out,
        }
        detail_path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        details = {**res["details"], "end_to_end": res["end_to_end"], "per_layer": res["per_layer"]}
        detail_path.write_text(json.dumps({**record, "details": details}, indent=1), encoding="utf-8")
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        if len(chosen) == 1:
            summary["metrics"] = metrics_out
        else:
            summary["metrics"].update({f"{name}.{k}": v for k, v in metrics_out.items()})
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
