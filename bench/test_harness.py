"""Self-tests of the benchmark harness: ``python3 -m pytest bench -q``."""

import json
import re

import pytest

import run  # puts the checkout's src first on sys.path
import metrics
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "n, index, percentile, beyond",
    [(100, 89, 90.0, 10), (50, 39, 80.0, 10), (11, 0, 100.0 / 11, 10), (1000, 989, 99.0, 10)],
)
def test_tail_is_highest_percentile_with_ten_ops_beyond(n, index, percentile, beyond):
    times = [float(t) for t in range(n)][::-1]
    value, pct, ops_beyond = metrics.tail(times)
    assert value == float(index)
    assert pct == pytest.approx(percentile)
    assert ops_beyond == beyond
    assert sum(t > value for t in times) == beyond


def test_tail_with_too_few_ops_is_the_maximum():
    assert metrics.tail([0.3, 0.1, 0.2]) == (0.3, 100.0, 0)


def test_local_ratios_use_the_kernel_times_on_both_sides():
    assert run.local_ratios([1.0, 3.0], [0.5, 1.5, 1.5]) == [1.0, 2.0]
    with pytest.raises(ValueError):
        run.local_ratios([1.0, 3.0], [0.5, 1.5])


def test_k_exponent_recovers_power_law():
    sizes = [8, 16, 32, 50]
    assert metrics.k_exponent(sizes, [3e-4 * k**2 for k in sizes]) == pytest.approx(2.0)
    assert metrics.k_exponent([20, 20], [0.1, 0.2]) == 0.0


def test_spread_is_interquartile_share_of_median():
    assert metrics.spread([1.0] * 10) == 0.0
    assert metrics.spread(list(range(1, 11))) == pytest.approx((8.25 - 2.75) / 5.5)


def test_metric_names_and_units_are_valid():
    assert metrics.valid_name("checks.halfline_sets.self_s")
    for bad in ("", "a b", "x/y", ".lead", "a" * 65, "cdf:calls"):
        assert not metrics.valid_name(bad)
    entries = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", e["name"]), e
        assert metrics.valid_name(e["name"]) and metrics.valid_unit(e["unit"]), e
        assert e["better"] in ("lower", "higher")


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for e in SPEC["end_to_end"]:
        assert run.END_TO_END_UNITS[e["name"]] == e["unit"]
        assert 0 < e["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert {e["name"]: e["unit"] for e in SPEC["per_layer"]} == run.PER_LAYER_UNITS


def test_inputs_depend_only_on_the_seed():
    assert workloads.mixed_spec(5, 3) == workloads.mixed_spec(5, 3)
    assert workloads.mixed_spec(5, 3) != workloads.mixed_spec(6, 3)
    assert workloads.stream_arrays(5, 0) == workloads.stream_arrays(5, 0)
    ks = [workloads.verify_shape(i)[0] for i in range(64)]
    assert min(ks) == workloads.VERIFY_K_MIN and max(ks) == workloads.VERIFY_K_MAX


def _digest(cls, seed, ops, tracer=None):
    work = cls(seed)
    work.setup()
    tally = run.Tally()
    digest = workloads.Digest(ops)
    run.run_ops(work, 0, lambda n, _: n >= ops, tally, digest, tracer)
    assert not tally.failed_ops, tally.reasons
    return digest.hexdigest()


def test_digest_is_stable_and_seed_dependent():
    cls = workloads.SklarCopula
    assert _digest(cls, 11, 2) == _digest(cls, 11, 2)
    assert _digest(cls, 11, 2) != _digest(cls, 12, 2)


def _bindings():
    out = {}
    for mod in (tracing.stepdist, *tracing.LAYERS.values()):
        out.update({(mod.__name__, k): v for k, v in vars(mod).items() if callable(v)})
    for cls in tracing.CLASSES:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracing_is_removed_and_changes_no_output():
    before = _bindings()
    plain = _digest(workloads.VerifyExact, 4, 1)
    tracer = tracing.Tracer()
    with tracer:
        assert _bindings() != before
        traced = _digest(workloads.VerifyExact, 4, 1, tracer)
    assert _bindings() == before
    assert traced == plain
    assert set(tracer.check_names.values()) == set(run.CHECK_FUNCTIONS.values())
    for fn, name in tracer.check_names.items():
        assert run.CHECK_FUNCTIONS[fn.partition(".")[2]] == name
    # set-up spans carry op id -1
    assert {span[5] for span in tracer.spans} == {-1, 0}
