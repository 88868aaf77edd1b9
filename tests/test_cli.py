import json

import pytest

from stepdist.cli import main

BERNOULLI = """
{"breakpoints": [{"x": 0.0, "atom": 0.5}, {"x": 1.0, "atom": 0.5}], "segments": []}
"""
MIXED = """
{"breakpoints": [{"x": 0.5, "atom": 0.25}],
 "segments": [{"from": 0.0, "to": 0.25, "increase": 0.25},
              {"from": 0.5, "to": 1.0, "increase": 0.5}]}
"""
UNIFORM = """
{"segments": [{"from": 0.0, "to": 1.0, "increase": 1.0}]}
"""
CONSTANT = """
{"base": 0.3, "breakpoints": [], "segments": []}
"""


@pytest.fixture()
def dists(tmp_path):
    paths = {}
    for name, body in (
        ("bernoulli", BERNOULLI),
        ("mixed", MIXED),
        ("uniform", UNIFORM),
        ("constant", CONSTANT),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(body)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_bernoulli_at_atom(self, dists, capsys):
        code, out, _ = run(capsys, "eval", "--dist", dists["bernoulli"], "--x", "0")
        assert code == 0
        assert "value: 0.5" in out
        assert "left_value: 0.0" in out
        assert "jump: 0.5" in out

    def test_mixed_plateau_point(self, dists, capsys):
        code, out, _ = run(capsys, "eval", "--dist", dists["mixed"], "--x", "0.3")
        assert code == 0
        assert "value: 0.25" in out and "jump: 0.0" in out

    @pytest.mark.parametrize("x", ["-1e-3", "-inf"])
    def test_spaced_negative_value_that_is_no_plain_decimal(self, dists, capsys, x):
        code, spaced, _ = run(capsys, "eval", "--dist", dists["uniform"], "--x", x)
        assert code == 0
        assert spaced == run(capsys, "eval", "--dist", dists["uniform"], f"--x={x}")[1]

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"breakpoints": [{"x": 0.0, "atom": -1}]}')
        code, _, err = run(capsys, "eval", "--dist", str(p), "--x", "0")
        assert code == 2
        assert "atom" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"\xff\xfe{}", "can't decode byte 0xff"),
            (b'{"breakpoints": [{"x": 1' + b"0" * 400 + b', "atom": 1}]}', "breakpoints[0].x: must be finite"),
            (b'{"base": ' + b"1" * 5000 + b"}", "integer literal of 5000 digits is beyond the float range\n"),
        ],
        ids=["not UTF-8", "integer beyond the float range", "integer too long to read"],
    )
    def test_spec_that_is_no_text_or_number_exits_2(self, tmp_path, capsys, body, message):
        p = tmp_path / "unreadable.json"
        p.write_bytes(body)
        code, out, err = run(capsys, "verify", "--dist", str(p), "--suite", "analytic")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {p}") and err.count("\n") == 1 and message in err


class TestQuantile:
    def test_bernoulli_level_set(self, dists, capsys):
        code, out, _ = run(capsys, "quantile", "--dist", dists["bernoulli"], "--alpha", "0.5")
        assert code == 0
        assert "left_quantile: 0.0" in out
        assert "right_quantile: 1.0" in out
        assert "half-open" in out and "[0, 1)" in out

    def test_uniform_singleton(self, dists, capsys):
        code, out, _ = run(capsys, "quantile", "--dist", dists["uniform"], "--alpha", "0.3")
        assert code == 0
        assert "singleton" in out

    def test_alpha_out_of_range_exits_2(self, dists, capsys):
        code, _, err = run(capsys, "quantile", "--dist", dists["bernoulli"], "--alpha", "1.5")
        assert code == 2
        assert "level" in err


class TestOtherCommands:
    def test_transform(self, dists, capsys):
        code, out, _ = run(capsys, "transform", "--dist", dists["bernoulli"], "--x", "0", "--lam", "0.4")
        assert code == 0 and "transform: 0.2" in out

    def test_measure(self, dists, capsys):
        code, out, _ = run(capsys, "measure", "--dist", dists["mixed"], "--interval", "(0.25,0.5]")
        assert code == 0 and "mass: 0.25" in out

    def test_measure_bad_interval(self, dists, capsys):
        code, _, err = run(capsys, "measure", "--dist", dists["mixed"], "--interval", "oops")
        assert code == 2 and "interval" in err
        code, _, err = run(capsys, "measure", "--dist", dists["mixed"], "--interval", "[inf,inf]")
        assert code == 2 and "lower endpoint inf must be finite or an open -inf" in err

    @pytest.mark.parametrize("text", ["{abc}", "(abc,1]", "[0,abc)"])
    def test_measure_endpoint_that_is_no_number(self, dists, capsys, text):
        # a point and both endpoints of an interval are read alike: one error line, exit 2
        code, out, err = run(capsys, "measure", "--dist", dists["mixed"], "--interval", text)
        assert code == 2 and out == ""
        assert err == f"error: interval {text!r}: could not convert string to float: 'abc'\n"

    def test_sample_reproducible(self, dists, capsys):
        code, out1, _ = run(capsys, "sample", "--dist", dists["mixed"], "--n", "50", "--seed", "7")
        code2, out2, _ = run(capsys, "sample", "--dist", dists["mixed"], "--n", "50", "--seed", "7")
        assert code == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 50

    def test_transform_cdf(self, dists, capsys):
        code, out, _ = run(capsys, "transform-cdf", "--dist", dists["bernoulli"], "--alpha", "0.3")
        assert code == 0 and "total: 0.3" in out

    def test_transform_cdf_flat_term_off_flat_levels(self, dists, capsys):
        code, out, _ = run(capsys, "transform-cdf", "--dist", dists["bernoulli"], "--alpha", "0.3")
        assert code == 0 and "term_flat: 0.0\n" in out

    def test_levelset_json(self, dists, capsys):
        code, out, _ = run(
            capsys, "levelset", "--dist", dists["bernoulli"], "--alpha", "0.5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["level_set_case"] == "half-open"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_levelset_is_an_alias_of_quantile(self, dists, capsys, fmt):
        args = ("--dist", dists["mixed"], "--alpha", "0.25", "--format", fmt)
        code, out, _ = run(capsys, "levelset", *args)
        assert code == 0
        assert out == run(capsys, "quantile", *args)[1]

    @pytest.mark.parametrize(
        "cmd, extra",
        [
            ("eval", ("--x", "0")),
            ("quantile", ("--alpha", "0.5")),
            ("levelset", ("--alpha", "0.5")),
            ("transform", ("--x", "0", "--lam", "0.4")),
            ("measure", ("--interval", "(0.25,0.5]")),
            ("sample", ("--n", "5")),
            ("transform-cdf", ("--alpha", "0.3")),
        ],
    )
    def test_second_dist_exits_2(self, dists, capsys, cmd, extra):
        # the command reads one distribution: a second --dist would be ignored
        code, out, err = run(capsys, cmd, "--dist", dists["bernoulli"], "--dist", dists["mixed"], *extra)
        assert code == 2 and out == ""
        assert f"{cmd} takes one --dist file" in err


class TestVerify:
    def test_analytic_passes(self, dists, capsys):
        code, out, _ = run(capsys, "verify", "--dist", dists["bernoulli"], "--suite", "analytic")
        assert code == 0
        assert "result: PASS" in out

    def test_all_passes_for_mixed(self, dists, capsys):
        code, out, _ = run(
            capsys, "verify", "--dist", dists["mixed"], "--suite", "all",
            "--seed", "42", "--n", "20000",
        )
        assert code == 0
        assert "ks_uniformity" in out and "sklar" in out

    def test_constant_exits_2(self, dists, capsys):
        code, _, err = run(capsys, "verify", "--dist", dists["constant"])
        assert code == 2
        assert "constant" in err

    def test_json_report_deterministic(self, dists, capsys):
        args = (
            "verify", "--dist", dists["mixed"], "--suite", "stochastic",
            "--seed", "42", "--n", "20000", "--format", "json",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # body excludes wall-clock time

    def test_multiple_dists(self, dists, capsys):
        code, out, _ = run(
            capsys, "verify", "--dist", dists["bernoulli"], "--dist", dists["uniform"],
            "--suite", "analytic",
        )
        assert code == 0
        assert out.count("transform_sandwich") == 2

    def test_check_that_raises_exits_1_with_report(self, tmp_path, capsys):
        # a 1e-300 atom cannot move F, so its jump-gap round trip raises inside the check
        spec = tmp_path / "tiny_atom.json"
        spec.write_text(json.dumps({"breakpoints": [
            {"x": 0.0, "atom": 0.5}, {"x": 1.0, "atom": 1e-300}, {"x": 3.0, "atom": 0.5},
        ]}))
        code, out, _ = run(capsys, "verify", "--dist", str(spec), "--suite", "analytic")
        assert code == 1
        (line,) = [ln for ln in out.splitlines() if ":jump_gap_roundtrip " in ln]
        assert line.startswith("FAIL") and "raised AlphaNotInJumpInterval" in line
        assert "result: FAIL (12/14)" in out

    def test_check_failure_exits_1_with_report(self, dists, capsys, monkeypatch):
        import stepdist.cli as cli
        from stepdist.checks import CheckResult

        monkeypatch.setattr(
            cli, "analytic_checks", lambda f: [CheckResult("rigged", False, 1.0, 0.0)]
        )
        code, out, _ = run(capsys, "verify", "--dist", dists["bernoulli"], "--suite", "analytic")
        assert code == 1
        assert "FAIL" in out and "result: FAIL" in out


class TestCopulaCheck:
    def test_independent_pair(self, dists, capsys):
        code, out, _ = run(
            capsys, "copula-check", "--dist", dists["bernoulli"], "--dist", dists["bernoulli"],
            "--n", "20000", "--seed", "42",
        )
        assert code == 0
        assert "sklar_identity" in out

    def test_countermonotone_three_marginals_exits_2(self, dists, capsys):
        code, _, err = run(
            capsys, "copula-check", "--dist", dists["bernoulli"], "--dist", dists["uniform"],
            "--dist", dists["mixed"], "--dependence", "countermonotone",
        )
        assert code == 2
        assert "countermonotone" in err

    def test_single_marginal_exits_2(self, dists, capsys):
        code, _, err = run(capsys, "copula-check", "--dist", dists["uniform"])
        assert code == 2

    def test_no_rows_exits_2(self, dists, capsys):
        code, out, err = run(
            capsys, "copula-check", "--dist", dists["bernoulli"], "--dist", dists["mixed"], "--n", "0",
        )
        assert code == 2
        assert out == ""
        assert "need at least one draw" in err

    def test_custom_grid(self, dists, capsys):
        code, out, _ = run(
            capsys, "copula-check", "--dist", dists["uniform"], "--dist", dists["uniform"],
            "--dependence", "comonotone", "--n", "20000", "--grid", "0.25,0.5,0.75",
        )
        assert code == 0

    def test_spaced_grid_with_a_leading_minus(self, dists, capsys):
        reports = []
        for grid in (["--grid", "-0.5,0,0.5,1"], ["--grid=-0.5,0,0.5,1"]):
            code, out, _ = run(
                capsys, "copula-check", "--dist", dists["bernoulli"], "--dist", dists["mixed"],
                "--n", "5000", *grid,
            )
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]

    def test_grid_order_and_repeats_do_not_matter(self, dists, capsys):
        reports = []
        for grid in ("0.75,0.25,0.5,0.25", "0.25,0.5,0.75"):
            code, out, _ = run(
                capsys, "copula-check", "--dist", dists["uniform"], "--dist", dists["mixed"],
                "--n", "5000", "--grid", grid,
            )
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
