import json
import re

import pytest

from stepdist import DegenerateRange, ValidationError
from stepdist.distfile import file_digest, load_distribution, parse_distribution

BERNOULLI = {
    "breakpoints": [{"x": 0.0, "atom": 0.5}, {"x": 1.0, "atom": 0.5}],
    "segments": [],
}


class TestParse:
    def test_bernoulli(self, fb):
        assert parse_distribution(BERNOULLI) == fb

    def test_uniform_without_breakpoints(self, fu):
        doc = {"segments": [{"from": 0.0, "to": 1.0, "increase": 1.0}]}
        assert parse_distribution(doc) == fu

    def test_mixed(self, fm):
        doc = {
            "breakpoints": [{"x": 0.5, "atom": 0.25}],
            "segments": [
                {"from": 0.0, "to": 0.25, "increase": 0.25},
                {"from": 0.5, "to": 1.0, "increase": 0.5},
            ],
        }
        f = parse_distribution(doc)
        assert f.value(0.3) == fm.value(0.3)
        assert f.jump(0.5) == 0.25
        assert f.plateau_levels == (0.25,)

    def test_segment_split_across_breakpoints(self):
        # one segment spanning an interior breakpoint keeps the same function
        doc = {
            "breakpoints": [{"x": 0.5, "atom": 0.0}],
            "segments": [{"from": 0.0, "to": 1.0, "increase": 1.0}],
        }
        f = parse_distribution(doc)
        assert f.value(0.25) == pytest.approx(0.25, abs=1e-12)
        assert f.value(0.5) == pytest.approx(0.5, abs=1e-12)
        assert f.value(1.0) == 1.0

    def test_decimal_slack_renormalized(self):
        doc = {
            "breakpoints": [
                {"x": 0.0, "atom": 0.3333333333},
                {"x": 1.0, "atom": 0.6666666667 + 2e-10},
            ],
            "segments": [],
        }
        f = parse_distribution(doc)
        assert f.value(5.0) == 1.0

    def test_mass_gate(self):
        doc = {"breakpoints": [{"x": 0.0, "atom": 0.9}], "segments": []}
        with pytest.raises(ValidationError):
            parse_distribution(doc)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateRange):
            parse_distribution({"base": 0.3, "breakpoints": [], "segments": []})
        with pytest.raises(DegenerateRange):
            parse_distribution({"breakpoints": [{"x": 0.0, "atom": 0.0}], "segments": []})


class TestParseErrors:
    def test_names_the_offending_field(self):
        with pytest.raises(ValidationError, match=r"breakpoints\[1\]\.x"):
            parse_distribution({"breakpoints": [{"x": 0.0, "atom": 1.0}, {"x": "zero"}]})
        with pytest.raises(ValidationError, match=r"segments\[0\]\.increase"):
            parse_distribution({"segments": [{"from": 0, "to": 1, "increase": -1}]})
        with pytest.raises(ValidationError, match=r"segments\[0\]\.to"):
            parse_distribution({"segments": [{"from": 1, "to": 0, "increase": 1}]})

    def test_duplicate_breakpoint(self):
        doc = {"breakpoints": [{"x": 0.0, "atom": 0.5}, {"x": 0.0, "atom": 0.5}]}
        with pytest.raises(ValidationError, match="duplicate"):
            parse_distribution(doc)

    def test_overlapping_segments(self):
        doc = {
            "segments": [
                {"from": 0.0, "to": 0.6, "increase": 0.5},
                {"from": 0.5, "to": 1.0, "increase": 0.5},
            ]
        }
        with pytest.raises(ValidationError, match="overlaps"):
            parse_distribution(doc)

    def test_unknown_field(self):
        with pytest.raises(ValidationError, match="unknown"):
            parse_distribution({"breakpionts": []})

    def test_non_object(self):
        with pytest.raises(ValidationError):
            parse_distribution([1, 2, 3])

    def test_integer_beyond_the_float_range(self):
        # an integer literal too large for a float names its field, like an infinite one
        big = 10**400
        doc = {"breakpoints": [{"x": 0.0, "atom": 1.0}, {"x": big}]}
        with pytest.raises(ValidationError, match=r"^distribution\.breakpoints\[1\]\.x: must be finite, got an integer"):
            parse_distribution(doc)
        with pytest.raises(ValidationError, match=r"^distribution\.base: must be finite"):
            parse_distribution({"base": -big, "segments": [{"from": 0, "to": 1, "increase": 1}]})


class TestLoad:
    def test_round_trip(self, tmp_path, fb):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(BERNOULLI))
        assert load_distribution(p) == fb

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"breakpoints\": [,]\n}")
        with pytest.raises(ValidationError, match="line 2"):
            load_distribution(p)

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b'{"segments": [{"from": 0, "to": 1' + b"0" * 400 + b', "increase": 1}]}', r"segments\[0\]\.to: must be finite"),
            (b'{"base": ' + b"1" * 5000 + b"}", r": integer literal of 5000 digits is beyond the float range$"),
            (b'{"segments": [{"from": -' + b"9" * 4400 + b', "to": 1, "increase": 1}]}', r": integer literal of 4400 digits is beyond"),
        ],
        ids=["not UTF-8", "integer beyond the float range", "integer too long to read", "negative integer too long to read"],
    )
    def test_unreadable_text_or_number_names_the_path(self, tmp_path, body, message):
        # bytes that are not UTF-8 and integer literals that are no float raise a
        # ValidationError that starts with the path, as malformed JSON does
        p = tmp_path / "unreadable.json"
        p.write_bytes(body)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}") as caught:
            load_distribution(p)
        assert re.search(message, str(caught.value))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_distribution(tmp_path / "nope.json")

    def test_digest_is_stable(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(BERNOULLI))
        assert file_digest(p) == file_digest(p)
        assert len(file_digest(p)) == 64
