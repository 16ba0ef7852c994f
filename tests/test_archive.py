"""Pilot archive serialization: bit-exact round trips and strict
validation of foreign files."""

import json
from dataclasses import fields
from datetime import datetime

import numpy as np
import numpy.testing as npt
import pytest

import zczpilot
from zczpilot.archive import (
    ARCHIVE_FORMAT,
    ArchiveError,
    archive_payload,
    dump_archive,
    parse_archive,
    read_archive,
    without_timestamp,
)
from zczpilot.covariance import build_scenario, reciprocal_scenario
from zczpilot.designer import DesignConfig, design_pilots


@pytest.fixture(scope="module")
def designed():
    dl = build_scenario(2, 2, 4)
    ul = reciprocal_scenario(dl)
    cfg = DesignConfig(k=1, max_outer=8, seed=3)
    pair, trace = design_pilots(dl, ul, cfg)
    p = dl.gamma / dl.n_t
    return pair, trace, cfg, p


def make_payload(designed, sha="abc123"):
    pair, trace, cfg, p = designed
    return archive_payload(pair, trace, cfg, p, p, config_sha256=sha)


class TestPayload:
    def test_format_tag_and_version(self, designed):
        payload = make_payload(designed)
        assert payload["format"] == ARCHIVE_FORMAT
        assert payload["tool_version"] == zczpilot.__version__
        assert payload["config_sha256"] == "abc123"

    def test_created_utc_is_timezone_aware(self, designed):
        stamp = make_payload(designed)["created_utc"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.tzinfo is not None
        assert parsed.utcoffset().total_seconds() == 0

    def test_dims_follow_matrices(self, designed):
        pair = designed[0]
        payload = make_payload(designed)
        assert payload["dims"] == {
            "b": pair.x.shape[0],
            "n_t": pair.x.shape[1],
            "n_r": pair.y.shape[1],
        }

    def test_repeat_payloads_identical_without_timestamp(self, designed):
        a = without_timestamp(make_payload(designed))
        b = without_timestamp(make_payload(designed))
        assert a == b
        assert "created_utc" not in a
        assert "created_utc" in make_payload(designed)

    def test_design_block_mirrors_config(self, designed):
        _, _, cfg, p = designed
        d = make_payload(designed)["design"]
        assert d["k"] == cfg.k
        assert d["p_x"] == p and d["p_y"] == p
        assert d["epsilon"] == cfg.epsilon
        assert d["seed"] == cfg.seed
        assert d["lags_from_one"] is False
        names = [f.name for f in fields(DesignConfig) if f.name != "p"]
        assert list(d) == names + ["p_x", "p_y"]

    def test_result_block_mirrors_trace(self, designed):
        pair, trace, _, _ = designed
        r = make_payload(designed)["result"]
        assert r["final_mse"] == trace.mse[-1]
        assert r["final_mse_dl"] == trace.mse_dl[-1]
        assert r["final_mse_ul"] == trace.mse_ul[-1]
        assert r["stop_reason"] == trace.stop_reason
        # the trace is non-increasing, so a best MSE would be the final one
        assert "best_mse" not in r
        assert r["converged"] == trace.converged
        assert r["outer_iterations"] == trace.outer_iterations
        assert r["max_cross_corr"] == pair.max_cross_corr


class TestRoundTrip:
    def test_matrices_survive_bit_exactly(self, designed, tmp_path):
        pair = designed[0]
        path = tmp_path / "pair.json"
        dump_archive(make_payload(designed), path)
        arc = read_archive(path)
        npt.assert_array_equal(arc.x, pair.x)
        npt.assert_array_equal(arc.y, pair.y)
        assert arc.x.dtype == np.complex128

    def test_write_read_write_is_byte_identical(self, designed, tmp_path):
        payload = make_payload(designed)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dump_archive(payload, first)
        dump_archive(json.loads(first.read_text()), second)
        assert first.read_bytes() == second.read_bytes()

    def test_no_temp_file_left_behind(self, designed, tmp_path):
        path = tmp_path / "pair.json"
        dump_archive(make_payload(designed), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json"]

    def test_file_ends_with_newline(self, designed, tmp_path):
        path = tmp_path / "pair.json"
        dump_archive(make_payload(designed), path)
        assert path.read_bytes().endswith(b"\n")

    def test_numpy_integer_seed_archived_as_an_int(self, designed, tmp_path):
        pair, trace, _, p = designed
        cfg = DesignConfig(k=1, max_outer=8, seed=np.arange(4)[3])
        path = tmp_path / "pair.json"
        dump_archive(archive_payload(pair, trace, cfg, p, p), path)
        assert json.loads(path.read_text())["design"]["seed"] == 3
        with pytest.raises(TypeError):
            DesignConfig(seed=3.0)

    def test_metadata_carried_through(self, designed, tmp_path):
        path = tmp_path / "pair.json"
        dump_archive(make_payload(designed, sha="deadbeef"), path)
        arc = read_archive(path)
        assert arc.config_sha256 == "deadbeef"
        assert arc.tool_version == zczpilot.__version__
        assert arc.design["seed"] == designed[2].seed
        assert arc.dims["b"] == designed[0].x.shape[0]


class TestValidation:
    def test_wrong_format_tag(self, designed):
        payload = make_payload(designed)
        payload["format"] = "something-else"
        with pytest.raises(ArchiveError, match="'format'"):
            parse_archive(payload)

    @pytest.mark.parametrize(
        "field", ["format", "dims", "design", "result", "x_re", "y_im"]
    )
    def test_missing_field_named(self, designed, field):
        payload = make_payload(designed)
        del payload[field]
        with pytest.raises(ArchiveError, match=f"'{field}'"):
            parse_archive(payload)

    def test_bad_dims_named(self, designed):
        payload = make_payload(designed)
        payload["dims"] = {"b": 4, "n_t": 0, "n_r": 2}
        with pytest.raises(ArchiveError, match=r"dims\.n_t"):
            parse_archive(payload)
        # a JSON boolean is a Python int, and true == 1
        payload["dims"] = {"b": True, "n_t": True, "n_r": True}
        with pytest.raises(ArchiveError, match=r"dims\.b': expected a positive integer"):
            parse_archive(payload)

    def test_row_count_mismatch(self, designed):
        payload = make_payload(designed)
        payload["x_re"] = payload["x_re"][:-1]
        with pytest.raises(ArchiveError, match="'x_re'"):
            parse_archive(payload)

    def test_row_width_mismatch(self, designed):
        payload = make_payload(designed)
        payload["y_re"] = [row[:-1] for row in payload["y_re"]]
        with pytest.raises(ArchiveError, match="row 0"):
            parse_archive(payload)

    def test_non_numeric_entry(self, designed):
        payload = make_payload(designed)
        payload["x_im"][1][0] = "zero"
        with pytest.raises(ArchiveError, match="non-numeric"):
            parse_archive(payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry(self, designed, value):
        payload = make_payload(designed)
        payload["y_re"][0][1] = value
        with pytest.raises(ArchiveError, match="'y_re': row 0 has a non-finite"):
            parse_archive(payload)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_too_large_for_a_float(self, designed, tmp_path, sign):
        # JSON integers have no bound: one past the float range is as
        # non-finite as inf, while one inside it reads as its float
        payload = make_payload(designed)
        payload["y_re"][0][1] = sign * 10**400
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArchiveError, match="'y_re': row 0 has a non-finite"):
            read_archive(path)
        payload["y_re"][0][1] = sign * 10**300
        assert parse_archive(payload).y[0, 1].real == sign * 1e300

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_literal_transpose_must_be_boolean(self, designed, value):
        payload = make_payload(designed)
        payload["design"]["literal_transpose"] = value
        with pytest.raises(ArchiveError, match="'design.literal_transpose'.*boolean"):
            parse_archive(payload)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_lags_from_one_must_be_boolean(self, designed, value):
        payload = make_payload(designed)
        payload["design"]["lags_from_one"] = value
        with pytest.raises(ArchiveError, match="'design.lags_from_one'.*boolean"):
            parse_archive(payload)
        del payload["design"]["lags_from_one"]  # read as false
        assert "lags_from_one" not in parse_archive(payload).design

    @pytest.mark.parametrize("value", [-1, 4, 1.0, True, "1", None])
    def test_k_must_be_an_integer_below_b(self, designed, value):
        # B = 4, so the zone's lags 0..k need k <= 3; a JSON float or
        # boolean is no lag count
        payload = make_payload(designed)
        payload["design"]["k"] = value
        with pytest.raises(ArchiveError, match=r"'design\.k': expected an integer in \[0, 4\)"):
            parse_archive(payload)
        del payload["design"]["k"]
        with pytest.raises(ArchiveError, match=r"'design\.k'"):
            parse_archive(payload)

    def test_best_mse_still_read(self, designed, tmp_path):
        # archives written while the result block carried best_mse load
        payload = make_payload(designed)
        payload["result"]["best_mse"] = payload["result"]["final_mse"]
        path = tmp_path / "pair.json"
        dump_archive(payload, path)
        arc = read_archive(path)
        assert arc.result["best_mse"] == designed[1].mse[-1]
        npt.assert_array_equal(arc.x, designed[0].x)

    def test_literal_transpose_may_be_absent(self, designed):
        payload = make_payload(designed)
        del payload["design"]["literal_transpose"]
        assert "literal_transpose" not in parse_archive(payload).design

    def test_boolean_is_not_a_number(self, designed):
        payload = make_payload(designed)
        payload["x_re"][0][0] = True
        with pytest.raises(ArchiveError, match="non-numeric"):
            parse_archive(payload)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArchiveError, match="absent.json"):
            read_archive(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArchiveError, match="not valid JSON"):
            read_archive(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ArchiveError, match="top level"):
            read_archive(path)
