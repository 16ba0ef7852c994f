"""Configuration parsing: defaults, validation, and error locations."""

import hashlib

import numpy as np
import pytest

from zczpilot.config import ConfigError, load_config, parse_config
from zczpilot.designer import DesignConfig

MINIMAL = """
[scenario]
n_t = 2
n_r = 2
b = 8
"""

FULL = """
[scenario]
n_t = 4
n_r = 4
b = 8
rho_rt_mag = 0.9
rho_rt_phase_pi = -0.8349
rho_rr_mag = 0.65
rho_rr_phase_pi = -0.4289
rho_mt_mag = 0.8
rho_mt_phase_pi = -0.5361
gamma = 32

[design]
k = 4
epsilon = 1e-5
eta = 1e-5
mu = 50
max_outer = 200
seed = 0

[timing]
d_user_m = 25000
d_object_m = 30000
symbol_time_s = 25e-6
processing_symbols = 1

[output]
directory = out
format = csv
"""


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        rc = parse_config("")
        assert rc.n_t is None and rc.n_r is None and rc.b is None
        assert rc.gamma is None
        assert rc.timing is None
        assert rc.out_dir == "out"
        assert rc.fmt == "csv"
        assert rc.design.k == 4
        assert rc.design.seed == 0
        assert rc.design == DesignConfig()

    def test_default_correlation_coefficients(self):
        rc = parse_config(MINIMAL)
        assert abs(rc.rho_rt - 0.9 * np.exp(-1j * np.pi * 0.8349)) < 1e-15
        assert abs(rc.rho_rr - 0.65 * np.exp(-1j * np.pi * 0.4289)) < 1e-15
        assert abs(rc.rho_mt - 0.8 * np.exp(-1j * np.pi * 0.5361)) < 1e-15

    def test_full_reference_config(self):
        rc = parse_config(FULL)
        assert (rc.n_t, rc.n_r, rc.b) == (4, 4, 8)
        assert rc.gamma == 32.0
        assert rc.design.k == 4
        assert rc.timing is not None
        assert rc.timing.d_user == 25_000.0
        assert rc.timing.d_object == 30_000.0
        assert rc.timing.k == 4  # shared with the designer lag window
        assert rc.timing.t_pr == 1.0

    def test_downlink_scenario_built_from_config(self):
        rc = parse_config(FULL)
        dl = rc.downlink()
        assert dl.n_t == 4 and dl.n_r == 4 and dl.b == 8
        assert dl.gamma == 32.0

    def test_downlink_requires_scenario_section(self):
        with pytest.raises(ConfigError, match=r"\[scenario\]"):
            parse_config("").downlink()


class TestRejection:
    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"unknown section \[radar\]"):
            parse_config("[radar]\nx = 1\n")

    def test_unknown_key_named_with_section(self):
        with pytest.raises(ConfigError, match=r"\[scenario\] unknown key 'n_x'"):
            parse_config("[scenario]\nn_x = 2\n")

    def test_type_error_locates_key(self):
        with pytest.raises(ConfigError, match=r"\[design\] k: expected integer"):
            parse_config(MINIMAL + "[design]\nk = fast\n")

    def test_missing_required_scenario_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("[scenario]\nn_t = 2\n")

    def test_lag_window_checked_against_training_length(self):
        short = "[scenario]\nn_t = 2\nn_r = 2\nb = 4\n"
        with pytest.raises(ConfigError, match="smaller than b"):
            parse_config(short + "[design]\nk = 4\n")

    def test_correlation_magnitude_range(self):
        with pytest.raises(ConfigError, match="rho_rt_mag"):
            parse_config(MINIMAL + "rho_rt_mag = 1.0\n")

    @pytest.mark.parametrize("key", ["n_t", "n_r", "b"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_dimensions_positive(self, key, value):
        dims = {"n_t": 2, "n_r": 2, "b": 8, key: value}
        text = "[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in dims.items())
        with pytest.raises(ConfigError, match=rf"\[scenario\] {key}: must be positive"):
            parse_config(text)

    def test_zero_inner_rounds_rejected(self):
        # mu is ignored by the designer but still checked, so that a config
        # that was invalid stays invalid
        with pytest.raises(ConfigError, match=r"\[design\] mu must be >= 1"):
            parse_config(MINIMAL + "[design]\nmu = 0\n")

    def test_inner_tol_is_unknown(self):
        # no part of the designer has an inner tolerance
        with pytest.raises(ConfigError, match=r"\[design\] unknown key 'inner_tol'"):
            parse_config(MINIMAL + "[design]\ninner_tol = 1e-8\n")

    def test_seed_nonnegative(self):
        with pytest.raises(ConfigError, match=r"\[design\] seed"):
            parse_config(MINIMAL + "[design]\nseed = -1\n")

    @pytest.mark.parametrize(
        "section, key",
        [("scenario", "gamma"), ("scenario", "rho_rt_mag"),
         ("scenario", "rho_mt_phase_pi"), ("design", "p"), ("design", "epsilon"),
         ("design", "eta"), ("scenario", "rho_rr_mag"), ("timing", "d_user_m")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, section, key, value):
        # MINIMAL ends inside [scenario]; [timing] needs a symbol time too
        head, tail = {
            "scenario": ("", ""),
            "design": ("[design]\n", ""),
            "timing": ("[timing]\n", "symbol_time_s = 1e-6\n"),
        }[section]
        text = MINIMAL + head + f"{key} = {value}\n" + tail
        with pytest.raises(
            ConfigError, match=rf"\[{section}\] {key}: expected a finite number"
        ):
            parse_config(text)

    def test_gamma_positive(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(MINIMAL + "gamma = -3\n")

    def test_design_validation_wrapped(self):
        with pytest.raises(ConfigError, match=r"\[design\]"):
            parse_config(MINIMAL + "[design]\nmu = -2\n")

    def test_timing_requires_geometry(self):
        with pytest.raises(ConfigError, match=r"\[timing\] requires"):
            parse_config(MINIMAL + "[timing]\nd_object_m = 100\n")

    def test_timing_validation_wrapped(self):
        text = MINIMAL + "[timing]\nd_user_m = -5\nsymbol_time_s = 1e-6\n"
        with pytest.raises(ConfigError, match=r"\[timing\]"):
            parse_config(text)

    def test_output_format_restricted(self):
        with pytest.raises(ConfigError, match=r"\[output\] format"):
            parse_config(MINIMAL + "[output]\nformat = yaml\n")

    def test_bad_ini_syntax(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("not an ini file at all [")

    def test_boolean_parsing(self):
        rc = parse_config(MINIMAL + "[design]\nlags_from_one = yes\n")
        assert rc.design.lags_from_one
        with pytest.raises(ConfigError, match="expected boolean"):
            parse_config(MINIMAL + "[design]\nlags_from_one = 7\n")


class TestLoadConfig:
    def test_sha256_of_raw_bytes(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        rc = load_config(path)
        assert rc.sha256 == hashlib.sha256(MINIMAL.encode()).hexdigest()
        assert rc.n_t == 2

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(ConfigError, match="absent.ini"):
            load_config(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[scenario]\nn_t = \xff\xfe\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            load_config(path)

    def test_shipped_reference_config_parses(self):
        rc = load_config("configs/mimo4x4_b8.ini")
        assert (rc.n_t, rc.n_r, rc.b) == (4, 4, 8)
        assert rc.gamma == 32.0
        assert rc.design.k == 4
        assert rc.design.epsilon == 1e-5
        assert rc.timing is not None and rc.timing.d_user == 25_000.0
