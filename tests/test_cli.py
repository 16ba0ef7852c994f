"""End-to-end command line tests through main(argv)."""

import csv
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_estimation import record_factor_sizes, refuse_kron
from zczpilot import estimation
from zczpilot.archive import read_archive, without_timestamp
from zczpilot.cli import (
    EXIT_CONFIG,
    EXIT_NOCONV,
    EXIT_OK,
    build_parser,
    main,
)

SMALL = """
[scenario]
n_t = 1
n_r = 1
b = 4

[design]
k = 1
eta = 1e-4
max_outer = 300
seed = 0

[timing]
d_user_m = 25000
d_object_m = 30000
symbol_time_s = 25e-6
processing_symbols = 1
"""

# 8x8 links with B = 64 and no correlation zone: the large benchmark scenario.
KRON = """
[scenario]
n_t = 8
n_r = 8
b = 64
rho_rt_mag = 0.9
rho_rt_phase_pi = -0.8349
rho_rr_mag = 0.65
rho_rr_phase_pi = -0.4289
rho_mt_mag = 0.8
rho_mt_phase_pi = -0.5361

[design]
k = 0
seed = 0
"""

TIMING_ONLY = """
[timing]
d_user_m = 25000
d_object_m = 30000
symbol_time_s = 25e-6
processing_symbols = 1
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return path


@pytest.fixture
def timing_config(tmp_path):
    path = tmp_path / "timing.ini"
    path.write_text(TIMING_ONLY)
    return path


class TestRange:
    def test_reference_value_in_text(self, timing_config, capsys):
        assert main(["range", "--config", str(timing_config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max object range: 43750 m" in out
        assert "feasible" in out

    def test_json_values(self, timing_config, capsys):
        assert main(["range", "--config", str(timing_config),
                     "--format", "json"]) == EXIT_OK
        values = json.loads(capsys.readouterr().out)
        assert values["max_object_range_m"] == 43750.0
        assert values["user_delay_symbols"] == pytest.approx(10.0 / 3.0)
        assert values["budget_symbols"] == 2.5
        assert values["feasible"] is True
        assert values["slack_symbols"] > 0

    def test_printed_direction_flips_gap(self, timing_config, capsys):
        main(["range", "--config", str(timing_config), "--format", "json"])
        default = json.loads(capsys.readouterr().out)
        main(["range", "--config", str(timing_config), "--format", "json",
              "--printed-direction"])
        flipped = json.loads(capsys.readouterr().out)
        total = default["slack_symbols"] + flipped["slack_symbols"]
        assert total == pytest.approx(2 * default["budget_symbols"])

    def test_timing_section_required(self, tmp_path, capsys):
        path = tmp_path / "plain.ini"
        path.write_text("[scenario]\nn_t = 1\nn_r = 1\nb = 8\n")
        assert main(["range", "--config", str(path)]) == EXIT_CONFIG
        assert "timing" in capsys.readouterr().err


class TestDesign:
    def test_end_to_end(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["design", "--config", str(small_config), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert "final mse:" in captured.out
        assert "downlink mse:" in captured.out and "uplink mse:" in captured.out
        timed = re.search(r"^converged: True\nstop reason: eta\ndesign time: (\S+) s$",
                          captured.out, re.M)
        assert timed and float(timed.group(1)) > 0

        arc = read_archive(out / "pilot_archive.json")
        assert arc.dims == {"b": 4, "n_t": 1, "n_r": 1}
        assert arc.design["k"] == 1
        assert arc.result["converged"] is True
        # the time varies between runs, so the archive does not hold it
        assert not [key for key in arc.result if "time" in key]

        with open(out / "design_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iteration", "mse", "max_cross", "max_auto", "max_power", "mse_dl", "mse_ul",
            "restore_steps",
        ]
        assert len(rows) - 1 == arc.result["outer_iterations"] + 1
        assert float(rows[-1][1]) == arc.result["final_mse"]

    @staticmethod
    def assert_key_is_inert(tmp_path, capsys, key, values, bad, error):
        """Designs that differ only in `key` write the same X, Y and trace
        bytes and leave the key out of the archive; `bad` is rejected."""
        outs = []
        for i, value in enumerate(values):
            path = tmp_path / f"{key}{i}.ini"
            path.write_text(SMALL.replace("seed = 0", f"seed = 0\n{key} = {value}"))
            out = tmp_path / f"run{key}{i}"
            assert main(["design", "--config", str(path), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        a, b = (read_archive(o / "pilot_archive.json") for o in outs)
        assert (a.x.tobytes(), a.y.tobytes()) == (b.x.tobytes(), b.y.tobytes())
        assert key not in a.design
        assert ((outs[0] / "design_trace.csv").read_bytes()
                == (outs[1] / "design_trace.csv").read_bytes())
        path = tmp_path / f"{key}-bad.ini"
        path.write_text(SMALL.replace("seed = 0", f"seed = 0\n{key} = {bad}"))
        capsys.readouterr()
        out = tmp_path / f"run{key}-bad"
        assert main(["design", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_mu_is_inert(self, tmp_path, capsys):
        # mu is accepted and checked but the designer takes one round per
        # outer iteration whatever its value.
        self.assert_key_is_inert(
            tmp_path, capsys, "mu", (1, 50), 0, "[design] mu must be >= 1"
        )

    def test_unrestorable_start_still_writes(self, small_config, tmp_path,
                                             capsys, monkeypatch):
        import zczpilot.designer as designer

        # No Gauss-Newton steps: the row-split start meets the bound, but
        # a later round's target cannot be restored (iteration 6 here), so
        # its column keeps its current value, the record names that
        # iteration, and the run goes on.
        monkeypatch.setattr(designer, "_RESTORE_MAX_STEPS", 0)
        out = tmp_path / "run"
        rc = main(["design", "--config", str(small_config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_NOCONV)
        assert re.match(
            r"warning: iteration [1-9]\d*: column 0 keeps its current value: ", err)
        assert "Traceback" not in err
        assert (out / "pilot_archive.json").exists()
        assert (out / "design_trace.csv").exists()

    def test_deterministic_modulo_timestamp(self, small_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["design", "--config", str(small_config), "--out", str(out_a)])
        main(["design", "--config", str(small_config), "--out", str(out_b)])
        capsys.readouterr()
        arc_a = json.loads((out_a / "pilot_archive.json").read_text())
        arc_b = json.loads((out_b / "pilot_archive.json").read_text())
        assert arc_a != arc_b  # timestamps differ
        assert without_timestamp(arc_a) == without_timestamp(arc_b)
        trace_a = (out_a / "design_trace.csv").read_bytes()
        trace_b = (out_b / "design_trace.csv").read_bytes()
        assert trace_a == trace_b

    def test_seed_override_recorded(self, small_config, tmp_path, capsys):
        out = tmp_path / "seeded"
        main(["design", "--config", str(small_config), "--out", str(out),
              "--seed", "9"])
        capsys.readouterr()
        arc = read_archive(out / "pilot_archive.json")
        assert arc.design["seed"] == 9

    def test_override_flags_recorded(self, small_config, tmp_path, capsys):
        out = tmp_path / "flagged"
        rc = main(["design", "--config", str(small_config), "--out", str(out),
                   "--lags-from-one", "--literal-transpose", "--seed", "3"])
        assert rc == EXIT_OK
        capsys.readouterr()
        design = read_archive(out / "pilot_archive.json").design
        assert design["lags_from_one"] is True
        assert design["literal_transpose"] is True
        assert design["seed"] == 3

    def test_time_by_phase(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        main(["design", "--config", str(small_config), "--out", str(out)])
        line = re.search(r"^design time: \S+ s\ntime by phase: (.+)$",
                         capsys.readouterr().out, re.M)
        assert line
        phases = [re.fullmatch(r"(\w+) (\S+) s", part).groups()
                  for part in line.group(1).split(", ")]
        assert [name for name, _ in phases] == ["rounds", "targets", "scoring",
                                                "residuals"]
        assert all(float(sec) >= 0.0 for _, sec in phases)
        # a measurement, like the design time: neither file holds it
        for name in ("pilot_archive.json", "design_trace.csv"):
            assert "phase" not in (out / name).read_text()

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tight.ini"
        # an eta that five rounds cannot meet: SMALL's own 1e-4 stops after
        # one round, as its design converges there
        path.write_text(SMALL.replace("max_outer = 300", "max_outer = 5")
                        .replace("eta = 1e-4", "eta = 1e-12"))
        out = tmp_path / "run"
        rc = main(["design", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        assert rc == EXIT_NOCONV
        # outputs are still written for inspection
        assert (out / "pilot_archive.json").exists()
        assert (out / "design_trace.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [KRON + "max_outer = 2\n",
         KRON.replace("n_t = 8", "n_t = 4").replace("n_r = 8", "n_r = 4")
         .replace("b = 64", "b = 16").replace("k = 0", "k = 2\nmax_outer = 2")],
        ids=["kron-k0", "zone-k2"],
    )
    def test_design_stays_factor_held(self, text, tmp_path, capsys, monkeypatch):
        # the MM target comes from the factored Gram blocks: a design forms
        # no Kronecker product (a dense covariance) and factors nothing
        # larger than the B x B temporal noise factor
        sizes = record_factor_sizes(monkeypatch)
        monkeypatch.setattr(np, "kron", refuse_kron)
        path = tmp_path / "factored.ini"
        path.write_text(text)
        rc = main(["design", "--config", str(path), "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_NOCONV)
        b = read_archive(tmp_path / "run" / "pilot_archive.json").dims["b"]
        assert sizes and max(sizes) <= b

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["design", "--config", str(tmp_path / "nope.ini")])
        assert rc == EXIT_CONFIG
        assert "nope.ini" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nn_t = 1\nn_r = 1\nb = 4\nturbo = on\n")
        rc = main(["design", "--config", str(path)])
        assert rc == EXIT_CONFIG
        assert "unknown key 'turbo'" in capsys.readouterr().err


@pytest.fixture
def archive_dir(small_config, tmp_path):
    out = tmp_path / "designed"
    assert main(["design", "--config", str(small_config),
                 "--out", str(out)]) == EXIT_OK
    return out


class TestAnalyze:
    def test_csv_report(self, archive_dir, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["analyze", str(archive_dir / "pilot_archive.json"),
                   "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "lags: -3..3" in captured
        with open(out / "correlation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # header + (auto + cross) * (2B-1) lags for 1x1 pilots
        assert len(rows) == 1 + 7 + 7
        rc = main(["analyze", str(archive_dir / "pilot_archive.json"),
                   "--max-lag", "0"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "lags: 0..0"

    def test_json_report(self, archive_dir, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["analyze", str(archive_dir / "pilot_archive.json"),
                   "--out", str(out), "--format", "json", "--max-lag", "2"])
        capsys.readouterr()
        assert rc == EXIT_OK
        doc = json.loads((out / "correlation.json").read_text())
        assert doc["max_lag"] == 2
        assert len(doc["rows"]) == 5 + 5
        kinds = {r["kind"] for r in doc["rows"]}
        assert kinds == {"auto", "cross"}

    def test_bad_max_lag(self, archive_dir, capsys):
        rc = main(["analyze", str(archive_dir / "pilot_archive.json"),
                   "--max-lag", "99"])
        assert rc == EXIT_CONFIG
        assert "--max-lag" in capsys.readouterr().err

    def test_non_finite_entry(self, archive_dir, tmp_path, capsys):
        doc = json.loads((archive_dir / "pilot_archive.json").read_text())
        doc["x_re"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", str(path), "--out", str(tmp_path / "report")])
        assert rc == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err

    def test_integer_too_large_for_a_float(self, archive_dir, tmp_path, capsys):
        # a bad input (exit 2), not a traceback and the exit 1 of a failed
        # validate
        doc = json.loads((archive_dir / "pilot_archive.json").read_text())
        doc["x_re"][0][0] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", str(path), "--out", str(tmp_path / "report")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: field 'x_re': row 0 has a non-finite entry\n"
        )
        assert not (tmp_path / "report").exists()

    def test_string_literal_transpose_rejected(self, archive_dir, tmp_path, capsys):
        doc = json.loads((archive_dir / "pilot_archive.json").read_text())
        doc["design"]["literal_transpose"] = "false"
        path = tmp_path / "string.json"
        path.write_text(json.dumps(doc))
        rc = main(["analyze", str(path)])
        assert rc == EXIT_CONFIG
        assert "design.literal_transpose" in capsys.readouterr().err

    def test_missing_archive(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "gone.json")])
        assert rc == EXIT_CONFIG
        assert "gone.json" in capsys.readouterr().err


class TestMonteCarlo:
    def test_csv_summary(self, small_config, tmp_path, capsys):
        out = tmp_path / "mc"
        rc = main(["montecarlo", "--config", str(small_config),
                   "--out", str(out), "--runs", "2"])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "runs: 2  converged: 2  failed: 0" in captured
        with open(out / "mc_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_mse", "std_mse"]
        assert len(rows) > 2

    def test_json_summary(self, small_config, tmp_path, capsys):
        out = tmp_path / "mc"
        rc = main(["montecarlo", "--config", str(small_config),
                   "--out", str(out), "--runs", "2", "--format", "json"])
        capsys.readouterr()
        assert rc == EXIT_OK
        doc = json.loads((out / "mc_summary.json").read_text())
        assert doc["seeds"] == [0, 1]
        assert doc["converged_runs"] == 2
        assert len(doc["mse_mean"]) == len(doc["mse_std"])

    def test_json_seeds_across_2_63_are_exact_integers(self, small_config, tmp_path,
                                                       capsys):
        out = tmp_path / "mc"
        first = 2**63 - 1
        rc = main(["montecarlo", "--config", str(small_config), "--out", str(out),
                   "--runs", "3", "--seed", str(first), "--format", "json"])
        capsys.readouterr()
        assert rc == EXIT_OK
        text = (out / "mc_summary.json").read_text()
        seeds = [first, first + 1, first + 2]
        assert json.loads(text)["seeds"] == seeds
        assert all(str(seed) in text for seed in seeds)

    def test_zero_runs_rejected(self, small_config, capsys):
        rc = main(["montecarlo", "--config", str(small_config), "--runs", "0"])
        assert rc == EXIT_CONFIG
        assert "--runs" in capsys.readouterr().err

    def test_failed_seed_printed_with_cause(self, small_config, tmp_path, capsys,
                                            monkeypatch):
        import zczpilot.analysis as analysis

        design = analysis.design_pilots

        def stub(dl, ul, cfg):
            if cfg.seed == 1:
                raise np.linalg.LinAlgError("singular Gram")
            return design(dl, ul, cfg)

        monkeypatch.setattr(analysis, "design_pilots", stub)
        out = tmp_path / "mc"
        rc = main(["montecarlo", "--config", str(small_config),
                   "--out", str(out), "--runs", "2", "--format", "json"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_NOCONV
        assert "runs: 2  converged: 1  failed: 1" in lines
        assert "seed 1 failed: LinAlgError: singular Gram" in lines
        doc = json.loads((out / "mc_summary.json").read_text())
        assert doc["failures"] == [{"seed": 1, "type": "LinAlgError",
                                    "message": "singular Gram"}]

    def test_override_flags_reach_each_design(self, small_config, tmp_path,
                                              capsys, monkeypatch):
        import zczpilot.analysis as analysis

        design = analysis.design_pilots
        seen = []

        def stub(dl, ul, cfg):
            seen.append(cfg)
            return design(dl, ul, cfg)

        monkeypatch.setattr(analysis, "design_pilots", stub)
        rc = main(["montecarlo", "--config", str(small_config),
                   "--out", str(tmp_path / "mc"), "--lags-from-one",
                   "--literal-transpose", "--seed", "5", "--runs", "2"])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert [cfg.seed for cfg in seen] == [5, 6]
        assert all(cfg.lags_from_one and cfg.literal_transpose for cfg in seen)

    def test_every_seed_failed_exit_code(self, small_config, tmp_path, capsys,
                                         monkeypatch):
        import zczpilot.analysis as analysis

        def stub(dl, ul, cfg):
            raise np.linalg.LinAlgError(f"seed {cfg.seed} singular Gram")

        monkeypatch.setattr(analysis, "design_pilots", stub)
        out = tmp_path / "mc"
        rc = main(["montecarlo", "--config", str(small_config),
                   "--out", str(out), "--runs", "2"])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err == "error: seed 0 singular Gram\n"
        assert captured.out == ""
        assert not out.exists()


SIMULATED = re.compile(r"simulated (\d+) trials in \S+ s \(\S+ trials/s\)")


class TestInputRejection:
    """Bad values from the config file or the command line exit with
    EXIT_CONFIG and one error line, never with a traceback."""

    @pytest.mark.parametrize(
        "where, edits",
        [("[scenario] n_t", {"n_t = 1": "n_t = 0"}),
         ("[scenario] n_r", {"n_r = 1": "n_r = -1"}),
         ("[scenario] b", {"b = 4": "b = 0", "k = 1": "k = 0"}),
         ("[design] seed", {"seed = 0": "seed = -3"}),
         ("[design] p", {"seed = 0": "seed = 0\np = nan"}),
         ("[scenario] gamma", {"b = 4": "b = 4\ngamma = inf"}),
         ("[design] mu", {"seed = 0": "seed = 0\nmu = 0"})],
        ids=["n_t", "n_r", "b", "seed", "p-nan", "gamma-inf", "mu-zero"],
    )
    def test_bad_config_value(self, tmp_path, capsys, where, edits):
        text = SMALL
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        rc = main(["validate", "--config", str(path), "--trials", "10"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith(f"error: {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["design", "montecarlo", "validate"])
    def test_negative_seed_option(self, small_config, tmp_path, capsys, command):
        rc = main([command, "--config", str(small_config), "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_negative_modulation_time(self, tmp_path, capsys):
        # the modulation time entered no command, and its key is gone
        path = tmp_path / "bad.ini"
        path.write_text(SMALL + "modulation_symbols = -5\n")
        rc = main(["range", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == "error: [timing] unknown key 'modulation_symbols'\n"

    @pytest.mark.parametrize("command", ["design", "validate", "montecarlo"])
    def test_unfactorable_temporal_noise_factor(self, tmp_path, capsys, command):
        # the parser takes |rho_mt| just below 1, but M_time then has no
        # Cholesky factor: every command prints the same one line, and
        # montecarlo, whose every seed fails alike, writes nothing
        with pytest.raises(np.linalg.LinAlgError) as info:
            np.linalg.cholesky(np.ones((2, 2)))
        shipped = Path(__file__).parents[1] / "configs" / "mimo4x4_b8.ini"
        path = tmp_path / "near_one.ini"
        path.write_text(shipped.read_text().replace(
            "rho_mt_mag = 0.8", "rho_mt_mag = 0.999999999999999"))
        out = tmp_path / "out"
        extra = {"design": ["--out", str(out)], "validate": [],
                 "montecarlo": ["--out", str(out), "--runs", "2"]}
        rc = main([command, "--config", str(path), *extra[command]])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.err == f"error: m_time: {info.value}\n"
        assert "positive definite" in captured.err
        if command == "montecarlo":
            assert captured.out == "" and not out.exists()


class TestValidate:
    def test_passes_on_reference_statistics(self, small_config, capsys):
        rc = main(["validate", "--config", str(small_config),
                   "--trials", "400"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "analytic mse:" in out
        lines = out.strip().splitlines()
        assert SIMULATED.fullmatch(lines[-2]).group(1) == "400"
        assert lines[-1] == "PASS"

    def test_passes_at_benchmark_scale(self, tmp_path, capsys):
        path = tmp_path / "kron.ini"
        path.write_text(KRON)
        rc = main(["validate", "--config", str(path), "--trials", "300"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == EXIT_OK
        assert SIMULATED.fullmatch(lines[-2]).group(1) == "300"
        assert lines[-1] == "PASS"

    def test_one_gram_factorization_per_call(self, small_config, capsys,
                                            monkeypatch):
        # the analytic MSE comes from the factoring that builds the estimator
        solves = []
        fused = estimation.mse_and_optimal_V

        def counted(p, s):
            solves.append(p.shape)
            return fused(p, s)

        monkeypatch.setattr(estimation, "mse_and_optimal_V", counted)
        rc = main(["validate", "--config", str(small_config), "--trials", "50"])
        assert rc == EXIT_OK
        assert solves == [(4, 1)]

    def test_no_dense_noise_covariance(self, tmp_path, capsys, monkeypatch):
        # design and validate work on the Kronecker factors: neither forms
        # a Kronecker product nor factors the (B n_r)^2 noise covariance of
        # the benchmark-sized scenario (B = 64, n_r = 8)
        sizes = record_factor_sizes(monkeypatch)
        monkeypatch.setattr(np, "kron", refuse_kron)
        path = tmp_path / "kron.ini"
        path.write_text(KRON + "max_outer = 2\n")
        rc = main(["design", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        rc = main(["validate", "--config", str(path), "--trials", "100"])
        assert rc == EXIT_OK
        capsys.readouterr()
        assert sizes and max(sizes) <= 64

    def test_runs_without_scipy(self, small_config, tmp_path):
        # the package needs numpy alone: with every scipy import made to
        # fail, a design and a validate still succeed
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from zczpilot.cli import main\n"
            "config, out = sys.argv[2:]\n"
            "assert main(['design', '--config', config, '--out', out]) == 0\n"
            "assert main(['validate', '--config', config, '--trials', '200']) == 0\n"
        )
        src = Path(estimation.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(src), str(small_config),
             str(tmp_path / "run")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_trials_floor(self, small_config, capsys):
        rc = main(["validate", "--config", str(small_config), "--trials", "1"])
        assert rc == EXIT_CONFIG
        assert "--trials" in capsys.readouterr().err


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_entry_point_wiring(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, _, attr = scripts["zczpilot"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main

    @pytest.mark.skipif(
        shutil.which("zczpilot") is None,
        reason="zczpilot console script not on PATH; install the package "
        "with `pip install -e .[test]` to run this test",
    )
    def test_installed_entry_point(self, timing_config):
        exe = shutil.which("zczpilot")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "range", "--config", str(timing_config)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "max object range: 43750 m" in proc.stdout
