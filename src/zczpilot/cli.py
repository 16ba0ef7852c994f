"""Command line front end.

Subcommands:
  design      run the pilot designer, write archive + trace
  analyze     correlation report for an archived pilot pair
  montecarlo  designer statistics over a block of seeds
  range       sensing range / feasibility from the timing section
  validate    Monte Carlo check of the analytic MSE

Exit codes: 0 success, 1 validation failure (validate only), 2 bad
configuration or input content, 3 solver non-convergence (outputs are
still written), 4 file system write failure, 5 every montecarlo seed
failed (nothing is written).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    correlation_report,
    correlation_rows,
    empirical_mse,
    monte_carlo_design,
    write_correlation_csv,
    write_montecarlo_csv,
    write_trace_csv,
)
from .archive import (
    ArchiveError,
    archive_payload,
    atomic_write,
    dump_archive,
    read_archive,
)
from .config import ConfigError, load_config
from .covariance import reciprocal_scenario
from .designer import DesignError, column_power_bound, design_pilots
from .timing import delay_symbols, is_sensing_feasible, max_object_range

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_IO = 4
EXIT_DESIGN = 5


def _seed_override(args):
    """The --seed option, or None when it is not given."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    return seed


def _apply_design_overrides(rc, args):
    import dataclasses

    design = rc.design
    updates = {}
    seed = _seed_override(args)
    if seed is not None:
        updates["seed"] = seed
    if getattr(args, "lags_from_one", False):
        updates["lags_from_one"] = True
    if getattr(args, "literal_transpose", False):
        updates["literal_transpose"] = True
    if updates:
        design = dataclasses.replace(design, **updates)
    return design


def _out_dir(rc, args):
    out = getattr(args, "out", None)
    path = Path(out) if out else Path(rc.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt_choice(rc, args):
    return getattr(args, "format", None) or rc.fmt


def _cmd_design(args):
    rc = load_config(args.config)
    design = _apply_design_overrides(rc, args)
    dl = rc.downlink()
    ul = reciprocal_scenario(dl)
    pair, trace = design_pilots(dl, ul, design)
    p_x, p_y = column_power_bound(design, dl), column_power_bound(design, ul)

    out = _out_dir(rc, args)
    payload = archive_payload(pair, trace, design, p_x, p_y, config_sha256=rc.sha256)
    dump_archive(payload, out / "pilot_archive.json")
    atomic_write(out / "design_trace.csv", lambda p: write_trace_csv(trace, p))

    print(f"final mse: {trace.mse[-1]:.12g}")
    print(f"downlink mse: {trace.mse_dl[-1]:.12g}")
    print(f"uplink mse: {trace.mse_ul[-1]:.12g}")
    print(f"outer iterations: {trace.outer_iterations}")
    print(f"converged: {trace.converged}")
    print(f"stop reason: {trace.stop_reason}")
    print(f"max column power: {pair.max_column_power:.12g}")
    print(f"max cross-correlation: {pair.max_cross_corr:.6g}")
    print(f"max autocorrelation (lags 1..k): {pair.max_auto_corr:.6g}")
    for w in trace.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {out / 'pilot_archive.json'}")
    print(f"wrote {out / 'design_trace.csv'}")
    return EXIT_OK if trace.converged else EXIT_NOCONV


def _cmd_analyze(args):
    arch = read_archive(args.archive)
    b = arch.dims["b"]
    max_lag = args.max_lag if args.max_lag is not None else b - 1
    if not 0 <= max_lag < b:
        raise ConfigError(f"--max-lag must be in [0, {b - 1}], got {max_lag}")
    literal = args.literal_transpose or arch.design.get("literal_transpose", False)
    report = correlation_report(
        arch.x, arch.y, max_lag=max_lag, literal_transpose=literal
    )

    fmt = args.format or "csv"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            target = out / "correlation.csv"
            atomic_write(target, lambda p: write_correlation_csv(report, p))
        else:
            target = out / "correlation.json"
            text = json.dumps(
                {"max_lag": max_lag, "literal_transpose": literal,
                 "rows": correlation_rows(report)},
                indent=2,
            )
            atomic_write(target, lambda p: Path(p).write_text(text + "\n"))
        print(f"wrote {target}")

    peak_auto = float(report.autocorr_db[:, report.lags != 0].max()) if max_lag else None
    peak_cross = float(report.crosscorr_db.max()) if report.crosscorr.size else None
    print(f"lags: -{max_lag}..{max_lag}")
    if peak_auto is not None:
        print(f"peak off-zero autocorrelation: {peak_auto:.2f} dB")
    if peak_cross is not None:
        print(f"peak cross-correlation: {peak_cross:.2f} dB")
    return EXIT_OK


def _cmd_montecarlo(args):
    rc = load_config(args.config)
    design = _apply_design_overrides(rc, args)
    dl = rc.downlink()
    ul = reciprocal_scenario(dl)
    runs = args.runs if args.runs is not None else 50
    if runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {runs}")
    summary = monte_carlo_design(dl, ul, design, runs, base_seed=design.seed)

    out = _out_dir(rc, args)
    fmt = _fmt_choice(rc, args)
    if fmt == "csv":
        target = out / "mc_summary.csv"
        atomic_write(target, lambda p: write_montecarlo_csv(summary, p))
    else:
        target = out / "mc_summary.json"
        text = json.dumps(
            {"iterations": summary.iterations.tolist(),
             "mse_mean": summary.mse_mean.tolist(),
             "mse_std": summary.mse_std.tolist(),
             "final_mse": summary.final_mse.tolist(),
             "seeds": summary.seeds.tolist(),
             "converged_runs": summary.converged_runs,
             "failed_runs": summary.failed_runs,
             "failures": [
                 {"seed": seed, "type": kind, "message": message}
                 for seed, kind, message in summary.failures
             ]},
            indent=2,
        )
        atomic_write(target, lambda p: Path(p).write_text(text + "\n"))

    total = len(summary.seeds)
    print(f"runs: {total}  converged: {summary.converged_runs}  "
          f"failed: {summary.failed_runs}")
    for seed, kind, message in summary.failures:
        print(f"seed {seed} failed: {kind}: {message}")
    print(f"mean final mse: {float(np.mean(summary.final_mse)):.12g}")
    print(f"wrote {target}")
    if summary.failed_runs or summary.converged_runs < total:
        return EXIT_NOCONV
    return EXIT_OK


def _cmd_range(args):
    rc = load_config(args.config)
    if rc.timing is None:
        raise ConfigError("[timing] section is required for the range command")
    ts = rc.timing
    d_max = max_object_range(ts)
    values = {
        "max_object_range_m": d_max,
        "user_delay_symbols": delay_symbols(ts.d_user, ts),
        "budget_symbols": (ts.t_pr + ts.k) / 2.0,
    }
    if ts.d_object is not None:
        feas = is_sensing_feasible(ts, printed_direction=args.printed_direction)
        values["object_delay_symbols"] = delay_symbols(ts.d_object, ts)
        values["feasible"] = feas.feasible
        values["slack_symbols"] = feas.slack_symbols

    if args.format == "json":
        print(json.dumps(values, indent=2))
        return EXIT_OK
    print(f"max object range: {d_max:.12g} m")
    print(f"one-way user delay: {values['user_delay_symbols']:.12g} symbols")
    print(f"round-trip budget: {values['budget_symbols']:.12g} symbols")
    if ts.d_object is not None:
        print(f"object at {ts.d_object:.12g} m: "
              f"{'feasible' if values['feasible'] else 'NOT feasible'} "
              f"(slack {values['slack_symbols']:.12g} symbols)")
    return EXIT_OK


def _cmd_validate(args):
    rc = load_config(args.config)
    dl = rc.downlink()
    trials = args.trials if args.trials is not None else 10000
    if trials < 2:
        raise ConfigError(f"--trials must be >= 2, got {trials}")
    seed = _seed_override(args)
    if seed is None:
        seed = rc.design.seed

    rng = np.random.default_rng(seed)
    pilot = rng.standard_normal((dl.b, dl.n_t)) + 1j * rng.standard_normal(
        (dl.b, dl.n_t)
    )
    pilot *= np.sqrt(dl.gamma) / np.linalg.norm(pilot)

    t0 = time.perf_counter()
    emp = empirical_mse(pilot, dl, trials, seed=seed + 1)
    elapsed = time.perf_counter() - t0
    analytic = emp.analytic
    gap = abs(emp.mean - analytic)
    limit = 3.0 * emp.stderr
    ok = gap <= limit

    print(f"analytic mse: {analytic:.12g}")
    print(f"empirical mse: {emp.mean:.12g} (stderr {emp.stderr:.3g}, "
          f"{trials} trials)")
    print(f"|gap| = {gap:.3g} vs 3*stderr = {limit:.3g}")
    print(f"simulated {trials} trials in {elapsed:.3g} s "
          f"({trials / elapsed:.4g} trials/s)")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zczpilot",
        description="Paired uplink/downlink training sequence design with "
        "zero-correlation-zone constraints, plus sensing range budgeting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="design a pilot pair and archive it")
    d.add_argument("--config", required=True, help="INI configuration file")
    d.add_argument("--out", help="output directory (default from [output])")
    d.add_argument("--seed", type=int, help="override the design seed")
    d.add_argument("--lags-from-one", action="store_true",
                   help="exclude lag 0 from the cross-correlation zone")
    d.add_argument("--literal-transpose", action="store_true",
                   help="use unconjugated transposes in the correlations")
    d.set_defaults(func=_cmd_design)

    a = sub.add_parser("analyze", help="correlation report for an archive")
    a.add_argument("archive", help="pilot archive JSON file")
    a.add_argument("--out", help="directory for the report file")
    a.add_argument("--max-lag", type=int, help="largest lag to report")
    a.add_argument("--format", choices=["csv", "json"])
    a.add_argument("--literal-transpose", action="store_true",
                   help="force unconjugated transposes regardless of archive")
    a.set_defaults(func=_cmd_analyze)

    m = sub.add_parser("montecarlo", help="designer statistics over many seeds")
    m.add_argument("--config", required=True)
    m.add_argument("--runs", type=int, help="number of seeds (default 50)")
    m.add_argument("--seed", type=int, help="first seed of the block")
    m.add_argument("--out")
    m.add_argument("--format", choices=["csv", "json"])
    m.add_argument("--lags-from-one", action="store_true")
    m.add_argument("--literal-transpose", action="store_true")
    m.set_defaults(func=_cmd_montecarlo)

    r = sub.add_parser("range", help="sensing range and feasibility")
    r.add_argument("--config", required=True)
    r.add_argument("--format", choices=["text", "json"], default="text")
    r.add_argument("--printed-direction", action="store_true",
                   help="treat the user as farther than the sensed object")
    r.set_defaults(func=_cmd_range)

    v = sub.add_parser("validate", help="Monte Carlo check of the analytic MSE")
    v.add_argument("--config", required=True)
    v.add_argument("--trials", type=int, help="channel/noise draws (default 10000)")
    v.add_argument("--seed", type=int)
    v.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArchiveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    except DesignError as err:
        print(f"design error: {err}", file=sys.stderr)
        return EXIT_DESIGN


if __name__ == "__main__":
    sys.exit(main())
