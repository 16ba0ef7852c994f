"""zczpilot benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload ref-4x4-b8-k4 --seed 1 --seconds 20 --trace 0

The program is driven only through its public entry points: timed
end-to-end calls go through zczpilot.cli.main(["design" | "validate", ...]),
set-up is timed in fresh interpreters, and the traced run wraps public
functions from outside (perfbench/tracer.py).  Timings are scaled to a
reference machine speed measured by a fixed kernel (SpeedReference).
Every design's archive is read back and re-checked independently of the
designer's own residuals.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import os

# Pinned before numpy loads so that BLAS starts single-threaded here and
# in the set-up probes, which inherit the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    ini: str
    design_seeds: tuple  # fixed panel of design seeds, see README
    validate_seeds: tuple
    trials: int  # per validate call
    calls: int  # validate calls after each design
    probes: int  # set-up probes after each design


WORKLOADS = {
    "ref-4x4-b8-k4": Workload("ref-4x4-b8-k4.ini", (0, 1, 2, 3), (0, 1, 2), 2000, 3, 3),
    "zcz-4x4-b16-k2": Workload("zcz-4x4-b16-k2.ini", (0, 1), (0, 1, 2), 1500, 3, 3),
    "kron-8x8-b64-k0": Workload("kron-8x8-b64-k0.ini", (0, 1), (0, 1, 2), 100, 2, 4),
}

SLACK = 1e-9

END_TO_END = {
    "setup_s": "s",
    "design_s_p50": "s",
    "mse_total_mean": "1",
    "auto_gap_db_median": "dB",
    "validate_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Traced functions and the root operation whose spans they are counted in.
DESIGN_LAYERS = (
    "designer.design_pilots",
    "designer.inner_cycle",
    "designer.x_step",
    "designer.y_step",
    "designer.build_sigma_target",
    "tensorops.power_iteration_opnorm",
    "estimation.channel_mse_lemma",
    "estimation.optimal_V",
    "designer._pair_residuals",
    "config.load_config",
    "covariance.reciprocal_scenario",
    "archive.dump_archive",
    "analysis.write_trace_csv",
)
VALIDATE_LAYERS = (
    "estimation.simulate_training",
    "estimation.mmse_estimate",
    "analysis.empirical_mse",
)
POWER_ITERATION = "tensorops.power_iteration_opnorm"
LAYER_STATS = {"us_p50": "us", "calls": "count", "self_share": "1"}
LAYER_EXTRA = {
    "designer.inner_cycle.rounds": "count",
    "tensorops.power_iteration_opnorm.applies": "count",
    "designer.outer_iterations": "count",
    "designer.converged_share": "1",
    "estimation.mse_dl": "1",
    "estimation.mse_ul": "1",
    "trace.overhead_pct": "%",
}

# Seconds the speed reference kernel takes at reference speed; timings are
# reported scaled to it (see SpeedReference).
KERNEL_REF_S = 0.012

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import zczpilot
from zczpilot.config import load_config
from zczpilot.covariance import reciprocal_scenario
rc = load_config(sys.argv[2])
reciprocal_scenario(rc.downlink())
print("ready", flush=True)
"""


def per_layer_units():
    units = {}
    for name in DESIGN_LAYERS + VALIDATE_LAYERS:
        for stat, unit in LAYER_STATS.items():
            units[f"{name}.{stat}"] = unit
    units.update(LAYER_EXTRA)
    return units


def environment():
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe(ini):
    """Seconds from a fresh interpreter to both link scenarios built."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(ini)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {rc}")
    return elapsed


class SpeedReference:
    """Tracks the machine's momentary speed with a fixed reference kernel.

    On a shared machine identical work can take up to twice as long from
    one stretch of seconds to the next.  The kernel runs after every
    sample: 400 small Cholesky factorizations and solves (bound by
    per-call overhead, like the projection loops and the simulator) and
    40 products of 160x160 matrices (BLAS).  It is not zczpilot code, so
    a change to the program cannot move it.  A raw time times a factor
    below is the time the sample would have taken with the kernel at
    KERNEL_REF_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20261017)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.a = a @ a.conj().T + 16.0 * np.eye(16)
        self.m = rng.standard_normal((160, 160))
        self.kernel_times = []
        self.tick()

    def tick(self):
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(400):
            np.linalg.solve(self.a, np.linalg.cholesky(self.a)[:, :2])
        for _ in range(40):
            self.m @ self.m
        self.kernel_times.append(time.perf_counter() - t0)

    def factor(self):
        """Factor for a sub-second sample that ran since the last tick:
        from the kernel runs just before and just after it."""
        before = self.kernel_times[-1]
        self.tick()
        return KERNEL_REF_S / (0.5 * (before + self.kernel_times[-1]))

    def run_factor(self):
        """Factor for samples of several seconds, longer than the machine's
        stretches of one speed: from the mean of all kernel runs."""
        return KERNEL_REF_S / statistics.fmean(self.kernel_times)


def call_cli(argv):
    """Time one zczpilot.cli.main call; returns (seconds, exit code, stdout, error)."""
    from zczpilot import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # a raising design is a counted failure
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue(), error


def check_design(out_dir, rc, error, dl, ul):
    """Re-check one design from its files; returns (record, miss or None)."""
    from zczpilot.analysis import correlation_report
    from zczpilot.archive import read_archive
    from zczpilot.estimation import channel_mse_lemma
    import numpy as np

    if error is not None:
        return None, error
    if rc not in (0, 3):  # 3 is "not converged": outputs are still valid
        return None, f"exit code {rc}"
    arch = read_archive(out_dir / "pilot_archive.json")
    x, y, d = arch.x, arch.y, arch.design
    if x.shape != (dl.b, dl.n_t) or y.shape != (ul.b, ul.n_t):
        return None, f"archived shapes {x.shape}, {y.shape}"
    with open(out_dir / "design_trace.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh))
    if rows != arch.result["outer_iterations"] + 2:  # header + iteration 0
        return None, f"trace CSV has {rows} rows"

    k, eps, p_x, p_y = d["k"], d["epsilon"], d["p_x"], d["p_y"]
    window = max(k, 1)  # the sidelobe window; lag 1 when k = 0
    rep = correlation_report(x, y, max_lag=window)
    lags = rep.lags
    zero = int(np.flatnonzero(lags == 0)[0])
    lag0 = rep.autocorr[:, zero].real
    power_y = np.sum(np.abs(y) ** 2, axis=0)
    if lag0.max() > p_x * (1 + SLACK) or power_y.max() > p_y * (1 + SLACK):
        return None, f"column power {lag0.max():.6g} / {power_y.max():.6g} above p"
    if lag0.max() <= 0.0:
        return None, "downlink pilot is zero"
    for m in range(1, k + 1):
        quad = (rep.autocorr[:, lags == m] + rep.autocorr[:, lags == -m]).real[:, 0]
        worst = float((quad + 2.0 * lag0).max())
        if worst > 2.0 * p_x * (1 + SLACK):
            return None, f"ellipsoid lag {m}: {worst:.6g} > 2p = {2 * p_x:.6g}"
    zone = np.isin(lags, np.arange(1 if d.get("lags_from_one") else 0, k + 1))
    cross = float(np.abs(rep.crosscorr[:, :, zone]).max()) / float(lag0.max())
    if cross > eps:
        return None, f"|cross|/lag0 = {cross:.3g} > epsilon = {eps:.3g}"
    mse_dl = channel_mse_lemma(x, dl)
    mse_ul = channel_mse_lemma(y, ul)
    inside = (lags >= 1) & (lags <= window)
    gap = float(rep.autocorr_db[:, zero].max() - rep.autocorr_db[:, inside].max())
    return {
        "mse_dl": mse_dl,
        "mse_ul": mse_ul,
        "auto_gap_db": gap,
        "outer_iterations": arch.result["outer_iterations"],
        "converged": bool(arch.result["converged"]),
    }, None


class Run:
    """One benchmark process: a workload, its scenarios and its samples.

    Work proceeds in rounds: one design, then the workload's validate calls
    and (untraced) set-up probes, so that every kind of sample is
    spread over the whole run rather than taken in one block.
    """

    def __init__(self, name, seed, workdir):
        from zczpilot.config import load_config
        from zczpilot.covariance import reciprocal_scenario
        import numpy as np

        self.wl = WORKLOADS[name]
        self.ini = BENCH / "workloads" / self.wl.ini
        rc = load_config(self.ini)
        self.dl = rc.downlink()
        self.ul = reciprocal_scenario(self.dl)
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.speed = SpeedReference()
        self.attempted = 0
        self.misses = []
        self.records = {}  # design seed -> re-check record
        self.design_times = {}  # design seed -> raw wall times
        # (raw wall time, SpeedReference factor) per sample
        self.validate_times = []
        self.setup_times = []

    def _order(self, panel):
        return [panel[i] for i in self.rng.permutation(len(panel))]

    def design(self, s, span):
        out_dir = self.workdir / f"design-{s}"
        argv = ["design", "--config", str(self.ini), "--out", str(out_dir), "--seed", str(s)]
        with span("cli.design"):
            dt, rc, _, error = call_cli(argv)
        self.speed.tick()
        self.attempted += 1
        try:
            record, miss = check_design(out_dir, rc, error, self.dl, self.ul)
        except Exception as exc:  # an unreadable output is a miss
            record, miss = None, f"{type(exc).__name__}: {exc}"
        if miss is not None:
            self.misses.append(f"design seed {s}: {miss}")
            return
        self.records[s] = record
        self.design_times.setdefault(s, []).append(dt)

    def validate(self, s, span):
        argv = ["validate", "--config", str(self.ini), "--trials", str(self.wl.trials),
                "--seed", str(s)]
        with span("cli.validate"):
            dt, rc, out, error = call_cli(argv)
        scale = self.speed.factor()
        self.attempted += 1
        lines = out.strip().splitlines()
        if error is not None or rc != 0 or not lines or lines[-1] != "PASS":
            self.misses.append(f"validate seed {s}: exit {rc}, {error or lines[-1:]}")
            return
        self.validate_times.append((dt, scale))

    def rounds(self, seconds, span=None, probes=True):
        """Rounds until one full pass over the design panel is done and
        seconds have elapsed; later passes may stop part-way."""
        span = span or (lambda name: contextlib.nullcontext())
        v_order = self._order(self.wl.validate_seeds)
        n = passes = 0
        t0 = time.perf_counter()
        while True:
            for s in self._order(self.wl.design_seeds):
                self.design(s, span)
                for _ in range(self.wl.calls):
                    self.validate(v_order[n % len(v_order)], span)
                    n += 1
                for _ in range(self.wl.probes if probes else 0):
                    dt = setup_probe(self.ini)
                    self.setup_times.append((dt, self.speed.factor()))
                if passes and time.perf_counter() - t0 >= seconds:
                    return
            passes += 1
            if time.perf_counter() - t0 >= seconds:
                return

    def design_p50(self):
        """Median over panel seeds of each seed's median raw design time."""
        per_seed = [statistics.median(t) for t in self.design_times.values()]
        return statistics.median(per_seed) if per_seed else 0.0

    def quality(self):
        recs = [self.records[s] for s in self.wl.design_seeds if s in self.records]
        if not recs:
            return 0.0, 0.0
        return (
            statistics.fmean(r["mse_dl"] + r["mse_ul"] for r in recs),
            statistics.median(r["auto_gap_db"] for r in recs),
        )


def layer_metrics(tracer, trials_per_call, span_cost):
    dur = tracer.durations()
    own = tracer.self_times()
    root_of = [tracer.name[r] for r in tracer.root]
    totals = {"cli.design": 0.0, "cli.validate": 0.0}
    roots = {"cli.design": 0, "cli.validate": 0}
    for i, name in enumerate(tracer.name):
        if tracer.parent[i] < 0:
            totals[name] += dur[i]
            roots[name] += 1
    n_designs = roots["cli.design"]
    n_trials = roots["cli.validate"] * trials_per_call
    by_name = {}
    for i, name in enumerate(tracer.name):
        by_name.setdefault((name, root_of[i]), []).append(i)

    metrics = {}
    for names, scope, units in ((DESIGN_LAYERS, "cli.design", n_designs),
                                (VALIDATE_LAYERS, "cli.validate", n_trials)):
        for name in names:
            idx = by_name.get((name, scope), [])
            metrics[f"{name}.us_p50"] = (
                statistics.median(dur[i] for i in idx) * 1e6 if idx else 0.0
            )
            metrics[f"{name}.calls"] = len(idx) / units if units else 0.0
            metrics[f"{name}.self_share"] = (
                sum(own[i] for i in idx) / totals[scope] if totals[scope] else 0.0
            )

    # A round of the inner cycle that does any work starts with x_step; a
    # round that skips it also skips y_step and ends the cycle.
    inner = set(by_name.get(("designer.inner_cycle", "cli.design"), []))
    x_in_inner = sum(
        1 for i in by_name.get(("designer.x_step", "cli.design"), [])
        if tracer.parent[i] in inner
    )
    metrics["designer.inner_cycle.rounds"] = x_in_inner / len(inner) if inner else 0.0
    pi_calls = len(by_name.get((POWER_ITERATION, "cli.design"), []))
    metrics[f"{POWER_ITERATION}.applies"] = (
        tracer.arg_calls.get(POWER_ITERATION, 0) / pi_calls if pi_calls else 0.0
    )
    # Estimated wrapper cost: every span inside a design, at the cost of a
    # traced call over an untraced one, as a share of the design time.
    n_spans = sum(1 for i, r in enumerate(root_of)
                  if r == "cli.design" and tracer.parent[i] >= 0)
    metrics["trace.overhead_pct"] = (
        100.0 * n_spans * span_cost / totals["cli.design"] if totals["cli.design"] else 0.0)
    stray = [name for (name, scope) in by_name
             if scope == "cli.validate" and name.startswith("designer.")]
    return metrics, stray


def run_workload(args):
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = Run(args.workload, args.seed, workdir)
        correct = True
        if args.trace:
            from tracer import Tracer, wrapper_cost

            tracer = Tracer(DESIGN_LAYERS + VALIDATE_LAYERS, (POWER_ITERATION,))
            tracer.install()
            try:
                run.rounds(0, span=tracer.span, probes=False)
            finally:
                tracer.uninstall()
            metrics, stray = layer_metrics(tracer, run.wl.trials, wrapper_cost())
            recs = [run.records[s] for s in run.wl.design_seeds if s in run.records]
            for key, field in (("designer.outer_iterations", "outer_iterations"),
                               ("designer.converged_share", "converged"),
                               ("estimation.mse_dl", "mse_dl"),
                               ("estimation.mse_ul", "mse_ul")):
                metrics[key] = statistics.fmean(r[field] for r in recs) if recs else 0.0
            units = per_layer_units()
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            tracer.dump(spans_path)
            print(f"spans: {len(tracer.name)} written to {spans_path.relative_to(ROOT)}")
            if tracer.absent:
                print("absent (reported as 0): " + ", ".join(tracer.absent))
            for scope, layers in (("cli.design", DESIGN_LAYERS),
                                  ("cli.validate", VALIDATE_LAYERS)):
                top = sorted(layers, key=lambda n: -metrics[f"{n}.self_share"])[:4]
                print(f"largest self share under {scope}: " + ", ".join(
                    f"{n} {metrics[f'{n}.self_share']:.1%}" for n in top))
            if stray:
                correct = False
                print("designer spans under validate: " + ", ".join(stray))
        else:
            setup_probe(run.ini)  # unrecorded: byte-compiles the package once
            run.rounds(args.seconds)
            mse_total, gap = run.quality()
            trials = run.wl.trials
            vt, st = run.validate_times, run.setup_times
            metrics = {
                "setup_s": statistics.median(dt * f for dt, f in st),
                "design_s_p50": run.design_p50() * run.speed.run_factor(),
                "mse_total_mean": mse_total,
                "auto_gap_db_median": gap,
                "validate_trials_per_s": (
                    statistics.median(trials / (dt * f) for dt, f in vt) if vt else 0.0),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            print(f"raw wall time: setup_s {statistics.median(dt for dt, _ in st):.6g}, "
                  f"design_s_p50 {run.design_p50():.6g}, validate_trials_per_s "
                  f"{statistics.median(trials / dt for dt, _ in vt) if vt else 0.0:.6g}; "
                  f"speed reference kernel: median "
                  f"{statistics.median(run.speed.kernel_times) * 1e3:.4g} ms over "
                  f"{len(run.speed.kernel_times)} runs, reference {KERNEL_REF_S * 1e3:g} ms")
            print(f"samples: {sum(len(t) for t in run.design_times.values())} designs "
                  f"over panel seeds {list(run.wl.design_seeds)}, "
                  f"{len(vt)} validate calls x {trials} trials, {len(st)} set-up probes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.misses)
    correct = correct and failed == 0
    for miss in run.misses:
        print("miss: " + miss)
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"fail_share: {failed / run.attempted:.4g} ({failed}/{run.attempted})")
    result = {"correct": correct, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, workload=args.workload, seed=args.seed,
                        seconds=args.seconds, records=run.records,
                        design_times=run.design_times,
                        validate_times=run.validate_times,
                        setup_times=run.setup_times,
                        kernel_times=run.speed.kernel_times), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zczpilot" / "__init__.py").is_file():
        print(f"error: no zczpilot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
