"""Reporting and validation around designed pilot pairs.

Correlation reports recompute auto/cross-correlations of a pilot pair
independently of the designer (a deliberate second route for checking
residuals), Monte-Carlo aggregation reruns the designer across seeds, and
empirical_mse validates the analytic MSE expression by simulation.
"""

import csv
import math
import operator
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .designer import TRACE_COLUMNS, design_pilots, shift_matrix
from .estimation import mmse_squared_errors

DB_FLOOR = -300.0


def _db(values):
    mag = np.abs(values)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag)
    return np.maximum(db, DB_FLOOR)


@dataclass(frozen=True)
class CorrelationReport:
    """Auto/cross-correlation series of a pilot pair over lags -L..L.

    autocorr[q, j] is x_q^H J_lag x_q at lag = lags[j] (x_q^T J x_q under
    the literal-transpose convention); crosscorr[q, l, j] correlates
    downlink column q with uplink column l the same way.  The *_db arrays
    are 20 log10 magnitudes floored at -300 dB.
    """

    lags: np.ndarray
    autocorr: np.ndarray
    crosscorr: np.ndarray
    autocorr_db: np.ndarray
    crosscorr_db: np.ndarray
    literal_transpose: bool


def correlation_report(x, y, max_lag=None, literal_transpose=False):
    """Correlation series of the pilot pair for |lag| <= max_lag (< B).

    max_lag is an integer (operator.index: a float raises TypeError).
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("pilot matrices must share the training length")
    b = x.shape[0]
    max_lag = b - 1 if max_lag is None else operator.index(max_lag)
    if not 0 <= max_lag < b:
        raise ValueError(f"max_lag must be in [0, {b - 1}], got {max_lag}")
    lags = np.arange(-max_lag, max_lag + 1)
    xl = x if literal_transpose else x.conj()
    auto = np.empty((x.shape[1], lags.size), dtype=np.complex128)
    cross = np.empty((x.shape[1], y.shape[1], lags.size), dtype=np.complex128)
    for j, lag in enumerate(lags):
        jm = shift_matrix(b, int(lag))
        auto[:, j] = np.einsum("bq,bc,cq->q", xl, jm, x)
        cross[:, :, j] = xl.T @ jm @ y
    return CorrelationReport(
        lags=lags,
        autocorr=auto,
        crosscorr=cross,
        autocorr_db=_db(auto),
        crosscorr_db=_db(cross),
        literal_transpose=literal_transpose,
    )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated design traces across seeds.

    Shorter traces are padded with their final value before averaging, so
    mse_mean[j] is the mean over runs of the MSE at outer iteration j
    (iteration 0 is the initialization).  failures holds one
    (seed, exception type name, message) row per failed run; at least one
    run succeeded, as monte_carlo_design raises otherwise.  seeds are the
    design seeds in order, as exact ints.
    """

    iterations: np.ndarray
    mse_mean: np.ndarray
    mse_std: np.ndarray
    final_mse: np.ndarray
    seeds: tuple[int, ...]
    converged_runs: int
    failures: tuple[tuple[int, str, str], ...]

    @property
    def failed_runs(self):
        return len(self.failures)


def monte_carlo_design(dl, ul, cfg, runs):
    """Re-run the designer on the runs seeds from cfg.seed up and aggregate traces.

    A run that raises LinAlgError is recorded as a failure with its cause.
    When every run failed, the first run's LinAlgError itself is raised
    again, with its chain (a scenario whose noise factor cannot be
    factored fails every seed alike); any other exception is a fault and
    propagates.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = tuple(range(cfg.seed, cfg.seed + runs))
    traces = []
    converged = 0
    failures = []
    for seed in seeds:
        try:
            _, trace = design_pilots(dl, ul, dc_replace(cfg, seed=seed))
        except np.linalg.LinAlgError as exc:
            if not failures:
                first_error = exc
            failures.append((seed, type(exc).__name__, str(exc)))
            continue
        traces.append(trace.mse)
        converged += trace.converged
    if not traces:
        raise first_error
    length = max(len(t) for t in traces)
    padded = np.array([t + [t[-1]] * (length - len(t)) for t in traces])
    std = (
        np.std(padded, axis=0, ddof=1)
        if padded.shape[0] > 1
        else np.zeros(length)
    )
    return MonteCarloSummary(
        iterations=np.arange(length),
        mse_mean=np.mean(padded, axis=0),
        mse_std=std,
        final_mse=padded[:, -1],
        seeds=seeds,
        converged_runs=converged,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class EmpiricalMse:
    """Simulation estimate of the channel MSE, next to the analytic (lemma)
    MSE of the same pilot from the Gram factorization behind the
    estimator."""

    mean: float
    stderr: float
    trials: int
    stderr_defined: bool
    analytic: float


def empirical_mse(p, s, trials, seed=0):
    """Average ||H_hat - H||_F^2 over seeded training simulations.

    The trials draw consecutive rows of np.random.default_rng(seed) (a
    Generator continues its own stream), so a run with more trials
    extends one with fewer.  The Gram and the covariances are factored
    once per call and the trials run in blocks (see
    :func:`mmse_squared_errors`).  With a single trial the standard error
    is undefined and reported as 0 with stderr_defined=False.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    analytic, errs = mmse_squared_errors(p, s, trials, seed)
    mean = float(np.mean(errs))
    if trials == 1:
        return EmpiricalMse(mean=mean, stderr=0.0, trials=1, stderr_defined=False,
                            analytic=analytic)
    stderr = float(np.std(errs, ddof=1) / math.sqrt(trials))
    return EmpiricalMse(mean=mean, stderr=stderr, trials=trials, stderr_defined=True,
                        analytic=analytic)


def _fmt(v):
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_correlation_csv(report, path):
    """Emit correlation_rows as kind,q,l,lag,re,im,mag_db (17 digits;
    l is empty on auto rows)."""
    _write_csv(path, ["kind", "q", "l", "lag", "re", "im", "mag_db"], (
        [r["kind"], r["q"], "" if r["l"] is None else r["l"], r["lag"],
         _fmt(r["re"]), _fmt(r["im"]), _fmt(r["mag_db"])]
        for r in correlation_rows(report)))


def write_montecarlo_csv(summary, path):
    """Emit per-iteration mean/std MSE as iteration,mean_mse,std_mse."""
    rows = zip(summary.iterations, summary.mse_mean, summary.mse_std)
    _write_csv(path, ["iteration", "mean_mse", "std_mse"],
               ([int(i), _fmt(m), _fmt(sd)] for i, m, sd in rows))


def write_trace_csv(trace, path):
    """Emit designer progress as iteration, then the TRACE_COLUMNS lists."""
    cols = zip(*(getattr(trace, c) for c in TRACE_COLUMNS))
    _write_csv(path, ["iteration", *TRACE_COLUMNS],
               ([i, *map(_fmt, row)] for i, row in enumerate(cols)))


def correlation_rows(report):
    """Report rows as dicts: the auto rows by downlink column q and lag,
    then the cross rows by q, uplink column l and lag."""
    rows = []
    n_t, n_y = report.crosscorr.shape[:2]
    for q in range(n_t):
        for j, lag in enumerate(report.lags):
            v = report.autocorr[q, j]
            rows.append(
                {"kind": "auto", "q": q, "l": None, "lag": int(lag),
                 "re": float(v.real), "im": float(v.imag),
                 "mag_db": float(report.autocorr_db[q, j])}
            )
    for q in range(n_t):
        for l in range(n_y):
            for j, lag in enumerate(report.lags):
                v = report.crosscorr[q, l, j]
                rows.append(
                    {"kind": "cross", "q": q, "l": l, "lag": int(lag),
                     "re": float(v.real), "im": float(v.imag),
                     "mag_db": float(report.crosscorr_db[q, l, j])}
                )
    return rows
