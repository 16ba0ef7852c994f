"""Run configuration: flat INI-style text with one section per subsystem.

Sections: [scenario] (antenna counts, training length, correlation
coefficients, energy budget), [design] (designer knobs), [timing]
(sensing geometry) and [output] (directory, format).  The [design] keys
are the DesignConfig fields and each [timing] key maps to one
TimingScenario field; those dataclasses hold the defaults and the range
checks.  Unknown sections or keys are rejected with their location;
values are validated on parse so commands never start work on a bad
configuration.
"""

import configparser
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .covariance import DEFAULT_RHO_POLAR, build_scenario
from .designer import DesignConfig
from .timing import TimingScenario


class ConfigError(Exception):
    """Invalid or unreadable run configuration."""


_SCENARIO_KEYS = {
    "n_t": "transmit antennas (int)",
    "n_r": "receive antennas (int)",
    "b": "training length in symbols (int)",
    "rho_rt_mag": "transmit-side correlation magnitude",
    "rho_rt_phase_pi": "transmit-side correlation phase, units of pi",
    "rho_rr_mag": "receive-side correlation magnitude",
    "rho_rr_phase_pi": "receive-side correlation phase, units of pi",
    "rho_mt_mag": "temporal noise correlation magnitude",
    "rho_mt_phase_pi": "temporal noise correlation phase, units of pi",
    "gamma": "downlink training energy budget (default b*n_t; the uplink's b*n_r)",
}
# mu (the inner-round cap), which existing configs set, is accepted and
# checked so that they still load; the designer takes one inner round and
# ignores it.
_DESIGN_KEYS = {f.name for f in fields(DesignConfig)} | {"mu"}
# [timing] key -> TimingScenario field, which holds the default.  The two
# required keys come first, so a missing one is reported before the rest.
_TIMING_FIELDS = {
    "d_user_m": "d_user",
    "symbol_time_s": "symbol_time",
    "processing_symbols": "t_pr",
    "propagation_mps": "nu",
    "d_object_m": "d_object",
}
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "design": _DESIGN_KEYS,
    "timing": _TIMING_FIELDS,
    "output": {"directory", "format"},
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; scenario/timing parts may be absent."""

    n_t: int | None
    n_r: int | None
    b: int | None
    rho_rt: complex
    rho_rr: complex
    rho_mt: complex
    gamma: float | None
    design: DesignConfig
    timing: TimingScenario | None
    out_dir: str
    fmt: str
    sha256: str

    def downlink(self):
        """Build the downlink scenario; requires the [scenario] section."""
        if self.n_t is None:
            raise ConfigError("[scenario] section with n_t, n_r, b is required")
        return build_scenario(
            self.n_t,
            self.n_r,
            self.b,
            rho_rt=self.rho_rt,
            rho_rr=self.rho_rr,
            rho_mt=self.rho_mt,
            gamma=self.gamma,
        )


def _parse(cp, section, key, conv, kind, default):
    raw = cp.get(section, key, fallback="").strip()
    if not raw:
        return default
    try:
        value = conv(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {kind}, got {raw!r}"
        ) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _boolean(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def parse_config(text, sha256=""):
    """Parse and validate configuration text into a RunConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from None

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    n_t, n_r, b = (
        _parse(cp, "scenario", key, int, "integer", None) for key in ("n_t", "n_r", "b")
    )
    if cp.has_section("scenario"):
        missing = [k for k, v in (("n_t", n_t), ("n_r", n_r), ("b", b)) if v is None]
        if missing:
            raise ConfigError(f"[scenario] missing required key(s): {', '.join(missing)}")
        for key, value in (("n_t", n_t), ("n_r", n_r), ("b", b)):
            if value < 1:
                raise ConfigError(f"[scenario] {key}: must be positive, got {value}")

    rhos = {}
    for name, (mag_default, phase_default) in DEFAULT_RHO_POLAR.items():
        mag = _parse(cp, "scenario", f"{name}_mag", float, "number", mag_default)
        phase = _parse(
            cp, "scenario", f"{name}_phase_pi", float, "number", phase_default
        )
        if not 0 <= mag < 1:
            raise ConfigError(f"[scenario] {name}_mag: must be in [0, 1), got {mag}")
        rhos[name] = mag * np.exp(1j * np.pi * phase)
    gamma = _parse(cp, "scenario", "gamma", float, "number", None)
    if gamma is not None and gamma <= 0:
        raise ConfigError(f"[scenario] gamma: must be positive, got {gamma}")

    # DesignConfig holds the defaults; each field's type picks its parser
    # (p, the one optional field, is a float).
    design = {}
    for f in fields(DesignConfig):
        conv, kind = {bool: (_boolean, "boolean"), int: (int, "integer")}.get(
            f.type, (float, "number")
        )
        design[f.name] = _parse(cp, "design", f.name, conv, kind, f.default)
    if _parse(cp, "design", "mu", int, "integer", 1) < 1:
        raise ConfigError("[design] mu must be >= 1")
    try:
        design = DesignConfig(**design)
    except ValueError as err:
        raise ConfigError(f"[design] {err}") from None
    if b is not None and design.k >= b:
        raise ConfigError(f"[design] k: must be smaller than b={b}, got {design.k}")

    timing = None
    if cp.has_section("timing"):
        given = {}
        for key, name in _TIMING_FIELDS.items():
            value = _parse(cp, "timing", key, float, "number", None)
            if value is not None:
                given[name] = value
            elif name in ("d_user", "symbol_time"):
                raise ConfigError("[timing] requires d_user_m and symbol_time_s")
        try:
            timing = TimingScenario(k=design.k, **given)
        except ValueError as err:
            raise ConfigError(f"[timing] {err}") from None

    fmt = _parse(cp, "output", "format", str, "text", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"[output] format: expected csv or json, got {fmt!r}")
    out_dir = _parse(cp, "output", "directory", str, "text", "out")

    return RunConfig(n_t=n_t, n_r=n_r, b=b, **rhos, gamma=gamma, design=design,
                     timing=timing, out_dir=out_dir, fmt=fmt, sha256=sha256)


def load_config(path):
    """Read and parse a config file; errors name the offending path/key."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not valid UTF-8: {err}") from None
    return parse_config(text, sha256=hashlib.sha256(raw).hexdigest())
