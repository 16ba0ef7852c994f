"""Pilot archive: a JSON container for a designed pilot pair.

The file stores both matrices split into real/imaginary parts (JSON has
no complex type), the design parameters needed to reproduce or analyze
the pair (the DesignConfig fields in their order, with the resolved
per-link power bounds p_x and p_y in place of p), and the residuals at
the solution.  Floats go through Python's repr, so a write/read/write
cycle is byte-identical and values survive the round trip bit-exactly.
`created_utc` is the single field that varies between otherwise
identical runs; `without_timestamp` strips it for comparisons.
"""

import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__

ARCHIVE_FORMAT = "zczpilot-pilot-archive-v1"


class ArchiveError(Exception):
    """Malformed or inconsistent pilot archive."""


def _split(mat):
    return np.real(mat).tolist(), np.imag(mat).tolist()


def archive_payload(pair, trace, cfg, p_x, p_y, config_sha256=""):
    """Assemble the JSON payload for a designed pair (plain dict)."""
    x_re, x_im = _split(pair.x)
    y_re, y_im = _split(pair.y)
    b, n_t = pair.x.shape
    return {
        "format": ARCHIVE_FORMAT,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "config_sha256": config_sha256,
        "dims": {"b": b, "n_t": n_t, "n_r": pair.y.shape[1]},
        "design": {
            **{k: v for k, v in asdict(cfg).items() if k != "p"},
            "p_x": float(p_x),
            "p_y": float(p_y),
        },
        "result": {
            "final_mse": float(trace.mse[-1]),
            "final_mse_dl": float(trace.mse_dl[-1]),
            "final_mse_ul": float(trace.mse_ul[-1]),
            "converged": bool(trace.converged),
            "stop_reason": trace.stop_reason,
            "outer_iterations": int(trace.outer_iterations),
            "max_column_power": float(pair.max_column_power),
            "max_cross_corr": float(pair.max_cross_corr),
            "max_auto_corr": float(pair.max_auto_corr),
            "warnings": list(trace.warnings),
        },
        "x_re": x_re,
        "x_im": x_im,
        "y_re": y_re,
        "y_im": y_im,
    }


def without_timestamp(payload):
    """Copy of the payload with the volatile created_utc field removed."""
    out = dict(payload)
    out.pop("created_utc", None)
    return out


def atomic_write(path, write_fn):
    """Write path atomically: write_fn fills <path>.tmp, which then
    replaces path, so a reader never sees a half-written file."""
    tmp = f"{path}.tmp"
    write_fn(tmp)
    os.replace(tmp, path)


def dump_archive(payload, path):
    """Write the payload atomically (atomic_write)."""
    text = json.dumps(payload, indent=2) + "\n"
    atomic_write(path, lambda tmp: Path(tmp).write_text(text))


@dataclass(frozen=True)
class PilotArchive:
    """Archive contents with the pilot matrices rebuilt as complex arrays."""

    x: np.ndarray
    y: np.ndarray
    design: dict
    result: dict
    dims: dict
    tool_version: str
    config_sha256: str
    created_utc: str


def _require(payload, field, kind):
    if field not in payload:
        raise ArchiveError(f"missing field {field!r}")
    value = payload[field]
    if not isinstance(value, kind):
        raise ArchiveError(f"field {field!r}: expected {kind.__name__}")
    return value


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _matrix(payload, re_field, im_field, rows, cols):
    re = _require(payload, re_field, list)
    im = _require(payload, im_field, list)
    for name, part in ((re_field, re), (im_field, im)):
        if len(part) != rows:
            raise ArchiveError(f"field {name!r}: expected {rows} rows, got {len(part)}")
        for i, row in enumerate(part):
            if not isinstance(row, list) or len(row) != cols:
                raise ArchiveError(
                    f"field {name!r}: row {i} must be a list of {cols} numbers"
                )
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row):
                raise ArchiveError(f"field {name!r}: row {i} has a non-numeric entry")
            if not all(map(_finite, row)):
                raise ArchiveError(f"field {name!r}: row {i} has a non-finite entry")
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


def parse_archive(payload):
    """Validate a payload dict and rebuild the complex pilot matrices."""
    fmt = _require(payload, "format", str)
    if fmt != ARCHIVE_FORMAT:
        raise ArchiveError(f"field 'format': expected {ARCHIVE_FORMAT!r}, got {fmt!r}")
    dims = _require(payload, "dims", dict)
    for key in ("b", "n_t", "n_r"):
        if type(dims.get(key)) is not int or dims[key] < 1:  # bool is no count
            raise ArchiveError(f"field 'dims.{key}': expected a positive integer")
    design = _require(payload, "design", dict)
    if not isinstance(design.get("literal_transpose", False), bool):
        raise ArchiveError("field 'design.literal_transpose': expected a JSON boolean")
    result = _require(payload, "result", dict)
    x = _matrix(payload, "x_re", "x_im", dims["b"], dims["n_t"])
    y = _matrix(payload, "y_re", "y_im", dims["b"], dims["n_r"])
    return PilotArchive(
        x=x,
        y=y,
        design=design,
        result=result,
        dims=dims,
        tool_version=str(payload.get("tool_version", "")),
        config_sha256=str(payload.get("config_sha256", "")),
        created_utc=str(payload.get("created_utc", "")),
    )


def read_archive(path):
    """Load and validate a pilot archive file."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as err:
        raise ArchiveError(f"cannot read archive {path}: {err}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ArchiveError(f"archive {path} is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ArchiveError(f"archive {path}: top level must be an object")
    return parse_archive(payload)
