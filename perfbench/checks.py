"""Correctness checks on the artifacts of a pass; all run outside the timed region.

Each check yields a ``Check``; the failed share of all checks made in a run
is the benchmark's ``fail_ratio`` (reported as ``failed`` / ``attempted``).
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np

from dirac_cyclotron import (
    ModelParams,
    build_mode_set,
    default_grid,
    mode_sum_field,
    quadrature_expectation,
    sample_mode_sum,
)
from dirac_cyclotron.cli import parse_provenance

STRING_COLUMNS = ("check", "status")  # the only non-numeric columns (validate.csv)
FIELD_THRESHOLD = 1e-8  # validate's closed-form-field vs mode-sum threshold
OBSERVABLE_THRESHOLD = 1e-6  # validate's observable vs quadrature threshold
TRACE_SPOT_ROWS = 2
MAP_SPOT_ROWS = 8


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class Artifact(NamedTuple):
    header: dict[str, str]
    columns: list[str]
    rows: list[list[str]]


def read_artifact(path: Path) -> Artifact:
    """Split a CSV artifact into its '#' provenance header, columns and rows."""
    text = path.read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",") if lines else []
    return Artifact(parse_provenance(text), columns, [line.split(",") for line in lines[1:]])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_payload(out_dir: Path, artifacts: dict[str, int]) -> list[Check]:
    """Row count, finite values and (for validate) an all-pass report."""
    checks = []
    for name, expected_rows in artifacts.items():
        path = out_dir / name
        if not path.is_file():
            checks.append(Check(f"{name}:exists", False, "artifact missing"))
            continue
        art = read_artifact(path)
        checks.append(Check(
            f"{name}:rows", len(art.rows) == expected_rows,
            f"{len(art.rows)} rows, expected {expected_rows}",
        ))
        numeric = [i for i, c in enumerate(art.columns) if c not in STRING_COLUMNS]
        bad = next(
            (r for r in art.rows if len(r) != len(art.columns) or not _finite(r, numeric)),
            None,
        )
        checks.append(Check(f"{name}:finite", bad is None, f"bad row {bad!r}"))
        if "status" in art.columns:
            col = art.columns.index("status")
            failing = [r for r in art.rows if r[col] != "pass"]
            checks.append(Check(f"{name}:pass", not failing, f"failing rows {failing!r}"))
    return checks


def _finite(row: list[str], numeric: list[int]) -> bool:
    try:
        return all(math.isfinite(float(row[i])) for i in numeric)
    except ValueError:
        return False


def check_digests(out_dir: Path, expected: dict[str, str]) -> list[Check]:
    """Byte identity of each --no-timestamp artifact with a recorded sha256."""
    checks = []
    for name, digest in expected.items():
        path = out_dir / name
        actual = sha256(path) if path.is_file() else "missing"
        checks.append(Check(f"{name}:digest", actual == digest, f"{actual} != {digest}"))
    return checks


# -- oracle spot-checks -------------------------------------------------------

def spot_check(out_dir: Path, artifacts: dict[str, int], seed: int) -> list[Check]:
    """Recompute seed-chosen rows of every artifact with an oracle path.

    Traces are compared with grid quadrature of the mode-sum field, maps
    pointwise with ``mode_sum_field``, at the thresholds ``validate`` uses.
    Fractional-revival and taylor2 maps have no independent oracle (the
    first is an approximation, the second is the oracle itself).
    """
    rng = random.Random(f"spot:{seed}")
    checks = []
    for name in artifacts:
        path = out_dir / name
        if not path.is_file():
            continue
        art = read_artifact(path)
        check = _SPOT.get(art.header.get("scenario"))
        if check is None or art.header.get("spectrum", "exact") != "exact":
            continue
        k = TRACE_SPOT_ROWS if "n_samples" in art.header else MAP_SPOT_ROWS
        picks = sorted(rng.sample(range(len(art.rows)), min(k, len(art.rows))))
        rows = [[float(v) for v in art.rows[i]] for i in picks]
        try:
            devs, threshold = check(art.header, rows)
        except (ValueError, ArithmeticError) as exc:
            checks.append(Check(f"{name}:oracle", False, f"oracle failed: {exc}"))
            continue
        checks.append(Check(
            f"{name}:oracle", bool(np.all(devs <= threshold)),  # NaN fails
            f"max|dev| {np.max(devs):.3e} at rows {picks}, threshold {threshold:.0e}",
        ))
    return checks


def _params(header: dict[str, str]) -> ModelParams:
    return ModelParams(
        lambda_over_a=float(header["lambda_over_a"]),
        qa=float(header["qa"]),
        alpha=float(header["alpha"]),
        beta=float(header["beta"]),
        trunc_tol=float(header["trunc_tol"]),
    )


def _trace_check(mode_kind: str, operators: tuple[str, ...]):
    def check(header, rows):
        params = _params(header)
        modes = build_mode_set(mode_kind, params)
        grid = default_grid(params)
        devs = []
        for tau, *values in rows:
            field = sample_mode_sum(grid, tau, modes, params)
            for op, value in zip(operators, values):
                devs.append(abs(value - quadrature_expectation(op, field, params)))
        return np.array(devs), OBSERVABLE_THRESHOLD

    return check


def _map_fields(header, rows, mode_kind):
    params = _params(header)
    rho = np.array([r[0] for r in rows])
    theta = np.array([r[1] for r in rows])
    modes = build_mode_set(mode_kind, params)
    return np.array(rows), mode_sum_field(rho, theta, float(header["t"]), modes, params)


def _density_check(header, rows):
    kind = "positive_only" if header["packet"] == "positive" else "two_band"
    table, psi = _map_fields(header, rows, kind)
    density = np.sum(np.abs(psi) ** 2, axis=0)
    return np.abs(table[:, 2] - density), FIELD_THRESHOLD


def _spin_map_check(header, rows):
    table, psi = _map_fields(header, rows, "positive_only")
    # psi^dagger Sigma_{x,y} psi with Sigma = 1 (x) sigma: pairs (1,2), (3,4)
    z = np.conj(psi[0]) * psi[1] + np.conj(psi[2]) * psi[3]
    devs = np.abs(table[:, 2:4] - np.stack([2 * z.real, 2 * z.imag], axis=1))
    return devs, FIELD_THRESHOLD


_SPOT = {
    "velocity": _trace_check("positive_only", ("velocity_x", "velocity_y")),
    "spin-trace": _trace_check("positive_only", ("sigma_x", "sigma_y")),
    "jc-velocity": _trace_check("two_band", ("velocity_x", "velocity_y")),
    "jc-spin": _trace_check("two_band", ("sigma_z",)),
    "density-map": _density_check,
    "spin-map": _spin_map_check,
}
