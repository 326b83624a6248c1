"""Scenario runner: config parsing, deterministic CSV artifacts, validation.

Configs are line-oriented ``key = value`` files with one ``[scenario]``
section per run.  Unknown keys are hard errors; physics keys have no
defaults, plumbing keys do (and every resolved value is echoed into the
artifact header, so an emitted file fully describes how it was produced).
Floats are always written with 17 significant digits and payloads are
byte-identical across thread counts.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import math
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_mode_set, q_kernel, truncation_window
from .fields import (
    PolarGrid,
    cat_decomposition,
    cat_overlap_closed_form,
    default_grid,
    fractional_revival_field,
    gauss_sum_coefficients,
    jc_field,
    positive_energy_field,
)
from .observables import (
    mean_spin_transverse,
    mean_spin_z_jc,
    mean_velocity_jc,
    mean_velocity_positive,
    spin_density,
    spin_z_plateau_jc,
)
from .oracle import (
    b1_quadrature,
    mode_sum_field,
    quadrature_expectation,
    sample_mode_sum,
)
from .spectrum import TIME_UNIT_SECONDS, DerivedScales, ModelParams, derived_scales


class ConfigError(Exception):
    """Raised for any malformed or incomplete configuration input."""


# the one float spec of every artifact: 17 significant digits, '.' separator
_FLOAT = "%.17g"


def fmt(x) -> str:
    """Canonical float formatting: 17 significant digits, '.' separator."""
    return _FLOAT % float(x)


_PHYSICS_KEYS = ("lambda_over_a", "qa", "alpha", "beta")
_GRID_KEYS = ("trunc_tol", "output", "rho_max", "n_rho", "n_theta")
# (required, optional-with-default) keys of every time-trace scenario
_TRACE_KEYS = (_PHYSICS_KEYS + ("t_end",), ("t_start", "n_samples", "trunc_tol", "output"))

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_KINDS = {float: "a number", int: "an integer", bool: "a boolean"}


@dataclass
class Scenario:
    """One parsed config section: scenario name plus raw key/value strings."""

    name: str
    line: int
    values: dict[str, str] = field(default_factory=dict)


def parse_config(text: str) -> list[Scenario]:
    """Parse a config into scenario sections; strict about unknown input."""
    scenarios: list[Scenario] = []
    current: Scenario | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SCENARIOS:
                raise ConfigError(f"line {lineno}: unknown scenario {name!r}")
            current = Scenario(name=name, line=lineno)
            scenarios.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of a [scenario] section")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        required, optional, _ = _SCENARIOS[current.name]
        if key not in required + optional:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} for scenario {current.name!r}"
            )
        if key in current.values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current.values[key] = value
    if not scenarios:
        raise ConfigError("config contains no scenario sections")
    for scn in scenarios:
        required, _, _ = _SCENARIOS[scn.name]
        missing = [k for k in required if k not in scn.values]
        if missing:
            raise ConfigError(
                f"scenario {scn.name!r} (line {scn.line}): missing required "
                f"key(s) {', '.join(missing)}"
            )
    return scenarios


_TIME_EXPR = re.compile(
    r"^\s*(?:(?P<mult>[-+0-9.eE]+)\s*\*\s*)?(?P<anchor>T_cl|T_D|T_R)\s*$"
)


def resolve_time(expr: str, scales: DerivedScales) -> float:
    """Resolve '1.2*T_R' / 'T_cl' / plain-number time strings to tau in lambda/c."""
    m = _TIME_EXPR.match(expr)
    try:
        tau = float(m["mult"] or 1.0) * getattr(scales, m["anchor"]) if m else float(expr)
    except ValueError:
        raise ConfigError(f"cannot parse time expression {expr!r}") from None
    if not math.isfinite(tau):
        raise ConfigError(f"time expression {expr!r} is not a finite number")
    return tau


def _get(scn: Scenario, key: str, kind: type, default=None):
    """The value of ``key`` parsed as ``kind`` (float, int or bool), or ``default``."""
    if key not in scn.values:
        return default
    value = scn.values[key]
    try:
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ConfigError(
            f"scenario {scn.name!r}: key {key!r} is not {_KINDS[kind]}: {value!r}"
        ) from None


def parse_provenance(text: str) -> dict[str, str]:
    """Recover the resolved key/value pairs from an artifact's '#' header."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" in body:
            key, _, value = body.partition("=")
            out[key.strip()] = value.strip()
    return out


def _write_artifact(
    path: Path,
    header: list[tuple[str, str]],
    columns: list[str],
    payload: Iterable[str],
    timestamp: bool,
) -> None:
    """Write the provenance header, the column names and ``payload``, an
    iterable of chunks of formatted rows, each row ending in a newline; each
    chunk is written as it is made."""
    text = [f"# dirac-cyclotron {__version__}"]
    if timestamp:
        text.append(f"# generated = {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    text += [f"# {k} = {v}" for k, v in header] + [",".join(columns), ""]
    with path.open("w") as fh:
        fh.write("\n".join(text))
        for chunk in payload:
            fh.write(chunk)


# The most rows in one chunk of a table: one '%' fills the chunk's template
# and one write writes it, so the writer's strings and value tuple hold at
# most this many rows, not the whole table (a map's chunks are its theta runs).
_CHUNK_ROWS = 4096


def _write_table(
    path: Path,
    header: list[tuple[str, str]],
    columns: list[str],
    axes: tuple[np.ndarray, ...],
    values,
    timestamp: bool,
) -> None:
    """Write numeric arrays over the product of ``axes``, one row per point.

    Row k starts with the k-th point of the product of the 1-D ``axes`` (the
    last axis varies fastest), each axis value formatted once, followed by
    the k-th element of every array in ``values``.  Raises ArithmeticError
    if any value is not finite, and ValueError if a column does not hold
    one value per row, both before anything is written.
    """
    if not all(np.isfinite(v).all() for v in (*axes, *values)):
        raise ArithmeticError(f"non-finite value in the {path.name} payload")
    flat = [np.ravel(v) for v in values]
    n_rows = math.prod(len(axis) for axis in axes)
    if any(len(column) != n_rows for column in flat):
        raise ValueError(f"{[len(column) for column in flat]} values per column for the "
                         f"{n_rows} rows of the {path.name} payload")
    # Each chunk is a run of at most _CHUNK_ROWS rows under one prefix of
    # the outer axes; one template holds its rows and one '%' fills it, so
    # the Python work is per axis value and per chunk, not per row.
    # Formatted finite numbers hold no '%', and _FLOAT % x has the bytes
    # of fmt(x).
    cells = [[_FLOAT % a + "," for a in axis.tolist()] for axis in axes]
    row = ",".join([_FLOAT] * len(values)) + "\n"
    rows = [c + row for c in cells[-1]] if cells else [row]

    def chunks():
        start = 0
        for outer in itertools.product(*cells[:-1]):
            prefix = "".join(outer)
            for lo in range(0, len(rows), _CHUNK_ROWS):
                hi = min(lo + _CHUNK_ROWS, len(rows))
                chunk = np.stack([column[start + lo:start + hi] for column in flat], axis=1)
                yield (prefix + prefix.join(rows[lo:hi])) % tuple(chunk.ravel().tolist())
            start += len(rows)

    _write_artifact(path, header, columns, chunks(), timestamp)


# -- scenarios ----------------------------------------------------------------
# Each scenario function checks and resolves every key of its section before
# anything is computed, and returns (header pairs, columns, axes, compute
# step); the compute step takes ``np.ix_(*axes)``.  Series are looked up as
# module globals when a section computes, never captured when the table is
# built, so a rebound global (a test fake, a tracer) serves every later run.


def _physics(scn: Scenario) -> tuple[ModelParams, DerivedScales, list[tuple[str, str]]]:
    """Check the physics keys and trunc_tol; return params, scales and the common header."""
    params = ModelParams(
        **{key: _get(scn, key, float) for key in _PHYSICS_KEYS},
        trunc_tol=_get(scn, "trunc_tol", float, ModelParams.trunc_tol),
    )
    win = truncation_window(params)
    scales = derived_scales(params)
    header = [("scenario", scn.name)]
    header += [(key, fmt(getattr(params, key))) for key in (*_PHYSICS_KEYS, "trunc_tol")]
    header += [("window_n_min", str(win.n_min)), ("window_n_max", str(win.n_max))]
    return params, scales, header


def _timescales(scn: Scenario):
    _, s, header = _physics(scn)
    columns = {
        "n0": s.n0,
        "T_cl_lambda_over_c": s.T_cl,
        "T_D_lambda_over_c": s.T_D,
        "T_R_lambda_over_c": s.T_R,
        "omega_c_c_over_lambda": s.omega_c,
        "omega_zb_c_over_lambda": s.omega_zb,
        "T_cl_seconds": s.T_cl * TIME_UNIT_SECONDS,
        "T_D_seconds": s.T_D * TIME_UNIT_SECONDS,
        "T_R_seconds": s.T_R * TIME_UNIT_SECONDS,
        "omega_zb_per_second": s.omega_zb / TIME_UNIT_SECONDS,
        "B_tesla": s.B_tesla,
    }
    return header, list(columns), (), lambda: list(columns.values())


def _trace(columns: tuple[str, ...], series, extra=None):
    """A time-trace scenario: ``series(taus, params)`` gives the columns after tau.

    ``extra(params)``, if given, is one more (key, value) header pair.
    """

    def check(scn: Scenario):
        params, scales, header = _physics(scn)
        t_start = resolve_time(scn.values.get("t_start", "0.0"), scales)
        t_end = resolve_time(scn.values["t_end"], scales)
        n_samples = _get(scn, "n_samples", int, 1024)
        if n_samples < 2:
            raise ConfigError("n_samples must be >= 2")
        if not t_end > t_start:
            raise ConfigError("t_end must be greater than t_start")
        header += [("t_start", fmt(t_start)), ("t_end", fmt(t_end)),
                   ("n_samples", str(n_samples))]
        if extra is not None:
            header.append(extra(params))
        return (header, ["tau_lambda_over_c", *columns],
                (np.linspace(t_start, t_end, n_samples),), lambda taus: series(taus, params))

    return check


def _map(scn: Scenario):
    """Check the physics and grid keys of a map; its axes are the grid's rho and theta."""
    params, scales, header = _physics(scn)
    default = default_grid(params)
    grid = PolarGrid(
        rho_max=_get(scn, "rho_max", float, default.rho_max),
        n_rho=_get(scn, "n_rho", int, default.n_rho),
        n_theta=_get(scn, "n_theta", int, default.n_theta),
    )
    header += [("rho_max", fmt(grid.rho_max)), ("n_rho", str(grid.n_rho)),
               ("n_theta", str(grid.n_theta))]
    return params, scales, header, (grid.rho, grid.theta)


def _density_map(scn: Scenario):
    params, scales, header, axes = _map(scn)
    packet = scn.values.get("packet", "positive")
    spectrum = scn.values.get("spectrum", "exact")
    if packet not in ("positive", "two_band"):
        raise ConfigError(f"unknown packet {packet!r}")
    if spectrum not in ("exact", "taylor2"):
        raise ConfigError(f"unknown spectrum {spectrum!r}")
    tau = resolve_time(scn.values["t"], scales)
    header += [("t", fmt(tau)), ("packet", packet), ("spectrum", spectrum)]

    def density(rr, tt):
        if spectrum == "exact" and packet == "positive":
            psi = positive_energy_field(rr, tt, tau, params)
        elif spectrum == "exact":
            psi = jc_field(rr, tt, tau, params)
        else:
            kind = "positive_only" if packet == "positive" else "two_band"
            psi = mode_sum_field(rr, tt, tau, build_mode_set(kind, params), params, "taylor2")
        return (np.sum(np.abs(psi) ** 2, axis=0),)

    return header, ["rho_a", "theta_rad", "density_per_a2"], axes, density


def _spin_map(scn: Scenario):
    params, scales, header, axes = _map(scn)
    tau = resolve_time(scn.values["t"], scales)
    header.append(("t", fmt(tau)))
    columns = ["rho_a", "theta_rad", "sigma_x_per_a2", "sigma_y_per_a2"]
    return header, columns, axes, lambda rr, tt: spin_density(rr, tt, tau, params)


def _fractional(scn: Scenario):
    params, scales, header, axes = _map(scn)
    m, n = _get(scn, "m", int), _get(scn, "n", int)
    gauss_sum_coefficients(m, n)  # raises unless m/n is a supported fraction
    # the classical packet's norm in closed form; its sub-packets need it near 1
    la, qa, al, be = params.lambda_over_a, params.qa, params.alpha, params.beta
    norm = 1.0 + la**2 * (be**2 * qa**2 + al**2 * (qa**2 + 2.0)) / (4.0 * (al**2 + be**2))
    if norm - 1.0 > 0.1:
        raise ConfigError(f"fractional revivals need a classical packet norm N <= 1.1, got "
                          f"N = {norm:.6g} at lambda_over_a = {la}, qa = {qa}")
    tau = resolve_time(scn.values.get("t", f"{m / n}*T_R"), scales)
    header += [("m", str(m)), ("n", str(n)), ("t", fmt(tau))]

    def density(rr, tt):
        return (np.sum(np.abs(fractional_revival_field(rr, tt, tau, m, n, params)) ** 2, axis=0),)

    return header, ["rho_a", "theta_rad", "density_per_a2"], axes, density


# scenario -> (required keys, optional keys, scenario function); the
# scenario function of `validate` returns only its resolved `quick`
_SCENARIOS = {
    "timescales": (_PHYSICS_KEYS, ("trunc_tol", "output"), _timescales),
    "velocity": (*_TRACE_KEYS, _trace(
        ("vx_c", "vy_c"), lambda taus, p: mean_velocity_positive(taus, p))),
    "spin-trace": (*_TRACE_KEYS, _trace(
        ("Sx_hbar_over_2", "Sy_hbar_over_2"), lambda taus, p: mean_spin_transverse(taus, p))),
    "density-map": (_PHYSICS_KEYS + ("t",), _GRID_KEYS + ("packet", "spectrum"), _density_map),
    "spin-map": (_PHYSICS_KEYS + ("t",), _GRID_KEYS, _spin_map),
    "jc-velocity": (*_TRACE_KEYS, _trace(
        ("vx_c", "vy_c"), lambda taus, p: mean_velocity_jc(taus, p))),
    "jc-spin": (*_TRACE_KEYS, _trace(
        ("Sz_hbar_over_2",), lambda taus, p: (mean_spin_z_jc(taus, p),),
        lambda p: ("Sz_plateau_hbar_over_2", fmt(spin_z_plateau_jc(p))))),
    "cat": (*_TRACE_KEYS, _trace(
        ("spin_factor_overlap",),
        lambda taus, p: ([cat_decomposition(t, p)[2] for t in taus.tolist()],),
        lambda p: ("overlap_quarter_period", fmt(cat_overlap_closed_form(p))))),
    "fractional": (_PHYSICS_KEYS + ("m", "n"), _GRID_KEYS + ("t",), _fractional),
    "validate": ((), ("quick", "output"), lambda scn: _get(scn, "quick", bool, False)),
}


def _check(scn: Scenario):
    """Check and resolve every key of a section; nothing is computed or written.

    The library owns every range it accepts, so its ValueError is a config error.
    """
    try:
        return _SCENARIOS[scn.name][2](scn)
    except ValueError as exc:
        raise ConfigError(f"scenario {scn.name!r}: {exc}") from None


def run_scenario(scn: Scenario, plan, path: Path, threads: int, timestamp: bool) -> None:
    """Compute ``plan``, what ``_check(scn)`` returned, and write its CSV artifact to ``path``.

    ``validate`` also prints its row table, and raises ArithmeticError once
    its artifact is written if any check failed.
    """
    if scn.name == "validate":
        rows, ok = validation_report(quick=plan, threads=threads)
        for name, dev, thr, status in rows:
            print(f"{status:4s}  {name}  max|dev|={dev:.3e}  thr={thr:.0e}")
        header = [("scenario", "validate"), ("quick", str(plan).lower())]
        columns = ["check", "max_abs_deviation", "threshold", "status"]
        payload = (f"{name},{fmt(dev)},{fmt(thr)},{status}\n" for name, dev, thr, status in rows)
        _write_artifact(path, header, columns, payload, timestamp)
        if not ok:
            raise ArithmeticError("validation deviations exceed thresholds")
        return
    header, columns, axes, compute = plan
    _write_table(path, header, columns, axes, compute(*np.ix_(*axes)), timestamp)


# -- validation ---------------------------------------------------------------

SET1 = ModelParams(lambda_over_a=0.1, qa=5.0)
SET2 = ModelParams(lambda_over_a=0.5, qa=10.0)

# fixed seed for the randomized comparison times, recorded for reproducibility
VALIDATE_SEED = 20260825
# Taus per oracle call of a validate sweep, and per pool task: a task holds
# one slice's fields rather than a whole sweep's, and the slices of one
# sweep can run on different workers.
_SLICE_TAUS = 5

# a validate worker's sweeps, set once in each worker by _init_worker
_SWEEPS: list[tuple] = []


def _init_worker(sweeps: list[tuple]) -> None:
    """Hand a forked worker the report's sweeps, closures included; under
    fork they are inherited, not pickled."""
    global _SWEEPS
    _SWEEPS = sweeps


def _slice_task(sweep: int, start: int) -> list[tuple]:
    """Per tau of one sweep's slice from ``start``, one tuple from its
    ``values(fields, part)``; ``fields`` yields the oracle fields in tau
    order, each (with the conjugate its quadratures cache) dropped once the
    next is read."""
    grid, modes, params, taus, values = _SWEEPS[sweep]
    part = taus[start:start + _SLICE_TAUS]
    fields = sample_mode_sum(grid, part, modes, params)
    return values((fields.pop(0) for _ in part), part)


def validation_report(quick: bool = False, threads: int = 1) -> tuple[list[tuple], bool]:
    """Oracle-vs-closed-form deviation table.

    Returns (rows, all_ok); each row is (check, max_abs_deviation, threshold,
    status).  All comparisons are deterministic (fixed seed, ordered sums).
    The oracle sweeps run on min(``threads``, slice tasks) worker processes
    forked from the caller (ValueError below 1), their slices submitted in
    descending work, taus x grid points x mode-set entries.
    """
    rng = np.random.default_rng(VALIDATE_SEED)
    n_field_times = 2 if quick else 5
    n_obs_times = 3 if quick else 10
    field_grid1, field_grid2 = default_grid(SET1, 50, 64), default_grid(SET2, 50, 64)
    quad_shape = (60, 128) if quick else ()  # () keeps the default grid
    quad_grid1, quad_grid2 = default_grid(SET1, *quad_shape), default_grid(SET2, *quad_shape)
    sc1, sc2 = derived_scales(SET1), derived_scales(SET2)
    mode_pos = build_mode_set("positive_only", SET1)
    mode_jc = build_mode_set("two_band", SET2)

    def field_dev(closed, params):
        """Per tau, |closed-form field - mode sum|, largest over the oracle field's grid."""
        return lambda fields, taus: [
            (float(np.max(np.abs(closed(*f.grid.mesh(), t, params) - f.samples))),)
            for f, t in zip(fields, taus, strict=True)
        ]

    def quadrature_devs(params, *checks):
        """Per tau and (closed, kinds) check, the largest |closed form - grid
        quadrature|; each closed form is called once on the slice's tau axis."""
        def devs(fields, taus) -> list[tuple]:
            closed_values = [closed(taus, params) for closed, _ in checks]
            return [
                tuple(np.max([abs(float(v[i]) - quadrature_expectation(kind, f, params))
                              for v, kind in zip(values, kinds, strict=True)])
                      for values, (_, kinds) in zip(closed_values, checks))
                for i, f in enumerate(fields)
            ]

        return devs

    # every comparison time is drawn before the first sweep is submitted
    field_times1, field_times2 = (rng.uniform(0.0, 0.5 * sc.T_R, n_field_times).tolist()
                                  for sc in (sc1, sc2))
    taus1, taus2 = (rng.uniform(0.0, 0.5 * sc.T_R, n_obs_times).tolist() for sc in (sc1, sc2))
    cons_times = [0.0, sc1.T_D, 0.25 * sc1.T_R, 0.5 * sc1.T_R][: 2 if quick else 4]

    # (grid, mode set, params, taus, per-tau values) of each oracle sweep, in
    # descending work per slice (taus x grid points x mode-set entries): the
    # observables vs grid quadrature (one oracle field per tau serves them all),
    # the positive packet's norm and <sigma_z> conservation, fields vs mode sums
    sweeps = [
        (quad_grid2, mode_jc, SET2, taus2, quadrature_devs(
            SET2, (mean_velocity_jc, ("velocity_x", "velocity_y")),
            (lambda t, p: (mean_spin_z_jc(t, p),), ("sigma_z",)))),
        (quad_grid1, mode_pos, SET1, taus1, quadrature_devs(
            SET1, (mean_velocity_positive, ("velocity_x", "velocity_y")),
            (mean_spin_transverse, ("sigma_x", "sigma_y")))),
        (quad_grid1, mode_pos, SET1, cons_times, lambda fields, _: [
            (f.norm, quadrature_expectation("sigma_z", f, SET1)) for f in fields]),
        (field_grid2, mode_jc, SET2, field_times2, field_dev(jc_field, SET2)),
        (field_grid1, mode_pos, SET1, field_times1, field_dev(positive_energy_field, SET1)),
    ]
    # imported here, not at the top: the process machinery takes about 11 ms
    # to import, and only validate uses a pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # One task per slice, in sweep and tau order, all submitted before any
    # result is read, so the kernel check overlaps the pool work.  The pool
    # forks every worker at the first submit, before it starts a thread (no
    # fork warning under -W error), so it gets no more workers than tasks.
    # The workers inherit the sweeps; a task, sent as (sweep index, slice
    # start), returns its per-tau float tuples and is deterministic.
    starts = [range(0, len(taus), _SLICE_TAUS) for _, _, _, taus, _ in sweeps]
    with ProcessPoolExecutor(max_workers=min(threads, sum(map(len, starts))),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(sweeps,)) as pool:
        futures = [[pool.submit(_slice_task, index, start) for start in sweep_starts]
                   for index, sweep_starts in enumerate(starts)]

        # numeric p-integral vs closed-form kernel, on this process
        pts = [(0.0, SET1.qa), (1.0, SET1.qa), (-2.0, SET1.qa + 1.0), (0.5, SET1.qa - 2.0),
               (3.0, SET1.qa + 3.0), (-1.5, SET1.qa - 1.0), (2.0, SET1.qa),
               (0.0, SET1.qa + 2.0), (-3.0, SET1.qa - 3.0)]
        kernel_devs = [abs(b1_quadrature(k, x, y, SET1) - q_kernel(k, x, y, SET1))
                       for k in range(6) for x, y in pts]

        # per sweep, one tuple of per-tau values for each deviation column
        (vj, sj), (vp, sp), (norms, sz), (fj,), (fp,) = (
            tuple(zip(*(row for future in sweep for row in future.result()), strict=True))
            for sweep in futures
        )

    table = [
        ("field_positive_vs_modesum", fp, 1e-8),
        ("field_two_band_vs_modesum", fj, 1e-8),
        ("velocity_positive_vs_quadrature", vp, 1e-6),
        ("spin_transverse_vs_quadrature", sp, 1e-6),
        ("velocity_two_band_vs_quadrature", vj, 1e-6),
        ("spin_z_two_band_vs_quadrature", sj, 1e-6),
        ("norm_drift", [abs(v - 1.0) for v in norms], 1e-6),
        ("spin_z_conservation_positive", [abs(v - sz[0]) for v in sz], 1e-8),
        ("kernel_quadrature_vs_closed_form", kernel_devs, 1e-8),
    ]
    # np.max, not max, at every level: max skips a NaN that is not first,
    # np.max returns it, and a NaN deviation fails its row
    rows = [(name, dev, thr, "pass" if dev <= thr else "FAIL")
            for name, dev, thr in ((name, float(np.max(devs)), thr) for name, devs, thr in table)]
    return rows, all(row[3] == "pass" for row in rows)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="up to N worker processes for validation (the validate command or a "
                             "[validate] section); the report is identical for every N")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header line (bit-exact artifacts)")
    parser = argparse.ArgumentParser(
        prog="dirac-cyclotron",
        description="Cyclotron dynamics of relativistic Dirac wave packets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[common], help="execute the scenarios in a config file")
    run_p.add_argument("config", type=Path)
    val_p = sub.add_parser("validate", parents=[common],
                           help="oracle-vs-closed-form deviation report")
    val_p.add_argument("--quick", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        try:
            scenarios = parse_config(
                args.config.read_text(encoding="utf-8-sig") if args.command == "run"
                else f"[validate]\nquick = {'yes' if args.quick else 'no'}\n"
            )
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{str(args.config)!r} is not UTF-8 text: {exc}") from None
        # every section is checked, its plan kept and its artifact path claimed
        # before the output directory is made, so an invalid config leaves no artifact
        plans: dict[Path, tuple] = {}  # resolved artifact path -> (section, plan, path)
        for scn in scenarios:
            plan = _check(scn)
            name = scn.values.get("output", f"{scn.name}.csv")
            path = args.out / name
            where = f"scenario {scn.name!r} (line {scn.line})"
            if "\0" in str(path):
                raise ConfigError(f"{where}: artifact {str(path)!r} holds a NUL byte")
            # '', '.', '..' and 'x/..' end in no file name; --out may not exist yet
            if Path(name).name in ("", "..") or path.is_dir():
                raise ConfigError(f"{where}: artifact {str(path)!r} names a directory")
            if path.resolve() in plans:
                raise ConfigError(f"{where}: artifact {str(path.resolve())!r} is already "
                                  "written by an earlier section")
            if path.parent != args.out and not path.parent.is_dir():
                raise ConfigError(f"{where}: artifact directory {str(path.parent)!r} does not exist")
            plans[path.resolve()] = (scn, plan, path)
        args.out.mkdir(parents=True, exist_ok=True)
        for scn, plan, path in plans.values():
            run_scenario(scn, plan, path, args.threads, not args.no_timestamp)
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: numeric: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
