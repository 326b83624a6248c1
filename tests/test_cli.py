"""Config parsing, artifact provenance, scenario execution and exit codes."""

import concurrent.futures
import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import _RemoteTraceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_cyclotron import ModelParams, PolarGrid, __version__, basis, cli, derived_scales, oracle
from dirac_cyclotron.basis import q_kernel_walk
from dirac_cyclotron.cli import (
    ConfigError,
    Scenario,
    fmt,
    main,
    parse_config,
    parse_provenance,
    resolve_time,
    run_scenario,
    validation_report,
)

# sha256 of the validate.csv that `dirac-cyclotron validate --quick
# --no-timestamp` writes; reusing kernel stacks and oracle fields across
# checks must not move a byte of it
QUICK_VALIDATE_SHA256 = "9c195d6ab8cdb33eee9f1d92e1fc5fe736fb7e3c4c0066a4f8b7fb4be4ef2974"

GOOD_CONFIG = """\
# sweep of the packet velocity
[velocity]
lambda_over_a = 0.1
qa = 5
alpha = 1
beta = 1
t_end = 2*T_cl
n_samples = 16
"""


DENSITY_MAP = """\
[density-map]
lambda_over_a = 0.1
qa = 5
alpha = 1
beta = 1
t = 0.0
"""


# the physics keys of SET1 under a section header to fill in
PHYSICS = "[{}]\nlambda_over_a = 0.1\nqa = 5\nalpha = 1\nbeta = 1\n"


SMALL_SPIN_MAP = """\
[spin-map]
lambda_over_a = 0.1
qa = 5
alpha = 1
beta = 1
t = 0.0
rho_max = 2.5
n_rho = 6
n_theta = 5
"""


# one small section of every run scenario, with the sha256 of each
# `--no-timestamp` artifact it writes; a refactor of the writer or of a
# scenario must not move a byte of any of them
SET2_PHYSICS = "[{}]\nlambda_over_a = 0.5\nqa = 10\nalpha = 1\nbeta = 1\n"
EVERY_SCENARIO = (
    SET2_PHYSICS.format("timescales"),
    PHYSICS.format("velocity") + "t_end = 2*T_cl\nn_samples = 9\n",
    "[spin-trace]\nlambda_over_a = 0.1\nqa = 5\nalpha = 1.5\nbeta = 0.5\n"
    "t_start = T_cl\nt_end = 0.5*T_R\nn_samples = 7\n",
    SET2_PHYSICS.format("jc-velocity") + "t_end = 3*T_cl\nn_samples = 8\n",
    SET2_PHYSICS.format("jc-spin") + "t_end = T_R\nn_samples = 6\n",
    PHYSICS.format("cat") + "t_end = 0.5*T_R\nn_samples = 5\n",
    PHYSICS.format("density-map")
    + "t = 0.25*T_R\nrho_max = 4\nn_rho = 7\nn_theta = 6\noutput = density-exact.csv\n",
    SET2_PHYSICS.format("density-map") + "t = T_cl\npacket = two_band\nspectrum = taylor2\n"
    "rho_max = 5\nn_rho = 6\nn_theta = 5\noutput = density-taylor2.csv\n",
    "[spin-map]\nlambda_over_a = 0.5\nqa = 10\nalpha = 1.5\nbeta = 0.5\n"
    "t = 0.25*T_R\nrho_max = 5\nn_rho = 5\nn_theta = 4\n",
    PHYSICS.format("fractional") + "m = 1\nn = 3\nrho_max = 4\nn_rho = 5\nn_theta = 6\n",
)
EVERY_SCENARIO_SHA256 = {
    "timescales.csv": "a1d19cd9868edd89fae36995c37ebfce08e8a0bdf615eaad2f704e4877e1be44",
    "velocity.csv": "071759bf666afe01a0427e75c0047a81f47e978d71c23b7e7346c3e49759de58",
    "spin-trace.csv": "8ffd63c4bdb13d6b4fe5dec401f1c50a9e8eed58ec3c2886860855a38120b3b6",
    "jc-velocity.csv": "f0464dbd1e4822807996bd8b0418586bfef942ff9e6ba439f1ad5c8a0a03fd28",
    "jc-spin.csv": "2f9cd7c450836dd9ea1aafb153d0d844f3b49a5924b0d1f51a001dd1bc41ff8c",
    "cat.csv": "28931b8b69c88982eb37edf3b373a5d905366016f1bcc7fee74f0dca480a3937",
    "density-exact.csv": "3f8f4f8647879b8c50b75c35e28fe0836db5d6a7d003403cfb15847abd6625e9",
    "density-taylor2.csv": "121c25b701b245982743f46fd9287153dee6b15f3beab31aa4d13f241dc616ad",
    "spin-map.csv": "cb9093a0be896be2cdc4df620249bce3e0e774a331cf52384899da31396a3346",
    "fractional.csv": "3fab66f5f8c98227b77935e8a912ca458fabfbd88022c17329926452c156a0ef",
}


def fake_spin_density(sx_value):
    """A spin_density stand-in: sx_value at the first point, signed zeros and
    tiny values elsewhere."""

    def spin_density(rho, theta, tau, params):
        rho, theta = np.broadcast_arrays(rho, theta)
        sx = np.where(np.arange(rho.size).reshape(rho.shape) % 2, -0.0, 5e-324)
        sx.flat[0] = sx_value
        return sx, -rho * np.sin(theta) / 3.0

    return spin_density


class TestFmt:
    def test_integers_stay_integers(self):
        assert fmt(3) == "3"
        assert fmt(np.int64(7)) == "7"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_floats_round_trip(self, x):
        assert float(fmt(x)) == x


# boundary floats: signed zero, the smallest subnormal and normal, the
# largest float, and values with long 17-digit forms
SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300, 0.1, 1 / 3]


def reference_table(header, columns, axes, values) -> bytes:
    """The ``--no-timestamp`` artifact bytes of a table, built row by row with fmt."""
    cols = [np.ravel(v).tolist() for v in values]
    points = itertools.product(*(axis.tolist() for axis in axes))
    rows = [",".join([fmt(a) for a in point] + [fmt(col[k]) for col in cols])
            for k, point in enumerate(points)]
    head = [f"# dirac-cyclotron {__version__}", *(f"# {k} = {v}" for k, v in header)]
    return "".join(line + "\n" for line in [*head, ",".join(columns), *rows]).encode()


# one row more than a chunk, on one axis and along the last of two axes
LONG = cli._CHUNK_ROWS + 1


class TestWriteTable:
    """_write_table formats and writes a table in chunks of rows, one '%'
    per chunk; its bytes must be those of formatting every row with fmt."""

    HEADER = [("scenario", "test"), ("qa", "5")]

    def written(self, path, axes, values):
        columns = [f"c{i}" for i in range(len(axes) + len(values))]
        cli._write_table(path, self.HEADER, columns, axes, values, timestamp=False)
        return path.read_bytes(), reference_table(self.HEADER, columns, axes, values)

    @pytest.mark.parametrize(
        "axes, values",
        [
            ((), [50, *SPECIAL]),
            ((np.array(SPECIAL),), [np.array(SPECIAL[::-1])]),
            ((np.array(SPECIAL),), [np.array(SPECIAL[::-1]), -np.array(SPECIAL)]),
            ((np.array(SPECIAL[:3]), np.array(SPECIAL[3:])), [np.resize(SPECIAL, (3, 4))]),
            ((np.array(SPECIAL[:3]), np.array(SPECIAL[3:])),
             [np.resize(SPECIAL, (3, 4)), np.resize(SPECIAL[::-1], (3, 4))]),
            ((np.linspace(-1.0, 1.0, LONG),), [np.resize(SPECIAL, LONG)]),
            ((np.array(SPECIAL[:2]), np.linspace(0.0, 1.0, LONG)),
             [np.resize(SPECIAL, (2, LONG)), np.resize(SPECIAL[::-1], (2, LONG))]),
        ],
        ids=["0_axes_int_column", "1_axis_1_column", "1_axis_2_columns",
             "2_axes_1_column", "2_axes_2_columns", "1_axis_longer_than_a_chunk",
             "last_axis_longer_than_a_chunk"],
    )
    def test_bytes_match_rows_formatted_with_fmt(self, tmp_path, axes, values):
        got, expected = self.written(tmp_path / "t.csv", axes, values)
        assert got == expected

    def test_timescales_row(self, tmp_path):
        scn = parse_config("[timescales]\nlambda_over_a = 0.5\nqa = 10\nalpha = 1\nbeta = 1\n")[0]
        header, columns, axes, compute = cli._timescales(scn)
        assert axes == ()
        path = tmp_path / "t.csv"
        cli._write_table(path, header, columns, axes, compute(), timestamp=False)
        assert path.read_bytes() == reference_table(header, columns, axes, compute())

    def test_grid_table_peak(self, tmp_path):
        # the whole-table template, value tuple and payload string peaked at
        # 6.5 MiB here; a chunk's stay far below 1 MiB
        g = PolarGrid(rho_max=11.0, n_rho=120, n_theta=256)
        values = [np.full((120, 256), 1 / 3), np.full((120, 256), -0.1)]
        tracemalloc.start()
        try:
            cli._write_table(tmp_path / "t.csv", self.HEADER, ["a", "b", "c", "d"],
                             (g.rho, g.theta), values, timestamp=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_drawn_tables_match_rows_formatted_with_fmt(self, tmp_path_factory, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        shape = data.draw(st.lists(st.integers(1, 4), min_size=0, max_size=2))
        axes = tuple(np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
                     for n in shape)
        size = math.prod(shape)
        values = [np.reshape(data.draw(st.lists(finite, min_size=size, max_size=size)), shape)
                  for _ in range(data.draw(st.integers(1, 3)))]
        got, expected = self.written(tmp_path_factory.getbasetemp() / "drawn.csv", axes, values)
        assert got == expected

    @pytest.mark.parametrize(
        "values, error",
        [
            ([np.ones(3), np.ones(2)], ValueError),
            ([np.ones(2)], ValueError),
            ([np.ones(3), np.array([1.0, np.nan, 2.0])], ArithmeticError),
        ],
        ids=["short_column", "columns_shorter_than_axis", "nan"],
    )
    def test_bad_column_writes_nothing(self, tmp_path, values, error):
        path = tmp_path / "t.csv"
        with pytest.raises(error):
            cli._write_table(path, self.HEADER, ["a", "b", "c"], (np.arange(3.0),), values,
                             timestamp=False)
        assert not path.exists()


class TestParseConfig:
    def test_good_config(self):
        scns = parse_config(GOOD_CONFIG)
        assert len(scns) == 1
        assert scns[0].name == "velocity"
        assert scns[0].values["t_end"] == "2*T_cl"

    def test_multiple_sections(self):
        text = GOOD_CONFIG + "\n[timescales]\nlambda_over_a=0.5\nqa=10\nalpha=1\nbeta=1\n"
        assert [s.name for s in parse_config(text)] == ["velocity", "timescales"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "no scenario"),
            ("[warp-drive]\n", "unknown scenario"),
            ("[velocity\nqa = 5\n", "malformed section"),
            ("qa = 5\n", "outside of a"),
            ("[velocity]\nqa\n", "expected 'key = value'"),
            (GOOD_CONFIG + "color = red\n", "unknown key 'color'"),
            (GOOD_CONFIG + "qa = 6\n", "duplicate key 'qa'"),
            ("[velocity]\nqa = 5\n", "missing required"),
        ],
    )
    def test_errors_name_the_problem(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)


class TestResolveTime:
    def test_symbolic_anchors(self, set1):
        sc = derived_scales(set1)
        assert resolve_time("T_cl", sc) == sc.T_cl
        assert resolve_time("2*T_R", sc) == 2 * sc.T_R
        assert resolve_time("0.5 * T_D", sc) == 0.5 * sc.T_D
        assert resolve_time("1e-2*T_cl", sc) == pytest.approx(0.01 * sc.T_cl)

    def test_plain_numbers(self, set1):
        sc = derived_scales(set1)
        assert resolve_time("123.5", sc) == 123.5

    def test_garbage_rejected(self, set1):
        sc = derived_scales(set1)
        with pytest.raises(ConfigError):
            resolve_time("two periods", sc)


class TestProvenance:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        text = (tmp_path / "velocity.csv").read_text()
        meta = parse_provenance(text)
        assert meta["scenario"] == "velocity"
        assert float(meta["qa"]) == 5.0
        assert float(meta["t_end"]) == pytest.approx(
            2 * derived_scales(ModelParams(lambda_over_a=0.1, qa=5.0)).T_cl
        )
        # resolved window is part of the provenance
        assert int(meta["window_n_max"]) > int(meta["window_n_min"]) > 0

    def test_artifacts_are_reproducible(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out_a), "--no-timestamp"]) == 0
        assert main(["run", str(cfg), "--out", str(out_b), "--no-timestamp"]) == 0
        assert (out_a / "velocity.csv").read_bytes() == (out_b / "velocity.csv").read_bytes()

    def test_timestamp_header_present_by_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        head = (tmp_path / "velocity.csv").read_text().splitlines()[1]
        assert head.startswith("# generated =")


class TestScenarios:
    def test_timescales_values(self, tmp_path, set2):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[timescales]\nlambda_over_a=0.5\nqa=10\nalpha=1\nbeta=1\n")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        lines = [
            l for l in (tmp_path / "timescales.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        cols = lines[0].split(",")
        vals = dict(zip(cols, lines[1].split(",")))
        sc = derived_scales(set2)
        assert float(vals["T_cl_lambda_over_c"]) == sc.T_cl
        assert float(vals["T_R_lambda_over_c"]) == sc.T_R
        assert int(vals["n0"]) == 50

    def test_map_scenario_row_count(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[density-map]\nlambda_over_a=0.1\nqa=5\nalpha=1\nbeta=1\n"
            "t = 0.0\nn_rho = 20\nn_theta = 16\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        rows = [
            l for l in (tmp_path / "density-map.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert len(rows) == 1 + 20 * 16

    def test_density_map_total_probability(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[density-map]\nlambda_over_a=0.1\nqa=5\nalpha=1\nbeta=1\nt = T_cl\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        lines = (tmp_path / "density-map.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")][1:]  # drop column row
        data = np.array([[float(v) for v in l.split(",")] for l in body])
        rho, dens = data[:, 0], data[:, 2]
        d_theta = 2 * math.pi / 256
        d_rho = rho.max() / (120 - 1)
        total = float(np.sum(dens * rho) * d_theta * d_rho)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_threads_give_identical_payload(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out_a), "--no-timestamp"]) == 0
        assert main(
            ["run", str(cfg), "--out", str(out_b), "--no-timestamp", "--threads", "4"]
        ) == 0
        assert (out_a / "velocity.csv").read_bytes() == (out_b / "velocity.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_scenario_artifact_bytes_pinned(self, tmp_path, threads):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(EVERY_SCENARIO))
        argv = ["run", str(cfg), "--out", str(tmp_path / "out"), "--no-timestamp", "--threads", threads]
        assert main(argv) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out").iterdir()
        }
        assert digests == EVERY_SCENARIO_SHA256

    def test_map_axes_match_per_row_formatting(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "spin_density", fake_spin_density(-0.0))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SPIN_MAP)
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        body = (tmp_path / "spin-map.csv").read_text().splitlines()[-6 * 5:]
        rr, tt = PolarGrid(rho_max=2.5, n_rho=6, n_theta=5).mesh()
        sx, sy = fake_spin_density(-0.0)(rr, tt, 0.0, None)
        expected = [
            ",".join(format(v, ".17g") for v in row)
            for row in zip(*(a.ravel().tolist() for a in (rr, tt, sx, sy)))
        ]
        assert body == expected
        assert body[0].split(",")[2] == "-0"

    def test_map_grid_defaults_come_from_default_grid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "default_grid", lambda params: PolarGrid(2.5, 3, 4))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(DENSITY_MAP)
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        text = (tmp_path / "density-map.csv").read_text()
        header = parse_provenance(text)
        assert (header["rho_max"], header["n_rho"], header["n_theta"]) == ("2.5", "3", "4")
        rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
        assert [tuple(map(float, r.split(",")[:2])) for r in rows] == [
            (r, t) for r in (0.0, 1.25, 2.5) for t in np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
        ]

    def test_fractional_scenario_runs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[fractional]\nlambda_over_a=0.1\nqa=5\nalpha=1\nbeta=1\n"
            "m = 1\nn = 2\nn_rho = 20\nn_theta = 16\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0


class TestMapRange:
    """Each exact map is finite on its default rho_max (qa + 6) just below the
    qa at which its level sums overflow: from qa = 23.8 for the spin map
    (first at rho = rho_max, theta = pi, tau = 0) and from qa = 34.8 for
    both exact density maps.  n_theta = 4 puts theta = pi on the grid."""

    @pytest.mark.parametrize(
        "section",
        [
            "[spin-map]\nqa = 23.5\n",
            "[density-map]\nqa = 34.5\npacket = positive\n",
            "[density-map]\nqa = 34.5\npacket = two_band\n",
        ],
        ids=["spin_map_qa23.5", "density_positive_qa34.5", "density_two_band_qa34.5"],
    )
    def test_finite_below_overflow(self, tmp_path, section):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(section + "lambda_over_a = 0.1\nalpha = 1\nbeta = 1\nt = 0.0\n"
                       "n_rho = 7\nn_theta = 4\n")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        header = parse_provenance(next(tmp_path.glob("*.csv")).read_text())
        assert float(header["rho_max"]) == float(header["qa"]) + 6.0


class TestExitCodes:
    def test_bad_config_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[velocity]\nwarp = 9\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "m, n", [(2, 4), (0, 0), (1, 9)], ids=["reducible", "n_zero", "n_nine"]
    )
    def test_bad_fraction_is_config_error(self, tmp_path, capsys, m, n):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[fractional]\nlambda_over_a=0.1\nqa=5\nalpha=1\nbeta=1\n"
            f"m = {m}\nn = {n}\nn_rho = 10\nn_theta = 8\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error: config" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "config",
        [
            GOOD_CONFIG + "trunc_tol = abc\n",
            GOOD_CONFIG.replace("lambda_over_a = 0.1", "lambda_over_a = inf").replace(
                "2*T_cl", "10.0"
            ),
            DENSITY_MAP + "rho_max = abc\n",
            DENSITY_MAP + "rho_max = 0\n",
            DENSITY_MAP + "n_rho = 1\n",
            DENSITY_MAP + "n_theta = 0\n",
            GOOD_CONFIG + "trunc_tol = 0\n",
            GOOD_CONFIG + "trunc_tol = 1\n",
        ],
        ids=[
            "trunc_tol",
            "lambda_over_a",
            "rho_max",
            "rho_max_zero",
            "n_rho",
            "n_theta",
            "trunc_tol_zero",
            "trunc_tol_one",
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error: config" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "section, fragment",
        [
            (DENSITY_MAP + "n_rho = 1\n", "n_rho"),
            (PHYSICS.format("spin-trace") + "t_end = two periods\n", "cannot parse time"),
            ("[validate]\nquick = ture\n", "not a boolean"),
            (DENSITY_MAP + "packet = tachyonic\n", "unknown packet"),
            (PHYSICS.format("fractional") + "m = 2\nn = 4\n", "irreducible"),
            (PHYSICS.format("timescales") + "output = velocity.csv\n", "velocity.csv"),
            (PHYSICS.format("timescales") + "output = sub/../velocity.csv\n", "velocity.csv"),
            ("[timescales]\nlambda_over_a = 0.5\nqa = 10\nalpha = 1\nbeta = 1\n"
             "trunc_tol = 0\n", "trunc_tol must lie in (0, 1)"),
            (PHYSICS.format("spin-trace") + "t_end = 1e*T_R\n", "cannot parse time"),
            (PHYSICS.format("spin-map") + "t = nan\n", "not a finite number"),
            (PHYSICS.format("jc-velocity") + "t_end = inf\n", "not a finite number"),
            (PHYSICS.format("timescales") + "output = nosuchdir/t.csv\n", "nosuchdir"),
            (PHYSICS.format("spin-map").replace("qa = 5", "qa = 0.5") + "t = 0.0\n", "qa >= 1"),
            (PHYSICS.format("velocity").replace("0.1", "1e-200") + "t_end = 10.0\n",
             "lambda_over_a"),
            (PHYSICS.format("timescales").replace("0.1", "1e-80"), "lambda_over_a"),
            (PHYSICS.format("timescales").replace("0.1", "1e160"), "lambda_over_a"),
            (PHYSICS.format("timescales").replace("qa = 5", "qa = 1e8"), "qa = 100000000.0"),
            (PHYSICS.format("velocity") + "t_end = T_cl\nn_samples = 1\n", "n_samples must be >= 2"),
            (DENSITY_MAP + "spectrum = taylor3\n", "unknown spectrum"),
            (PHYSICS.format("fractional").replace("0.1", "0.5").replace("qa = 5", "qa = 10")
             + "m = 1\nn = 3\n", "N = 7.3125 at lambda_over_a = 0.5, qa = 10.0"),
            (PHYSICS.format("fractional").replace("0.1", "0.05").replace("qa = 5", "qa = 20")
             + "m = 1\nn = 3\n", "N = 1.25063 at lambda_over_a = 0.05, qa = 20.0"),
            (PHYSICS.format("timescales") + "output =\n", "names a directory"),
            (PHYSICS.format("timescales") + "output = .\n", "names a directory"),
            (PHYSICS.format("timescales") + "output = ..\n", "names a directory"),
            (PHYSICS.format("timescales") + "output = sub/..\n", "names a directory"),
            (PHYSICS.format("timescales") + "output = sub\n", "names a directory"),
        ],
        ids=["n_rho", "t_end", "quick", "packet", "fraction", "duplicate_output",
             "duplicate_resolved_output", "trunc_tol", "t_end_multiplier", "t_nan",
             "t_end_inf", "missing_dir", "qa_below_one", "lambda_over_a_underflow",
             "T_R_overflow", "lambda_over_a_overflow", "qa_above_maximum", "n_samples",
             "spectrum", "fractional_set2_norm", "fractional_qa20_norm", "output_empty",
             "output_dot", "output_parent", "output_sub_parent", "output_existing_dir"],
    )
    def test_later_bad_section_writes_nothing(self, tmp_path, capsys, section, fragment):
        (tmp_path / "sub").mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + section)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
        assert fragment in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("output", ["", ".", "..", "sub/.."])
    def test_directory_output_refused_before_out_exists(self, tmp_path, capsys, output):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + PHYSICS.format("timescales") + f"output = {output}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert "names a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_below_the_rounding_of_the_weights_runs(self, tmp_path):
        # 1e-17 is below what 1 - (sum of the kept weights) can resolve; the
        # window search stops on the dropped mass, so it is reached
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + "[timescales]\nlambda_over_a = 0.5\nqa = 10\nalpha = 1\n"
                       "beta = 1\ntrunc_tol = 1e-17\n")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        meta = parse_provenance((tmp_path / "timescales.csv").read_text())
        win = basis.truncation_window(ModelParams(lambda_over_a=0.5, qa=10.0, trunc_tol=1e-17))
        assert (int(meta["window_n_min"]), int(meta["window_n_max"])) == (win.n_min, win.n_max)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, command, threads):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        args = [str(cfg)] if command == "run" else ["--quick"]
        assert main([command, *args, "--out", str(tmp_path), "--threads", threads]) == 1
        assert "error: config: --threads" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value", ["ture", "2", ""])
    def test_non_boolean_quick_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[validate]\nquick = {value}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 1
        assert "not a boolean" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_finite_payload_is_two(self, tmp_path, capsys, monkeypatch):
        def nan_velocity(tau, params):
            tau = np.atleast_1d(tau)
            return np.full(tau.shape, np.nan), np.zeros(tau.shape)

        monkeypatch.setattr(cli, "mean_velocity_positive", nan_velocity)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "velocity.csv").exists()

    def test_out_of_memory_is_two(self, tmp_path, capsys, monkeypatch):
        # an oversized n_samples or grid fails its allocation; raised here
        # by the series itself, so nothing large is allocated
        def oversized(tau, params):
            raise MemoryError("Unable to allocate 7.45 TiB")

        monkeypatch.setattr(cli, "mean_velocity_positive", oversized)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error: numeric: out of memory: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "velocity.csv").exists()

    def test_value_error_while_computing_is_two(self, tmp_path, capsys, monkeypatch):
        # only the check pass turns a ValueError into a config error
        def failing(tau, params):
            raise ValueError("series failed")

        monkeypatch.setattr(cli, "mean_velocity_positive", failing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error: numeric: series failed" in capsys.readouterr().err
        assert not (tmp_path / "velocity.csv").exists()

    def test_non_finite_map_payload_is_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "spin_density", fake_spin_density(np.inf))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SPIN_MAP)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "spin-map.csv").exists()

    def test_io_failure_is_three(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert main(["run", str(cfg), "--out", str(blocker)]) == 3


class TestValidation:
    def test_quick_report_passes(self, tmp_path):
        rows, ok = validation_report(quick=True)
        assert ok
        names = {r[0] for r in rows}
        assert "field_positive_vs_modesum" in names
        assert "kernel_quadrature_vs_closed_form" in names
        assert all(r[3] == "pass" for r in rows)

    def test_quick_report_independent_of_threads(self):
        # three threads: more workers than a 2-core machine has
        one = validation_report(quick=True, threads=1)
        assert one == validation_report(quick=True, threads=2)
        assert one == validation_report(quick=True, threads=3)

    def test_quick_artifact_bytes_pinned(self, tmp_path):
        assert main(["validate", "--quick", "--out", str(tmp_path), "--no-timestamp"]) == 0
        digest = hashlib.sha256((tmp_path / "validate.csv").read_bytes()).hexdigest()
        assert digest == QUICK_VALIDATE_SHA256

    def test_threaded_quick_artifact_bytes_pinned(self, tmp_path):
        argv = ["validate", "--quick", "--threads", "2", "--out", str(tmp_path), "--no-timestamp"]
        assert main(argv) == 0
        digest = hashlib.sha256((tmp_path / "validate.csv").read_bytes()).hexdigest()
        assert digest == QUICK_VALIDATE_SHA256

    # one thread runs the tasks on a one-worker pool too: one code path
    @pytest.mark.parametrize("threads, pools", [(1, 1), (2, 1), (3, 1)])
    def test_one_pool_for_the_whole_report(self, monkeypatch, threads, pools):
        made = []
        process_pool = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            made.append(kwargs)
            return process_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        rows, ok = validation_report(quick=True, threads=threads)
        assert ok
        assert len(made) == pools
        # N forked workers, handed the sweeps once by the initializer
        assert all(kw.keys() == {"max_workers", "mp_context", "initializer", "initargs"}
                   and kw["max_workers"] == threads
                   and kw["mp_context"].get_start_method() == "fork"
                   and kw["initializer"] is cli._init_worker for kw in made)

    def test_importing_cli_loads_no_pool_machinery(self):
        # validation_report imports the pool on first use, so `run` sections
        # that never validate do not pay for it at start-up
        probe = ("import sys, dirac_cyclotron.cli; "
                 "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_no_thread_is_a_pool_error(self):
        with pytest.raises(ValueError, match="max_workers"):
            validation_report(quick=True, threads=0)

    @pytest.mark.parametrize("quick, tasks", [(True, 5), (False, 7)])
    def test_one_pool_task_per_slice(self, monkeypatch, quick, tasks):
        submitted = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append((fn, args))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        rows, ok = validation_report(quick=quick, threads=2)
        assert ok
        # two slices of each velocity/spin sweep, one of each other sweep,
        # each sent as (sweep index, slice start)
        assert len(submitted) == tasks
        assert all(fn is cli._slice_task and len(args) == 2 for fn, args in submitted)

    # quick: 3-tau quadrature slices on 60x128, 2-tau conservation and field
    # slices; full: 5-tau quadrature slices on 120x256, 4 conservation taus
    @pytest.mark.parametrize("quick, taus", [(True, [2, 2, 2, 3, 3]),
                                             (False, [4, 5, 5, 5, 5, 5, 5])], ids=["quick", "full"])
    def test_largest_sweep_slices_go_first(self, monkeypatch, worker_log, quick, taus):
        def recording_sample(grid, tau, modes, params):
            worker_log.append((np.size(tau), np.size(tau) * grid.n_rho * grid.n_theta * len(modes.entries)))
            return oracle.sample_mode_sum(grid, tau, modes, params)

        monkeypatch.setattr(cli, "sample_mode_sum", recording_sample)
        rows, ok = validation_report(quick=quick, threads=1)
        assert ok
        # on one worker the tasks run in the order they are submitted:
        # descending work, taus x grid points x mode-set entries
        calls = worker_log.entries()
        work = [w for _, w in calls]
        assert work == sorted(work, reverse=True)
        assert sorted(n for n, _ in calls) == taus

    def test_pool_task_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("mode sum failed")

        monkeypatch.setattr(cli, "sample_mode_sum", broken)
        with pytest.raises(RuntimeError, match="mode sum failed") as raised:
            validation_report(quick=True, threads=2)
        # raised in a worker and re-raised here with the worker's traceback
        assert isinstance(raised.value.__cause__, _RemoteTraceback)

    @pytest.mark.parametrize("outcome, code", [("passes", 0), ("fails", 2), ("raises", 2)])
    def test_no_worker_outlives_validate(self, tmp_path, capsys, monkeypatch, outcome, code):
        def nan_velocity(tau, params):
            tau = np.atleast_1d(tau)
            return np.full(tau.shape, np.nan), np.zeros(tau.shape)

        def broken(*args, **kwargs):
            raise RuntimeError("mode sum failed")

        if outcome == "fails":
            monkeypatch.setattr(cli, "mean_velocity_positive", nan_velocity)
        elif outcome == "raises":
            monkeypatch.setattr(cli, "sample_mode_sum", broken)
        assert multiprocessing.active_children() == []
        argv = ["validate", "--quick", "--threads", "2", "--out", str(tmp_path), "--no-timestamp"]
        assert main(argv) == code
        assert multiprocessing.active_children() == []

    def test_no_kernel_walk_exceeds_one_block(self, monkeypatch, worker_log):
        def recording_walk(k_max, x, y, params):
            worker_log.append(x.size)
            return q_kernel_walk(k_max, x, y, params)

        monkeypatch.setattr(oracle, "q_kernel_walk", recording_walk)
        rows, ok = validation_report()
        assert ok
        points = worker_log.entries()
        # one walk per block of each oracle call, shared by all of its taus;
        # a block holds 16384 // n_tau points: the 50x64 field grids are one
        # 5-tau block each, the 120x256 quadrature grids ten 5-tau blocks per
        # slice of the two 10-tau velocity/spin sweeps and eight 4-tau blocks
        # for the conservation sweep
        assert sorted(points) == sorted([3200] * 2 + ([3276] * 9 + [1236]) * 4 + [4096] * 7 + [2048])
        assert max(points) <= basis._BLOCK_POINTS // 4

    def test_closed_forms_called_once_per_slice(self, monkeypatch, worker_log):
        def recording(trace):
            def recorded(tau, params):
                worker_log.append((trace.__name__, np.shape(tau)))
                return trace(tau, params)

            return recorded

        names = ("mean_velocity_jc", "mean_spin_z_jc", "mean_velocity_positive",
                 "mean_spin_transverse")
        for name in names:
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        rows, ok = validation_report()
        assert ok
        calls = {}
        for name, shape in worker_log.entries():
            calls.setdefault(name, []).append(tuple(shape))
        # two 5-tau slices of each 10-tau quadrature sweep, one axis call each
        assert calls == {name: [(5,), (5,)] for name in names}

    def test_peak_memory_below_one_stack_and_ten_fields(self, monkeypatch, worker_log):
        # the parent design held a full SET2 block stack (110 orders) beside
        # all ten 120x256 fields of a quadrature sweep
        bound = (110 * basis._BLOCK_POINTS + 10 * 4 * 120 * 256) * np.dtype(complex).itemsize
        task = cli._slice_task

        # the one worker inherits the tracing at fork and logs its peak so far
        # after each task; pickled by name, the wrapper is what it runs
        @functools.wraps(task)
        def recording_task(*args):
            rows = task(*args)
            worker_log.append(tracemalloc.get_traced_memory()[1])
            return rows

        monkeypatch.setattr(cli, "_slice_task", recording_task)
        tracemalloc.start()
        try:
            rows, ok = validation_report(threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        worker_peaks = worker_log.entries()
        assert len(worker_peaks) == 7
        # the caller's and the worker's peaks, as if they were one process
        assert peak + max(worker_peaks) < bound

    def test_validate_subcommand(self, tmp_path, capsys):
        assert main(["validate", "--quick", "--out", str(tmp_path), "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert (tmp_path / "validate.csv").exists()

    def test_subcommand_and_section_are_one_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[validate]\nquick = yes\n")
        outputs = []
        for argv in (["validate", "--quick"], ["run", str(cfg)]):
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out), "--no-timestamp"]) == 0
            digest = hashlib.sha256((out / "validate.csv").read_bytes()).hexdigest()
            assert digest == QUICK_VALIDATE_SHA256
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1] == f"wrote {out / 'validate.csv'}"
            outputs.append(lines[:-1])
        assert outputs[0] == outputs[1]
        assert outputs[0] and all(line.startswith("pass  ") for line in outputs[0])

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_failing_report_is_written_then_two(self, tmp_path, capsys, monkeypatch, command):
        def failing_report(quick, threads):
            return [("norm_drift", 1.0, 1e-6, "FAIL")], False

        monkeypatch.setattr(cli, "validation_report", failing_report)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[validate]\nquick = yes\n")
        argv = ["validate", "--quick"] if command == "validate" else ["run", str(cfg)]
        assert main([*argv, "--out", str(tmp_path), "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert "FAIL  norm_drift" in out and "wrote" not in out
        assert "error: numeric: validation deviations exceed thresholds" in err
        assert (tmp_path / "validate.csv").read_text().endswith("norm_drift,1,9.9999999999999995e-07,FAIL\n")

    @pytest.mark.parametrize(
        "name, row",
        [("mean_velocity_positive", "velocity_positive_vs_quadrature"),
         ("mean_spin_transverse", "spin_transverse_vs_quadrature"),
         ("q_kernel", "kernel_quadrature_vs_closed_form")],
    )
    def test_nan_deviation_fails_its_row(self, tmp_path, capsys, monkeypatch, name, row):
        # a NaN that is not the first value of a max: at the second tau of the
        # slice in v_x, in S_y at every tau (after S_x's deviation), or in
        # the kernel at k = 3
        closed = getattr(cli, name)

        def with_nan(*args):
            if name == "q_kernel":
                return math.nan if args[0] == 3 else closed(*args)
            first, second = (np.array(v, dtype=float) for v in closed(*args))
            if name == "mean_velocity_positive":
                first[1] = math.nan
            else:
                second[:] = math.nan
            return first, second

        monkeypatch.setattr(cli, name, with_nan)
        assert main(["validate", "--quick", "--out", str(tmp_path), "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert [line.split()[:2] for line in out.splitlines() if line.startswith("FAIL")] == [["FAIL", row]]
        assert "error: numeric: validation deviations exceed thresholds" in err
        assert f"\n{row},nan," in (tmp_path / "validate.csv").read_text()

    def test_validate_scenario_in_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[validate]\nquick = true\n")
        assert main(["run", str(cfg), "--out", str(tmp_path), "--no-timestamp"]) == 0
        text = (tmp_path / "validate.csv").read_text()
        assert "FAIL" not in text


class TestRunScenarioDirect:
    def test_unknown_packet_rejected(self, tmp_path):
        scn = Scenario(name="density-map", line=1, values={
            "lambda_over_a": "0.1", "qa": "5", "alpha": "1", "beta": "1",
            "t": "0", "packet": "tachyonic",
        })
        with pytest.raises(ConfigError, match="packet"):
            run_scenario(scn, tmp_path, threads=1, timestamp=False)

    def test_bad_time_axis_rejected(self, tmp_path):
        scn = Scenario(name="velocity", line=1, values={
            "lambda_over_a": "0.1", "qa": "5", "alpha": "1", "beta": "1",
            "t_end": "0.0",
        })
        with pytest.raises(ConfigError, match="t_end"):
            run_scenario(scn, tmp_path, threads=1, timestamp=False)
