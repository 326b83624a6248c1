"""Tests of the benchmark's own machinery (generator, self times, checks)."""

from pathlib import Path

import pytest

import checks
import workloads
from tracer import self_times

from dirac_cyclotron import cli


@pytest.mark.parametrize("name", ["traces", "maps"])
def test_same_seed_gives_identical_config_text(name):
    a = workloads.make_workload(name, 7)
    b = workloads.make_workload(name, 7)
    assert a.config.encode() == b.config.encode()
    assert a.config != workloads.make_workload(name, 8).config


@pytest.mark.parametrize("name", ["traces", "maps"])
def test_config_keeps_validation_sets(name):
    for seed in range(20):
        workload = workloads.make_workload(name, seed)
        scenarios = cli.parse_config(workload.config)
        assert [s.values["output"] for s in scenarios] == list(workload.artifacts)
        for scn in scenarios:
            pair = (scn.values["lambda_over_a"], scn.values["qa"])
            assert pair in (("0.1", "5"), ("0.5", "10"))
            assert 0.5 <= float(scn.values["alpha"]) <= 2.0
            assert 0.5 <= float(scn.values["beta"]) <= 2.0


def test_self_times_on_nested_and_sibling_spans():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as from
    # a thread pool) and d [7, 8]; a has child c [2, 3]
    spans = [
        (1, "root", 0.0, 10.0, None),
        (2, "a", 1.0, 4.0, 1),
        (3, "c", 2.0, 3.0, 2),
        (4, "b", 3.0, 6.0, 1),
        (5, "d", 7.0, 8.0, 1),
        (6, "d", 8.5, 9.0, 1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 3.5, "a": 2.0, "c": 1.0, "b": 3.0, "d": 1.5})


@pytest.fixture
def velocity_artifact(tmp_path) -> Path:
    config = tmp_path / "v.cfg"
    config.write_text(
        "[velocity]\nlambda_over_a = 0.1\nqa = 5\nalpha = 1\nbeta = 1.5\n"
        "t_end = 1*T_D\nn_samples = 8\noutput = velocity.csv\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out), "--no-timestamp"]) == 0
    return out / "velocity.csv"


def _failed(results):
    return sum(not c.ok for c in results)


def test_corrupted_payload_row_is_counted(velocity_artifact):
    out, artifacts = velocity_artifact.parent, {"velocity.csv": 8}
    assert _failed(checks.check_payload(out, artifacts)) == 0
    assert _failed(checks.spot_check(out, artifacts, seed=1)) == 0
    digest = {"velocity.csv": checks.sha256(velocity_artifact)}
    assert _failed(checks.check_digests(out, digest)) == 0

    lines = velocity_artifact.read_text().splitlines()
    lines[-3] = lines[-3].rsplit(",", 1)[0] + ",nan"
    velocity_artifact.write_text("\n".join(lines) + "\n")
    assert _failed(checks.check_payload(out, artifacts)) == 1
    assert _failed(checks.check_digests(out, digest)) == 1

    del lines[-1]
    velocity_artifact.write_text("\n".join(lines) + "\n")
    assert _failed(checks.check_payload(out, artifacts)) == 2  # rows and finite


def test_oracle_spot_check_catches_a_wrong_value(velocity_artifact):
    art = checks.read_artifact(velocity_artifact)
    body = [",".join(r[:1] + [repr(float(r[1]) + 1e-4)] + r[2:]) for r in art.rows]
    head = velocity_artifact.read_text().splitlines()[: -len(art.rows)]
    velocity_artifact.write_text("\n".join(head + body) + "\n")
    results = checks.spot_check(velocity_artifact.parent, {"velocity.csv": 8}, seed=1)
    assert [c.ok for c in results] == [False]
