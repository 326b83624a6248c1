"""Workload generator: seed -> CLI arguments and config text.

A seed draws only inputs that leave the cost of a pass unchanged: the
multiples of T_cl / T_D / T_R used for ``t_end`` and ``t``, the packet
weights ``alpha``/``beta`` (nonzero, in [0.5, 2]) and the fractional
revival ``m/n`` with n <= 6.  ``qa`` and ``lambda_over_a`` stay at the two
validation sets, so truncation windows, series lengths and grid sizes are
the same for every seed.

Run ``python3 perfbench/workloads.py traces 1`` to print the config text of
a workload for a seed.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

# validation sets of the package (cli.SET1 / cli.SET2)
SET1 = (("lambda_over_a", "0.1"), ("qa", "5"))  # n0 = 12, window 1..45
SET2 = (("lambda_over_a", "0.5"), ("qa", "10"))  # n0 = 50, window 10..109

TRACE_SAMPLES = 512
GRID_ROWS = 120 * 256  # the CLI's default map grid, n_rho x n_theta
VALIDATE_ROWS = 9  # checks in a full `validate` report

DEFAULT_SEED = 1
WORKLOAD_NAMES = ("traces", "maps", "validate")


@dataclass(frozen=True)
class Workload:
    """One benchmark pass: CLI arguments plus the artifacts it must write.

    ``argv`` holds the placeholders ``{config}`` and ``{out}``; ``artifacts``
    maps each artifact file name to its payload row count.
    """

    name: str
    seed: int
    argv: tuple[str, ...]
    config: str | None
    artifacts: dict[str, int]

    @property
    def threads(self) -> int:
        return int(self.argv[self.argv.index("--threads") + 1])

    def args(self, config_path: str, out_dir: str) -> list[str]:
        return [a.format(config=config_path, out=out_dir) for a in self.argv]


def _time(rng: random.Random) -> str:
    anchor = rng.choice(("T_cl", "T_D", "T_R"))
    return f"{rng.randint(1, 12) * 0.25:g}*{anchor}"


def _weights(rng: random.Random) -> tuple[tuple[str, str], ...]:
    return (
        ("alpha", f"{rng.randint(2, 8) * 0.25:g}"),
        ("beta", f"{rng.randint(2, 8) * 0.25:g}"),
    )


def _section(scenario: str, pairs) -> str:
    return "\n".join([f"[{scenario}]"] + [f"{k} = {v}" for k, v in pairs])


def _traces(rng: random.Random) -> tuple[str, dict[str, int]]:
    sections = []
    artifacts = {}
    for scenario, params in (
        ("velocity", SET1),
        ("spin-trace", SET1),
        ("jc-velocity", SET2),
        ("jc-spin", SET2),
    ):
        output = f"{scenario}.csv"
        sections.append(_section(scenario, params + _weights(rng) + (
            ("t_end", _time(rng)),
            ("n_samples", str(TRACE_SAMPLES)),
            ("output", output),
        )))
        artifacts[output] = TRACE_SAMPLES
    return "\n\n".join(sections) + "\n", artifacts


def _maps(rng: random.Random) -> tuple[str, dict[str, int]]:
    n = rng.randint(2, 6)
    m = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])
    specs = (
        ("density-map", SET1, (("packet", "positive"), ("spectrum", "exact")), "density-positive.csv"),
        ("density-map", SET2, (("packet", "two_band"), ("spectrum", "exact")), "density-two-band.csv"),
        ("density-map", SET1, (("packet", "positive"), ("spectrum", "taylor2")), "density-taylor2.csv"),
        ("spin-map", SET2, (), "spin-map.csv"),
        ("fractional", SET1, (("m", str(m)), ("n", str(n))), "fractional.csv"),
    )
    sections = []
    artifacts = {}
    for scenario, params, extra, output in specs:
        timing = () if scenario == "fractional" else (("t", _time(rng)),)
        sections.append(
            _section(scenario, params + _weights(rng) + timing + extra + (("output", output),))
        )
        artifacts[output] = GRID_ROWS
    return "\n\n".join(sections) + "\n", artifacts


def make_workload(name: str, seed: int) -> Workload:
    """Build the named workload for a seed; the same seed gives the same text."""
    run_argv = ("run", "{config}", "--out", "{out}", "--threads", "1", "--no-timestamp")
    rng = random.Random(f"{name}:{seed}")
    if name == "traces":
        # many small series calls: per-tau truncation_window rebuilds and the
        # observables trace functions carry the work; ~2k rows, fields and
        # oracle idle
        config, artifacts = _traces(rng)
        return Workload(name, seed, run_argv, config, artifacts)
    if name == "maps":
        # few calls on large arrays: CSV formatting of ~154k rows plus the
        # fields / observables / oracle grid kernels
        config, artifacts = _maps(rng)
        return Workload(name, seed, run_argv, config, artifacts)
    if name == "validate":
        # the oracle mode sums, kernel stacks and the only real thread-pool
        # work; inputs come from the package's fixed VALIDATE_SEED, so the
        # benchmark seed has no effect
        argv = ("validate", "--threads", "2", "--out", "{out}", "--no-timestamp")
        return Workload(name, seed, argv, None, {"validate.csv": VALIDATE_ROWS})
    raise ValueError(f"unknown workload {name!r}")


if __name__ == "__main__":
    workload = make_workload(sys.argv[1], int(sys.argv[2]))
    sys.stdout.write(workload.config or "")
