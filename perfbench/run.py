"""Benchmark of the dirac-cyclotron CLI: `traces`, `maps` and `validate`.

Usage:
    python3 perfbench/run.py --workload traces --seed 3 --seconds 20 --trace 0

Each pass runs ``dirac_cyclotron.cli.main`` once in a fresh interpreter
(child.py) with BLAS/OpenMP pools pinned to one thread.  Passes repeat until
``--seconds`` of measurement are used.  Each time metric is the median over
the passes, rescaled to a reference machine speed measured in every child.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Every artifact is checked outside the timed region; the
last line of stdout is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "dirac_cyclotron" / "cli.py").is_file():
    sys.exit(f"error: package source not found under {SRC}")
sys.path.insert(0, str(SRC))  # the package is benchmarked from source
import checks  # noqa: E402  (needs the package on sys.path)
WORK_ROOT = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 8
# reference_kernel's wall and CPU time, per thread count, with the machine at
# full speed; each time metric is rescaled to this speed (README.md,
# "Statistic")
REF_WALL_S = {1: 0.12, 2: 0.22}
REF_CPU_S = {1: 0.12, 2: 0.24}
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _reference_work() -> None:
    grid = np.linspace(0.0, 1.0, 30720) * (1 + 1j)
    acc = 0.0
    for i in range(1, 120000):
        acc += math.lgamma(i % 50 + 1)
    for _ in range(60):
        np.exp(grid * 1j).sum()
    for i in range(90000):
        format(i * 0.1, ".17g")


def reference_kernel(threads: int) -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of interpreter loop, numpy and formatting.

    It uses nothing from the package, so only the machine's speed moves it.
    The mix follows the workloads: scalar loops (traces), complex arithmetic
    on a map-sized array (maps, validate) and float formatting (the CSV
    writer).  With ``threads`` > 1 as many copies run at once, as the
    workload's thread pool does, so the time reflects every core it uses.
    """
    start, cpu = time.perf_counter(), time.process_time()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(_reference_work) for _ in range(threads)]:
            future.result()
    return time.perf_counter() - start, time.process_time() - cpu


class Runner:
    """Launches passes of one workload and collects their checks."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)}
        self.checks: list = []
        self._passes = 0

    def run_pass(
        self, workload, trace: bool = False, setup_only: bool = False
    ) -> tuple[dict | None, Path]:
        """One child process; returns its result record and output directory.

        With ``setup_only`` the child stops once set-up is done.  The
        reference kernel runs right before the child and, for a full pass,
        right after it; its (wall, cpu) times go into the record as ``ref``.
        """
        threads = workload.threads if not setup_only else 1
        ref = [reference_kernel(threads)]
        self._passes += 1
        out = self.work / f"pass{self._passes}"
        out.mkdir()
        config = "-"
        if workload.config is not None:
            config = str(self.work / f"{workload.name}-{workload.seed}.cfg")
            Path(config).write_text(workload.config)
        result_path = self.work / f"pass{self._passes}.json"
        launched = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "child.py"), str(result_path), repr(launched),
            "1" if trace else "0", config, "--",
        ]
        if not setup_only:
            cmd += workload.args(config, str(out))
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - launched),
            )
        except subprocess.TimeoutExpired:
            self.checks.append(checks.Check("pass:finished", False, "timed out"))
            return None, out
        if proc.returncode != 0 or not result_path.is_file():
            self.checks.append(checks.Check("pass:finished", False, proc.stderr[-2000:]))
            return None, out
        result = json.loads(result_path.read_text())
        result["ref_threads"] = threads
        result["ref"] = ref
        if setup_only:
            return result, out
        ref.append(reference_kernel(threads))
        self.checks.append(checks.Check(
            "pass:exit_code", result["exit_code"] == 0,
            f"exit code {result['exit_code']}: {proc.stderr[-2000:]}",
        ))
        return result, out


def speed_factor(record: dict, key: str = "wall_s") -> float:
    """Full-speed over measured reference time around this child's run.

    CPU time is rescaled by the kernel's CPU time, every other time by its
    wall time: a core that is held back adds wall time but no CPU time.
    """
    cpu = key == "cpu_s"
    full = (REF_CPU_S if cpu else REF_WALL_S)[record["ref_threads"]]
    return full / statistics.mean(t[cpu] for t in record["ref"])


def scaled_median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] * speed_factor(r, key) for r in records)


def layer_metrics(record: dict, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are rescaled like wall_s."""
    spans = record["trace"]["spans"]
    counters = record["trace"]["counters"]
    self_s = tracer.self_times(spans)
    calls = Counter(span[1] for span in spans)
    out: dict[str, float] = {}
    for name in tracer.SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s.get(name, 0.0) * speed_factor(record)
    out.update(counters)
    windows = calls["basis.truncation_window"]
    out["basis.truncation_window.distinct_ratio"] = (
        counters["basis.truncation_window.distinct_params"] / windows if windows else 0.0
    )
    trace_calls = sum(calls[name] for name in tracer.TRACE_FUNCTIONS)
    out["observables.taus_per_call"] = (
        counters["observables.taus"] / trace_calls if trace_calls else 0.0
    )
    out["cli.artifact_bytes"] = artifact_bytes
    out["cli.parallelism"] = sum(self_s.values()) / record["wall_s"]
    return out


def self_shares(spans, top: int = 4) -> list[tuple[str, float]]:
    """The spans with the largest share of summed self time in a pass."""
    self_s = tracer.self_times(spans)
    total = sum(self_s.values()) or 1.0
    return sorted(((n, v / total) for n, v in self_s.items()), key=lambda x: -x[1])[:top]


def environment(workload) -> dict:
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = git.stdout.strip() or git_sha
    return {
        "git_sha": git_sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": workload.threads,
        "child_env": PINNED_ENV,
    }


def measure(args, runner: Runner) -> tuple[dict[str, float], dict]:
    workload = workloads.make_workload(args.workload, args.seed)
    # set-up-only launches measure setup_s; the first is not counted, as it
    # fills the bytecode cache when Python may write one
    setups = [
        r
        for r, _ in (runner.run_pass(workload, setup_only=True) for _ in range(SETUP_PROBES + 1))
        if r is not None
    ][1:]
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    first_out = None
    first_digests: dict[str, str] = {}
    start = time.monotonic()
    while True:
        trace = args.trace == 1 and len(durations) % 2 == 1
        t0 = time.monotonic()
        result, out = runner.run_pass(workload, trace)
        durations.append(time.monotonic() - t0)
        if result is not None:
            (traced if trace else untraced).append(result)
            digests = {n: checks.sha256(out / n) for n in workload.artifacts if (out / n).is_file()}
            if first_out is None:
                first_out, first_digests = out, digests
                runner.checks += checks.check_payload(out, workload.artifacts)
            else:
                stable = digests == first_digests
                runner.checks.append(checks.Check("pass:same_bytes", stable, str(digests)))
                if not stable:
                    runner.checks += checks.check_payload(out, workload.artifacts)
                shutil.rmtree(out)
        have_all = untraced and (traced or args.trace == 0)
        elapsed = time.monotonic() - start
        if time.monotonic() + statistics.median(durations) > runner.deadline:
            break
        if have_all and elapsed + statistics.median(durations) > args.seconds:
            break
    if not untraced or (args.trace == 1 and not traced):
        raise RuntimeError("no pass completed: " + "; ".join(c.detail for c in runner.checks))

    # correctness outside the timed region
    recorded = json.loads((HERE / "digests.json").read_text())[workload.name]
    default = workloads.make_workload(workload.name, workloads.DEFAULT_SEED)
    digest_out = first_out
    if default.config != workload.config:
        _, digest_out = runner.run_pass(default, trace=False)
    runner.checks += checks.check_digests(digest_out, recorded)
    runner.checks += checks.spot_check(first_out, workload.artifacts, args.seed)

    info = {
        "passes": len(untraced),
        "wall_s_per_pass": [r["wall_s"] for r in untraced],
        "ref_wall_s_per_pass": [statistics.mean(t[0] for t in r["ref"]) for r in untraced],
    }
    if args.trace == 0:
        wall_s = scaled_median(untraced, "wall_s")
        metrics = {
            "setup_s": scaled_median(setups, "setup_s"),
            "wall_s": wall_s,
            "rows_per_s": sum(workload.artifacts.values()) / wall_s,
            "cpu_s": scaled_median(untraced, "cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    else:
        typical = sorted(traced, key=lambda r: r["wall_s"] * speed_factor(r))[(len(traced) - 1) // 2]
        artifact_bytes = sum((first_out / n).stat().st_size for n in workload.artifacts)
        metrics = layer_metrics(typical, artifact_bytes)
        metrics["trace_overhead_ratio"] = (
            scaled_median(traced, "wall_s") / scaled_median(untraced, "wall_s")
        )
        info["traced_wall_s_per_pass"] = [r["wall_s"] for r in traced]
        info["top_self_shares"] = [[n, round(v, 3)] for n, v in self_shares(typical["trace"]["spans"])]
    info["env"] = environment(workload)
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    runner = Runner(work, deadline=time.monotonic() + RUN_LIMIT_S)
    try:
        values, info = measure(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    failed = [c for c in runner.checks if not c.ok]
    for check in failed:
        print(f"FAIL {check.name}: {check.detail}")
    print("info " + json.dumps(info, sort_keys=True))
    for m in metric_specs:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(runner.checks),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
