"""Shared fixtures and the acceptance-criteria summary reporter."""

import json
import os

import pytest

from dirac_cyclotron import ModelParams, oracle
from dirac_cyclotron.basis import q_kernel_walk

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def set1() -> ModelParams:
    """Moderately relativistic packet: qa=5, lambda/a=0.1 (n0 = 12)."""
    return ModelParams(lambda_over_a=0.1, qa=5.0)


@pytest.fixture(scope="session")
def set2() -> ModelParams:
    """Strongly relativistic packet: qa=10, lambda/a=0.5 (n0 = 50)."""
    return ModelParams(lambda_over_a=0.5, qa=10.0)


@pytest.fixture
def kernel_walks(monkeypatch) -> list[list[int]]:
    """[points, orders walked] of every kernel walk the oracle makes in the test, in order."""
    walks = []

    def recording_walk(k_max, x, y, params):
        walk = [x.size, 0]
        walks.append(walk)
        for q in q_kernel_walk(k_max, x, y, params):
            walk[1] += 1
            yield q

    monkeypatch.setattr(oracle, "q_kernel_walk", recording_walk)
    return walks


class WorkerLog:
    """An append-only record that a test and the worker processes it forks
    share: each entry is one JSON line, appended in one write, so entries
    from concurrent workers do not interleave.  Tuples read back as lists."""

    def __init__(self, path):
        self.path = path
        path.write_bytes(b"")

    def append(self, entry) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (json.dumps(entry) + "\n").encode())
        finally:
            os.close(fd)

    def entries(self) -> list:
        return [json.loads(line) for line in self.path.read_text().splitlines()]


@pytest.fixture
def worker_log(tmp_path) -> WorkerLog:
    """What a recorder patched in before a pool forks appends in its workers."""
    return WorkerLog(tmp_path / "worker-log.jsonl")
