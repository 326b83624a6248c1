"""Shared fixtures and the acceptance-criteria summary reporter."""

import pytest

from dirac_cyclotron import ModelParams, oracle
from dirac_cyclotron.basis import q_kernel_stack

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
def kernel_stacks(monkeypatch) -> list[tuple[int, int]]:
    """(points, rows) of every kernel stack the oracle builds in the test, in order."""
    built = []

    def recording_stack(*args, **kwargs):
        stack = q_kernel_stack(*args, **kwargs)
        built.append((stack[0].size, len(stack)))
        return stack

    monkeypatch.setattr(oracle, "q_kernel_stack", recording_stack)
    return built
