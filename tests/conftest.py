from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def finite_difference(fn, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        dn = theta.copy()
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


PROC_TASKS = Path("/proc/self/task")


def live_child_pids() -> set[int]:
    """Pids of this process's children, running or not yet reaped (Linux)."""
    pids: set[int] = set()
    for path in PROC_TASKS.glob("*/children"):
        pids.update(int(pid) for pid in path.read_text().split())
    return pids


@pytest.fixture
def child_pids():
    """The function that lists this process's child processes."""
    if next(PROC_TASKS.glob("*/children"), None) is None:
        pytest.skip("listing child processes needs /proc/self/task/*/children")
    return live_child_pids


def pytest_sessionfinish(session):
    """Fail the run if a test left a child process behind, such as the
    child a trainer forks for the critic's epochs."""
    left = sorted(live_child_pids())
    if left:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_sep("=", f"child processes still running after the tests: {left}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
