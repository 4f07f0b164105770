import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent / "tools"))  # behaviour

from jetframes.suites import run_suite  # noqa: E402


@pytest.fixture(scope="session")
def suite_reports():
    """Lazy cache of full-scale suite runs shared by the acceptance tests."""
    cache = {}

    def get(name, ns=(1, 2, 3, 4), trials=200, seed=42):
        key = (name, tuple(ns), trials, seed)
        if key not in cache:
            cache[key] = run_suite(name, ns, trials, seed)
        return cache[key]

    return get


@pytest.fixture
def deadline(request):
    """A test that hangs fails after 60 s instead."""
    def timeout(*_):
        raise AssertionError(f"{request.node.name} hung")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
