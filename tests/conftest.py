"""Shared fixtures: seeded RNG and cached small problems.

The test suite pins the substrate to float64: the gradient checks use
central finite differences with eps ~1e-6, which only resolve in double
precision, and the seed's tolerance-based numerics tests were written
against float64.  The env var is set *before* any ``repro`` import so
subprocess-style tests (CLI/examples) inherit it; the autouse fixture
additionally restores the in-process default around every test so the
float32-specific tests in ``test_nn_engine.py`` cannot leak state.
"""

import os
import signal

os.environ["REPRO_NN_DTYPE"] = "float64"

import numpy as np
import pytest

from repro.nn.config import get_default_dtype, set_default_dtype
from repro.problems import combo_problem, nt3_problem, uno_problem


#: markers that define the test tiers (see docs/testing.md); anything
#: not explicitly tiered is "fast" — the default inner-loop suite
_TIER_MARKERS = ("slow", "chaos", "verify", "health", "perf", "proc",
                 "bench", "crashfuzz")

#: hard per-test wall-clock cap (seconds) for proc-, bench- and
#: crashfuzz-marked tests: a hung or deadlocked worker pool (or a sweep
#: subprocess that never reaches its kill point) must never wedge tier-1
_PROC_WATCHDOG_SECONDS = 240

#: markers whose tests get the SIGALRM watchdog — all spawn or poll
#: subprocesses whose hangs pytest alone cannot interrupt
_WATCHDOG_MARKERS = ("proc", "bench", "crashfuzz")


def pytest_collection_modifyitems(config, items):
    """Auto-mark untier-ed tests as ``fast`` so ``-m fast`` selects the
    quick inner-loop subset without annotating hundreds of tests."""
    for item in items:
        if not any(item.get_closest_marker(m) for m in _TIER_MARKERS):
            item.add_marker(pytest.mark.fast)


@pytest.fixture(autouse=True)
def _proc_watchdog(request):
    """SIGALRM watchdog around every proc-marked test (POSIX only).

    Supervision already bounds each *worker's* misbehaviour, but a bug
    in the supervisor itself (a wait_all that never returns, a deadlock
    on the result queue) would otherwise hang the whole test run.  The
    same cap guards bench-marked tests, whose kill/resume scenarios
    poll sweep subprocesses.
    """
    if (all(request.node.get_closest_marker(m) is None
            for m in _WATCHDOG_MARKERS)
            or not hasattr(signal, "SIGALRM")):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"proc test exceeded the {_PROC_WATCHDOG_SECONDS}s watchdog")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(_PROC_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _float64_substrate():
    previous = set_default_dtype(np.float64)
    assert get_default_dtype() == np.float64
    yield
    set_default_dtype(previous)


@pytest.fixture
def gradcheck():
    """Finite-difference gradient checker: ``gradcheck(layer, shapes)``
    (or ``gradcheck.check_loss`` / ``gradcheck.check_policy``), raising
    on mismatch.  See :mod:`repro.verify.gradcheck`."""
    from helpers import assert_gradcheck_ok as ok
    from repro.verify import gradcheck as gc

    class _Checker:
        check_loss = staticmethod(
            lambda *a, **kw: ok(gc.check_loss(*a, **kw)))
        check_policy = staticmethod(
            lambda *a, **kw: ok(gc.check_policy(*a, **kw)))
        check_ppo = staticmethod(
            lambda *a, **kw: ok(gc.check_ppo_objective(*a, **kw)))

        def __call__(self, layer, input_shapes, **kw):
            return ok(gc.check_layer(layer, input_shapes, **kw))

    return _Checker()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_combo():
    return combo_problem(n_train=160, n_val=64, cell_dim=20, drug_dim=24,
                         scale=0.02)


@pytest.fixture(scope="session")
def small_uno():
    return uno_problem(n_train=256, n_val=96, rna_dim=20, desc_dim=24,
                       fp_dim=12, scale=0.04)


@pytest.fixture(scope="session")
def small_nt3():
    return nt3_problem(n_train=120, n_val=48, length=100, scale=0.05,
                       baseline_filters=4)
