"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_wisdom(tmp_path_factory):
    """Keep the whole suite away from the developer's real wisdom store.

    ``multiply(engine="auto")`` defaults to ``tune="readonly"``, so any
    auto-dispatch test would otherwise consult ``~/.cache/repro`` and a
    previously tuned machine could flip model-path assertions.  Pointing
    ``REPRO_WISDOM`` at a session temp file isolates even code that
    resets the default store mid-test (it re-resolves from the env).
    The session store still calibrates this host on its first model-path
    miss, so a test asserting what the *model* picks pins it with
    ``tune="off"`` or an explicit ``machine``.
    """
    from repro.tune import set_default_store

    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_WISDOM",
              str(tmp_path_factory.mktemp("wisdom") / "wisdom.json"))
    set_default_store(None)
    yield
    mp.undo()
    set_default_store(None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def strassen_algo():
    from repro.algorithms.strassen import strassen

    return strassen()


@pytest.fixture(scope="session")
def winograd_algo():
    from repro.algorithms.strassen import winograd

    return winograd()


def assert_multiplies(algo_or_ml, m, k, n, seed=0, tol=1e-9, **mult_kwargs):
    """Utility: check C += A@B via the public API for one configuration."""
    from repro.core.executor import multiply

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, n))
    C0 = rng.standard_normal((m, n))
    C = multiply(A, B, C0.copy(), algorithm=algo_or_ml, **mult_kwargs)
    ref = C0 + A @ B
    err = float(np.abs(C - ref).max())
    assert err < tol, f"max err {err} for {(m, k, n)} kwargs={mult_kwargs}"
