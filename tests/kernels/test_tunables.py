"""Runtime tunables: the in-process spec knobs and their live effect."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spec import (
    DEFAULT_FUSED_GROUP,
    DEFAULT_MEM_BUDGET_BYTES,
    DEFAULT_TILE_ROWS,
    FUSED_AUTO_THRESHOLD,
    SERVE_BATCH_WINDOW_US,
    SERVE_MAX_BATCH,
    TUNABLE_DEFAULTS,
    effective_fused_auto_threshold,
    effective_fused_group,
    runtime_tunables,
    set_runtime_tunables,
)


@pytest.fixture(autouse=True)
def _restore_tunables():
    yield
    set_runtime_tunables()


class TestSpecKnobs:
    def test_defaults(self):
        assert TUNABLE_DEFAULTS == {
            "fused_group": DEFAULT_FUSED_GROUP,
            "fused_auto_threshold": FUSED_AUTO_THRESHOLD,
            "serve_batch_window_us": SERVE_BATCH_WINDOW_US,
            "serve_max_batch": SERVE_MAX_BATCH,
            "tile_rows": DEFAULT_TILE_ROWS,
            "mem_budget_bytes": DEFAULT_MEM_BUDGET_BYTES,
        }
        assert effective_fused_group() == DEFAULT_FUSED_GROUP
        assert effective_fused_auto_threshold() == FUSED_AUTO_THRESHOLD

    def test_override_and_reset(self):
        out = set_runtime_tunables(fused_group=16, fused_auto_threshold=1024)
        assert out == {
            "fused_group": 16,
            "fused_auto_threshold": 1024,
            "serve_batch_window_us": SERVE_BATCH_WINDOW_US,
            "serve_max_batch": SERVE_MAX_BATCH,
            "tile_rows": DEFAULT_TILE_ROWS,
            "mem_budget_bytes": DEFAULT_MEM_BUDGET_BYTES,
        }
        assert effective_fused_group() == 16
        # Each call fully respecifies: omitting a knob reverts it.
        set_runtime_tunables(fused_group=32)
        assert effective_fused_auto_threshold() == FUSED_AUTO_THRESHOLD
        set_runtime_tunables()
        assert runtime_tunables() == TUNABLE_DEFAULTS

    def test_validation(self):
        with pytest.raises(ValueError):
            set_runtime_tunables(fused_group=0)
        with pytest.raises(ValueError):
            set_runtime_tunables(fused_auto_threshold=-1)

    def test_auto_fusion_threshold_is_live(self):
        from repro.core.spec import resolve_fusion

        # A threshold of 0 pushes every abc plan to fused...
        set_runtime_tunables(fused_auto_threshold=0)
        assert resolve_fusion("auto", "abc", staged_elements=10) == "fused"
        # ...and a huge one keeps small plans staged.
        set_runtime_tunables(fused_auto_threshold=1 << 60)
        assert resolve_fusion("auto", "abc", staged_elements=10) == "staged"

    def test_fused_group_reaches_the_runtime(self, rng):
        import repro

        A = rng.standard_normal((96, 96))
        B = rng.standard_normal((96, 96))
        set_runtime_tunables(fused_group=3)
        C = repro.multiply(A, B, algorithm="strassen", levels=2,
                           fusion="fused")
        rep = repro.last_report()
        assert rep.fusion == "fused"
        np.testing.assert_allclose(C, A @ B, atol=1e-10)
