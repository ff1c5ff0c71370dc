"""Fixtures for the machine-calibration tests: isolated wisdom stores."""

from __future__ import annotations

import pytest


@pytest.fixture
def store(tmp_path):
    """A fresh wisdom store in a temp directory (not the process default)."""
    from repro.tune import WisdomStore

    return WisdomStore(tmp_path / "wisdom.json")


@pytest.fixture
def default_wisdom(tmp_path):
    """A temp store installed as the process-wide default, restored after."""
    from repro.tune import WisdomStore, set_default_store

    s = WisdomStore(tmp_path / "wisdom.json")
    set_default_store(s)
    yield s
    set_default_store(None)


@pytest.fixture
def sample_config():
    """Factory for a stored config of the older (v1-v3) schemas."""

    def make(levels: int = 1) -> dict:
        return {
            "algorithm": [[2, 2, 2]] * levels,
            "levels": levels,
            "variant": "abc",
            "engine": "direct",
        }

    return make
