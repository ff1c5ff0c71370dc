"""Every script under ``examples/`` runs to completion.

Each runs in a fresh interpreter, from a temporary directory, against a
temporary wisdom store, so an example can neither read nor pollute the
developer's wisdom and a stale API use (a wrong tuple unpack, a renamed
keyword) fails here instead of in front of a reader.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES  # an empty glob would silently parametrize nothing


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_WISDOM"] = str(tmp_path / "wisdom.json")
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-2000:]
