"""JSON (de)serialization for coefficient triples.

Discovered algorithms are committed as data files under
``repro/algorithms/data/`` so the catalog does not depend on re-running the
(ALS) search.  Every load re-validates the Brent equations.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from repro.core.fmm import FMMAlgorithm

__all__ = [
    "algorithm_to_dict",
    "algorithm_from_dict",
    "save_json",
    "load_json",
    "load_directory",
    "data_dir",
]


def algorithm_to_dict(algo: FMMAlgorithm) -> dict:
    """Plain-JSON representation of an algorithm."""
    return {
        "m": algo.m,
        "k": algo.k,
        "n": algo.n,
        "rank": algo.rank,
        "name": algo.name,
        "source": algo.source,
        "U": algo.U.tolist(),
        "V": algo.V.tolist(),
        "W": algo.W.tolist(),
    }


def algorithm_from_dict(d: dict) -> FMMAlgorithm:
    """Rebuild and re-validate an algorithm from its JSON dict."""
    algo = FMMAlgorithm(
        m=int(d["m"]),
        k=int(d["k"]),
        n=int(d["n"]),
        U=np.array(d["U"], dtype=np.float64),
        V=np.array(d["V"], dtype=np.float64),
        W=np.array(d["W"], dtype=np.float64),
        name=str(d.get("name", "")),
        source=str(d.get("source", "json")),
    )
    if algo.rank != int(d["rank"]):
        raise ValueError(
            f"{algo.name}: rank field {d['rank']} != matrix width {algo.rank}"
        )
    return algo.validate()


def save_json(algo: FMMAlgorithm, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(algorithm_to_dict(algo), indent=1))
    return path


def load_json(path: str | Path) -> FMMAlgorithm:
    return algorithm_from_dict(json.loads(Path(path).read_text()))


def load_directory(path: str | Path) -> dict[str, FMMAlgorithm]:
    """Load every ``*.json`` coefficient file in a directory, keyed by name.

    Files load in sorted order (deterministic); every triple re-validates
    its Brent equations.  Two files declaring the same algorithm ``name``
    raise ``ValueError`` — a silently-shadowed duplicate entry is exactly
    the kind of catalog drift the docs generator is meant to rule out.
    """
    path = Path(path)
    out: dict[str, FMMAlgorithm] = {}
    sources: dict[str, str] = {}
    for f in sorted(path.glob("*.json")):
        algo = load_json(f)
        if algo.name in out:
            raise ValueError(
                f"duplicate catalog entry name {algo.name!r}: "
                f"{sources[algo.name]} and {f.name} both define it"
            )
        out[algo.name] = algo
        sources[algo.name] = f.name
    return out


@lru_cache(maxsize=None)
def data_dir() -> Path:
    """Directory holding the shipped coefficient data files (resolved
    once: the catalog asks for it per base case)."""
    return Path(str(resources.files("repro.algorithms") / "data"))
