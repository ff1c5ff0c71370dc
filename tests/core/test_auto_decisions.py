"""What ``engine="auto"`` picks on the ledger's shapes and beyond.

``auto_config`` ranks the generated family with the §4.4 model and
nothing else: ``tune="off"`` prices with the generic machine, and
``tune="readonly"`` with the machine the wisdom store recorded.  These
tables pin both routes' 7-tuples on the perf ledger's shapes (64^3,
96^3, 128^3, 100x104x96, 1024^3, 1152x384x1152, 1536^3) plus 256^3,
4096^3 and 4800x480x4800, in float32 and float64.  A change to the
probe or the pricing that moves a pick has to update a table here, so
the move is seen.
"""

from __future__ import annotations

import pytest

from repro import auto_config
from repro.core import selection
from repro.model.machines import MachineParams, generic_laptop
from repro.tune import WisdomStore, set_default_store

S222 = (2, 2, 2)
S323 = (3, 2, 3)

#: ``tune="off"``: the generic machine's picks (algorithm, levels, variant).
GENERIC_PICKS = {
    (64, 64, 64): ("classical", 1, "abc"),
    (96, 96, 96): ("classical", 1, "abc"),
    (128, 128, 128): ("classical", 1, "abc"),
    (100, 104, 96): ("classical", 1, "abc"),
    (256, 256, 256): ((S222,), 1, "abc"),
    (1024, 1024, 1024): ((S222, S222), 2, "abc"),
    (1152, 384, 1152): ((S323,), 1, "abc"),
    (1536, 1536, 1536): ((S222, S222), 2, "abc"),
    (4096, 4096, 4096): ((S323, S323), 2, "ab"),
    (4800, 480, 4800): ((S222, S323), 2, "abc"),
}

#: A calibration of the kind a 2-core host with one fast BLAS records:
#: its compute rate is high against its bandwidth, so FMM's extra
#: traffic never pays and every shape stays on the BLAS route.
CALIBRATED = MachineParams("tuned-fixed", peak_gflops_per_core=122.2,
                           bandwidth_gbs=13.4, cores=2, lam=1.0)

#: The rest of the 7-tuple: auto picks no thread count, leaf backend or
#: worker mode, and the ledger indexes the tuple.
TAIL = ("direct", 1, "reference", "threads")

SHAPES = list(GENERIC_PICKS)
DTYPES = ["float32", "float64"]


def _id(shape):
    return "x".join(map(str, shape))


@pytest.fixture(autouse=True)
def _fresh_model_cache():
    selection._model_config.cache_clear()
    yield
    selection._model_config.cache_clear()


@pytest.fixture
def recorded(tmp_path):
    """Install a default store holding one given machine record."""

    def install(machine: MachineParams) -> WisdomStore:
        store = WisdomStore(tmp_path / "wisdom.json")
        store.record_machine(machine)
        set_default_store(store)
        return store

    yield install
    set_default_store(None)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=_id)
def test_generic_model_pick(shape, dtype):
    assert auto_config(*shape, dtype=dtype, tune="off") == (
        *GENERIC_PICKS[shape], *TAIL)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES, ids=_id)
def test_calibrated_machine_pick(recorded, shape, dtype):
    store = recorded(CALIBRATED)
    assert auto_config(*shape, dtype=dtype, tune="readonly") == (
        "classical", 1, "abc", *TAIL)
    assert store.machine_params() == CALIBRATED  # priced, not re-measured


@pytest.mark.parametrize("shape", SHAPES, ids=_id)
def test_readonly_prices_with_the_record_alone(recorded, shape):
    # A store holding the generic machine makes readonly price exactly
    # as tune="off" does: the record is the route's only input.
    recorded(generic_laptop())
    assert auto_config(*shape, tune="readonly") == auto_config(
        *shape, tune="off")
