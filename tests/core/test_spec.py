"""Tests for the shared algorithm-spec normalizer."""

import numpy as np
import pytest

from repro.algorithms.strassen import strassen
from repro.core.kronecker import MultiLevelFMM
from repro.core.spec import (
    check_threads,
    normalize_spec,
    normalize_threads,
    resolve_levels,
    spec_key,
)


class TestNormalizeSpec:
    def test_name_replicates_levels(self):
        assert normalize_spec("strassen", 3) == ("strassen",) * 3

    def test_shape_tuple_is_one_atom(self):
        assert normalize_spec((2, 3, 4), 2) == ((2, 3, 4), (2, 3, 4))

    def test_plus_string_splits_per_level(self):
        assert normalize_spec("strassen+<3,3,3>") == ("strassen", "<3,3,3>")

    def test_plus_string_ignores_levels(self):
        # Explicit stacks fix the level count; `levels` is documented as
        # ignored (matching the historical CLI behavior).
        assert normalize_spec("strassen+classical", levels=5) == (
            "strassen",
            "classical",
        )

    def test_list_is_per_level_stack(self):
        spec = ["strassen", (3, 3, 3)]
        assert normalize_spec(spec) == ("strassen", (3, 3, 3))

    def test_algorithm_object_atom(self):
        s = strassen()
        assert normalize_spec(s, 2) == (s, s)

    def test_multilevel_passthrough(self):
        ml = MultiLevelFMM([strassen(), strassen()])
        assert normalize_spec(ml) == ml.levels

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            normalize_spec("strassen", 0)

    def test_empty_stack(self):
        with pytest.raises(ValueError):
            normalize_spec([])

    def test_unknown_form(self):
        with pytest.raises(TypeError):
            normalize_spec(3.14)

    def test_bad_atom_in_stack(self):
        with pytest.raises(TypeError):
            normalize_spec(["strassen", 7])


class TestNormalizeThreads:
    def test_valid_counts_pass_through(self):
        assert normalize_threads(1) == 1
        assert normalize_threads(4) == 4
        assert normalize_threads(np.int64(2)) == 2

    def test_none_means_unspecified(self):
        assert normalize_threads(None) is None

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_nonpositive_raise_value_error(self, bad):
        with pytest.raises(ValueError, match="threads"):
            normalize_threads(bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True])
    def test_non_integers_raise_type_error(self, bad):
        with pytest.raises(TypeError, match="threads"):
            normalize_threads(bad)

    def test_multiply_rejects_bad_threads_up_front(self):
        # The satellite fix: multiply(threads=0) must fail at
        # spec-normalization time, before any compilation or execution.
        from repro.core.executor import multiply

        A = np.ones((4, 4))
        for bad in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                multiply(A, A, threads=bad)

    def test_execution_api_takes_one_worker(self):
        """BLAS threads the leaf products; the ``threads`` keyword the
        ledger passes accepts only 1 (or None)."""
        assert check_threads(None) is None
        assert check_threads(1) is None
        assert check_threads(np.int64(1)) is None
        for bad in (2, 8):
            with pytest.raises(ValueError, match="OPENBLAS_NUM_THREADS"):
                check_threads(bad)
        with pytest.raises(TypeError, match="threads"):
            check_threads(1.0)

    def test_multiply_rejects_negative_levels_up_front(self):
        from repro.core.executor import multiply

        A = np.ones((4, 4))
        for bad in (0, -1):
            with pytest.raises(ValueError, match="levels"):
                multiply(A, A, algorithm="strassen", levels=bad)


class TestResolveLevels:
    def test_hybrid_plus_string(self):
        ml = resolve_levels("strassen+<3,2,3>")
        assert ml.L == 2
        assert ml.dims_total == (6, 4, 6)

    def test_matches_list_form(self):
        a = resolve_levels("strassen+<3,3,3>")
        b = resolve_levels(["strassen", "<3,3,3>"])
        assert a.dims_total == b.dims_total
        assert a.rank_total == b.rank_total


class TestSpecKey:
    def test_equivalent_shape_spellings_coincide(self):
        assert (
            spec_key("<2,3,2>")
            == spec_key((2, 3, 2))
            == spec_key("2,3,2")
        )

    def test_names_are_case_insensitive(self):
        assert spec_key("Strassen") == spec_key("strassen")

    def test_levels_change_key(self):
        assert spec_key("strassen", 1) != spec_key("strassen", 2)

    def test_object_atoms_keyed_by_identity(self):
        s1, s2 = strassen(), strassen()
        assert spec_key(s1) != spec_key(s2)
        assert spec_key(s1) == spec_key(s1)
