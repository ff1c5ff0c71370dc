"""Tests for the rank-preserving transform calculus."""

import numpy as np
import pytest

from repro.algorithms.classical import classical
from repro.algorithms.strassen import strassen
from repro.core.transforms import (
    all_orientations,
    direct_sum_k,
    direct_sum_m,
    direct_sum_n,
    kron_compose,
    orient,
    orientation_stats,
    rotate,
    rotations,
    transpose_dual,
    transpose_rows,
)


def _check_semantics(algo, rng, scale=2):
    """Every transform output must actually multiply matrices."""
    m, k, n = algo.dims
    A = rng.standard_normal((m * scale, k * scale))
    B = rng.standard_normal((k * scale, n * scale))
    C = np.zeros((m * scale, n * scale))
    algo.apply_once(A, B, C)
    assert np.allclose(C, A @ B), algo.name


class TestTransposeRows:
    def test_involution(self, rng):
        X = rng.standard_normal((12, 5))
        assert np.allclose(transpose_rows(transpose_rows(X, 3, 4), 4, 3), X)

    def test_wrong_rows_raise(self, rng):
        with pytest.raises(ValueError):
            transpose_rows(rng.standard_normal((5, 2)), 2, 3)


class TestRotate:
    def test_strassen_rotation_valid(self, rng):
        r = rotate(strassen())
        assert r.dims == (2, 2, 2)
        assert r.rank == 7
        _check_semantics(r, rng)

    def test_rotation_cycles_dims(self):
        c = classical(2, 3, 4)
        r1 = rotate(c)
        r2 = rotate(r1)
        r3 = rotate(r2)
        assert r1.dims == (3, 4, 2)
        assert r2.dims == (4, 2, 3)
        assert r3.dims == (2, 3, 4)

    def test_triple_rotation_is_identity_semantically(self, rng):
        c = classical(2, 3, 4)
        r3 = rotate(rotate(rotate(c)))
        _check_semantics(r3, rng)
        # Same shape and rank; coefficients may be permuted but the triple
        # must reconstruct the same tensor (checked by validate inside).
        assert r3.dims == c.dims
        assert r3.rank == c.rank

    def test_rotations_list(self):
        rs = rotations(classical(2, 3, 4))
        assert [a.dims for a in rs] == [(2, 3, 4), (3, 4, 2), (4, 2, 3)]


class TestTransposeDual:
    def test_dual_dims(self):
        d = transpose_dual(classical(2, 3, 4))
        assert d.dims == (4, 3, 2)
        assert d.rank == 24

    def test_dual_involution_semantics(self, rng):
        s = strassen()
        dd = transpose_dual(transpose_dual(s))
        assert dd.dims == s.dims
        _check_semantics(dd, rng)

    def test_dual_of_rotation(self, rng):
        a = transpose_dual(rotate(classical(2, 3, 4)))
        assert a.dims == (2, 4, 3)
        _check_semantics(a, rng)


class TestAllOrientations:
    def test_distinct_dims_give_six(self):
        os_ = all_orientations(classical(2, 3, 4))
        assert set(os_) == {
            (2, 3, 4), (3, 4, 2), (4, 2, 3), (4, 3, 2), (3, 2, 4), (2, 4, 3)
        }

    def test_repeated_dims_collapse(self):
        os_ = all_orientations(strassen())
        assert set(os_) == {(2, 2, 2)}

    def test_all_orientations_preserve_rank(self, rng):
        base = classical(1, 2, 3)
        for dims, algo in all_orientations(base).items():
            assert algo.rank == 6
            _check_semantics(algo, rng)

    @pytest.mark.parametrize("src", [(2, 2, 3), (2, 3, 4), (2, 2, 2)])
    def test_orient_and_stats_follow_all_orientations(self, src):
        from repro.algorithms.catalog import base_case
        from repro.core.kronecker import StackStats

        base = base_case(*src)
        stats = orientation_stats(base)
        every = all_orientations(base)
        assert set(stats) == set(every)
        for dims, want in every.items():
            got = orient(base, dims)
            assert (got.name, got.source) == (want.name, want.source)
            for X, Y in ((got.U, want.U), (got.V, want.V), (got.W, want.W)):
                assert np.array_equal(X, Y)
            assert stats[dims] == StackStats.of(want)
        with pytest.raises(KeyError):
            orient(base, (5, 5, 5))


class TestDirectSums:
    def test_n_sum(self, rng):
        a = direct_sum_n(strassen(), classical(2, 2, 1))
        assert a.dims == (2, 2, 3)
        assert a.rank == 11
        _check_semantics(a, rng)

    def test_m_sum(self, rng):
        a = direct_sum_m(classical(1, 2, 2), strassen())
        assert a.dims == (3, 2, 2)
        assert a.rank == 11
        _check_semantics(a, rng)

    def test_k_sum(self, rng):
        a = direct_sum_k(strassen(), classical(2, 1, 2))
        assert a.dims == (2, 3, 2)
        assert a.rank == 11
        _check_semantics(a, rng)

    def test_mismatched_sums_raise(self):
        with pytest.raises(ValueError):
            direct_sum_n(strassen(), classical(3, 2, 1))
        with pytest.raises(ValueError):
            direct_sum_m(strassen(), classical(1, 3, 2))
        with pytest.raises(ValueError):
            direct_sum_k(strassen(), classical(3, 1, 2))

    def test_sum_rank_additivity(self):
        a = direct_sum_n(classical(2, 2, 2), classical(2, 2, 3))
        assert a.rank == 8 + 12


class TestKronCompose:
    def test_strassen_squared(self, rng):
        a = kron_compose(strassen(), strassen())
        assert a.dims == (4, 4, 4)
        assert a.rank == 49
        _check_semantics(a, rng, scale=1)

    def test_with_classical_identity(self, rng):
        a = kron_compose(strassen(), classical(1, 1, 1))
        assert a.dims == (2, 2, 2)
        assert a.rank == 7
        _check_semantics(a, rng)

    def test_rectangular_composition(self, rng):
        a = kron_compose(strassen(), classical(1, 1, 2))
        assert a.dims == (2, 2, 4)
        assert a.rank == 14
        _check_semantics(a, rng)

    def test_hybrid_composition(self, rng):
        a = kron_compose(classical(1, 2, 1), strassen())
        assert a.dims == (2, 4, 2)
        assert a.rank == 14
        _check_semantics(a, rng)
