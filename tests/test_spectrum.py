import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone2d.norms import WeightFunction
from cone2d.poly import grlex_key
from cone2d.spectrum import (coefficient_space_dim, is_hausdorff, kphi_box,
                             kphi_contains, monomials_upto,
                             vanishing_ideal_basis)


def _reference_monomials(n: int, degree: int) -> list[tuple]:
    """``monomials_upto`` from index multisets, kept verbatim: the walk over
    compositions must reproduce its list."""
    exps = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            exps.append(tuple(exp))
    return exps


class TestMonomials:
    def test_count_matches_binomial(self):
        for n, d in [(1, 4), (2, 3), (3, 2)]:
            assert len(monomials_upto(n, d)) == coefficient_space_dim(n, d)
            assert coefficient_space_dim(n, d) == math.comb(n + d, d)

    def test_grlex_order(self):
        ms = monomials_upto(2, 2)
        assert ms[0] == (0, 0)
        degs = [sum(m) for m in ms]
        assert degs == sorted(degs)

    def test_equals_sorted_reference(self):
        for n in range(1, 5):
            for d in range(13):
                cube = itertools.product(range(d + 1), repeat=n)
                ref = sorted(set(s for s in cube if sum(s) <= d), key=grlex_key)
                assert monomials_upto(n, d) == ref, (n, d)

    def test_equals_multiset_reference(self):
        for n in range(1, 6):
            for d in range(13):
                assert monomials_upto(n, d) == _reference_monomials(n, d), (n, d)
        for n, d in [(0, 0), (0, 3), (2, 48), (3, -1)]:
            assert monomials_upto(n, d) == _reference_monomials(n, d), (n, d)

    def test_returned_list_does_not_reach_the_cache(self):
        first = monomials_upto(2, 3)
        first.append((9, 9))
        first[0] = (7, 7)
        again = monomials_upto(2, 3)
        assert again == _reference_monomials(2, 3) and again is not first


class TestKphiContains:
    def test_unit_box_point_inside(self):
        assert kphi_contains((0.5, -1), WeightFunction.one(2), degree=6)

    def test_point_outside_with_witness(self):
        r = kphi_contains((1.1,), WeightFunction.one(1), degree=10)
        assert not r
        assert r.violated == (1,)

    def test_geometric_boundary(self):
        phi = WeightFunction.geometric((2.0,))
        for d in (1, 4, 9, 16):
            assert kphi_contains((2.0,), phi, degree=d)

    def test_just_past_geometric_boundary(self):
        phi = WeightFunction.geometric((2.0,))
        assert not kphi_contains((2.2,), phi, degree=12)


class TestKphiBox:
    def test_unit_weight(self):
        for d in (1, 3, 7):
            assert kphi_box(WeightFunction.one(2), d) == ((-1, 1), (-1, 1))

    def test_lasserre_degree_four(self):
        # min over k<=4 of w(k)^(1/k): (2, sqrt(2), 24^(1/3), 24^(1/4))
        (lo, hi), = kphi_box(WeightFunction.lasserre(1), 4)
        assert hi == pytest.approx(math.sqrt(2), abs=1e-12)
        assert lo == -hi

    def test_geometric_radii(self):
        box = kphi_box(WeightFunction.geometric((2.0, 0.5)), 5)
        assert box == ((-2.0, 2.0), (-0.5, 0.5))

    def test_shrinks_with_degree(self):
        phi = WeightFunction.lasserre(1)
        widths = [kphi_box(phi, d)[0][1] for d in range(1, 9)]
        for a, b in zip(widths, widths[1:]):
            assert b <= a + 1e-15


class TestVanishingIdeal:
    def test_points_without_coordinates_rejected(self):
        with pytest.raises(ValueError, match="variable count must be >= 1"):
            vanishing_ideal_basis([[]], degree=2)

    def test_collinear_points(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (-2.0, 0.0)]
        vb = vanishing_ideal_basis(pts, degree=1)
        assert vb.kernel_dimension == 1
        (b,) = vb.basis
        # only X2 survives, up to sign and scale
        coeffs = {e: float(c) for e, c in b.terms.items()}
        assert set(coeffs) == {(0, 1)}

    def test_circle_points(self):
        theta = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = np.c_[np.cos(theta), np.sin(theta)]
        vb = vanishing_ideal_basis(pts, degree=2)
        assert vb.kernel_dimension == 1
        assert vb.rank == 5
        (b,) = vb.basis
        v = np.zeros(6)
        ms = monomials_upto(2, 2)
        for e, c in b.terms.items():
            v[ms.index(e)] = float(c)
        target = np.zeros(6)
        target[ms.index((0, 0))] = -1.0
        target[ms.index((2, 0))] = 1.0
        target[ms.index((0, 2))] = 1.0
        target /= np.linalg.norm(target)
        if np.dot(v, target) < 0:
            v = -v
        assert np.linalg.norm(v - target) < 1e-8

    def test_generic_points_have_trivial_kernel(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(20, 2))
        vb = vanishing_ideal_basis(pts, degree=2)
        assert vb.kernel_dimension == 0
        assert vb.rank == 6

    def test_rank_plus_kernel_is_dim(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(8, 2))
        for d in (1, 2, 3):
            vb = vanishing_ideal_basis(pts, degree=d)
            assert vb.rank + vb.kernel_dimension == coefficient_space_dim(2, d)

    def test_basis_elements_vanish_on_points(self):
        theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        pts = np.c_[0.5 * np.cos(theta), 0.5 * np.sin(theta)]
        vb = vanishing_ideal_basis(pts, degree=3)
        for b in vb.basis:
            for p in pts:
                assert abs(b.evaluate(tuple(p))) < 1e-10


class TestHausdorff:
    def test_grid_samples(self):
        xs = np.linspace(-1, 1, 9)
        pts = np.array([(x, y) for x in xs for y in xs])
        assert is_hausdorff(pts, degree=4)

    def test_single_point_never(self):
        for d in (1, 2, 3):
            assert not is_hausdorff([(0.3, -0.2)], degree=d)

    def test_circle_fails_at_degree_two(self):
        theta = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        pts = np.c_[np.cos(theta), np.sin(theta)]
        assert not is_hausdorff(pts, degree=2)
        assert is_hausdorff(pts, degree=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(6, 15))
def test_kernel_dim_decreases_with_more_points(seed, m):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(m, 2))
    d1 = vanishing_ideal_basis(pts[: m // 2], degree=2).kernel_dimension
    d2 = vanishing_ideal_basis(pts, degree=2).kernel_dimension
    assert d2 <= d1
