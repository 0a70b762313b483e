import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone2d import norms
from cone2d.norms import (Region, WeightFunction, fatten, lasserre_threshold,
                          lasserre_weight, phi_norm, rho_alpha, sup_norm)
from cone2d.poly import Dyadic, Polynomial


def X(n, i):
    return Polynomial.variable(n, i)


class TestRhoAlpha:
    def test_basic(self):
        assert rho_alpha(X(2, 0) + X(2, 1) ** 2, (1, 2)) == 5.0

    def test_zero_everywhere(self):
        z = Polynomial.zero(2)
        for alpha in [(0, 0), (3, -1), (0.5, 0.5)]:
            assert rho_alpha(z, alpha) == 0.0

    def test_seminorm_not_norm(self):
        # nonzero polynomial annihilated by one evaluation
        f = X(1, 0) - 1
        assert rho_alpha(f, (1,)) == 0.0
        assert rho_alpha(f, (0,)) == 1.0


class TestSupNorm:
    def test_linear_endpoints(self):
        k = Region.from_box([(-1, 1)], resolution=1e-2)
        r = sup_norm(X(1, 0), k)
        assert float(r) == 1.0
        assert r.argmax in ((-1.0,), (1.0,))

    def test_interior_max(self):
        k = Region.from_box([(-1, 1)], resolution=1e-2)
        r = sup_norm(1 - X(1, 0) ** 2, k)
        assert float(r) == 1.0
        assert r.argmax == (0.0,)

    def test_monomial_bound(self):
        k = Region.from_box([(-3, 3)])
        assert float(sup_norm(X(1, 0) ** 2, k)) == 9.0

    def test_grid_includes_endpoints(self):
        k = Region.from_box([(-1, 1)], resolution=1e-2)
        pts = k.sample_points[:, 0]
        assert pts[0] == -1.0 and pts[-1] == 1.0


class TestPhiNorm:
    def test_plain_l1(self):
        f = 3 * X(1, 0) - 2
        assert phi_norm(f, WeightFunction.one(1)) == 5.0

    def test_lasserre_mixed_monomial(self):
        f = X(2, 0) * X(2, 1)
        assert phi_norm(f, WeightFunction.lasserre(2)) == 2.0

    def test_lasserre_odd_degree(self):
        assert phi_norm(X(1, 0) ** 3, WeightFunction.lasserre(1)) == 24.0

    def test_lasserre_weight_table(self):
        # w(s) = (2*ceil(|s|/2))!
        assert [lasserre_weight(k) for k in range(5)] == [1, 2, 2, 24, 24]

    def test_lasserre_absolute_value_flag_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction(1, "lasserre", is_absolute_value=True)

    def test_table_submultiplicativity_violation_caught(self):
        w = WeightFunction(1, "table", table={(0,): 1.0, (1,): 1.0, (2,): 3.0},
                           is_absolute_value=True)
        with pytest.raises(ValueError, match="violation"):
            w((1,))

    def test_missing_or_overflowing_weight_is_value_error(self):
        w = WeightFunction(1, "table", table={(0,): 1.0, (1,): 0.5},
                           is_absolute_value=True)
        assert w((1,)) == 0.5  # the check skips the absent w((2,))
        with pytest.raises(ValueError, match="no entry"):
            w((2,))
        with pytest.raises(ValueError, match="float range"):
            WeightFunction.lasserre(1)((200,))

    def test_table_check_independent_of_query_history(self):
        # w((1,1)) = 3 > w((1,0)) * w((0,1)); 70 valid entries besides
        table = {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 3.0,
                 **{(0, 100 + k): 1.0 for k in range(70)}}
        fresh = WeightFunction(2, "table", table=table, is_absolute_value=True)
        with pytest.raises(ValueError, match="violation"):
            fresh((1, 0))
        used = WeightFunction(2, "table", table=table, is_absolute_value=True)
        used((0, 0))
        for k in range(70):
            assert used((0, 100 + k)) == 1.0
        with pytest.raises(ValueError, match="violation"):
            used((1, 0))
        with pytest.raises(ValueError, match="violation"):
            used((0, 1))

    def test_table_json_rejects_repeated_exponent(self):
        data = {"kind": "table", "entries": [
            {"exp": [0], "val": 1.0}, {"exp": [2], "val": 1.0}, {"exp": [2], "val": 2.0}]}
        with pytest.raises(ValueError, match="duplicate"):
            WeightFunction.from_json_dict(data)

    def test_geometric(self):
        phi = WeightFunction.geometric((2.0, 0.5))
        f = X(2, 0) * X(2, 1) ** 2
        assert phi_norm(f, phi) == 0.5

    def test_weight_json_round_trip(self):
        for w in (WeightFunction.one(2), WeightFunction.geometric((2, 0.5)),
                  WeightFunction.lasserre(1)):
            back = WeightFunction.from_json_dict(w.to_json_dict())
            assert back.kind == w.kind and back.n == w.n
            assert back((1,) + (0,) * (w.n - 1)) == w((1,) + (0,) * (w.n - 1))


class TestFatten:
    def test_point_inflates_to_interval(self):
        k = Region.from_points([(0.0,)], resolution=0.05)
        fat = fatten(k, 1.0)
        lo, hi = fat.sample_points.min(), fat.sample_points.max()
        assert lo <= -0.95 and hi >= 0.95

    def test_monotone_in_eps(self):
        k = Region.from_points([(0.0, 0.0), (1.0, 0.5)], resolution=0.1)
        small = fatten(k, 0.2)
        big = fatten(k, 0.5)
        small_set = {tuple(p) for p in small.sample_points}
        big_set = {tuple(p) for p in big.sample_points}
        assert small_set <= big_set

    def test_originals_kept(self):
        k = Region.from_points([(0.3, -0.7)], resolution=0.1)
        fat = fatten(k, 0.25)
        assert any(np.allclose(p, (0.3, -0.7)) for p in fat.sample_points)

    def test_thin_circle_gains_interior(self):
        theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = np.c_[np.cos(theta), np.sin(theta)]
        k = Region.from_points(pts, resolution=0.02)
        fat = fatten(k, 0.1)
        # annulus has area, curve does not: sample count ratio is large
        assert len(fat.sample_points) > 5 * len(k.sample_points)
        radii = np.hypot(*fat.sample_points.T)
        assert radii.min() < 0.95 and radii.max() > 1.05

    def test_nonpositive_eps(self):
        k = Region.from_points([(0.0,)])
        for eps in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps"):
                fatten(k, eps)
        for eps in (1e20, 1e308):  # finite, but past the grid cap
            with pytest.raises(ValueError, match="exceed"):
                fatten(k, eps)

    @pytest.mark.parametrize("region", [
        Region.from_box([(-1, 1)], resolution=0.05),
        Region.from_box([(0, 0.7)], resolution=0.03),
        Region.from_box([(0, 1), (-0.2, 0.3)], resolution=0.1),
        Region.from_points([(0.3,), (-0.25,), (0.3,), (0.013,)], resolution=0.05),
        Region.from_points([(0.0, 0.0), (0.31, -0.2), (0.0, 0.0), (0.1, 0.1)],
                           resolution=0.05),
    ], ids=["box-1d", "box-1d-off-lattice", "box-2d", "points-1d", "points-2d"])
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.07, 0.13])
    def test_matches_brute_force_reference(self, region, eps):
        # samples plus every lattice point lo + k*res within eps of one,
        # from a full distance matrix over a lattice wider than the fattening
        res, samples = region.resolution, region.sample_points
        pad = int(eps / res) + 3
        axes = [lo + res * np.arange(-pad, int((hi - lo) / res) + pad + 1)
                for lo, hi in region.box]
        lattice = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], -1)
        dist = np.sqrt(((lattice[:, None] - samples[None]) ** 2).sum(-1)).min(axis=1)
        kept = lattice[dist <= eps * (1 + 1e-12)]
        want = sorted({tuple(p) for p in samples} | {tuple(p) for p in kept})
        got = [tuple(p) for p in fatten(region, eps).sample_points]
        assert got == want


def test_from_points_dedupes_in_lexicographic_order():
    k = Region.from_points([(1.0, 0.0), (0.0, 2.0), (1.0, 0.0), (0.0, -1.0)])
    assert k.sample_points.tolist() == [[0.0, -1.0], [0.0, 2.0], [1.0, 0.0]]


class TestLasserreThreshold:
    def test_unit_box(self):
        k = Region.from_box([(-1, 1), (-1, 1)])
        t = lasserre_threshold(k, max_degree=10)
        assert t.found and t.threshold == 2

    def test_m_three(self):
        k = Region.from_box([(-3, 3)])
        t = lasserre_threshold(k, max_degree=20)
        assert t.found and t.threshold == 7
        assert t.bound == 3.0
        # oracle: direct integer evaluation of M^N / N!
        assert 3**7 / math.factorial(7) < 1 < 3**6 / math.factorial(6)

    def test_ratio_decay(self):
        k = Region.from_box([(-3, 3)])
        t = lasserre_threshold(k, max_degree=20)
        ratios = t.ratios
        m = int(t.bound)
        for i in range(m, len(ratios) - 1):
            assert ratios[i + 1] < ratios[i]
        assert ratios[-1] < 1e-6

    def test_not_found_when_degree_small(self):
        k = Region.from_box([(-3, 3)])
        t = lasserre_threshold(k, max_degree=5)
        assert not t.found


class TestRegion:
    def test_ineq_filters_samples(self):
        # keep x >= 0 inside [-1,1]
        g = X(1, 0)
        k = Region.from_box([(-1, 1)], ineqs=[g], resolution=0.1)
        assert k.sample_points.min() >= -1e-12

    def test_json_round_trip(self):
        k = Region.from_box([(-1, 2)], resolution=0.25)
        back = Region.from_json_dict(k.to_json_dict())
        assert np.array_equal(back.sample_points, k.sample_points)

    def test_samples_read_only(self):
        k = Region.from_box([(0, 1)])
        with pytest.raises(ValueError):
            k.sample_points[0] = 99.0

    @pytest.mark.parametrize("box, resolution", [
        ([(-1e308, 1e308)], 1.0), ([(0, 1e300)], 1e-10)])
    def test_overflowing_side_meets_size_cap(self, box, resolution):
        with pytest.raises(ValueError, match="exceed"):
            Region.from_box(box, resolution=resolution)

    def test_nan_side_rejected(self):
        with pytest.raises(ValueError, match="box side"):
            Region.from_box([(0.0, float("nan"))], resolution=0.1)


WEIGHTS = {"one": WeightFunction.one, "lasserre": WeightFunction.lasserre,
           "geometric": lambda n: WeightFunction.geometric([0.3, 1.7, 40.0][:n]),
           "geometric_huge": lambda n: WeightFunction.geometric([1e30] * n)}


def norm_or_error(f, phi, threshold):
    """phi_norm's bits, or its error text, with the loop threshold set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "EVAL_LOOP_TERMS", threshold)
        try:
            return struct.pack("<d", phi_norm(f, phi))
        except ValueError as exc:
            return str(exc)


def phi_polys():
    """Up to 40 terms in n = 1..3 variables, exponents up to 14, float and
    Dyadic coefficients up to 1e300 in magnitude, inf and NaN."""
    coeff = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.inf, math.nan]),
                      st.builds(Dyadic, st.integers(-1000, 1000), st.integers(0, 20)))

    def build(n):
        exps = st.tuples(*[st.integers(0, 14)] * n)
        return st.builds(Polynomial, st.just(n), st.integers(0, 40).flatmap(
            lambda k: st.dictionaries(exps, coeff, min_size=k, max_size=40)))
    return st.integers(1, 3).flatmap(build)


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@settings(max_examples=60, deadline=None)
@given(phi_polys())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_norm_both_sides_bit_identical(kind, f):
    phi = WEIGHTS[kind](f.n)
    assert norm_or_error(f, phi, 0) == norm_or_error(f, phi, math.inf)


def test_phi_norm_adds_in_term_order():
    # 1 + 1e-16 rounds back to 1 at each step of the loop; a pairwise sum does not
    f = Polynomial(1, {(k,): 1e-16 if k else 1.0 for k in range(40)})
    assert norm_or_error(f, WeightFunction.one(1), 0) == struct.pack("<d", 1.0)


@pytest.mark.parametrize("f, phi", [
    (Polynomial(1, {(k,): 1.0 for k in range(160, 200)}), WeightFunction.lasserre(1)),
    (Polynomial(2, {(k, 1): 0.5 for k in range(20)}), WeightFunction.geometric([1e30, 2.0])),
])
def test_phi_norm_overflow_error_on_both_sides(f, phi):
    loop = norm_or_error(f, phi, math.inf)
    assert "exceeds the float range" in loop
    assert norm_or_error(f, phi, 0) == loop


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_norm_weight_product_overflows_silently():
    # every r**e is finite, but 1e100**5 is not
    f = Polynomial(5, {e: 0.5 for e in itertools.product((0, 1), repeat=5)})
    phi = WeightFunction.geometric([1e100] * 5)
    assert norm_or_error(f, phi, 0) == norm_or_error(f, phi, math.inf) == \
        struct.pack("<d", math.inf)


def test_phi_norm_table_weight_stays_on_loop(monkeypatch):
    f = Polynomial(1, {(k,): 0.5 for k in range(20)})
    phi = WeightFunction(1, "table", table={(k,): 1.0 + k for k in range(20)})
    monkeypatch.setattr(norms, "EVAL_LOOP_TERMS", 0)
    assert phi_norm(f, phi) == sum(0.5 * (1.0 + k) for k in range(20))
    assert f._arrays is None


def small_polys(n):
    coeff = st.floats(-4, 4, allow_nan=False, width=32).map(float)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(exps, coeff, min_size=0, max_size=4).map(
        lambda t: Polynomial(n, t)
    )


@settings(max_examples=50, deadline=None)
@given(small_polys(1), small_polys(1))
def test_phi_norm_seminorm_axioms(p, q):
    phi = WeightFunction.lasserre(1)
    assert phi_norm(p + q, phi) <= phi_norm(p, phi) + phi_norm(q, phi) + 1e-9
    assert phi_norm(-1 * p, phi) == phi_norm(p, phi)
    assert phi_norm(Polynomial.zero(1), phi) == 0.0


@settings(max_examples=50, deadline=None)
@given(small_polys(1), small_polys(1),
       st.floats(-1.5, 1.5, allow_nan=False, width=32))
def test_rho_is_multiplicative(p, q, x):
    lhs = rho_alpha(p * q, (x,))
    rhs = rho_alpha(p, (x,)) * rho_alpha(q, (x,))
    assert abs(lhs - rhs) <= 1e-8 * (1 + rhs)


@settings(max_examples=30, deadline=None)
@given(small_polys(1), small_polys(1))
def test_geometric_phi_submultiplicative(p, q):
    phi = WeightFunction.geometric((1.5,))
    lhs = phi_norm(p * q, phi)
    rhs = phi_norm(p, phi) * phi_norm(q, phi)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12
