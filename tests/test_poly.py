import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone2d.poly import (GRID_BLOCK_ROWS, Dyadic, Polynomial, design_matrix,
                         dyadic_round, evaluate, nearest_dyadic)


def X(n, i):
    return Polynomial.variable(n, i)


class TestDyadic:
    def test_lowest_terms(self):
        d = Dyadic(4, 3)
        assert (d.m, d.k) == (1, 1)
        assert (Dyadic(0, 5).m, Dyadic(0, 5).k) == (0, 0)

    def test_from_float_is_exact(self):
        for x in (0.3, -1.75, 1 / 3, 2.0**-40):
            assert float(Dyadic.from_float(x)) == x

    def test_arithmetic_exact(self):
        a, b = Dyadic(3, 2), Dyadic(1, 3)  # 3/4, 1/8
        assert float(a + b) == 0.875
        assert float(a * b) == 3 / 32
        assert float(a - b) == 5 / 8
        assert (a**3) == Dyadic(27, 6)

    def test_comparisons(self):
        assert Dyadic(1, 1) < Dyadic(3, 2)
        assert Dyadic(3, 2) == 0.75
        assert Dyadic(-1, 0) < 0

    def test_mix_with_float_demotes(self):
        assert isinstance(Dyadic(1, 1) + 0.1, float)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_str(self):
        assert str(Dyadic(5, 4)) == "5/16"
        assert str(Dyadic(3)) == "3"


class TestEval:
    def test_basic(self):
        p = X(2, 0) + X(2, 1) ** 2
        assert evaluate(p, (1, 2)) == 5.0

    def test_constant_is_unital(self):
        one = Polynomial.constant(3, 1)
        assert evaluate(one, (7.0, -2.0, 0.5)) == 1.0

    def test_root(self):
        p = (X(1, 0) - 3) * (X(1, 0) + 3)
        assert evaluate(p, (3,)) == 0.0

    def test_dimension_mismatch_names_lengths(self):
        with pytest.raises(ValueError, match="2.*1|1.*2"):
            evaluate(X(2, 0), (1,))


class TestRingOps:
    def test_square_binomial(self):
        x = X(1, 0)
        p = (x + 1) ** 2
        assert p == x**2 + 2 * x + 1

    def test_multiply_by_zero(self):
        p = X(2, 0) * Polynomial.zero(2)
        assert p.terms == {}

    def test_difference_of_squares(self):
        x, y = X(2, 0), X(2, 1)
        assert (x + y) * (x - y) == x**2 - y**2

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X(1, 0) ** -1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            X(1, 0) + X(2, 0)

    def test_mixing_demotes(self):
        p = Polynomial(1, {(1,): Dyadic(1)})
        q = Polynomial(1, {(1,): 0.5})
        assert not (p + q).is_exact
        assert (p + q).demoted
        assert not p.demoted


class TestDyadicRound:
    def test_nearest_at_k4(self):
        p = Polynomial(1, {(0,): 0.3})
        r = dyadic_round(p, 2.0**-4)
        assert r.terms[(0,)] == Dyadic(5, 4)
        assert abs(0.3 - float(r.terms[(0,)])) <= 2.0**-4

    def test_exact_dyadic_unchanged(self):
        p = Polynomial(1, {(0,): Dyadic(3, 2)})
        for delta in (1.0, 0.1, 1e-8):
            assert dyadic_round(p, delta).terms[(0,)] == Dyadic(3, 2)

    def test_one_third(self):
        # Oracle: m = round(2**10 / 3) = 341.
        p = Polynomial(1, {(0,): 1 / 3})
        r = dyadic_round(p, 2.0**-10)
        assert r.terms[(0,)] == Dyadic(341, 10)
        assert abs(1 / 3 - 341 / 1024) == pytest.approx(1 / 3072)

    def test_idempotent(self):
        p = Polynomial(2, {(1, 0): 0.123456, (0, 3): -2.71828})
        once = dyadic_round(p, 1e-6)
        assert dyadic_round(once, 1e-6) == once

    def test_distance_bound(self):
        p = Polynomial(1, {(k,): math.sin(k + 1) for k in range(5)})
        delta = 1e-4
        r = dyadic_round(p, delta)
        for exp, c in p.terms.items():
            assert abs(float(c) - float(r.terms[exp])) <= delta

    def test_nonpositive_delta(self):
        with pytest.raises(ValueError):
            dyadic_round(X(1, 0), 0.0)


def small_polys(n, max_exp=3):
    coeff = st.one_of(
        st.integers(-8, 8).map(lambda m: Dyadic(m, 2)),
        st.floats(-4, 4, allow_nan=False, width=32).map(float),
    )
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(exps, coeff, min_size=0, max_size=5).map(
        lambda t: Polynomial(n, t)
    )


@settings(max_examples=60, deadline=None)
@given(small_polys(2), small_polys(2),
       st.tuples(st.floats(-2, 2, width=32), st.floats(-2, 2, width=32)))
def test_eval_is_ring_homomorphism(p, q, x):
    prod = evaluate(p, x) * evaluate(q, x)
    assert abs(evaluate(p * q, x) - prod) <= 1e-9 * (1 + abs(prod))
    total = evaluate(p, x) + evaluate(q, x)
    assert abs(evaluate(p + q, x) - total) <= 1e-9 * (1 + abs(total))


def polys_and_points(min_points=0):
    """An n-variable polynomial (n = 1..3) and points in [-2, 2]**n."""
    def build(n):
        coords = st.tuples(*[st.floats(-2, 2, width=32)] * n)
        return st.tuples(small_polys(n, max_exp=7),
                         st.lists(coords, min_size=min_points, max_size=12))
    return st.integers(1, 3).flatmap(build)


def assert_matches_pointwise(p, points, values):
    """Grid values agree with evaluate() to 1e-12 relative to the sum of
    the absolute term values, the scale of the rounding error of both."""
    assert len(values) == len(points)
    for x, v in zip(points, values):
        scale = sum(abs(float(c)) * math.prod(abs(xi) ** e for xi, e in zip(x, exp))
                    for exp, c in p.terms.items())
        assert abs(v - p.evaluate(x)) <= 1e-12 * scale


class TestDesignMatrix:
    def test_dyadic_points_exact(self):
        pts = [(0.5, -1.5), (-2.0, 0.25), (0.0, 3.0)]
        exps = [(0, 0), (1, 0), (0, 3), (2, 5), (7, 1)]
        a = design_matrix(pts, exps)
        assert a.shape == (3, 5)
        for j, (x, y) in enumerate(pts):
            assert list(a[j]) == [x**s * y**t for s, t in exps]

    @settings(max_examples=60, deadline=None)
    @given(polys_and_points())
    @example((Polynomial.zero(2), [(1.0, -2.0)]))
    @example((X(3, 0) * X(3, 2) ** 4 - 1, []))
    def test_evaluate_grid_matches_pointwise(self, case):
        p, points = case
        vals = p.evaluate_grid(np.array(points, dtype=float).reshape(-1, p.n))
        assert_matches_pointwise(p, points, vals)

    @settings(max_examples=15, deadline=None)
    @given(polys_and_points(min_points=1))
    def test_evaluate_grid_across_blocks(self, case):
        p, points = case
        rows = GRID_BLOCK_ROWS + 3 * len(points) + 1
        grid = np.resize(np.array(points, dtype=float), (rows, p.n))
        vals = p.evaluate_grid(grid)
        assert_matches_pointwise(p, [tuple(x) for x in grid], vals)


@settings(max_examples=40, deadline=None)
@given(small_polys(2), small_polys(2))
def test_dyadic_addition_exact(p, q):
    p, q = p.to_exact(), q.to_exact()
    x = (Dyadic(1, 1), Dyadic(-3, 2))
    lhs = (p + q).evaluate_exact(x)
    rhs = p.evaluate_exact(x) + q.evaluate_exact(x)
    assert lhs == rhs


class TestSerialization:
    def test_round_trip_mixed(self):
        p = Polynomial(2, {(1, 0): Dyadic(5, 4), (0, 2): 2.5})
        assert Polynomial.loads(p.dumps()) == p

    def test_format_shape(self):
        p = Polynomial(2, {(1, 0): Dyadic(5, 4)})
        data = json.loads(p.dumps())
        assert data == {"n": 2, "terms": [{"coeff": "5/16", "exp": [1, 0]}]}

    def test_duplicate_exponents_rejected(self):
        raw = {"n": 1, "terms": [{"coeff": 1.0, "exp": [1]},
                                 {"coeff": 2.0, "exp": [1]}]}
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial.from_json_dict(raw)

    def test_bad_denominator_rejected(self):
        raw = {"n": 1, "terms": [{"coeff": "1/3", "exp": [0]}]}
        with pytest.raises(ValueError, match="power of two"):
            Polynomial.from_json_dict(raw)

    @settings(max_examples=40, deadline=None)
    @given(small_polys(2))
    def test_round_trip_property(self, p):
        assert Polynomial.loads(p.dumps()) == p


def test_grlex_iteration_order():
    p = Polynomial(2, {(0, 2): 1.0, (1, 0): 1.0, (0, 0): 1.0, (2, 0): 1.0})
    degs = [sum(e) for e in p.terms]
    assert degs == sorted(degs)


def test_nearest_dyadic_tie_handling():
    assert float(nearest_dyadic(0.3125, 4)) == 0.3125
