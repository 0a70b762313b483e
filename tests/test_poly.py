import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone2d import poly
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
        h = Dyadic(1, 1)
        # numpy scalars compare like the ints and floats they stand for
        assert h < np.int64(1) and h <= np.int64(1) and not h > np.int64(1)
        assert h >= np.float64(0.5) and h <= np.float32(0.5) and h == np.float64(0.5)
        assert h > np.float64(0.25) and not h >= 0.75 and h != np.int64(0)
        assert np.int64(1) > h and 0.25 < h
        assert sorted([Dyadic(3, 1), 1, np.float64(0.25), h]) == [0.25, h, 1, Dyadic(3, 1)]
        # non-finite floats answer as a float comparison would, even for a
        # dyadic too large for float()
        big = Dyadic(3 << 2000)
        for v in (h, -h, big, -big, Dyadic(0)):
            assert v < math.inf and v <= np.float64(math.inf) and v != math.inf
            assert v > -math.inf and v >= -math.inf and not v < -math.inf
            assert not v > math.inf and not v >= math.inf and not v == math.inf
            assert math.inf > v and -math.inf < v
            for nan in (math.nan, np.float64(math.nan)):
                assert not (v < nan or v <= nan or v > nan or v >= nan or v == nan)
                assert v != nan and not (nan < v or nan > v or nan == v)
        # other operands are not ordered against a Dyadic and never equal it
        for other in ("1", None, [1], X(1, 0)):
            assert h != other
            with pytest.raises(TypeError):
                h < other
            with pytest.raises(TypeError):
                h >= other

    def test_mix_with_float_demotes(self):
        assert isinstance(Dyadic(1, 1) + 0.1, float)

    def test_polynomial_right_operand_stays_exact(self):
        h, x, y = Dyadic(3, 2), X(2, 0), X(2, 1)
        cases = [(h * x, x * h), (h + x, x + h), (h - x, -x + h),
                 (h * (x - y), (x - y) * h), (h - (x + y) ** 2, -((x + y) ** 2) + h)]
        for got, want in cases:
            assert got == want
            assert got.is_exact and not got.demoted

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

    def test_zeros_pruned_where_they_arise(self):
        """Sums and products with a float can make a zero; none is stored."""
        p = Polynomial(2, {(1, 0): 1e-200, (0, 1): Dyadic(1, 1)})
        assert (p * 1e-200).terms == {(0, 1): 5e-201}  # 1e-400 underflows
        assert (p * Dyadic(1, 2000)).terms == {(0, 1): Dyadic(1, 2001)}  # 1e-200 * 2**-2000
        assert (p - p).terms == {} and (p + -p).terms == {}
        assert (p * p).terms == {(1, 1): 1e-200, (0, 2): Dyadic(1, 2)}  # no (2, 0)
        assert Polynomial.constant(2, 0).terms == Polynomial.constant(2, 0.0).terms == {}

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

    @pytest.mark.parametrize("c", [3, -2, 0.7, Dyadic(5, 3), np.int64(-4), np.float32(0.25),
                                   np.float64(1.5), 0, 0.0, Dyadic(0), True, False, 1e-301])
    @pytest.mark.parametrize("n", [1, 3])
    def test_constant_matches_validating_constructor(self, n, c):
        got = Polynomial.constant(n, c)
        assert_identical(got, Polynomial(n, {(0,) * n: c}))
        assert got == Polynomial(n, {(0,) * n: c}) and got.demoted is False
        assert got.dumps() == Polynomial(n, {(0,) * n: c}).dumps()

    def test_constant_rejects_bad_input(self):
        with pytest.raises(TypeError):
            Polynomial.constant(2, "1")
        with pytest.raises(ValueError, match="variable count"):
            Polynomial.constant(0, 1)


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


# Summation orders may differ by an ulp even where the terms are subnormal,
# and there no relative bound holds.
SUBNORMAL_FLOOR = 4 * np.finfo(float).smallest_subnormal


def assert_matches_pointwise(p, points, values):
    """Grid values agree with evaluate() to 1e-12 relative to the sum of
    the absolute term values, the scale of the rounding error of both,
    plus a floor of a few subnormal ulps."""
    assert len(values) == len(points)
    for x, v in zip(points, values):
        scale = sum(abs(float(c)) * math.prod(abs(xi) ** e for xi, e in zip(x, exp))
                    for exp, c in p.terms.items())
        assert abs(v - p.evaluate(x)) <= 1e-12 * scale + SUBNORMAL_FLOOR


class TestDesignMatrix:
    def test_dyadic_points_exact(self):
        pts = [(0.5, -1.5), (-2.0, 0.25), (0.0, 3.0)]
        exps = [(0, 0), (1, 0), (0, 3), (2, 5), (7, 1)]
        a = design_matrix(pts, exps)
        assert a.shape == (3, 5)
        for j, (x, y) in enumerate(pts):
            assert list(a[j]) == [x**s * y**t for s, t in exps]

    @pytest.mark.parametrize("box", [[(-1.0, 1.0)], [(0.0, 1.0), (-0.5, 1.5)],
                                     [(-2.0, 3.0), (0.0, 0.25), (1.0, 4.0)]])
    def test_chebyshev_columns_match_chebvander(self, box):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(lo, hi, 200) for lo, hi in box])
        exps = [e for e in itertools.product(range(21), repeat=len(box)) if sum(e) <= 20]
        ts = [(2 * x - lo - hi) / (hi - lo) for x, (lo, hi) in zip(pts.T, box)]
        tables = [np.polynomial.chebyshev.chebvander(t, 20) for t in ts]
        ref = np.column_stack([math.prod(v[:, e] for v, e in zip(tables, exp))
                               for exp in exps])
        np.testing.assert_allclose(design_matrix(pts, exps, box), ref, rtol=1e-13, atol=0)

    def test_flat_box_side_keeps_powers(self):
        pts = [(0.25, 0.5), (0.75, 0.5), (1.0, 0.5)]
        exps = [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3)]
        a = design_matrix(pts, exps, [(0.0, 1.0), (0.5, 0.5)])
        cheb = np.polynomial.chebyshev.chebvander(2 * np.array([0.25, 0.75, 1.0]) - 1, 2)
        for j, (_, y) in enumerate(pts):
            assert list(a[j]) == [cheb[j, s] * y**t for s, t in exps]

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
    # y**7 is subnormal: grid and pointwise sums differ by one ulp, 5e-324
    @example((Polynomial(2, {(3, 7): Dyadic(1, 2)}),
              [(1.5723145008087158, 1.401298464324817e-45)]))
    def test_evaluate_grid_across_blocks(self, case):
        p, points = case
        rows = GRID_BLOCK_ROWS + 3 * len(points) + 1
        grid = np.resize(np.array(points, dtype=float), (rows, p.n))
        vals = p.evaluate_grid(grid)
        assert_matches_pointwise(p, [tuple(x) for x in grid], vals)


def kind_mixed_polys(n=2):
    """Polynomials whose coefficients mix Dyadic, float and np.float64,
    with the input ``demoted`` flag drawn too."""
    coeff = st.one_of(
        st.integers(-8, 8).map(lambda m: Dyadic(m, 1)),
        st.floats(-4, 4, allow_nan=False, width=32).map(float),
        st.floats(-4, 4, allow_nan=False, width=32).map(np.float64),
    )
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return st.builds(Polynomial, st.just(n),
                     st.dictionaries(exps, coeff, max_size=5), st.booleans())


def reference_kinds(pairs, demoted):
    """Per-pair reference for a sum or product: ``pairs`` lists
    (exponent, a, b) for every contributing coefficient pair, b None for a
    lone summand.  A pair demotes when it mixes a Dyadic with a float, and
    so does accumulating an exact value with an inexact one.  Returns the
    demoted flag and, per exponent, whether every pair was Dyadic x Dyadic."""
    exact = {}
    for exp, a, b in pairs:
        pair_exact = isinstance(a, Dyadic) and (b is None or isinstance(b, Dyadic))
        if b is not None and isinstance(a, Dyadic) != isinstance(b, Dyadic):
            demoted = True
        if exp in exact and exact[exp] != pair_exact:
            demoted = True
        exact[exp] = exact.get(exp, True) and pair_exact
    return demoted, exact


def assert_kinds(result, reference):
    demoted, exact = reference
    assert result.demoted == demoted
    for exp, c in result.terms.items():
        assert isinstance(c, Dyadic) == exact[exp]


@settings(max_examples=150, deadline=None)
@given(kind_mixed_polys(), kind_mixed_polys())
def test_demoted_flag_and_coefficient_kind(p, q):
    products = [(tuple(a + b for a, b in zip(e1, e2)), c1, c2)
                for e1, c1 in p.terms.items() for e2, c2 in q.terms.items()]
    assert_kinds(p * q, reference_kinds(products, p.demoted or q.demoted))
    sums = [(e, c, q.terms.get(e)) for e, c in p.terms.items()]
    sums += [(e, c, None) for e, c in q.terms.items() if e not in p.terms]
    assert_kinds(p + q, reference_kinds(sums, p.demoted or q.demoted))


def reference_mul(p, q):
    """The product as a tuple-keyed double loop in (i, j) term order."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            prev = terms.get(exp)
            terms[exp] = prod if prev is None else prev + prod
    kinds = {isinstance(c, Dyadic) for c in (*p.terms.values(), *q.terms.values())}
    mixed = bool(p.terms) and bool(q.terms) and len(kinds) == 2
    return Polynomial(p.n, terms, p.demoted or q.demoted or mixed)


def reference_add(p, q):
    terms = dict(p.terms)
    for exp, c in q.terms.items():
        prev = terms.get(exp)
        terms[exp] = c if prev is None else prev + c
    mixed = any(isinstance(p.terms[e], Dyadic) != isinstance(q.terms[e], Dyadic)
                for e in p.terms.keys() & q.terms.keys())
    return Polynomial(p.n, terms, p.demoted or q.demoted or mixed)


def reference_evaluate(p, x):
    """Term by term in float, summed in term order from 0.0."""
    total = 0.0
    for exp, c in p.terms.items():
        v = float(c)
        for xi, e in zip(x, exp):
            if e:
                v *= float(xi) ** e
        total += v
    return total


def exact_form(c):
    """A coefficient's kind and exact value: Dyadic (m, k) or float bits."""
    return type(c), (c.m, c.k) if isinstance(c, Dyadic) else struct.pack("<d", c)


def assert_identical(got, want):
    assert list(got.terms) == list(want.terms)
    assert [exact_form(c) for c in got.terms.values()] == \
        [exact_form(c) for c in want.terms.values()]
    assert got.demoted == want.demoted


def assert_evaluates_like_reference(p, x):
    try:
        want = reference_evaluate(p, x)
    except OverflowError:
        with pytest.raises(OverflowError):
            p.evaluate(x)
        return
    got = p.evaluate(x)
    # NaN without its sign, for the reason nan_blind gives; every other value bit for bit
    assert math.isnan(got) and math.isnan(want) or \
        struct.pack("<d", got) == struct.pack("<d", want)


def ring_operands():
    """Two n-variable polynomials (n = 1..3, exponents up to 7) of one
    coefficient kind each -- Dyadic with k up to 64 and 220-bit
    numerators, float, np.float64 or a mix -- and two points."""
    dyadic = st.builds(Dyadic, st.integers(-(1 << 220), 1 << 220), st.integers(0, 64))
    floats = st.floats(-1e300, 1e300)
    np_floats = floats.map(np.float64)
    kinds = [dyadic, floats, np_floats, st.one_of(dyadic, floats, np_floats)]
    coord = st.one_of(st.floats(-3, 3), st.floats(-1e40, 1e40))

    def build(n):
        exps = st.tuples(*[st.integers(0, 7)] * n)
        poly = st.sampled_from(kinds).flatmap(lambda coeff: st.builds(
            Polynomial, st.just(n), st.dictionaries(exps, coeff, max_size=6), st.booleans()))
        point = st.tuples(*[coord] * n)
        return st.tuples(poly, poly, point, point)
    return st.integers(1, 3).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(ring_operands())
@example((Polynomial.zero(2), X(2, 0) * 0.5 + Dyadic(3, 70), (0.0, -0.0), (1.0, 2.0)))
@example((-X(1, 0), X(1, 0), (0.0,), (1e200,)))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ring_operations_bit_identical_to_reference(case):
    p, q, x, y = case
    with np.errstate(over="ignore", invalid="ignore"):  # np.float64 products overflow
        pairs = [(p * q, reference_mul(p, q)), (q * p, reference_mul(q, p)),
                 (p + q, reference_add(p, q)), (q + p, reference_add(q, p))]
    for got, want in pairs:
        assert_identical_but_nan_sign(got, want)
        for point in (x, y, x):
            assert_evaluates_like_reference(got, point)


def nan_blind(c):
    """exact_form with every NaN alike.  Which of two NaNs a sum keeps is not
    fixed even by the loop: CPython's float_add and its specialized float
    BINARY_OP keep different operands, so the sign of NaN + NaN changes once
    the adaptive interpreter has specialized the addition."""
    return (type(c), "nan") if isinstance(c, float) and math.isnan(c) else exact_form(c)


def assert_identical_but_nan_sign(got, want):
    assert list(got.terms) == list(want.terms) and got.demoted == want.demoted
    assert [nan_blind(c) for c in got.terms.values()] == \
        [nan_blind(c) for c in want.terms.values()]


def dense_calls(mp):
    """The results of Polynomial._dense_mul so far: None where it declined."""
    calls = []
    dense = Polynomial._dense_mul
    mp.setattr(Polynomial, "_dense_mul", lambda p, q: calls.append(dense(p, q)) or calls[-1])
    return calls


def float_operands():
    """Two all-float n-variable polynomials (n = 1..4) of up to 40 terms,
    coefficients of magnitude 1e-300 to 1e300 or inf or NaN, so products
    overflow and sums of infinities give NaN."""
    finite = st.builds(lambda s, m, e: s * m * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                       st.floats(1, 10), st.integers(-300, 299))
    coeff = st.one_of(finite, finite, finite, st.sampled_from([math.inf, -math.inf, math.nan]))

    def build(n):
        exps = st.tuples(*[st.integers(0, {1: 39, 2: 6, 3: 3, 4: 2}[n])] * n)
        poly = st.builds(Polynomial, st.just(n), st.integers(0, 40).flatmap(
            lambda k: st.dictionaries(exps, coeff, min_size=k, max_size=40)), st.booleans())
        return st.tuples(poly, poly)
    return st.integers(1, 4).flatmap(build)


@pytest.mark.parametrize("threshold", [0, math.inf])
@settings(max_examples=150, deadline=None)
@given(float_operands())
@example((X(1, 0) * 1e300 + 1e300, X(1, 0) * 1e300 - 1e300))  # inf - inf
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_product_kernels_bit_identical(threshold, case):
    p, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "MUL_ARRAY_PAIRS", threshold)
        calls = dense_calls(mp)
        got = p * q
    assert_identical_but_nan_sign(got, reference_mul(p, q))
    span = math.prod(1 + max(e[i] for e in p.terms) + max(e[i] for e in q.terms)
                     for i in range(p.n)) if p.terms and q.terms else math.inf
    dense = threshold == 0 and span <= len(p.terms) * len(q.terms)
    assert [c is not None for c in calls] == ([True] if dense else [False] * bool(calls))
    if dense:  # the arrays stored with the product are the ones evaluate builds
        exps, coeffs, tops = got._arrays
        got._arrays = None
        want = got._eval_arrays()
        assert exps.tolist() == want[0].tolist() and tops == want[2]
        assert coeffs.tobytes() == want[1].tobytes()


def test_product_past_one_block_bit_identical():
    # 1-D, 601 x 501 terms: 301101 pairs, more than one row block
    p = Polynomial(1, {(i,): math.sin(i) * 1e150 for i in range(601)})
    q = Polynomial(1, {(i,): math.cos(i) * 1e-160 for i in range(501)})
    assert_identical(p * q, reference_mul(p, q))


@pytest.mark.parametrize("threshold", [0, math.inf])
def test_sparse_wide_span_stays_on_loop(monkeypatch, threshold):
    # 3 variables, exponents up to 30: the box has 61**3 cells for 4 x 3 pairs
    p = Polynomial(3, {(30, 0, 0): 0.5, (0, 30, 0): -1.5, (0, 0, 30): 2.25, (1, 2, 3): 3.0})
    q = Polynomial(3, {(0, 0, 0): 1.1, (30, 30, 30): -0.3, (7, 0, 1): 1e-7})
    monkeypatch.setattr(poly, "MUL_ARRAY_PAIRS", threshold)
    calls = dense_calls(monkeypatch)
    assert_identical(p * q, reference_mul(p, q))
    assert calls == ([None] if threshold == 0 else [])


def test_dense_products_over_threshold_by_default(monkeypatch):
    x, y = X(2, 0), X(2, 1)
    small, big = 0.5 * x + 0.25 * y + 0.125, (0.3 * x - 0.7 * y + 0.1) ** 2
    square = big * big
    ones = Polynomial(2, {e: Dyadic(1) for e in square.terms})
    assert len(big.terms) ** 2 < poly.MUL_ARRAY_PAIRS <= len(square.terms) ** 2
    calls = dense_calls(monkeypatch)
    small * big, big * big, square * ones  # small, small, mixed
    assert calls == []
    square * square
    assert len(calls) == 1 and calls[0] is not None


SCALARS = [-0.0, 0.0, 1e-310, math.nan, math.inf, -math.inf, Dyadic(0), Dyadic(3, 2),
           np.int64(-4), np.float64(2.0), np.float32(0.5), 0, 5, True, 0.7, 1e300]


@pytest.mark.parametrize("s", SCALARS, ids=repr)
@pytest.mark.parametrize("p", [
    Polynomial(2, {(0, 0): 1.5, (1, 0): -1e300, (0, 2): math.inf}),
    Polynomial(2, {(0, 0): Dyadic(3), (2, 1): Dyadic(-5, 7)}),
    Polynomial(2, {(0, 0): Dyadic(3), (1, 1): 0.25}, demoted=True),
    Polynomial(2, {(1, 0): 0.5}, demoted=True),
    Polynomial.zero(2),
], ids=["float", "dyadic", "mixed", "demoted", "zero"])
def test_scalar_product_matches_constant_product(p, s):
    want = reference_mul(p, Polynomial(2, {(0, 0): s}))
    for got in (p * s, s * p):
        assert_identical(got, want)
    assert_identical(p - s, reference_add(p, Polynomial(2, {(0, 0): -s})))


def test_zero_scalar_keeps_demoted_flag():
    p = Polynomial(1, {(1,): Dyadic(1), (0,): 0.5}, demoted=True)
    for s in (0, -0.0, 1e-310, Dyadic(0)):
        assert (p * s).terms == {} and (p * s).demoted is True
        assert (X(1, 0) * s).demoted is False


def test_numpy_float_coefficients_stored_as_floats():
    p = Polynomial(1, {(0,): np.float64(2.5), (1,): 1.5})
    assert type(p.terms[(0,)]) is float
    for q in (p * np.float64(2.0), np.float64(2.0) * p, p + np.float64(1.0),
              Polynomial.constant(1, np.float64(3.0)), Polynomial(1, {(2,): np.float32(0.5)})):
        assert all(type(c) is float for c in q.terms.values())


def eval_cases():
    """A polynomial of up to 40 terms (n = 1..3) and a point whose powers may
    overflow."""
    def build(n):
        exps = st.tuples(*[st.integers(0, 9)] * n)
        coeff = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.nan, math.inf]))
        coord = st.one_of(st.floats(-3, 3), st.floats(-1e40, 1e40), st.just(-0.0))
        return st.tuples(st.builds(Polynomial, st.just(n),
                                   st.dictionaries(exps, coeff, max_size=40)),
                         st.tuples(*[coord] * n))
    return st.integers(1, 3).flatmap(build)


@pytest.mark.parametrize("companion", [0, math.inf])
@settings(max_examples=150, deadline=None)
@given(eval_cases())
@example((Polynomial(1, {(1,): 1.0, (3,): 2.0}), (-0.0,)))  # a sum of -0.0s is 0.0
@example((Polynomial.zero(2), (1.0, 2.0)))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_both_sides_bit_identical(companion, case):
    """p.evaluate(x) is the term loop's value, and so are both rows of a batch that
    evaluates x beside a point whose coordinates are all 0 or all inf."""
    p, x = case
    other = (float(companion),) * p.n
    try:
        want = nan_blind(reference_evaluate(p, x))
    except OverflowError:
        with pytest.raises(OverflowError):
            p.evaluate(x)
        with pytest.raises(OverflowError):
            p._evaluate_at([x, other])
        return
    assert nan_blind(p.evaluate(x)) == want
    assert [nan_blind(v) for v in p._evaluate_at([x, other])] == \
        [want, nan_blind(reference_evaluate(p, other))]


def assert_batch_evaluates_like_evaluate(p, points):
    """p._evaluate_at(points) is [p.evaluate(x) for x in points] and the term
    loop's values, NaN without its sign (see nan_blind), or all raise OverflowError."""
    try:
        want = [nan_blind(reference_evaluate(p, x)) for x in points]
    except OverflowError:
        with pytest.raises(OverflowError):
            p._evaluate_at(points)
        with pytest.raises(OverflowError):
            [p.evaluate(x) for x in points]
        return
    assert [nan_blind(v) for v in p._evaluate_at(points)] == want
    assert [nan_blind(p.evaluate(x)) for x in points] == want


@pytest.mark.parametrize("extra", [0, 16])
@settings(max_examples=150, deadline=None)
@given(eval_cases())
@example((Polynomial(1, {(1,): 1.0, (3,): 2.0}), (-0.0,)))  # a sum of -0.0s is 0.0
@example((Polynomial(1, {(e,): 1.0 for e in range(1, 40, 2)}), (-0.0,)))  # 20 terms
@example((Polynomial(1, {(e,): 1.0 for e in range(1, 40, 2)}), (1e40,)))  # overflows
@example((Polynomial.zero(2), (1.0, 2.0)))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_evaluation_bit_identical(extra, case):
    """A row's value does not depend on how many rows share its power tables."""
    p, x = case
    assert_batch_evaluates_like_evaluate(p, [x, x[::-1], (-0.0,) * p.n, x] +
                                         [(k / 4,) * p.n for k in range(extra)])


@settings(max_examples=100, deadline=None)
@given(ring_operands())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_evaluation_of_ring_operands(case):
    p, q, x, y = case
    for r in (p, q):
        assert_batch_evaluates_like_evaluate(r, [x, y, x])
    assert p._evaluate_at([]) == []
    with pytest.raises(ValueError, match=f"point has dimension {p.n + 1}"):
        p._evaluate_at([x, (*x, 0.0)])


def reference_pow(p, k):
    """p**k by squaring with reference_mul, from constant(1)."""
    result, base = Polynomial(p.n, {(0,) * p.n: Dyadic(1)}), p
    while k:
        if k & 1:
            result = reference_mul(result, base)
        k >>= 1
        if k:
            base = reference_mul(base, base)
    return result


@settings(max_examples=100, deadline=None)
@given(ring_operands())
@example((Polynomial(1, {(1,): 0.5}), X(1, 0), (0.0,), (1.0,)))  # not demoted, float
@example((Polynomial(1, {(1,): 1e-200}), X(1, 0), (0.0,), (1.0,)))  # squares to zero
@example((Polynomial(1, {}), Polynomial(1, {  # a float meets a Dyadic past the float range
    (0,): 2.7679435913186496e+16,
    (1,): Dyadic(33925879369380798005369157999047918249120368602409731377203408),
    (3,): Dyadic(33925879384346574771637603881453650936135106723686480617277646)}),
    (0.0,), (0.0,)))
def test_powers_bit_identical_to_reference(case):
    """p ** k is the reference's, or both raise OverflowError."""
    p, q, _, _ = case
    for k in range(6):
        for r in (p, q):
            try:
                want = reference_pow(r, k)
            except OverflowError:
                with pytest.raises(OverflowError):
                    r ** k
                continue
            assert_identical_but_nan_sign(r ** k, want)


@settings(max_examples=150, deadline=None)
@given(ring_operands())
def test_sums_in_grlex_order(case):
    p, q, _, _ = case
    # q's terms all after p's last, then in whatever order the strategy drew
    after = q * Polynomial(p.n, {(p.degree() + 1,) + (0,) * (p.n - 1): Dyadic(1)})
    for left, right in ((p, after), (p, q), (q, p), (after, p), (p, p + after)):
        got = left + right
        assert list(got.terms) == sorted(got.terms, key=poly.grlex_key)
        assert_identical_but_nan_sign(got, reference_add(left, right))


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
