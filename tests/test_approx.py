import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone2d import approx, norms
from cone2d.approx import (PsdViolationError, module_interpolate,
                           psd_on_fattening, series_root, strictness_witness,
                           sup_approximate, tk_approximate)
from cone2d.norms import Region, WeightFunction, fatten, phi_norm, sup_norm
from cone2d.poly import Dyadic, Polynomial, design_matrix
from cone2d.spectrum import monomials_upto
from test_norms import lattice_bound


def X(n, i):
    return Polynomial.variable(n, i)


class TestTkApproximate:
    def test_perfect_power_constant(self):
        f = Polynomial.constant(1, 4)
        cert = tk_approximate(f, [(0.0,)], d=1, eps=0.1)
        assert cert.success
        assert cert.decomposition["m"] == 1
        assert cert.residuals["per_point"] == [0.0]
        val = cert.element().evaluate((0.0,))
        assert 3.9 < val < 4.1

    def test_square_at_two_points(self):
        cert = tk_approximate(X(1, 0) ** 2, [(1,), (2,)], d=1, eps=1e-3)
        assert cert.success
        assert max(cert.residuals["per_point"]) < 1e-3
        assert cert.decomposition["c"].is_exact

    def test_negative_point_rejected(self):
        f = Polynomial.constant(1, -1)
        cert = tk_approximate(f, [(0.5,)], d=1, eps=0.1)
        assert not cert.success
        assert cert.residuals["witness_point"] == (0.5,)
        assert "not Psd" in cert.message

    def test_zero_value_gets_shifted(self):
        cert = tk_approximate(X(1, 0) ** 2, [(0,), (1,)], d=1, eps=0.05)
        assert cert.success
        assert cert.decomposition["shift_k"] is not None

    def test_higher_d(self):
        cert = tk_approximate(X(1, 0) ** 2 + 1, [(0,), (1,), (2,)], d=3,
                              eps=1e-3)
        assert cert.success
        assert max(cert.residuals["per_point"]) < 1e-3

    def test_failure_certificate_verifies(self):
        f = -(X(1, 0) ** 2) - 1
        cert = tk_approximate(f, [(0.5,), (1.0,)], d=1, eps=0.1)
        assert not cert.success
        assert cert.verify()
        cert.residuals["witness_value"] += 1e-6
        assert not cert.verify()

    def test_certificate_verifies_and_serializes(self):
        cert = tk_approximate(X(1, 0) ** 2 + 2, [(0.5,), (1.5,)], d=2, eps=1e-4)
        assert cert.verify()
        json.dumps(cert.to_json_dict())

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            tk_approximate(X(1, 0) ** 2 + 1, [], d=1, eps=0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            tk_approximate(X(1, 0) ** 2 + 1, [(0.5,)], d=1, eps=eps)

    def test_c_is_the_horner_expansion(self):
        f = (X(2, 0) ** 2 + X(2, 1) ** 2 + 1) * 0.25
        pts = [(i / 4, (i * i % 7) / 8) for i in range(9)]
        cert = tk_approximate(f, pts, d=2, eps=1e-3)
        dec = cert.decomposition
        b = f.to_exact() * Dyadic(1, 4 * dec["m"])
        assert dec["shift_k"] is None
        assert dec["c"].dumps() == _reference_horner(dec["coeffs"], b).dumps()


def _reference_horner(lams, b):
    """sum_i lams[i] * b**i by Horner over Polynomial arithmetic."""
    c = Polynomial.zero(b.n)
    for lt in reversed(lams):
        c = c * b + lt
    return c


def assert_horner_matches_reference(lams, b):
    want = _reference_horner(lams, b)
    for got in (approx._horner_packed(lams, b), approx._horner_exact(lams, b)):
        assert got == want
        assert got.dumps() == want.dumps()
        assert got.is_exact and got.demoted is False


def _random_dyadic_poly(rng, n, degree, size):
    terms = {}
    for _ in range(size):
        exp = [0] * n
        for i in rng.integers(0, n, size=int(rng.integers(0, degree + 1))):
            exp[i] += 1
        bits = int(rng.integers(0, 40))
        terms[tuple(exp)] = Dyadic(int(rng.integers(-(1 << bits), 1 << bits)),
                                   int(rng.integers(0, 60)))
    return Polynomial(n, terms)


def _dyadics(rng, k):
    return [Dyadic(int(rng.integers(-(1 << 30), 1 << 30)), int(rng.integers(0, 50)))
            for _ in range(k)]


class TestHornerExact:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seeded_matches_reference(self, n, seed):
        rng = np.random.default_rng([n, seed])
        b = _random_dyadic_poly(rng, n, 3 if n < 3 else 2, int(rng.integers(1, 7)))
        assert_horner_matches_reference(_dyadics(rng, int(rng.integers(1, 9 - n))), b)

    @pytest.mark.parametrize("b", [Polynomial.constant(2, Dyadic(-5, 3)),
                                   Polynomial.constant(3, 255),
                                   Polynomial.zero(2),
                                   Polynomial(1, {(3,): Dyadic(-7, 2)}),
                                   Polynomial(2, {(0, 2): Dyadic(255, 1)})])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_degenerate_b(self, b, k):
        rng = np.random.default_rng(k)
        assert_horner_matches_reference(_dyadics(rng, k), b)
        # positive data: the coefficient bound is reached, or nearly
        assert_horner_matches_reference([Dyadic((1 << 30) - 1 - i) for i in range(k)], b)

    def test_integer_coefficients(self):
        b = Polynomial(2, {(1, 0): Dyadic(3), (0, 1): Dyadic(-2), (0, 0): Dyadic(1)})
        assert_horner_matches_reference([Dyadic(v) for v in (7, -1, 0, 4)], b)

    def test_cancellation_gives_zero(self):
        b = Polynomial.constant(2, Dyadic(3, 1))
        assert approx._horner_packed([Dyadic(-3, 1), Dyadic(1)], b).terms == {}
        assert_horner_matches_reference([Dyadic(-3, 1), Dyadic(1)], b)
        x = X(1, 0)
        assert_horner_matches_reference([Dyadic(0)] * 3, x + Dyadic(1, 3))

    @pytest.mark.parametrize("n, k, packed", [(1, 30, True), (2, 30, True),
                                              (3, 1, True), (3, 2, False),
                                              (4, 2, False), (8, 2, False)])
    def test_packs_at_most_twice_the_digits_read(self, monkeypatch, n, k, packed):
        b = sum((X(n, i) ** 2 for i in range(n)), Polynomial.constant(n, Dyadic(1, 3)))
        lams = [Dyadic(2 * j + 1, j) for j in range(k)]
        calls = []
        monkeypatch.setattr(approx, "_horner_packed",
                            lambda *a: calls.append(a) or _reference_horner(*a))
        assert approx._horner_exact(lams, b).dumps() == _reference_horner(lams, b).dumps()
        assert bool(calls) is packed

    def test_tk_in_eight_variables(self):
        # Packed, c would span 15**8 digits of 7 bytes (18 GB) to read the
        # 319770 of degree <= 14; c itself has 6435 terms.
        n = 8
        f = sum((X(n, i) ** 2 for i in range(n)), Polynomial.constant(n, 1)) * 0.125
        pts = [tuple((j + 1) / 8 * (i % 2) for i in range(n)) for j in range(8)]
        cert = tk_approximate(f, pts, d=1, eps=1e-3)
        dec = cert.decomposition
        b = f.to_exact() * Dyadic(1, 2 * dec["m"])
        assert cert.success and len(dec["coeffs"]) == 8 and len(dec["c"].terms) == 6435
        assert dec["c"].dumps() == _reference_horner(dec["coeffs"], b).dumps()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 3 if n < 3 else 2)] * n),
                        st.tuples(st.integers(-2**70, 2**70), st.integers(0, 80)),
                        max_size=5),
        st.lists(st.tuples(st.integers(-2**60, 2**60), st.integers(0, 60)),
                 min_size=1, max_size=7 - n),
        st.just(n))))
    def test_matches_reference(self, case):
        terms, lams, n = case
        b = Polynomial(n, {e: Dyadic(m, k) for e, (m, k) in terms.items()})
        assert_horner_matches_reference([Dyadic(m, k) for m, k in lams], b)


class TestSupApproximate:
    def setup_method(self):
        self.k01 = Region.from_box([(0, 1)], resolution=1e-3)
        self.k11 = Region.from_box([(-1, 1)], resolution=1e-3)

    def test_exact_square_shift_dominated(self):
        f = (X(1, 0) - 0.5) ** 2
        cert = sup_approximate(f, self.k01, d=1, eps=0.1, max_fit_degree=20)
        assert cert.success
        assert cert.residuals["sup"] <= 0.06

    def test_nonneg_with_boundary_zeros(self):
        f = 1 - X(1, 0) ** 2
        cert = sup_approximate(f, self.k11, d=1, eps=0.1, max_fit_degree=20)
        assert cert.success
        assert cert.residuals["sup"] < 0.1

    def test_sign_changing_rejected(self):
        cert = sup_approximate(X(1, 0), self.k11, d=1, eps=0.1,
                               max_fit_degree=20)
        assert not cert.success
        assert cert.residuals["witness_value"] < 0
        assert cert.residuals["witness_point"][0] == -1.0

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            sup_approximate(X(1, 0) ** 2, self.k11, d=1, eps=eps, max_fit_degree=4)

    def test_failure_certificate_verifies(self):
        cert = sup_approximate(X(1, 0) - 0.5, self.k11, d=1, eps=0.1,
                               max_fit_degree=8)
        assert not cert.success
        assert cert.verify()
        cert.residuals["witness_value"] += 1e-6
        assert not cert.verify()

    def test_verify(self):
        f = (X(1, 0) - 0.5) ** 2
        cert = sup_approximate(f, self.k01, d=1, eps=0.1, max_fit_degree=8)
        assert cert.verify()

    def test_f_evaluated_once_on_samples(self, monkeypatch):
        """Once, by evaluate_grid in 1-D and by the lattice kernel in 2-D."""
        grid, values = Polynomial.evaluate_grid, approx._sample_values
        grid_calls, calls = [], []
        monkeypatch.setattr(Polynomial, "evaluate_grid",
                            lambda p, pts: grid_calls.append(p is f) or grid(p, pts))
        monkeypatch.setattr(approx, "_sample_values",
                            lambda p, k: calls.append(p is f) or values(p, k))
        for n, region in ((1, self.k01), (2, Region.from_box([(0, 1)] * 2, resolution=0.05))):
            f = (X(n, 0) - 0.5) ** 2 + X(n, n - 1) ** 2
            sup_approximate(f, region, d=1, eps=0.1, max_fit_degree=8)
            assert calls.count(True) == 1 and grid_calls.count(True) == (n == 1)
            grid_calls.clear()
            calls.clear()


class TestSeriesRoot:
    def test_binomial_coefficients_order_two(self):
        t = X(1, 0)
        cert = series_root(1.0, t, d=1, n_terms=2, phi=WeightFunction.one(1))
        q = cert.decomposition["q"]
        want = {(0,): 1.0, (1,): 0.5, (2,): -0.125}
        assert {e: float(c) for e, c in q.terms.items()} == want

    def test_zero_argument_is_exact(self):
        cert = series_root(16.0, Polynomial.zero(1), d=2, n_terms=5,
                           phi=WeightFunction.one(1))
        q = cert.decomposition["q"]
        assert float(q.terms[(0,)]) == 16.0 ** (1 / 4)
        assert cert.residuals["series_tail"] == 0.0

    def test_residual_decreases(self):
        t = X(1, 0)
        phi = WeightFunction.one(1)
        errs = [series_root(2.0, t, 1, n, phi).residuals["phi_norm_error"]
                for n in (5, 10, 20, 30)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.01

    def test_tail_bound_dominates_measured(self):
        t = X(1, 0)
        phi = WeightFunction.one(1)
        for n in (3, 8, 15):
            c = series_root(2.0, t, 1, n, phi)
            assert c.residuals["tail_bound"] >= c.residuals["phi_norm_error"]

    def test_minus_sign(self):
        t = X(1, 0)
        cert = series_root(2.0, t, d=1, n_terms=20,
                           phi=WeightFunction.one(1), sign=-1)
        q = cert.decomposition["q"]
        target = Polynomial.constant(1, 2.0) - t
        assert phi_norm(q**2 - target, WeightFunction.one(1)) < 0.01

    def test_blocked_products_bound_memory(self):
        # q**4 at N = 20 multiplies 3321 x 3321 terms: 11M pairs in 43 row blocks
        x, y = X(2, 0), X(2, 1)
        a = 0.05 * x * x + 0.04 * x * y + 0.03 * y * y + 0.02 * x + 0.01 * y + 0.015
        tracemalloc.start()
        try:
            cert = series_root(1.0, a, d=2, n_terms=20, phi=WeightFunction.one(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.success and cert.residuals["phi_norm_error"] < 1e-6
        assert peak <= 64 << 20

    def test_divergent_argument_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            series_root(1.0, 2 * X(1, 0), d=1, n_terms=3,
                        phi=WeightFunction.one(1))

    @pytest.mark.parametrize("r, a", [(math.nan, 0.5), (math.inf, 0.5), (0.0, 0.0),
                                      (-1.0, 0.0)])
    def test_r_must_be_positive_and_finite(self, r, a):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            series_root(r, a * X(1, 0), d=1, n_terms=3, phi=WeightFunction.one(1))

    def test_boundary_norm_gives_infinite_tail(self):
        cert = series_root(1.0, X(1, 0), d=1, n_terms=2,
                           phi=WeightFunction.one(1))
        assert math.isinf(cert.residuals["tail_bound"])

    def test_boundary_certificate_is_strict_json(self):
        cert = series_root(1.0, X(1, 0), d=1, n_terms=2,
                           phi=WeightFunction.one(1))
        assert cert.verify()
        residuals = json.loads(json.dumps(cert.to_json_dict(),
                                          allow_nan=False))["residuals"]
        assert residuals["tail_bound"] == residuals["series_tail"] == "inf"
        assert math.isfinite(residuals["phi_norm_error"])


class TestModuleInterpolate:
    def test_single_nonnegative_point(self):
        a = Polynomial.constant(1, 4)
        cert = module_interpolate(a, [], [(0.0,)], d=1)
        assert cert.success
        comp, = cert.decomposition["components"]
        assert comp["lam"] == 1 and comp["t_scalar"] == 4.0
        assert cert.element().evaluate((0.0,)) == pytest.approx(4.0)

    def test_linear_through_three_points(self):
        a = X(1, 0)
        for d in (1, 2):
            cert = module_interpolate(a, [X(1, 0)], [(-1,), (1,), (2,)], d=d)
            assert cert.success
            p = cert.element()
            for alpha in (-1.0, 1.0, 2.0):
                assert abs(p.evaluate((alpha,)) - alpha) < 1e-9

    def test_scalars_are_nonnegative(self):
        cert = module_interpolate(X(1, 0), [X(1, 0)], [(-2,), (3,)], d=1)
        for comp in cert.decomposition["components"]:
            assert comp["t_scalar"] >= 0

    def test_contradiction_branch(self):
        a = X(1, 0)
        with pytest.raises(PsdViolationError, match="-1"):
            module_interpolate(a, [], [(-1.0,)], d=1)

    def test_verify(self):
        cert = module_interpolate(X(1, 0) ** 2 - 1, [X(1, 0) ** 2 - 1],
                                  [(-3,), (0,), (2,)], d=1)
        assert cert.verify()

    @staticmethod
    def _spread_job(k, seed):
        """k jittered points on [-1, 1] and a = (x - mid)(1 + w(x - mid)),
        negative exactly on the left half of the points."""
        rng = np.random.default_rng(seed)
        pts = [(-1.0 + (i + 0.5 + rng.uniform(-0.3, 0.3)) * 2.0 / k,) for i in range(k)]
        mid = 0.5 * (pts[(k - 1) // 2][0] + pts[k // 2][0])
        x = X(1, 0)
        return (x - mid) * (1 + float(rng.uniform(-0.2, 0.2)) * (x - mid)), pts

    @pytest.mark.parametrize("k, d", [(6, 1), (7, 1), (8, 1), (6, 2)])
    def test_spread_points_with_generator_certify(self, k, d):
        for seed in range(3):
            a, pts = self._spread_job(k, seed)
            cert = module_interpolate(a, [X(1, 0) - 2], pts, d=d)
            assert cert.success and cert.verify()
            assert max(cert.residuals["per_point"]) < 1e-9
            assert all(c["p"].degree() <= k - 1
                       for c in cert.decomposition["components"])

    @pytest.mark.parametrize("pts", [
        [(0.75, 0.0), (0.0, -1.0), (0.5, 0.5), (-1.0, 0.25)],
        [(0.25, 0.0), (0.0, 0.25), (0.75, 0.0), (0.0, -1.0), (-0.375, 0.125),
         (-0.5, -0.75)],
    ], ids=["4pts", "6pts"])
    def test_two_dimensional_disk(self, pts):
        x, y = X(2, 0), X(2, 1)
        a = x ** 2 + y ** 2 - 0.25
        cert = module_interpolate(a, [x ** 2 + y ** 2 - 0.5], pts, d=1)
        assert cert.success and cert.verify()
        assert max(cert.residuals["per_point"]) < 1e-9
        assert all(c["p"].degree() <= len(pts) - 1
                   for c in cert.decomposition["components"])

    def test_duplicated_point(self):
        pts = [(-1.0,), (0.5,), (-1.0,)]
        cert = module_interpolate(X(1, 0) ** 2 + 1, [], pts, d=1)
        assert cert.success
        comps = cert.decomposition["components"]
        assert [c["lam"] for c in comps] == [2, 1, 2]
        assert all(c["p"].degree() <= 1 for c in comps)

    @pytest.mark.parametrize("case, digest", [
        ("1-D", "8a1fedbb7d269c46771d13bee8f1011d64da07f6388530fbdb7f127b0bf826e1"),
        ("2-D", "14832be0834bde45b805397dfa463e4f5c8189eda267e235cd15b2940ee17be2"),
    ])
    def test_repeated_and_signed_zero_nodes_keep_their_bytes(self, case, digest):
        # Pinned: the report, verify(), the element's and each p's demoted flag,
        # as built with one ell - v_j per node pair and t_scalar as a constant.
        if case == "1-D":
            x = X(1, 0)  # a = x (1 + x/4) is 0.0 at 0.0 and -0.0; generator x - 2
            cert = module_interpolate(x * (1 + 0.25 * x), [x - 2], [
                (-0.5,), (0.0,), (0.5,), (-0.0,), (0.5,), (-0.5,), (0.75,)], d=2)
        else:
            x, y = X(2, 0), X(2, 1)
            cert = module_interpolate(x * x + y * y - 0.25, [x * x + y * y - 0.5], [
                (0.0, -0.0), (0.5, 0.25), (-0.0, 0.0), (0.5, 0.25), (-0.125, 0.375)], d=1)
        blob = json.dumps([cert.to_json_dict(), cert.verify(), cert.element().demoted,
                           [c["p"].demoted for c in cert.decomposition["components"]]])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestStrictnessWitness:
    def test_interval_witness(self):
        k = Region.from_box([(0, 1)], resolution=5e-3)
        pts = [(0.1,), (0.2,), (0.3,), (0.4,), (0.5,)]
        cert = strictness_witness(pts, k, eps=0.01, fit_degree=15)
        assert cert.success
        assert cert.residuals["max_at_points"] <= 0.01
        assert cert.residuals["sup_norm"] >= 0.99
        assert cert.decomposition["beta"][0] > 0.9

    def test_all_samples_blocked(self):
        k = Region.from_box([(0, 1)], resolution=0.25)
        pts = [tuple(p) for p in k.sample_points]
        with pytest.raises(ValueError, match="separated"):
            strictness_witness(pts, k, eps=0.1, fit_degree=5)

    def test_square_corner(self):
        k = Region.from_box([(0, 1), (0, 1)], resolution=0.05)
        cert = strictness_witness([(0.0, 0.0)], k, eps=0.1, fit_degree=4)
        assert cert.success

    def test_verify(self):
        k = Region.from_box([(0, 1)], resolution=0.01)
        cert = strictness_witness([(0.5,)], k, eps=0.1, fit_degree=6)
        assert cert.verify()

    @pytest.mark.parametrize("points, match", [
        ([], "at least one point is required"),
        ([(0.5, 0.5)], "point dimension 2 != 1"),
    ], ids=["no-points", "wrong-dimension"])
    def test_bad_points_rejected(self, points, match):
        k = Region.from_box([(0, 1)], resolution=0.01)
        with pytest.raises(ValueError, match=match):
            strictness_witness(points, k, eps=0.1, fit_degree=6)

    def test_infeasible_constraints_serialize(self):
        # Four points cannot all be zeros of a nonzero quadratic.
        k = Region.from_box([(0, 1)], resolution=0.01)
        cert = strictness_witness([(0.1,), (0.2,), (0.3,), (0.4,)], k,
                                  eps=0.1, fit_degree=2)
        assert cert.success is False
        assert "feasibility" in cert.message
        assert cert.verify()
        json.dumps(cert.to_json_dict(), allow_nan=False)


def _monomial_lstsq_sup(f, region, d, eps, degree):
    """Sampled sup residual of the column-scaled monomial SVD least-squares
    fit that sup_approximate ran before its Chebyshev basis."""
    samples = region.sample_points
    fvals = f.evaluate_grid(samples)
    monos = monomials_upto(f.n, degree)
    a = design_matrix(samples, monos)
    scale = np.max(np.abs(a), axis=0)
    coeffs = np.linalg.lstsq(a / scale, (fvals + eps / 2) ** (1 / (2 * d)), rcond=None)[0]
    b = Polynomial(f.n, dict(zip(monos, coeffs / scale)))
    return float(np.max(np.abs(fvals - b.evaluate_grid(samples) ** (2 * d))))


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.lstsq so far."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lstsq(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


class TestChebyshevFit:
    @pytest.mark.parametrize("box", [[(0.0, 1.0)], [(-1.0, 1.0)],
                                     [(-0.5, 1.5), (0.0, 1.0)],
                                     [(-2.0, 3.0), (0.0, 0.25), (1.0, 4.0)]])
    def test_monomial_conversion_matches_chebyshev_sum(self, box):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(lo, hi, 300) for lo, hi in box])
        for degree in (0, 1, 5, 12, 20):
            monos = monomials_upto(len(box), degree)
            coeffs = rng.uniform(-1, 1, len(monos))
            terms = design_matrix(pts, monos) * approx._to_monomials(coeffs, monos, box)
            gap = np.abs(terms.sum(axis=1) - design_matrix(pts, monos, box) @ coeffs)
            assert np.all(gap <= 1e-13 * np.abs(terms).sum(axis=1)), degree

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (-2.0, 3.0)])
    def test_power_rows_match_numpy(self, lo, hi):
        rows = approx._chebyshev_powers(20, lo, hi)
        for e in range(21):
            ref = np.polynomial.Chebyshev.basis(e, domain=[lo, hi]).convert(
                kind=np.polynomial.Polynomial).coef
            np.testing.assert_allclose(rows[e, :e + 1], ref, rtol=1e-12, atol=0)
            assert not rows[e, e + 1:].any()

    def test_sup_residual_no_worse_than_monomial_lstsq(self):
        """A seeded sweep of boxes and degrees 0-20: the sampled sup residual
        is at most the old fit's times (1 + 1e-9), plus 1e-12.  The bound is
        one-sided: on [0, 1] at high degree the monomial fit is the less
        accurate one.  On the boxes away from the origin the monomial form
        of a high-degree Chebyshev fit rounds visibly, and the fit falls
        back to the monomial one."""
        rng = np.random.default_rng(12)
        eps = 1e-6
        for box, res in (([(-1, 1)], 1e-3), ([(-0.5, 1.5)], 1e-3), ([(0, 1)], 1e-3),
                         ([(-1, 1)] * 2, 0.04), ([(0, 1)] * 2, 0.02), ([(1, 4)], 3e-3),
                         ([(10, 11)], 1e-3), ([(1, 4), (2, 5)], 0.06)):
            region = Region.from_box(box, resolution=res)
            n = len(box)
            q = Polynomial(n, {e: float(rng.uniform(-1, 1)) for e in monomials_upto(n, 3)})
            q = q * (0.5 / np.max(np.abs(q.evaluate_grid(region.sample_points))))
            t = X(n, 0) * (1 / max(map(abs, box[0])))
            f = (q + 1) ** 2 + 0.05 * t ** 7  # not a square
            for degree in range(21):
                new = sup_approximate(f, region, 1, eps, degree).residuals["sup"]
                old = _monomial_lstsq_sup(f, region, 1, eps, degree)
                assert new <= old * (1 + 1e-9) + 1e-12, (box, degree, new, old)

    @pytest.mark.parametrize("box, res", [([(-1, 1)], 1e-3), ([(-0.5, 1.5), (0, 1)], 0.05)])
    def test_unconstrained_fit_is_the_plain_normal_equations(self, box, res):
        """With no anchors x0 = 0 and Z = I, so sup's b is, bit for bit,
        the monomial form of the solution of A^T A c = A^T t.  In 2-D, t and
        A^T t come from the lattice kernel, and A^T t agrees with the design
        matrix's within the stated tolerance (lattice_bound)."""
        region = Region.from_box(box, resolution=res)
        n = len(box)
        f = sum((X(n, i) ** 2 for i in range(1, n)), X(n, 0) ** 2) + 0.1
        cert = sup_approximate(f, region, d=1, eps=0.1, max_fit_degree=6)
        samples, monos = region.sample_points, monomials_upto(n, 6)
        a = design_matrix(samples, monos, box)
        t = (norms._sample_values(f, region) + 0.05) ** 0.5
        at_t = a.T @ t
        if n > 1:
            axes, kept = region._memo["lattice"]
            at_t, want = approx._on_lattice(axes, kept, monos, box, t, transpose=True), at_t
            m = len(t) + sum(map(len, axes))
            assert np.all(np.abs(at_t - want) <= lattice_bound(m, n, np.abs(a).T @ np.abs(t)))
        coeffs = approx._to_monomials(np.linalg.lstsq(a.T @ a, at_t, rcond=None)[0],
                                      monos, box)
        b = cert.decomposition["b"]
        assert [b.terms.get(e, 0.0) for e in monos] == coeffs.tolist()
        assert cert.message == ""

    def test_fit_solves_the_normal_equations(self, lstsq_calls):
        region = Region.from_box([(-1, 1), (0, 2)], resolution=0.05)
        f = X(2, 0) ** 2 + X(2, 1) ** 2 + 0.1
        assert sup_approximate(f, region, d=1, eps=0.1, max_fit_degree=6).success
        assert lstsq_calls == [(28, 28)]
        assert strictness_witness([(0.0, 1.0)], region, eps=0.1, fit_degree=6).success
        assert lstsq_calls == [(28, 28), (26, 26)]

    @pytest.mark.parametrize("region", [
        Region.from_box([(0, 1), (0.5, 0.5)]),
        Region.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.3)]),
    ], ids=["flat-box-side", "fewer-points-than-monomials"])
    def test_singular_gram_falls_back_to_lstsq(self, region, lstsq_calls):
        """The Gram solve is refused, and the monomial fit reports its rank."""
        f = X(2, 0) ** 2 + X(2, 1) ** 2 + 0.1
        m = len(region.sample_points)
        cert = sup_approximate(f, region, d=1, eps=0.1, max_fit_degree=6)
        assert lstsq_calls == [(28, 28), (m, 28)]
        assert cert.success and cert.verify()
        assert "rank-deficient" in cert.message
        cert = strictness_witness([region.sample_points[0]], region, eps=0.1,
                                  fit_degree=6)
        assert lstsq_calls[2:] == [(26, 26), (m, 26)]
        assert cert.success and cert.verify()

    def test_ill_conditioned_gram_falls_back_to_lstsq(self, lstsq_calls):
        """Three points, two of them 1e-5 apart: cond(Gram) exceeds GRAM_COND,
        and the monomial SVD fit interpolates, so the residual is the eps/2
        shift to rounding."""
        region = Region.from_points([(0.0,), (1e-5,), (1.0,)])
        cert = sup_approximate(3 * X(1, 0) + 1, region, d=1, eps=1e-3, max_fit_degree=2)
        assert lstsq_calls == [(3, 3), (3, 3)]
        assert abs(cert.residuals["sup"] - 5e-4) < 1e-13
        assert cert.verify()

    def test_rounding_monomial_form_falls_back_to_lstsq(self, lstsq_calls):
        """On [10, 11] at degree 12 the monomial form of the Chebyshev fit
        would round far above eps, so both fits are the monomial ones."""
        region = Region.from_box([(10, 11)], resolution=1e-3)
        f = (X(1, 0) - 10) ** 2 + 0.5
        cert = sup_approximate(f, region, d=1, eps=1e-3, max_fit_degree=12)
        assert lstsq_calls == [(13, 13), (1001, 13)]
        assert cert.residuals["sup"] == _monomial_lstsq_sup(f, region, 1, 1e-3, 12)
        assert cert.success and cert.verify()
        cert = strictness_witness([(10.25,), (10.5,)], region, eps=0.05, fit_degree=15)
        assert lstsq_calls[3:] == [(13, 13), (1001, 13)]
        assert cert.success and cert.verify()


class TestPsdOnFattening:
    def test_square_at_origin_member(self):
        k = Region.from_points([(0.0,)], resolution=0.01)
        rep = psd_on_fattening(X(1, 0) ** 2, k, [0.1, 0.5])
        assert rep.member
        assert all(v >= 0 for _, v, _ in rep.entries)

    def test_linear_at_origin_not_member(self):
        # f(0) = 0 but every fattening sees f < 0
        k = Region.from_points([(0.0,)], resolution=0.01)
        rep = psd_on_fattening(X(1, 0), k, [0.05, 0.2])
        assert not rep.member
        assert rep.entries[0][1] < 0

    def test_boundary_zero_not_member(self):
        k = Region.from_box([(-1, 1)], resolution=0.01)
        rep = psd_on_fattening(1 - X(1, 0) ** 2, k, [0.1])
        assert not rep.member
        assert rep.entries[0][1] == pytest.approx(-0.21, abs=1e-6)

    def test_unsorted_eps_rejected(self):
        k = Region.from_points([(0.0,)])
        with pytest.raises(ValueError):
            psd_on_fattening(X(1, 0), k, [0.2, 0.1])

    def test_non_finite_eps_rejected(self):
        k = Region.from_points([(0.0,)])
        for eps_list in ([0.1, math.inf], [math.nan], [0.1, math.nan, 0.2], [0.0, 0.1]):
            with pytest.raises(ValueError, match="eps"):
                psd_on_fattening(X(1, 0), k, eps_list)

    @pytest.mark.parametrize("region", [
        Region.from_box([(-1, 1)], resolution=0.01),
        Region.from_box([(0, 1), (0, 1)], resolution=0.05),
    ], ids=["line", "square"])
    def test_one_dilation_per_call(self, region, monkeypatch):
        """One lattice per call, and one k-d tree per Region across calls."""
        trees, lattices = [], []
        tree, lattice = norms._kdtree, norms._lattice
        monkeypatch.setattr(norms, "_kdtree", lambda pts: trees.append(1) or tree(pts))
        monkeypatch.setattr(norms, "_lattice",
                            lambda *a: lattices.append(1) or lattice(*a))
        f = X(region.n, 0) ** 2 - 0.3
        eps_list = [0.02, 0.05, 0.07, 0.1, 0.15]
        rep = psd_on_fattening(f, region, eps_list)
        assert len(trees) == len(lattices) == 1
        assert psd_on_fattening(f, region, eps_list) == rep
        assert len(trees) == 1 and len(lattices) == 2
        # the same entries as a separate fattening at each eps
        for eps, value, point in rep.entries:
            pts = fatten(region, eps).sample_points
            vals = f.evaluate_grid(pts)
            i = int(np.argmin(vals))
            assert (value, point) == (float(vals[i]), tuple(pts[i]))


def _memo_calls(region):
    """Interleaved and repeated sup fits and witnesses on one region."""
    n = region.n
    f = sum((X(n, i) ** 2 for i in range(1, n)), X(n, 0) ** 2) + 0.1
    pts = [tuple(region.sample_points[0])]
    return [lambda r: sup_approximate(f, r, d=1, eps=0.05, max_fit_degree=6),
            lambda r: strictness_witness(pts, r, eps=0.1, fit_degree=6),
            lambda r: sup_approximate(f, r, d=2, eps=0.05, max_fit_degree=6),
            lambda r: sup_approximate(f, r, d=1, eps=0.05, max_fit_degree=4),
            lambda r: strictness_witness(pts, r, eps=0.1, fit_degree=4),
            lambda r: strictness_witness(pts, r, eps=0.1, fit_degree=6)]


class TestRegionMemo:
    BOXES = [([(-1, 1)], 0.01), ([(-0.5, 1.5), (0, 1)], 0.05)]

    @pytest.mark.parametrize("box, res", BOXES, ids=["line", "rectangle"])
    def test_shared_region_gives_the_bytes_of_fresh_regions(self, box, res):
        shared = Region.from_box(box, resolution=res)
        for call in _memo_calls(shared) * 2:
            got = json.dumps(call(shared).to_json_dict(), sort_keys=True)
            want = json.dumps(call(Region.from_box(box, resolution=res)).to_json_dict(),
                              sort_keys=True)
            assert got == want
        grams = {("gram", len(monomials_upto(shared.n, deg))) for deg in (4, 6)}
        assert grams <= set(shared._memo)

    def test_equal_regions_keep_their_own_memo(self):
        """Equality ignores the samples, so a memo shared between equal
        Regions would fit one region's samples with another's Gram."""
        region = Region.from_box([(0, 1)], resolution=0.01)
        fits = _memo_calls(region)
        first = [call(region).to_json_dict() for call in fits]
        subset = region.sample_points[::3].copy()
        subset.setflags(write=False)
        for other in (Region.from_box([(0, 1)], resolution=0.01),
                      Region(1, region.box, (), region.resolution, subset)):
            assert other == region and hash(other) == hash(region)
            assert other._memo == {}
            fresh = Region(1, other.box, (), other.resolution, other.sample_points)
            assert [call(other).to_json_dict() for call in fits] == [
                call(fresh).to_json_dict() for call in fits]
            assert all(other._memo[k] is not region._memo[k] for k in other._memo)
        assert [call(region).to_json_dict() for call in fits] == first
        fat = fatten(region, 0.05)
        assert fat._memo == {}
        psd_on_fattening(X(1, 0) ** 2, fat, [0.01])
        psd_on_fattening(X(1, 0) ** 2, region, [0.01])
        assert fat._memo["tree"] is not region._memo["tree"]
        assert "memo" not in repr(region) and "memo" not in json.dumps(region.to_json_dict())

    def test_memo_arrays_are_read_only(self):
        region = Region.from_box([(-1, 1), (0, 2)], resolution=0.1)
        for call in _memo_calls(region):
            call(region)
        psd_on_fattening(X(2, 0), region, [0.1])
        axes, kept = region._memo["lattice"]  # recorded by from_box: axes and kept indices
        arrays = [v for v in region._memo.values() if isinstance(v, np.ndarray)]
        assert len(arrays) == len(region._memo) - 2 >= 4  # the tree and the lattice are the others
        arrays += [*axes, kept]
        for v in arrays:
            assert not v.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 1.0

    def test_writable_samples_are_not_memoized(self):
        memo_free = Region.from_box([(0, 1)], resolution=0.01)
        writable = Region(1, memo_free.box, (), memo_free.resolution,
                          memo_free.sample_points.copy())
        assert writable.sample_points.flags.writeable
        for call in _memo_calls(writable):
            assert call(writable).to_json_dict() == call(memo_free).to_json_dict()
        rep = psd_on_fattening(X(1, 0) - 0.5, writable, [0.01, 0.02])
        assert rep == psd_on_fattening(X(1, 0) - 0.5, memo_free, [0.01, 0.02])
        assert writable._memo == {} and memo_free._memo


# The stated tolerance of report floats on the lattice path against the design
# path, as _close reads it: |lattice - design| <= REPORT_TOL * (1 + |design|).
# grid_fit seeds 11-13 moved them by at most 1.5e-8 (a sup fit's coefficients).
REPORT_TOL = 1e-7


def _assert_reports_close(got, want, path=()):
    """Equal JSON but for floats within REPORT_TOL and the message's digits."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want.keys() - {"message"}:
            _assert_reports_close(got[k], want[k], path + (k,))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (u, v) in enumerate(zip(got, want)):
            _assert_reports_close(u, v, path + (i,))
    elif isinstance(want, float):
        assert approx._close(got, want, REPORT_TOL), (path, got, want)
    else:
        assert got == want, path


def _lattice_path_calls(n):
    x = [X(n, i) for i in range(n)]
    b = 1 + sum(c * xi for c, xi in zip((0.3, -0.2, 0.17), x)) + 0.1 * x[0] * x[-1]
    pts = [(0.1,) * n, (-0.4,) + (0.5,) * (n - 1)]
    return [lambda r: sup_approximate(b ** 2, r, d=1, eps=0.02, max_fit_degree=6),
            lambda r: sup_approximate(b ** 4 - 0.05, r, d=2, eps=0.02, max_fit_degree=8),
            lambda r: sup_approximate(b - 1.2, r, d=1, eps=0.02, max_fit_degree=4),
            lambda r: strictness_witness(pts, r, eps=0.1, fit_degree=6)]


class TestLatticePath:
    LATTICE = [([(-1, 1), (-1, 1)], 0.04, None), ([(-1, 1), (-1, 1)], 0.04, 0.8),
               ([(-0.5, 1.5), (0, 1), (-1, 1)], 0.1, None)]

    @pytest.mark.parametrize("box, res, radius", LATTICE, ids=["square", "disk", "box3"])
    def test_reports_match_the_design_path(self, box, res, radius):
        """The same samples without a recorded lattice take the design path:
        every verdict and verify() agree, and every float within REPORT_TOL."""
        n = len(box)
        ineqs = [] if radius is None else [radius**2 - X(n, 0) ** 2 - X(n, 1) ** 2]
        region = Region.from_box(box, ineqs, resolution=res)
        twin = Region(n, region.box, region.ineqs, region.resolution, region.sample_points)
        assert "lattice" in region._memo and "lattice" not in twin._memo
        for call in _lattice_path_calls(n):
            got, want = call(region), call(twin)
            assert got.verify() and want.verify()
            _assert_reports_close(got.to_json_dict(), want.to_json_dict())
        f = (X(n, 0) - 0.3) ** 3 * X(n, n - 1) + 0.5 * X(n, 1) + 0.5
        got, want = sup_norm(f, region), sup_norm(f, twin)
        assert got.argmax == want.argmax and approx._close(got.value, want.value, REPORT_TOL)

    @pytest.mark.parametrize("region", [
        Region.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.3),
                            (0.2, 0.9), (0.8, 0.6), (0.4, 0.1), (0.7, 0.2), (0.1, 0.5)]),
        fatten(Region.from_box([(0, 1), (0, 1)], resolution=0.1), 0.1),
        Region.from_box([(-1, 1)], resolution=0.01),
    ], ids=["from-points", "fatten", "one-variable"])
    def test_regions_without_a_lattice_take_the_design_path(self, region, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice kernel ran")
        monkeypatch.setattr(approx, "_on_lattice", refuse)
        monkeypatch.setattr(norms, "_on_lattice", refuse)
        assert "lattice" not in region._memo
        n, pts = region.n, [tuple(region.sample_points[0])]
        f = sum((X(n, i) ** 2 for i in range(1, n)), X(n, 0) ** 2) + 0.1
        sup_norm(f, region)
        assert sup_approximate(f, region, d=1, eps=0.05, max_fit_degree=2).verify()
        assert strictness_witness(pts, region, eps=0.5, fit_degree=2).verify()

    @pytest.mark.parametrize("box", [[(-1, 1)], [(-1, 1), (0, 2)]], ids=["line", "square"])
    def test_design_matrix_builds(self, box, monkeypatch):
        """On the samples: one design matrix per Chebyshev fit in 1-D, as
        before; in 2-D one for a new Gram only, and none in verify()."""
        region = Region.from_box(box, resolution=0.05)
        built, design = [], approx.design_matrix
        monkeypatch.setattr(approx, "design_matrix", lambda pts, *a: built.append(
            len(pts) == len(region.sample_points)) or design(pts, *a))
        n = len(box)
        f = sum((X(n, i) ** 2 for i in range(1, n)), X(n, 0) ** 2) + 0.1
        for _ in range(2):
            cert = sup_approximate(f, region, d=1, eps=0.05, max_fit_degree=6)
            assert cert.message == "" and cert.verify()
        assert built.count(True) == (2 if n == 1 else 1)


def _sample_certificates():
    x = X(1, 0)
    k01 = Region.from_box([(0, 1)], resolution=0.01)
    return {
        "tk": lambda: tk_approximate(x ** 2 + 2, [(0.5,), (1.5,)], d=2, eps=1e-4),
        "sup": lambda: sup_approximate((x - 0.5) ** 2, k01, d=1, eps=0.1,
                                       max_fit_degree=8),
        "series": lambda: series_root(1.0, 0.5 * x, 1, 3, WeightFunction.one(1)),
        "module": lambda: module_interpolate(x ** 2 - 1, [x ** 2 - 1],
                                             [(-3,), (0,), (2,)], d=1),
        "witness": lambda: strictness_witness([(0.5,)], k01, eps=0.1,
                                              fit_degree=6),
    }


@pytest.mark.parametrize("kind", list(_sample_certificates()))
def test_verify_rejects_each_tampered_residual(kind):
    """verify() recomputes every stored residual entry: moving any single
    one by 1e-6 * (1 + |value|), far above its tolerance, or replacing it
    by NaN is caught."""
    cert = _sample_certificates()[kind]()
    assert cert.kind == kind and cert.success
    assert cert.verify()
    honest = cert.residuals
    entries = [(key, i) for key, val in honest.items()
               for i in (range(len(val)) if isinstance(val, (list, tuple)) else [None])]
    assert len(entries) >= 2
    for (key, i), nan in itertools.product(entries, (False, True)):
        tampered = {k: list(v) if isinstance(v, (list, tuple)) else v
                    for k, v in honest.items()}
        box, at = (tampered, key) if i is None else (tampered[key], i)
        box[at] = math.nan if nan else box[at] + 1e-6 * (1 + abs(box[at]))
        cert.residuals = tampered
        assert not cert.verify(), (key, i, nan)
    cert.residuals = honest
    assert cert.verify()
