import json
import math

import numpy as np
import pytest

from cone2d.approx import (PsdViolationError, module_interpolate,
                           psd_on_fattening, series_root, strictness_witness,
                           sup_approximate, tk_approximate)
from cone2d.norms import Region, WeightFunction, phi_norm
from cone2d.poly import Polynomial


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

    def test_divergent_argument_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            series_root(1.0, 2 * X(1, 0), d=1, n_terms=3,
                        phi=WeightFunction.one(1))

    def test_boundary_norm_gives_infinite_tail(self):
        cert = series_root(1.0, X(1, 0), d=1, n_terms=2,
                           phi=WeightFunction.one(1))
        assert math.isinf(cert.residuals["tail_bound"])


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
