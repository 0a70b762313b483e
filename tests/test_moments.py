import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from cone2d.moments import (AtomicMeasure, MomentFunctional, from_measure,
                            hankel_psd_check, measure_recover, nnls,
                            phi_continuity, power_psd_check,
                            uniform_box_moments)
from cone2d.norms import Region, WeightFunction
from cone2d.poly import Polynomial, design_matrix
from cone2d.spectrum import monomials_upto


def X(n, i):
    return Polynomial.variable(n, i)


class TestFunctionals:
    def test_dirac_at_origin(self):
        mu = AtomicMeasure.of([(0.0,)], [1.0])
        L = from_measure(mu, 4)
        assert L.moments[(0,)] == 1.0
        assert all(L.moments[(k,)] == 0.0 for k in range(1, 5))

    def test_uniform_interval(self):
        # oracle: integral of x^k over [-1,1] divided by 2
        L = uniform_box_moments([(-1, 1)], 4)
        assert [L.moments[(k,)] for k in range(5)] == \
            pytest.approx([1, 0, 1 / 3, 0, 1 / 5])

    def test_two_symmetric_atoms(self):
        mu = AtomicMeasure.of([(-1.0,), (1.0,)], [0.5, 0.5])
        L = from_measure(mu, 6)
        for k in range(7):
            assert L.moments[(k,)] == (1.0 if k % 2 == 0 else 0.0)

    def test_degree_guard(self):
        L = uniform_box_moments([(-1, 1)], 2)
        with pytest.raises(ValueError, match="degree"):
            L(X(1, 0) ** 3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure.of([(0.0,)], [-0.5])

    def test_incomplete_moments_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            MomentFunctional(1, 2, {(0,): 1.0, (1,): 0.0})

    def test_json_round_trip(self):
        L = uniform_box_moments([(-1, 1), (0, 2)], 3)
        back = MomentFunctional.from_json_dict(L.to_json_dict())
        assert back.moments == L.moments


def indefinite_functional():
    return MomentFunctional(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})


class TestHankel:
    def test_dirac_is_psd(self):
        L = from_measure(AtomicMeasure.of([(0.0,)], [1.0]), 4)
        v = hankel_psd_check(L)
        assert v.psd
        # M = e1 e1^T has min eigenvalue 0 at this scale
        assert abs(v.min_eigenvalue) < 1e-12

    def test_indefinite_with_witness(self):
        v = hankel_psd_check(indefinite_functional())
        assert not v.psd
        assert v.min_eigenvalue == pytest.approx(-1.0)
        h = v.witness
        assert h is not None
        assert indefinite_functional()(h * h) < 0
        # witness is the coordinate function itself
        assert {e: float(c) for e, c in h.terms.items()} == {(1,): 1.0}

    def test_uniform_positive_definite(self):
        # oracle: 5x5 Hankel of (1, 0, 1/3, 0, 1/5, 0, 1/7, 0, 1/9)
        L = uniform_box_moments([(-1, 1)], 8)
        hank = np.array([[L.moments[(i + j,)] for j in range(5)]
                         for i in range(5)])
        want = np.linalg.eigvalsh(hank)[0]
        v = hankel_psd_check(L)
        assert v.psd
        assert v.min_eigenvalue == pytest.approx(want)
        assert v.min_eigenvalue > 0


class TestPowerCheck:
    def test_atomic_measures_always_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            atoms = rng.uniform(-2, 2, size=(4, 1))
            weights = rng.uniform(0, 1, size=4)
            L = from_measure(AtomicMeasure.of(atoms, weights), 8)
            for d in (1, 2):
                assert power_psd_check(L, d).consistent

    def test_quartic_counterexample(self):
        L = MomentFunctional(1, 4, {(0,): 1.0, (1,): 0.0, (2,): 0.0,
                                    (3,): 0.0, (4,): -1.0})
        v = power_psd_check(L, d=2)
        assert not v.consistent
        assert v.counterexample_value < 0
        assert L(v.counterexample ** 4) == v.counterexample_value

    def test_agrees_with_hankel_at_d_one(self):
        # one-sided agreement: any grid counterexample implies not-PSD
        rng = np.random.default_rng(11)
        for _ in range(25):
            vals = {(0,): 1.0}
            for k in range(1, 5):
                vals[(k,)] = float(rng.uniform(-1, 1))
            L = MomentFunctional(1, 4, vals)
            v = power_psd_check(L, d=1)
            if not v.consistent:
                assert not hankel_psd_check(L).psd

    def test_degree_budget_guard(self):
        L = uniform_box_moments([(-1, 1)], 2)
        with pytest.raises(ValueError, match="budget"):
            power_psd_check(L, d=2)


class TestContinuity:
    def test_dirac_inside_unit_box(self):
        L = from_measure(AtomicMeasure.of([(0.7,)], [1.0]), 6)
        rep = phi_continuity(L, WeightFunction.one(1))
        assert rep.constant <= 1.0

    def test_dirac_outside_diverges(self):
        L = from_measure(AtomicMeasure.of([(2.0,)], [1.0]), 10)
        rep = phi_continuity(L, WeightFunction.one(1))
        assert rep.constant == 2.0**10
        assert list(rep.table) == [2.0**k for k in range(11)]

    def test_geometric_weight_flattens(self):
        L = from_measure(AtomicMeasure.of([(2.0,)], [1.0]), 10)
        rep = phi_continuity(L, WeightFunction.geometric((2.0,)))
        assert rep.constant == 1.0

    def test_table_monotone(self):
        L = uniform_box_moments([(0, 3)], 8)
        rep = phi_continuity(L, WeightFunction.lasserre(1))
        assert list(rep.table) == sorted(rep.table)


class TestNnls:
    def test_clamped_projection(self):
        r = nnls(np.eye(2), np.array([1.0, -1.0]))
        assert r.x == pytest.approx([1.0, 0.0])
        assert r.converged

    def test_exact_fit(self):
        r = nnls(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
        assert r.x == pytest.approx([1.0])
        assert r.residual_norm < 1e-14

    def test_recovers_nonnegative_solution(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 8))
        x0 = rng.uniform(0, 2, size=8)
        r = nnls(a, a @ x0)
        assert r.x == pytest.approx(x0, abs=1e-8)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((15, 10))
        b = rng.standard_normal(15)
        r = nnls(a, b)
        tr = r.objective_trace
        for u, v in zip(tr, tr[1:]):
            assert v <= u + 1e-12


def assert_kkt(a, b, r, tol):
    """x >= 0, gradient >= -tol on the zero set and within tol elsewhere,
    and the reported residual is ||Ax - b||."""
    w = a.T @ (b - a @ r.x)
    assert np.all(r.x >= 0)
    assert np.all(w[r.x == 0] <= tol)
    assert np.all(np.abs(w[r.x > 0]) <= tol)
    assert r.residual_norm == pytest.approx(np.linalg.norm(a @ r.x - b),
                                            rel=1e-9, abs=1e-15)


def atomic_moment_system(seed):
    """measure_recover's 66 x 1681 system at degree 10 for a seeded atomic
    measure on the 41 x 41 grid of [0, 1]^2."""
    k = Region.from_box([(0.0, 1.0), (0.0, 1.0)], resolution=0.025)
    monos = monomials_upto(2, 10)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(k.sample_points), 2 + seed, replace=False)
    mu = AtomicMeasure.of(k.sample_points[idx], rng.uniform(0.1, 1.0, 2 + seed))
    return (design_matrix(k.sample_points, monos).T,
            np.array([from_measure(mu, 10).moments[e] for e in monos]))


class TestNnlsAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(20, 8), (8, 20), (30, 30)])
    def test_random_problems(self, seed, shape):
        rng = np.random.default_rng([seed, *shape])
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        r = nnls(a, b)
        _, rnorm = scipy_nnls(a, b)
        assert r.converged
        assert abs(r.residual_norm - rnorm) <= 1e-9 * (1 + np.linalg.norm(b))
        assert_kkt(a, b, r, 1e-10)

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_moment_matrix(self, seed):
        # At tol 1e-12 the gradient test may stop while ||Ax - b|| is still
        # near 1e-7: the objective gap is only bounded by about
        # tol * (||x||_1 + ||x*||_1).
        a, b = atomic_moment_system(seed)
        assert a.shape == (66, 1681)
        r = nnls(a, b, tol=1e-14)
        _, rnorm = scipy_nnls(a, b)
        assert r.converged
        assert abs(r.residual_norm - rnorm) <= 1e-9 * (1 + np.linalg.norm(b))
        assert_kkt(a, b, r, 1e-14)

    @pytest.mark.filterwarnings("error")
    def test_rounding_level_tol(self):
        # At tol 1e-16 the line search meets a coordinate with x = z = 0; a
        # 0/0 step there would make x NaN and the inner loop endless.
        a, b = atomic_moment_system(5)
        r = nnls(a, b, tol=1e-16)
        assert np.all(np.isfinite(r.x)) and np.all(r.x >= 0)
        assert r.residual_norm <= 1e-13 * np.linalg.norm(b)


class TestNnlsColumns:
    # With tol = 0 a dependent column's rounding-level gradient can select
    # it; the column test keeps it out of the factorization, so each of the
    # three independent directions enters once and LH stops.
    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_columns(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1.5, size=(6, 3))
        a = np.hstack([c, c, c[:, :1]])
        b = c @ np.array([1.0, 2.0, 0.5])
        r = nnls(a, b, tol=0.0)
        assert r.converged and r.iterations == 3
        assert np.count_nonzero(r.x) == 3 and np.all(r.x >= 0)
        assert r.residual_norm <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", range(6))
    def test_nearly_dependent_columns(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1.5, size=(6, 3))
        # below eps * m * ||a_j|| off the span of c
        near = np.column_stack([c[:, 0] + 1e-15 * rng.standard_normal(6),
                                c[:, 1] * (1 + 1e-16)])
        a = np.hstack([c, near])
        b = c @ np.array([1.0, 2.0, 0.5]) + 1e-3 * rng.standard_normal(6)
        r = nnls(a, b, tol=0.0)
        assert r.converged and r.iterations == 3
        assert np.all(r.x >= 0) and np.all(np.isfinite(r.x))
        _, rnorm = scipy_nnls(a, b)
        assert abs(r.residual_norm - rnorm) <= 1e-9 * (1 + np.linalg.norm(b))

    @pytest.mark.parametrize("seed", range(6))
    def test_full_passive_set(self, seed):
        # b inside the cone of 80 positive columns in R^30: the passive set
        # fills all m = 30 rows, the fit is exact, and LH stops there even
        # where rounding leaves some inactive gradient above tol = 0
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 1.0, size=(30, 80))
        b = a @ np.ones(80)
        r = nnls(a, b, tol=0.0)
        assert r.converged
        assert np.count_nonzero(r.x) == 30
        assert r.residual_norm <= 1e-13 * np.linalg.norm(b)

    def test_max_iter_exhausted(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 15))
        b = a @ rng.uniform(0.5, 1.0, size=15)
        r = nnls(a, b, max_iter=3)
        assert not r.converged
        assert len(r.objective_trace) == 4  # start plus one per outer pass
        assert r.objective_trace[0] == pytest.approx(np.linalg.norm(b))
        assert r.objective_trace[-1] == r.residual_norm
        assert r.residual_norm == pytest.approx(np.linalg.norm(a @ r.x - b))
        assert list(r.objective_trace) == sorted(r.objective_trace, reverse=True)
        assert r.iterations >= 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        a, b = np.eye(3), np.ones(3)
        a_bad = a.copy()
        a_bad[1, 2] = bad
        b_bad = b.copy()
        b_bad[0] = bad
        for args in ((a_bad, b), (a, b_bad)):
            with pytest.raises(ValueError, match="finite"):
                nnls(*args)


class TestRecovery:
    def test_on_grid_dirac(self):
        k = Region.from_box([(-1, 1)], resolution=0.1)
        L = from_measure(AtomicMeasure.of([(0.5,)], [1.0]), 6)
        rec = measure_recover(L, k)
        assert rec.success and rec.residual < 1e-9
        atoms = np.asarray(rec.measure.atoms)
        w = np.asarray(rec.measure.weights)
        assert atoms[np.argmax(w)][0] == pytest.approx(0.5)
        assert rec.measure.total_mass == pytest.approx(1.0)

    def test_uniform_quadrature(self):
        k = Region.from_box([(-1, 1)], resolution=0.02)
        L = uniform_box_moments([(-1, 1)], 8)
        rec = measure_recover(L, k)
        assert rec.residual < 1e-6
        assert all(w >= 0 for w in rec.measure.weights)

    def test_on_grid_atomic_recorded_miss(self):
        # 2-D, D = 8 moments of an atomic measure on the atoms2 grid of
        # perfbench cli_moments seed 306 (job 62): NNLS at a gradient
        # tolerance of 1e-12 stalled at 1.15e-6; the tolerance derived from
        # the residual tolerance recovers the measure.
        data = json.loads((Path(__file__).parent / "data"
                           / "recover_miss_moments.json").read_text())
        k = Region.from_box([(0.0, 1.0), (0.0, 1.0)], resolution=0.025)
        rec = measure_recover(MomentFunctional.from_json_dict(data), k)
        assert rec.success

    def test_indefinite_has_no_representation(self):
        k = Region.from_box([(-1, 1)], resolution=0.02)
        rec = measure_recover(indefinite_functional(), k)
        assert not rec.success
        assert rec.residual > 0.1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_measure_moments_are_hankel_psd(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    atoms = rng.uniform(-1.5, 1.5, size=(m, 1))
    weights = rng.uniform(0, 2, size=m)
    L = from_measure(AtomicMeasure.of(atoms, weights), 6)
    assert hankel_psd_check(L).psd
