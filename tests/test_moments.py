import dataclasses
import itertools
import json
import operator
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, qr_delete, qr_insert
from scipy.optimize import nnls as scipy_nnls

from cone2d import moments, spectrum
from cone2d.moments import (AtomicMeasure, MomentFunctional, NNLSResult,
                            PowerVerdict, from_measure, hankel_psd_check,
                            measure_recover, nnls, phi_continuity,
                            power_psd_check, uniform_box_moments)
from cone2d.norms import Region, WeightFunction
from cone2d.poly import Polynomial, design_matrix
from cone2d.spectrum import monomials_upto


def X(n, i):
    return Polynomial.variable(n, i)


def _reference_nnls(a: np.ndarray, b: np.ndarray, tol: float = 1e-10,
                    max_iter: int | None = None) -> NNLSResult:
    """``nnls`` with the passive set as a Python list, kept verbatim: the
    index-array loop must reproduce its bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, ncols = a.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: A is {a.shape}, b is {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")  # the updates skip this check
    max_iter = 3 * ncols if max_iter is None else max_iter

    at = np.ascontiguousarray(a.T)
    x = np.zeros(ncols)
    passive = []  # column indices, in the order they entered Q R
    q, r = np.eye(m), np.empty((m, 0))
    resid, iterations, converged = b, 0, False
    trace = [float(np.linalg.norm(b))]
    for _ in range(max_iter):
        w = at @ resid  # negative gradient
        w[passive] = -np.inf
        while len(passive) < min(m, ncols) and w[j := int(np.argmax(w))] > tol:
            k = len(passive)
            q, r = qr_insert(q, r, at[j], k, "col", overwrite_qru=True, check_finite=False)
            if abs(r[k, k]) > np.finfo(float).eps * m * np.linalg.norm(at[j]):
                break
            r, w[j] = r[:, :k], -np.inf  # Q still factors the first k
        else:
            converged = True
            break
        passive.append(j)
        while True:
            iterations += 1
            k = len(passive)
            z = lapack.dtrtrs(r[:k, :k], q[:, :k].T @ b)[0] if k else np.zeros(0)
            xp = x[passive]
            if np.all(z > 0):
                x[passive] = z
                break
            # Line search to feasibility (0/0 steps 0); the blocking column lands on 0.
            neg = np.flatnonzero(z <= 0)
            steps = xp[neg] / np.maximum(xp[neg] - z[neg], np.finfo(float).tiny)
            xp += np.min(steps) * (z - xp)
            xp[neg[np.argmin(steps)]] = 0.0
            x[passive] = xp
            for i in np.flatnonzero(xp <= tol)[::-1]:
                q, r = qr_delete(q, r, i, which="col", overwrite_qr=True, check_finite=False)
                x[passive.pop(i)] = 0.0
        resid = b - x[passive] @ at[passive]
        trace.append(float(np.linalg.norm(resid)))
    return NNLSResult(x, float(np.linalg.norm(resid)), converged, iterations,
                      tuple(trace))


def assert_same_as_reference(a, b, r, **kwargs):
    assert_same_result(r, _reference_nnls(a, b, **kwargs))


def assert_same_result(r, want):
    assert np.array_equal(r.x, want.x)
    assert (r.iterations, r.converged, r.objective_trace, r.residual_norm) == \
        (want.iterations, want.converged, want.objective_trace, want.residual_norm)


def _reference_power_check(functional: MomentFunctional, d: int, trials: int = 50,
                           seed: int = 0, tol: float = 1e-9) -> PowerVerdict:
    """``power_psd_check`` as one Polynomial power per candidate, kept
    verbatim: the batched screen must reproduce its verdicts."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    h_degree = functional.degree // (2 * d)
    if h_degree < 1:
        raise ValueError(
            f"degree budget exhausted: D = {functional.degree} admits no "
            f"nonconstant h with deg(h**{2 * d}) <= D"
        )
    rng = np.random.default_rng(seed)
    monos = monomials_upto(functional.n, 1)
    net = itertools.product([-1.0, -0.5, 0.0, 0.5, 1.0], repeat=len(monos))
    candidates = [{exp: c for exp, c in zip(monos, combo) if c}
                  for combo in (net if len(monos) <= 4 else ()) if any(combo)]
    all_monos = monomials_upto(functional.n, h_degree)
    candidates += [dict(zip(all_monos, rng.standard_normal(len(all_monos)).tolist()))
                   for _ in range(trials)]
    for count, terms in enumerate(candidates, 1):
        h = Polynomial(functional.n, terms)
        val = functional(h ** (2 * d))
        if val < -tol:
            return PowerVerdict(False, h, val, count)
    return PowerVerdict(True, None, None, len(candidates))


class TestFunctionals:
    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="variable count must be >= 1"):
            MomentFunctional(0, 2, {(): 1.0})

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

    @pytest.mark.parametrize("atoms, weights, match", [
        ([(0.0,)], [float("nan")], "weights must be >= 0"),
        ([(float("nan"),)], [1.0], "finite"),
        ([(0.5, float("inf"))], [1.0], "finite"),
    ], ids=["nan-weight", "nan-atom", "inf-atom"])
    def test_non_finite_rejected(self, atoms, weights, match):
        with pytest.raises(ValueError, match=match):
            AtomicMeasure.of(atoms, weights)

    def test_incomplete_moments_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            MomentFunctional(1, 2, {(0,): 1.0, (1,): 0.0})

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            MomentFunctional(1, -1, {})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_moments_rejected(self, bad):
        # the Hankel and power checks would otherwise see NaN or inf entries
        with pytest.raises(ValueError, match="finite"):
            MomentFunctional(2, 2, {s: (bad if s == (1, 1) else 1.0)
                                    for s in monomials_upto(2, 2)})

    def test_json_round_trip(self):
        L = uniform_box_moments([(-1, 1), (0, 2)], 3)
        back = MomentFunctional.from_json_dict(L.to_json_dict())
        assert back.moments == L.moments


def indefinite_functional():
    return MomentFunctional(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})


def _reference_moment_matrix(functional: MomentFunctional, monos: list) -> np.ndarray:
    """``_moment_matrix`` as one tuple sum per entry, kept verbatim: the
    index table must give the same matrix, bit for bit."""
    return np.array([[functional.moments[tuple(map(operator.add, s, t))] for t in monos]
                     for s in monos], dtype=float)


class TestMomentMatrix:
    @pytest.mark.parametrize("n, half", [(1, 5), (2, 3), (2, 6), (3, 2), (4, 3)])
    def test_matches_reference(self, n, half):
        rng = np.random.default_rng([n, half])
        monos = monomials_upto(n, 2 * half)
        L = MomentFunctional(n, 2 * half, dict(zip(monos, rng.standard_normal(len(monos)))))
        half_monos = monomials_upto(n, half)
        got = moments._moment_matrix(L, half_monos)
        assert np.array_equal(got, _reference_moment_matrix(L, half_monos))
        assert got.dtype == float and got.shape == (len(half_monos),) * 2

    def test_keys_past_int64(self):
        # 3**41 > 2**63: the keys fall back to Python integers
        L = uniform_box_moments([(0, 1)] * 41, 2)
        monos = monomials_upto(41, 1)
        assert np.array_equal(moments._moment_matrix(L, monos),
                              _reference_moment_matrix(L, monos))


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

    def test_matches_reference(self):
        # n 1-4, d 1-3: atomic moments, perturbed ones and signed ones.
        rng = np.random.default_rng(14)
        inconsistent = 0
        for case in range(120):
            L, d = seeded_functional(rng, case)
            seed, trials = int(rng.integers(2**31)), int(rng.integers(0, 40))
            want = _reference_power_check(L, d, trials, seed)
            assert_same_verdict(power_psd_check(L, d, trials, seed), want)
            inconsistent += not want.consistent
        assert inconsistent >= 50

    def test_matches_reference_at_the_tolerance(self):
        # tol at the counterexample's own value, and one ulp below it: the
        # screen must pass over the first and catch the second, whatever the
        # rounding of its batched value.
        rng = np.random.default_rng(15)
        checked = 0
        for case in range(60):
            L, d = seeded_functional(rng, 2 * case + 1)
            seed = int(rng.integers(2**31))
            first = _reference_power_check(L, d, 30, seed)
            if first.consistent:
                continue
            v = first.counterexample_value
            for tol in (-v, -np.nextafter(v, np.inf)):
                assert_same_verdict(power_psd_check(L, d, 30, seed, tol),
                                    _reference_power_check(L, d, 30, seed, tol))
                checked += 1
        assert checked >= 50

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            power_psd_check(uniform_box_moments([(-1, 1)], 2), 1, trials=-1)


def seeded_functional(rng, case):
    """Moments of a seeded atomic measure on up to 4 variables; odd cases
    give one atom a negative weight, every fourth case perturbs them."""
    n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    degree = 2 * d * int(rng.integers(1, 3)) + int(rng.integers(0, 2))
    if n >= 3:
        degree = min(degree, 2 * d + 1)
    k = int(rng.integers(2, 6))
    atoms = rng.uniform(-1.5, 1.5, size=(k, n))
    w = rng.uniform(0.1, 1.0, size=k)
    if case % 2:
        w[-1] = -rng.uniform(0.01, 1.0) * w[:-1].sum()
    monos = monomials_upto(n, degree)
    values = w @ design_matrix(atoms, monos)
    if case % 4 == 0:
        values = values + 1e-3 * rng.standard_normal(len(monos))
    return MomentFunctional(n, degree, dict(zip(monos, values.tolist()))), d


def assert_same_verdict(got, want):
    assert (got.consistent, got.trials, got.counterexample_value) == \
        (want.consistent, want.trials, want.counterexample_value)
    if want.counterexample is not None:
        assert got.counterexample.terms == want.counterexample.terms


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
        assert_same_as_reference(a, b, r)

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
        assert_same_as_reference(a, b, r, tol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_rounding_level_tol(self):
        # At tol 1e-16 the line search meets a coordinate with x = z = 0; a
        # 0/0 step there would make x NaN and the inner loop endless.
        a, b = atomic_moment_system(5)
        r = nnls(a, b, tol=1e-16)
        assert np.all(np.isfinite(r.x)) and np.all(r.x >= 0)
        assert r.residual_norm <= 1e-13 * np.linalg.norm(b)


def square_grid_system(values, degree):
    """measure_recover's system and gradient tolerance for moments
    values(a, b) of x^a y^b on the 41 x 41 grid of [0, 1]^2."""
    k = Region.from_box([(0.0, 1.0), (0.0, 1.0)], resolution=0.025)
    monos = monomials_upto(2, degree)
    b = np.array([values(*e) for e in monos])
    return design_matrix(k.sample_points, monos).T, b, min(1e-12, 1e-12 / 16 / b[0])


THREE_ATOMS = [(0.25, 0.5, 0.5), (0.75, 0.125, 0.3), (0.5, 0.875, 0.2)]  # x, y, weight


class TestNnlsUpdates:
    def test_calls_unbatched_kernels(self):
        nnls(np.eye(2), np.ones(2))  # the first solve imports the kernels
        assert moments._qr_insert is getattr(qr_insert, "__wrapped__", qr_insert)
        assert moments._qr_delete is getattr(qr_delete, "__wrapped__", qr_delete)

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_public_updates_give_same_result(self, seed, monkeypatch):
        # the path taken where scipy has no batch dispatch around the kernels
        a, b = atomic_moment_system(seed)
        want = nnls(a, b, tol=1e-14)
        monkeypatch.setattr(moments, "_qr_insert", qr_insert)
        monkeypatch.setattr(moments, "_qr_delete", qr_delete)
        assert_same_result(nnls(a, b, tol=1e-14), want)

    @pytest.mark.parametrize("values, degree", [
        # 58 passive columns at the end
        (lambda a, b: 1 / ((a + 1) * (b + 1)), 10),
        # about a hundred inner steps, half of them dropping columns
        (lambda a, b: sum(w * x**a * y**b for x, y, w in THREE_ATOMS), 8),
    ], ids=["uniform-square", "three-atoms"])
    def test_square_grid_recover_systems(self, values, degree):
        a, b, tol = square_grid_system(values, degree)
        r = nnls(a, b, tol=tol)
        assert r.converged and r.residual_norm <= 1e-6
        assert_same_as_reference(a, b, r, tol=tol)


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
        assert_same_as_reference(a, b, r, tol=0.0)

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
        assert_same_as_reference(a, b, r, tol=0.0)

    @pytest.mark.parametrize("column, b", [
        ([3.0, 1.0, 3.0], [3.473684210526316, -2.8421052631578947, -2.526315789473684]),
        ([3.0, 2.0, -2.0], [-1.1764705882352942, 1.8823529411764706, 0.11764705882352941])])
    def test_line_search_empties_passive_set(self, column, b):
        # b is orthogonal to the column up to rounding: its gradient enters
        # it at tol = 0, the solve gives z <= 0, and the line search drops
        # the only passive column.  Each outer pass repeats that.
        a, b = np.array(column)[:, None], np.array(b)
        r = nnls(a, b, tol=0.0)
        assert not r.converged and r.iterations >= 3
        assert r.objective_trace == (np.linalg.norm(b),) * 4
        assert_same_as_reference(a, b, r, tol=0.0)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        a, b = np.zeros(shape), np.arange(shape[0], dtype=float)
        r = nnls(a, b)
        assert r.converged and r.iterations == 0
        assert np.array_equal(r.x, np.zeros(shape[1]))
        assert r.residual_norm == np.linalg.norm(b)

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


    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": float("nan")}, "tol must be >= 0"),
        ({"tol": -1e-3}, "tol must be >= 0"),
        ({"max_iter": 2.5}, "max_iter must be an integer >= 0"),
        ({"max_iter": -1}, "max_iter must be an integer >= 0"),
        ({"start": [2]}, "start must be"),
        ({"start": [-1]}, "start must be"),
        ({"start": [1, 1]}, "start must be"),
        ({"start": []}, "start must be"),
        ({"start": [0.0]}, "start must be"),
        ({"start": [[0]]}, "start must be"),
    ], ids=["nan-tol", "negative-tol", "fractional-max-iter", "negative-max-iter",
            "start-past-end", "start-negative", "start-repeated", "start-empty",
            "start-float", "start-2d"])
    def test_bad_parameters_rejected(self, kwargs, match):
        # a NaN tol used to return x = 0 with converged=True
        with pytest.raises(ValueError, match=match):
            nnls(np.eye(2), np.array([1.0, 2.0]), **kwargs)


SQUARE_SAMPLES = Region.from_box([(0.0, 1.0), (0.0, 1.0)], resolution=0.025).sample_points
SIGNED_ATOMS = [(*SQUARE_SAMPLES[i], w) for i, w in ((200, 0.6), (900, 0.4), (1300, -0.5))]
WORKING_SET_SYSTEMS = {  # name: (moments of x^a y^b, degree)
    "uniform-square": (lambda a, b: 1 / ((a + 1) * (b + 1)), 10),
    "three-atoms": (lambda a, b: sum(w * x**a * y**b for x, y, w in THREE_ATOMS), 8),
    "signed": (lambda a, b: sum(w * x**a * y**b for x, y, w in SIGNED_ATOMS), 8),
}
_full_runs = {}


def working_set_case(name):
    """The system, its tolerance and the run over every column."""
    if name not in _full_runs:
        a, b, tol = square_grid_system(*WORKING_SET_SYSTEMS[name])
        _full_runs[name] = a, b, tol, nnls(a, b, tol=tol)
    return _full_runs[name]


def assert_same_verdict_on_every_column(a, b, tol, r, full):
    """converged, the gradient test on every column and the residual
    verdict of a working-set run, against the run over all columns."""
    assert r.converged and full.converged
    assert_kkt(a, b, r, tol)
    assert (r.residual_norm <= 1e-6) == (full.residual_norm <= 1e-6)


class TestNnlsWorkingSet:
    @pytest.mark.parametrize("name", WORKING_SET_SYSTEMS)
    def test_all_columns_is_the_default(self, name):
        a, b, tol, full = working_set_case(name)
        assert_same_result(nnls(a, b, tol=tol, start=np.arange(a.shape[1])), full)

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(sorted(WORKING_SET_SYSTEMS)),
           start=st.lists(st.integers(0, 1680), min_size=1, max_size=400, unique=True))
    # LH's own residual put a zero column's gradient at tol, a^T (b - a x) 4e-16 above it
    @example(name="uniform-square", start=[235, 634, 1355])
    def test_random_start_reaches_the_same_verdict(self, name, start):
        a, b, tol, full = working_set_case(name)
        assert_same_verdict_on_every_column(a, b, tol, nnls(a, b, tol=tol, start=start), full)

    @pytest.mark.parametrize("name", WORKING_SET_SYSTEMS)
    @pytest.mark.parametrize("start", [
        range(41),  # the grid line x = 0
        [1680],  # the corner (1, 1), away from every atom
    ], ids=["one-grid-row", "far-column"])
    def test_degenerate_start_grows(self, name, start):
        a, b, tol, full = working_set_case(name)
        r = nnls(a, b, tol=tol, start=list(start))
        assert_same_verdict_on_every_column(a, b, tol, r, full)
        assert np.delete(r.x, list(start)).any()  # reached only through growth

    def test_growth_admits_the_largest_violators(self):
        # column 0 cannot enter; of the violators 1, 2 and 3 the m = 2
        # largest join, so column 3 enters, as it does first over every column
        a, b = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0]]), np.array([1.0, 0.0])
        r = nnls(a, b, start=[0])
        assert_same_result(r, nnls(a, b))
        assert r.x[3] > 0 and r.converged

    @pytest.mark.parametrize("seed", range(12))
    def test_dependent_columns_join_once(self, seed):
        # TestNnlsColumns' duplicate columns, started on the independent
        # three, with b off their span: at tol = 0 the copies' rounding-level
        # gradient makes them violators for seeds 3, 5-7, 9 and 10; they join,
        # fail the column test like candidates and are never violators
        # again, so LH stops after the same three steps as over every column
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1.5, size=(6, 3))
        a = np.hstack([c, c, c[:, :1]])
        b = c @ np.array([1.0, 2.0, 0.5]) + 1e-3 * rng.standard_normal(6)
        r, full = nnls(a, b, tol=0.0, start=[0, 1, 2]), nnls(a, b, tol=0.0)
        assert r.converged and r.iterations == full.iterations == 3
        assert np.allclose(r.x, full.x, rtol=1e-12, atol=0)

    def test_max_iter_counts_growth_passes(self):
        # a growth pass is an outer pass of its own, so max_iter = 1 stops
        # after it, before any column of the grown set enters
        a, b = np.eye(3), np.array([0.0, 0.0, 1.0])
        r = nnls(a, b, start=[0], max_iter=1)
        assert not r.converged and not r.x.any()
        assert r.objective_trace == (1.0,)
        r = nnls(a, b, start=[0])
        assert r.converged and np.array_equal(r.x, b)


def recorded_miss():
    data = json.loads((Path(__file__).parent / "data"
                       / "recover_miss_moments.json").read_text())
    return (MomentFunctional.from_json_dict(data),
            Region.from_box([(0.0, 1.0), (0.0, 1.0)], resolution=0.025))


class TestRecovery:
    def test_second_recover_builds_no_monomials(self, monkeypatch):
        k = Region.from_box([(-1, 1), (-1, 1)], resolution=0.1)
        L = uniform_box_moments([(-1, 1), (-1, 1)], 6)
        measure_recover(L, k)
        built = spectrum._monomials.cache_info().misses
        measure_recover(L, k)
        assert spectrum._monomials.cache_info().misses == built

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
        # tolerance of 1e-12 stalled at 1.15e-6.  The moment matrix is flat
        # of rank 7, so the flat rung reads the 7 atoms off it.
        rec = measure_recover(*recorded_miss())
        assert rec.success and rec.converged and rec.support_size == 7

    def test_on_grid_atomic_recorded_miss_by_nnls(self, monkeypatch):
        # The tolerance derived from the residual tolerance lets NNLS alone
        # recover the same data.
        rec = plain_nnls_recover(*recorded_miss(), monkeypatch)
        assert rec.success and rec.converged and rec.support_size > 7

    def test_indefinite_has_no_representation(self):
        k = Region.from_box([(-1, 1)], resolution=0.02)
        rec = measure_recover(indefinite_functional(), k)
        assert not rec.success
        assert rec.residual > 0.1

    @pytest.mark.parametrize("functional, box, resolution", [
        (from_measure(AtomicMeasure.of([(0.5,)], [1.0]), 6), [(-1, 1)], 0.1),
        (uniform_box_moments([(0, 1), (0, 1)], 10), [(0, 1), (0, 1)], 0.025),
        (indefinite_functional(), [(-1, 1)], 0.02),
        # L(1) < 0: NNLS keeps x = 0, so the measure has no atoms
        (MomentFunctional(1, 2, {(0,): -1.0, (1,): 0.0, (2,): 0.0}), [(-1, 1)], 0.1),
    ], ids=["dirac", "uniform-square", "indefinite", "empty-measure"])
    def test_verify(self, functional, box, resolution):
        rec = measure_recover(functional, Region.from_box(box, resolution=resolution))
        assert rec.verify(functional)
        assert not dataclasses.replace(rec, success=not rec.success).verify(functional)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected(self, tol):
        L = from_measure(AtomicMeasure.of([(0.5,)], [1.0]), 4)
        with pytest.raises(ValueError, match="tol must be >= 0"):
            measure_recover(L, Region.from_box([(0, 1)], resolution=0.1), tol)

    def test_huge_total_mass_tolerance(self):
        # tol**2 / (16 L(1)) overflowed 16 L(1) at L(1) = 1e308
        L = MomentFunctional(1, 2, {(0,): 1e308, (1,): 0.0, (2,): 0.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = measure_recover(L, Region.from_box([(-1, 1)], resolution=0.5))
        assert not [w for w in caught if "scalar multiply" in str(w.message)]
        assert rec.verify(L)


def signed_moments(atoms, weights, degree):
    """Moments of sum_j w_j delta(atoms_j), where a weight may be negative."""
    monos = monomials_upto(len(atoms[0]), degree)
    values = np.asarray(weights, dtype=float) @ design_matrix(atoms, monos)
    return MomentFunctional(len(atoms[0]), degree, dict(zip(monos, values.tolist())))


@pytest.fixture
def nnls_calls(monkeypatch):
    """The calls measure_recover makes to nnls, one entry each."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(moments, "nnls", counted)
    return calls


def plain_nnls_recover(functional, region, monkeypatch):
    """measure_recover with the flat rung switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(moments, "_flat_support", lambda *args: None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return measure_recover(functional, region)


UNIT = Region.from_box([(0.0, 1.0)], resolution=0.1)
SQUARE = Region.from_box([(0.0, 1.0), (0.0, 1.0)], resolution=0.025)  # 41 x 41


class TestFlatRung:
    @pytest.mark.parametrize("box, resolution, idx, weights, degree", [
        ([(-1, 1)], 0.1, [15], [1.0], 6),
        ([(0, 1)], 0.01, [30, 31, 70], [0.4, 0.7, 0.2], 8),
        ([(0, 1), (0, 1)], 0.025, [500], [0.3], 6),
        ([(0, 1), (0, 1)], 0.025, [300, 301, 342, 1000, 1500], [0.5, 0.2, 0.9, 0.4, 0.1], 10),
    ], ids=["1d-dirac", "1d-adjacent", "2d-dirac", "2d-adjacent"])
    def test_on_grid_atoms_skip_nnls(self, box, resolution, idx, weights, degree,
                                     nnls_calls):
        k = Region.from_box(box, resolution=resolution)
        mu = AtomicMeasure.of(k.sample_points[idx], weights)
        L = from_measure(mu, degree)
        rec = measure_recover(L, k)
        assert nnls_calls == []
        assert rec.measure.atoms == mu.atoms  # the samples, in sample order
        assert np.allclose(rec.measure.weights, weights, rtol=0, atol=1e-9)
        assert (rec.success, rec.converged, rec.support_size) == (True, True, len(idx))
        assert rec.verify(L)

    @pytest.mark.parametrize("functional, region", [
        (uniform_box_moments([(-1, 1)], 8), Region.from_box([(-1, 1)], resolution=0.02)),
        (uniform_box_moments([(0, 1), (0, 1)], 10), SQUARE),
        (indefinite_functional(), Region.from_box([(-1, 1)], resolution=0.02)),
        (signed_moments(SQUARE.sample_points[[200, 900, 1300]], [0.6, 0.4, -0.5], 8),
         SQUARE),
        (MomentFunctional(1, 2, {(0,): -1.0, (1,): 0.0, (2,): 0.0}), UNIT),
        # lambda_min ~ -3e-8 lambda_max: not PSD, although the Dirac at 0 fits
        # within tol and meets the gradient test on [0, 1]
        (signed_moments([(0.0,), (0.5,)], [1.0, -1e-7], 6), UNIT),
        # flat, but both atoms snap to 0.5
        (signed_moments([(0.52,), (0.54,)], [1.0, 1.0], 6), UNIT),
        # flat, atoms snap to 0.5 and 0.6: the fit gives 0.5 a weight < 0
        (signed_moments([(0.5,), (0.64,)], [0.05, 1.0], 6), UNIT),
        # rank 1 at the cut, so the Dirac at 0.5 fits within tol, but the
        # gradient at 0.7 is ~1e-11, above the NNLS tolerance
        (signed_moments([(0.5,), (0.7,)], [1.0, 1e-10], 6), UNIT),
    ], ids=["uniform-1d", "uniform-2d", "indefinite", "signed-2d", "negative-mass",
            "nearly-signed", "snap-collision", "negative-fit-weight", "kkt-gradient"])
    def test_other_inputs_match_plain_nnls(self, functional, region, nnls_calls,
                                           monkeypatch):
        rec = measure_recover(functional, region)
        assert len(nnls_calls) == 1
        assert repr(rec) == repr(plain_nnls_recover(functional, region, monkeypatch))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_moments_reach_nnls_check(self, bad):
        # the functional itself refuses them, so no rung ever sees one
        with pytest.raises(ValueError, match="finite"):
            measure_recover(MomentFunctional(1, 2, {(0,): 1.0, (1,): bad, (2,): 1.0}),
                            UNIT)

    def test_huge_total_mass_matches_nnls(self, monkeypatch):
        L = MomentFunctional(1, 2, {(0,): 1e308, (1,): 0.0, (2,): 0.0})
        k = Region.from_box([(-1, 1)], resolution=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = measure_recover(L, k)
        assert repr(rec) == repr(plain_nnls_recover(L, k, monkeypatch))


class TestRecoveryWorkingSet:
    @pytest.mark.parametrize("functional, region, uses_start", [
        # (N - 3m) m = (101 - 27) 9 < 2**15: every sample from the start
        (uniform_box_moments([(-1, 1)], 8), Region.from_box([(-1, 1)], resolution=0.02),
         False),
        (uniform_box_moments([(0, 1), (0, 1)], 10), SQUARE, True),
        (uniform_box_moments([(0, 1)] * 3, 6), Region.from_box([(0, 1)] * 3, resolution=0.1),
         True),
        (signed_moments(SQUARE.sample_points[[200, 900, 1300]], [0.6, 0.4, -0.5], 8),
         SQUARE, True),
    ], ids=["uniform-1d", "uniform-2d", "uniform-3d", "signed-2d"])
    def test_verdicts_match_a_run_over_every_sample(self, functional, region, uses_start,
                                                    monkeypatch):
        starts = []

        def recorded(*args, start=None, **kwargs):
            starts.append(start)
            return nnls(*args, start=start, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(moments, "nnls", recorded)
            rec = measure_recover(functional, region)
        assert len(starts) == 1 and (starts[0] is not None) == uses_start
        with monkeypatch.context() as patch:
            patch.setattr(moments, "nnls",
                          lambda *args, start=None, **kwargs: nnls(*args, **kwargs))
            full = measure_recover(functional, region)
        assert (rec.success, rec.converged) == (full.success, full.converged)
        assert rec.verify(functional)
        samples = {tuple(p) for p in region.sample_points.tolist()}
        assert all(atom in samples for atom in rec.measure.atoms)
        assert all(w > 0 for w in rec.measure.weights)

    @pytest.mark.parametrize("degree", [6, 8, 10])
    def test_start_is_spread_over_the_grid(self, degree, monkeypatch):
        # 3m distinct samples of the 41 x 41 grid that no family of parallel
        # lines p row + q col = const, |p|, |q| <= 3, covers with fewer than
        # 30 lines.  Evenly spaced indices (np.linspace) fit on 9 lines at
        # D = 6, a stride of 1681 // 3m on 5 to 13.
        starts = []
        monkeypatch.setattr(moments, "nnls",
                            lambda *args, start=None, **kwargs: starts.append(start)
                            or nnls(*args, start=start, **kwargs))
        measure_recover(uniform_box_moments([(0, 1), (0, 1)], degree), SQUARE)
        (start,) = starts
        assert len(start) == 3 * len(monomials_upto(2, degree)) == len(set(start.tolist()))
        rows, cols = np.divmod(start, 41)
        for p, q in itertools.product(range(4), range(-3, 4)):
            if (p, q) > (0, 0):
                assert len(set((p * rows + q * cols).tolist())) >= 30, (p, q)


@pytest.fixture(scope="module")
def wide_box_recovery():
    L = uniform_box_moments([(0, 2), (0, 1)], 10)
    return L, measure_recover(L, Region.from_box([(0, 2), (0, 1)], resolution=0.025))


class TestWideBoxBreakdown:
    """Uniform moments of [0, 2] x [0, 1] at resolution 0.025, D = 10: NNLS
    reaches its iteration cap without meeting the KKT test, while the
    residual still verifies."""

    def test_success_verifies(self, wide_box_recovery):
        L, rec = wide_box_recovery
        assert rec.success and rec.verify(L)

    @pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: nnls cycles without "
                       "converging on uniform moments of [0, 2] x [0, 1] at resolution "
                       "0.025, D = 10")
    def test_converged(self, wide_box_recovery):
        assert wide_box_recovery[1].converged


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_measure_moments_are_hankel_psd(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    atoms = rng.uniform(-1.5, 1.5, size=(m, 1))
    weights = rng.uniform(0, 2, size=m)
    L = from_measure(AtomicMeasure.of(atoms, weights), 6)
    assert hankel_psd_check(L).psd
