"""Truncated moment functionals: positivity checks, norm-continuity
constants, and desk-scale recovery of representing atomic measures by
nonnegative least squares on a region's sample grid.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack, qr_delete, qr_insert

from .norms import Region, WeightFunction
from .poly import Polynomial, _wire_entries, _wire_int, _wire_real, design_matrix
from .spectrum import monomials_upto

# The monomial moment matrix conditions badly past this degree.
MAX_RECOMMENDED_DEGREE = 12


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported nonnegative measure: the desk-scale surrogate
    for representing Borel measures."""

    atoms: tuple  # of point tuples
    weights: tuple  # of nonnegative floats

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must have equal length")
        for w in self.weights:
            if w < 0:
                raise ValueError(f"negative weight {w}")

    @classmethod
    def of(cls, atoms, weights) -> "AtomicMeasure":
        return cls(tuple(tuple(float(v) for v in a) for a in atoms),
                   tuple(float(w) for w in weights))

    @property
    def total_mass(self) -> float:
        return sum(self.weights)

    def support_size(self, tol: float = 0.0) -> int:
        return sum(1 for w in self.weights if w > tol)


@dataclass(frozen=True)
class MomentFunctional:
    """Linear functional on polynomials of degree <= D, given by its
    values on monomials."""

    n: int
    degree: int
    moments: dict = field(compare=False)  # exponent tuple -> L(X^s)

    def __post_init__(self):
        needed = monomials_upto(self.n, self.degree)
        missing = [s for s in needed if s not in self.moments]
        if missing:
            raise ValueError(f"incomplete moment data: missing {missing[:3]}...")

    def __call__(self, f: Polynomial) -> float:
        if f.n != self.n:
            raise ValueError(f"variable count mismatch: {f.n} vs {self.n}")
        if f.degree() > self.degree:
            raise ValueError(
                f"degree {f.degree()} exceeds functional's bound {self.degree}"
            )
        return sum(float(c) * self.moments[exp] for exp, c in f.terms.items())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "D": self.degree,
                "moments": [{"exp": list(k), "val": v}
                            for k, v in sorted(self.moments.items())]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentFunctional":
        return cls(_wire_int(data["n"], "variable count n"),
                   _wire_int(data["D"], "degree D"),
                   _wire_entries(data["moments"], "val", _wire_real))


def from_measure(mu: AtomicMeasure, degree: int) -> MomentFunctional:
    """Moments of an atomic measure: L(X^s) = sum_j w_j * atom_j**s."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if not mu.atoms:
        raise ValueError("measure has no atoms")
    n = len(mu.atoms[0])
    monos = monomials_upto(n, degree)
    values = np.asarray(mu.weights) @ design_matrix(mu.atoms, monos)
    return MomentFunctional(n, degree, dict(zip(monos, values.tolist())))


def uniform_box_moments(box, degree: int) -> MomentFunctional:
    """Exact moments of the normalized uniform density on a box."""
    n = len(box)
    moments = {}
    for exp in monomials_upto(n, degree):
        v = 1.0
        for (lo, hi), e in zip(box, exp):
            if hi == lo:
                v *= lo**e
            else:
                v *= (hi ** (e + 1) - lo ** (e + 1)) / ((e + 1) * (hi - lo))
        moments[exp] = v
    return MomentFunctional(n, degree, moments)


class PsdVerdict(NamedTuple):
    """Positive-semidefiniteness verdict, with a witness h when it fails
    (a polynomial with L(h**(2d)) < 0)."""

    psd: bool
    min_eigenvalue: float
    witness: Polynomial | None


def hankel_psd_check(functional: MomentFunctional, tol: float = 1e-10) -> PsdVerdict:
    """Eigenvalue test of the moment matrix M[s, t] = L(X^(s+t)) over
    |s|, |t| <= floor(D/2)."""
    if functional.degree < 2:
        raise ValueError("hankel check needs degree >= 2")
    half = functional.degree // 2
    monos = monomials_upto(functional.n, half)
    mat = np.array([[functional.moments[tuple(map(operator.add, s, t))] for t in monos]
                    for s in monos], dtype=float)
    eigvals, eigvecs = np.linalg.eigh(mat)
    min_eig = float(eigvals[0])
    threshold = -tol * (1 + float(np.max(np.abs(mat))))
    if min_eig >= threshold:
        return PsdVerdict(True, min_eig, None)
    vec = eigvecs[:, 0]
    witness = Polynomial(functional.n,
                         {exp: float(c) for exp, c in zip(monos, vec)})
    return PsdVerdict(False, min_eig, witness)


class PowerVerdict(NamedTuple):
    """One-sided sampling verdict for L(h**(2d)) >= 0: only a failure
    (an explicit counterexample h) is conclusive."""

    consistent: bool
    counterexample: Polynomial | None
    counterexample_value: float | None
    trials: int


def power_psd_check(functional: MomentFunctional, d: int, trials: int = 50,
                    seed: int = 0, tol: float = 1e-9) -> PowerVerdict:
    """Sample h of admissible degree (seeded random plus a small dyadic
    net at low degree) and test L(h**(2d)) >= -tol."""
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


class ContinuityReport(NamedTuple):
    """Duality constant C_D = max |L(X^s)| / w(s) and its growth table;
    guarantees |L(f)| <= C_D * ||f||_phi for deg f <= D."""

    constant: float
    table: tuple  # C_0 <= C_1 <= ... <= C_D


def phi_continuity(functional: MomentFunctional,
                   phi: WeightFunction) -> ContinuityReport:
    if functional.n != phi.n:
        raise ValueError(f"variable count mismatch: {functional.n} vs {phi.n}")
    table = [0.0] * (functional.degree + 1)  # max over each degree, then a running max
    for exp in monomials_upto(functional.n, functional.degree):
        if (w := phi(exp)) <= 0:
            raise ValueError(f"weight vanishes at exponent {list(exp)}")
        table[sum(exp)] = max(table[sum(exp)], abs(functional.moments[exp]) / w)
    table = tuple(itertools.accumulate(table, max))
    return ContinuityReport(table[-1], table)


class NNLSResult(NamedTuple):
    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    objective_trace: tuple = ()  # ||Ax - b|| after each outer pass


def nnls(a: np.ndarray, b: np.ndarray, tol: float = 1e-10,
         max_iter: int | None = None) -> NNLSResult:
    """Lawson-Hanson active-set solution of min ||Ax - b|| s.t. x >= 0.

    The passive columns' least squares runs on a QR factorization updated
    as columns enter and leave, one triangular solve per inner step.  A
    column whose new |R[k, k]| is <= eps * m * ||a_j|| depends numerically
    on the passive ones and is not admitted for that outer pass.  On
    convergence the KKT conditions hold: the gradient component is >= -tol
    on the active (zero) set and within tol on the passive set.
    """
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


@dataclass
class RecoveryResult:
    """Atomic surrogate for a representing measure, with the moment-match
    residual.  A residual bounded away from zero flags that no measure on
    the grid (and likely none on the region) represents the functional."""

    measure: AtomicMeasure
    residual: float
    support_size: int
    converged: bool
    success: bool


def measure_recover(functional: MomentFunctional, region: Region,
                    tol: float = 1e-6) -> RecoveryResult:
    """Nonnegative least squares fit of grid-atom weights to the moments."""
    if functional.n != region.n:
        raise ValueError(f"variable count mismatch: {functional.n} vs {region.n}")
    if functional.degree > MAX_RECOMMENDED_DEGREE:
        import warnings

        warnings.warn(
            f"moment degree {functional.degree} > {MAX_RECOMMENDED_DEGREE}: "
            "the monomial system may be too ill-conditioned to trust",
            stacklevel=2,
        )
    atoms = region.sample_points
    if atoms is None or atoms.shape[0] == 0:
        raise ValueError("region has no sample points")
    monos = monomials_upto(functional.n, functional.degree)
    a = design_matrix(atoms, monos).T
    b = np.array([functional.moments[exp] for exp in monos])
    # Row 0 of a is all ones, so ||x||_1 = L(1) = b[0] for x >= 0: a gradient
    # below tol**2 / (16 L(1)) leaves a residual below tol where an x* >= 0 fits.
    result = nnls(a, b, tol=min(1e-12, tol**2 / (16 * b[0])) if b[0] > 0 else 1e-12)
    keep = result.x > 0
    measure = AtomicMeasure.of(atoms[keep], result.x[keep])
    return RecoveryResult(measure, result.residual_norm,
                          measure.support_size(), result.converged,
                          result.residual_norm <= tol)
