"""Truncated moment functionals: positivity checks, norm-continuity
constants, and desk-scale recovery of representing atomic measures by
nonnegative least squares on a region's sample grid.
"""

from __future__ import annotations

import itertools
import math
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
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
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


def _moment_matrix(functional: MomentFunctional, monos: list) -> np.ndarray:
    """M[s, t] = L(X^(s+t)) over the given monomials."""
    return np.array([[functional.moments[tuple(map(operator.add, s, t))] for t in monos]
                     for s in monos], dtype=float)


def hankel_psd_check(functional: MomentFunctional, tol: float = 1e-10) -> PsdVerdict:
    """Eigenvalue test of the moment matrix M[s, t] = L(X^(s+t)) over
    |s|, |t| <= floor(D/2)."""
    if functional.degree < 2:
        raise ValueError("hankel check needs degree >= 2")
    half = functional.degree // 2
    monos = monomials_upto(functional.n, half)
    mat = _moment_matrix(functional, monos)
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


def _power_rows(rows: np.ndarray, n: int, degree: int, d: int) -> np.ndarray:
    """Coefficient rows of p**d over monomials_upto(n, d * degree), for each
    row p of coefficients over monomials_upto(n, degree)."""
    out = rows
    for k in range(2, d + 1):
        column = {e: i for i, e in enumerate(monomials_upto(n, k * degree))}
        prev, new = monomials_upto(n, (k - 1) * degree), np.zeros((len(rows), len(column)))
        for j, t in enumerate(monomials_upto(n, degree)):  # s -> s + t is one to one
            cols = [column[tuple(map(operator.add, s, t))] for s in prev]
            new[:, cols] += out * rows[:, j, None]
        out = new
    return out


def power_psd_check(functional: MomentFunctional, d: int, trials: int = 50,
                    seed: int = 0, tol: float = 1e-9) -> PowerVerdict:
    """Sample h of admissible degree (seeded random plus a small dyadic
    net at low degree) and test L(h**(2d)) >= -tol.

    Every candidate is screened at once: with g = h**d and M[s, t] =
    L(X^(s+t)) over the monomials of degree <= d * deg h, L(h**(2d)) is
    g^T M g, one einsum over the stacked rows of g.  Walking the candidates
    in order, each one screened below -tol + delta, delta = c |g|^T |M| |g|
    (|g| the coefficients of |h|**d), is recomputed as functional(h ** (2d))
    and the first recomputed value below -tol is returned.  c bounds the
    rounding of both computations, so the verdict, the trial count and the
    value are those of recomputing every candidate.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    h_degree = functional.degree // (2 * d)
    if h_degree < 1:
        raise ValueError(
            f"degree budget exhausted: D = {functional.degree} admits no "
            f"nonconstant h with deg(h**{2 * d}) <= D"
        )
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    n = functional.n
    monos = monomials_upto(n, h_degree)  # graded: the degree <= 1 monomials come first
    net = [c for c in itertools.product([-1.0, -0.5, 0.0, 0.5, 1.0], repeat=n + 1)
           if any(c)] if n + 1 <= 4 else []
    rows = np.zeros((len(net) + trials, len(monos)))
    rows[:len(net), :n + 1] = np.reshape(net, (len(net), n + 1))
    rows[len(net):] = np.random.default_rng(seed).standard_normal((trials, len(monos)))
    g, g_abs = _power_rows(rows, n, h_degree, d), _power_rows(abs(rows), n, h_degree, d)
    m = _moment_matrix(functional, monomials_upto(n, d * h_degree))
    values = np.einsum("is,st,it->i", g, m, g)
    # Each screened value and each recomputed one rounds within gamma_K
    # |g|^T |M| |g| (Higham, ch. 3), K = L**2 + (4d + 1) L + 1 with L = C(n + D, n)
    # the largest term count: the einsum sums at most L**2 triple products of
    # g, formed in d - 1 products of at most L-term sums, while h ** (2d)
    # takes at most 2 (d + 1) such products and functional() one more L-term
    # sum.  c = gamma_2K' with K' = (L + 1)(L + 4d + 4) >= K also covers the
    # rounding of delta itself and of delta - tol.
    big = math.comb(n + functional.degree, n)
    k = (big + 1) * (big + 4 * d + 4) * np.finfo(float).eps  # 2K' u, u = eps / 2
    delta = k / (1 - k) * np.einsum("is,st,it->i", g_abs, abs(m), g_abs)
    for i in np.flatnonzero(~(values >= delta - tol)):  # NaN is recomputed too
        h = Polynomial(n, dict(zip(monos, rows[i].tolist())))
        val = functional(h ** (2 * d))
        if val < -tol:
            return PowerVerdict(False, h, val, int(i) + 1)
    return PowerVerdict(True, None, None, len(rows))


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

    The passive set is the prefix passive[:k] of an index array, in entry
    order; its least squares runs on a QR factorization updated as columns
    enter and leave, one triangular solve per inner step.  A column whose new
    |R[k, k]| is <= eps * m * ||a_j|| depends numerically on the passive ones
    and is not admitted for that outer pass.  On convergence the KKT conditions
    hold: the gradient is >= -tol on the active (zero) set and within tol on
    the passive set.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, ncols = a.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: A is {a.shape}, b is {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")  # the updates skip this check
    max_iter = 3 * ncols if max_iter is None else max_iter

    at, x = np.ascontiguousarray(a.T), np.zeros(ncols)
    passive, k = np.empty(min(m, ncols), dtype=np.intp), 0
    q, r = np.eye(m), np.empty((m, 0))
    eps_m, tiny = np.finfo(float).eps * m, np.finfo(float).tiny
    resid, iterations, converged = b, 0, ncols == 0
    trace = [float(np.linalg.norm(b))]
    for _ in range(max_iter):
        w = at @ resid  # negative gradient
        w[passive[:k]] = -np.inf
        while k < len(passive) and w[j := int(w.argmax())] > tol:
            q, r = qr_insert(q, r, at[j], k, "col", overwrite_qru=True, check_finite=False)
            if abs(r[k, k]) > eps_m * math.sqrt(at[j].dot(at[j])):  # = norm(at[j])
                break
            r, w[j] = r[:, :k], -np.inf  # Q still factors the first k
        else:
            converged = True
            break
        passive[k], k = j, k + 1
        while True:
            iterations += 1
            if not k:  # rounding at tol 0 can drop every column in the line search
                break
            z = lapack.dtrtrs(r[:k, :k], q[:, :k].T @ b)[0]
            if z.min() > 0:
                x[passive[:k]] = z
                break
            xp, neg = x[passive[:k]], (z <= 0).nonzero()[0]
            steps = xp[neg] / np.maximum(xp[neg] - z[neg], tiny)  # to feasibility; 0/0 is 0
            xp += steps.min() * (z - xp)
            xp[neg[steps.argmin()]] = 0.0  # the blocking column
            x[passive[:k]] = xp
            for i in (xp <= tol).nonzero()[0][::-1]:
                q, r = qr_delete(q, r, i, which="col", overwrite_qr=True, check_finite=False)
                x[passive[i]] = 0.0
                passive[i:k - 1], k = passive[i + 1:k], k - 1
        resid = b - x[passive[:k]] @ at[passive[:k]]
        trace.append(math.sqrt(resid.dot(resid)))  # = norm(resid)
    return NNLSResult(x, trace[-1], converged, iterations, tuple(trace))


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
    tol: float = 1e-6  # success means residual <= tol

    def verify(self, functional: MomentFunctional) -> bool:
        """True when ``success`` states whether the measure's own moments,
        recomputed by ``from_measure`` apart from NNLS, match L within tol."""
        monos = monomials_upto(functional.n, functional.degree)
        got = from_measure(self.measure, functional.degree).moments if self.measure.atoms else {}
        gap = np.array([got.get(e, 0.0) - functional.moments[e] for e in monos])
        return self.success == bool(np.linalg.norm(gap) <= self.tol)


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
    result = nnls(a, b, tol=min(1e-12, tol**2 / 16 / b[0]) if b[0] > 0 else 1e-12)
    keep = result.x > 0
    measure = AtomicMeasure.of(atoms[keep], result.x[keep])
    return RecoveryResult(measure, result.residual_norm,
                          measure.support_size(), result.converged,
                          result.residual_norm <= tol, tol)
