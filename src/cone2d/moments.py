"""Truncated moment functionals: positivity checks, norm-continuity
constants, and desk-scale recovery of representing atomic measures by
nonnegative least squares on a region's sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .norms import Region, WeightFunction
from .poly import Polynomial, _wire_int, design_matrix
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
        moments = {}
        for entry in data["moments"]:
            exp = tuple(_wire_int(e, "exponent") for e in entry["exp"])
            if exp in moments:
                raise ValueError(f"duplicate moment exponent {list(exp)}")
            moments[exp] = float(entry["val"])
        return cls(_wire_int(data["n"], "variable count n"),
                   _wire_int(data["D"], "degree D"), moments)


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
    size = len(monos)
    mat = np.empty((size, size))
    for i, s in enumerate(monos):
        for j, t in enumerate(monos):
            mat[i, j] = functional.moments[tuple(a + b for a, b in zip(s, t))]
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
    monos = monomials_upto(functional.n, min(h_degree, 1))
    net_values = [-1.0, -0.5, 0.0, 0.5, 1.0]
    candidates = []
    if len(monos) <= 4:
        grids = np.meshgrid(*[net_values] * len(monos), indexing="ij")
        for combo in np.stack([g.ravel() for g in grids], axis=-1):
            candidates.append({exp: float(c) for exp, c in zip(monos, combo)
                               if c != 0.0})
    all_monos = monomials_upto(functional.n, h_degree)
    for _ in range(trials):
        coeffs = rng.standard_normal(len(all_monos))
        candidates.append({exp: float(c) for exp, c in zip(all_monos, coeffs)})

    count = 0
    for terms in candidates:
        if not terms:
            continue
        count += 1
        h = Polynomial(functional.n, terms)
        val = functional(h ** (2 * d))
        if val < -tol:
            return PowerVerdict(False, h, val, count)
    return PowerVerdict(True, None, None, count)


class ContinuityReport(NamedTuple):
    """Duality constant C_D = max |L(X^s)| / w(s) and its growth table;
    guarantees |L(f)| <= C_D * ||f||_phi for deg f <= D."""

    constant: float
    table: tuple  # C_0 <= C_1 <= ... <= C_D


def phi_continuity(functional: MomentFunctional,
                   phi: WeightFunction) -> ContinuityReport:
    if functional.n != phi.n:
        raise ValueError(f"variable count mismatch: {functional.n} vs {phi.n}")
    table = []
    best = 0.0
    for k in range(functional.degree + 1):
        for exp in monomials_upto(functional.n, k):
            if sum(exp) != k:
                continue
            w = phi(exp)
            if w <= 0:
                raise ValueError(f"weight vanishes at exponent {list(exp)}")
            best = max(best, abs(functional.moments[exp]) / w)
        table.append(best)
    return ContinuityReport(table[-1], tuple(table))


class NNLSResult(NamedTuple):
    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    objective_trace: tuple = ()  # ||Ax - b|| after each outer pass


def nnls(a: np.ndarray, b: np.ndarray, tol: float = 1e-10,
         max_iter: int | None = None) -> NNLSResult:
    """Lawson-Hanson active-set solution of min ||Ax - b|| s.t. x >= 0.

    On convergence the KKT conditions hold: the gradient component is
    >= -tol on the active (zero) set and within tol on the passive set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, ncols = a.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: A is {a.shape}, b is {b.shape}")
    if max_iter is None:
        max_iter = 3 * ncols

    x = np.zeros(ncols)
    passive = np.zeros(ncols, dtype=bool)
    resid = b.copy()
    iterations = 0
    trace = [float(np.linalg.norm(resid))]
    for _ in range(max_iter):
        w = a.T @ resid  # negative gradient
        inactive = ~passive
        if not inactive.any() or np.max(w[inactive], initial=-np.inf) <= tol:
            break
        j = int(np.argmax(np.where(inactive, w, -np.inf)))
        passive[j] = True
        while True:
            iterations += 1
            idx = np.flatnonzero(passive)
            z = np.zeros(ncols)
            sol, _, _, _ = np.linalg.lstsq(a[:, idx], b, rcond=None)
            z[idx] = sol
            if np.all(z[idx] > 0):
                x = z
                break
            # Line search back toward feasibility, then shrink the set.
            mask = passive & (z <= 0)
            alphas = x[mask] / (x[mask] - z[mask])
            alpha = np.min(alphas)
            x = x + alpha * (z - x)
            passive[x <= tol] = False
            x[~passive] = 0.0
        resid = b - a @ x
        trace.append(float(np.linalg.norm(resid)))
    else:
        return NNLSResult(x, float(np.linalg.norm(resid)), False, iterations,
                          tuple(trace))
    return NNLSResult(x, float(np.linalg.norm(resid)), True, iterations,
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
    result = nnls(a, b, tol=1e-12)
    keep = result.x > 0
    measure = AtomicMeasure.of(atoms[keep], result.x[keep])
    return RecoveryResult(measure, result.residual_norm,
                          measure.support_size(), result.converged,
                          result.residual_norm <= tol)
