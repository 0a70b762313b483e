"""Truncated moment functionals: positivity checks, norm-continuity
constants, and desk-scale recovery of representing atomic measures on a
region's sample grid, read off a flat moment matrix or fitted by
nonnegative least squares.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .norms import Region, WeightFunction
from .poly import Polynomial, _wire_entries, _wire_int, _wire_object, _wire_real, design_matrix
from .spectrum import monomials_upto

# The monomial moment matrix conditions badly past this degree.
MAX_RECOMMENDED_DEGREE = 12
# Moment-matrix eigenvalues within this fraction of the largest count as zero.
FLAT_RANK_TOL = 1e-9
GOLDEN = (math.sqrt(5) - 1) / 2
_qr_insert = _qr_delete = None  # scipy.linalg's QR updates; nnls sets those still None


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
            if not w >= 0:
                raise ValueError(f"weights must be >= 0, got {w}")
        if not all(math.isfinite(v) for a in self.atoms for v in a):
            raise ValueError("atom coordinates must be finite")

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
        if self.n < 1:
            raise ValueError(f"variable count must be >= 1, got {self.n}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        needed = monomials_upto(self.n, self.degree)
        missing = [s for s in needed if s not in self.moments]
        if missing:
            raise ValueError(f"incomplete moment data: missing {missing[:3]}...")
        if not all(math.isfinite(v) for v in self.moments.values()):
            raise ValueError("moments must be finite")

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
        data = _wire_object(data, "moment functional")
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
    """M[s, t] = L(X^(s+t)) over the given monomials.  Each exponent packs
    into one integer, its entries as digits in a base above every entry of
    s + t, so the key of s + t is the sum of two keys and every distinct
    s + t is looked up in L once, through the table of key sums."""
    n = functional.n
    exps = np.array(monos, dtype=np.int64).reshape(len(monos), n)
    base = 2 * int(exps.max(initial=0)) + 1
    dtype = np.int64 if base**n < 2**63 else object  # object: Python ints
    digits = np.array([base**i for i in range(n - 1, -1, -1)], dtype=dtype)
    keys = exps.astype(dtype) @ digits
    distinct, table = np.unique(keys[:, None] + keys, return_inverse=True)
    sums = (distinct[:, None] // digits % base).tolist()
    values = np.array([functional.moments[tuple(e)] for e in sums], dtype=float)
    return values[table.reshape(len(monos), len(monos))]


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
         max_iter: int | None = None, *, start=None) -> NNLSResult:
    """Lawson-Hanson active-set solution of min ||Ax - b|| s.t. x >= 0.

    The passive set is the prefix passive[:k] of an index array, in entry
    order; its least squares runs on a QR factorization that scipy's unbatched
    qr_insert/qr_delete kernels update as columns enter and leave, one
    triangular solve per inner step.  A column whose new |R[k, k]| is
    <= eps * m * ||a_j|| depends numerically on the passive ones and is not
    admitted for that outer pass.  On convergence the KKT conditions hold:
    the gradient is >= -tol where x = 0 and within tol on the passive set.
    LH's residual sums over the passive columns only, so before it stops the
    gradient is taken again as a^T (b - a x) on the returned x, and a column
    over tol there, not passive and not refused by the column test in that
    pass, is a violator: LH goes on with that gradient.
    ``start`` (distinct column indices) is a working set of entering columns;
    when none can enter, the m columns of largest gradient above tol join it,
    keeping Q R, the passive set and x, and where there are none LH stops.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, ncols = a.shape
    if b.shape != (m,):
        raise ValueError(f"shape mismatch: A is {a.shape}, b is {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")  # the updates skip this check
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    max_iter = 3 * ncols if max_iter is None else max_iter
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    cand = np.arange(ncols) if start is None else np.asarray(start)
    if start is not None and not (cand.ndim == 1 and cand.size and cand.dtype.kind in "iu"
                                  and len(np.unique(cand)) == cand.size
                                  and 0 <= cand.min() and cand.max() < ncols):
        raise ValueError("start must be distinct column indices in [0, ncols), at least one")

    global _qr_insert, _qr_delete  # scipy.linalg loads on the first NNLS: most commands solve none
    from scipy.linalg import lapack, qr_delete, qr_insert
    # scipy >= 1.15 wraps the QR updates in a functools.wraps batch dispatch whose 2-D
    # branch is `return f(*arrays, *other_args, **kwargs)` (_apply_over_batch): call f.
    _qr_insert = _qr_insert or getattr(qr_insert, "__wrapped__", qr_insert)
    _qr_delete = _qr_delete or getattr(qr_delete, "__wrapped__", qr_delete)
    at, x, kmax = a.T[cand], np.zeros(len(cand)), min(m, ncols)  # at: C-contiguous
    passive, k = np.empty(kmax, dtype=np.intp), 0
    q, r = np.eye(m), np.empty((m, 0))
    eps_m, tiny = np.finfo(float).eps * m, np.finfo(float).tiny
    resid, iterations, converged = b, 0, ncols == 0
    trace, full, kkt = [float(np.linalg.norm(b))], np.zeros(ncols), None
    for _ in range(max_iter):
        w = at @ resid if kkt is None else kkt[cand]  # negative gradient
        kkt = None
        w[passive[:k]] = -np.inf
        while k < kmax and w[j := int(w.argmax())] > tol:
            col = at[j]
            q, r = _qr_insert(q, r, col, k, "col", overwrite_qru=True, check_finite=False)
            if abs(r[k, k]) > eps_m * math.sqrt(col.dot(col)):  # = norm(col)
                break
            r, w[j] = r[:, :k], -np.inf  # Q still factors the first k
        else:
            if k < kmax and len(cand) < ncols:  # the KKT test on every column
                g = resid @ a
                g[cand] = -np.inf
                if (new := (g > tol).nonzero()[0]).size:
                    new = new[np.argsort(g[new])[-m:]]
                    cand, at, x = np.r_[cand, new], np.r_[at, a.T[new]], np.r_[x, 0.0 * new]
                    continue
            full[cand] = x
            kkt = a.T @ (b - a @ full)
            kkt[cand[np.isneginf(w)]] = -np.inf  # passive, or failed the column test
            if k < kmax and (new := (kkt > tol).nonzero()[0]).size:
                new = np.setdiff1d(new, cand)
                cand, at, x = np.r_[cand, new], np.r_[at, a.T[new]], np.r_[x, 0.0 * new]
                continue
            converged = True
            break
        passive[k], k = j, k + 1
        while True:
            iterations += 1
            if not k:  # rounding at tol 0 can drop every column in the line search
                break
            p, z = passive[:k], lapack.dtrtrs(r[:k, :k], q[:, :k].T @ b)[0]
            if np.minimum.reduce(z) > 0:  # ndarray.min goes through Python
                x[p] = z
                break
            xp, neg = x[p], (z <= 0).nonzero()[0]
            steps = xp[neg] / np.maximum(xp[neg] - z[neg], tiny)  # to feasibility; 0/0 is 0
            xp += steps[s := steps.argmin()] * (z - xp)
            xp[neg[s]] = 0.0  # the blocking column
            x[p] = xp
            for i in (xp <= tol).nonzero()[0][::-1].tolist():
                q, r = _qr_delete(q, r, i, which="col", overwrite_qr=True, check_finite=False)
                x[passive[i]] = 0.0
                passive[i:k - 1], k = passive[i + 1:k], k - 1
        resid = b - x[passive[:k]] @ at[passive[:k]]
        trace.append(math.sqrt(resid.dot(resid)))  # = norm(resid)
    full[cand] = x
    return NNLSResult(full, trace[-1], converged, iterations, tuple(trace))


@dataclass
class RecoveryResult:
    """Atomic surrogate for a representing measure, with the moment-match
    residual.  A residual bounded away from zero shows only that no nonnegative
    combination of grid atoms matches the moments.

    When the moment matrix is flat its atoms are read off it and their weights
    fitted by least squares; that result is returned only if it is one NNLS
    could stop at (weights > 0, residual <= tol, gradient within the NNLS
    tolerance on every grid atom), so ``converged`` means the same either way.
    Otherwise the result is NNLS's."""

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


def _flat_support(functional: MomentFunctional, samples: np.ndarray,
                  monos: list) -> np.ndarray | None:
    """Indices of the samples nearest the atoms of a flat moment matrix, in
    increasing order, or None when the matrix is not flat.

    With t = floor(D/2), M_t over the first C(n + t, n) of the graded
    ``monos`` factors as V V^T (eigenvalues within FLAT_RANK_TOL * lambda_max
    count as zero).  It is flat when its rank r equals that of M_(t-1), the
    leading block V_low V_low^T; then L on degree <= 2t is an r-atomic
    measure (Curto & Fialkow 1996) and V_low^+ V_i, with V_i the rows of V
    at s + e_i for the s of degree < t, are the multiplication matrices:
    symmetric, with the atoms' i-th coordinates as their common eigenvalues
    (Henrion & Lasserre 2005).  Each atom is snapped to its nearest sample;
    two atoms on one sample give None."""
    n, t = functional.n, functional.degree // 2
    if t < 1:
        return None
    low, high = math.comb(n + t - 1, n), math.comb(n + t, n)
    mat = _moment_matrix(functional, monos[:high])
    lam, u = np.linalg.eigh(mat)
    cut = FLAT_RANK_TOL * lam[-1]
    r = int(np.count_nonzero(lam > cut))
    if not lam[0] >= -cut or not 0 < r <= low:  # not PSD, or too many atoms
        return None
    v = u[:, high - r:] * np.sqrt(lam[high - r:])
    w, sigma, zt = np.linalg.svd(v[:low], full_matrices=False)
    if not sigma[-1] ** 2 > cut:  # rank M_(t-1) < r
        return None
    pinv = (zt.T / sigma) @ w.T
    row = {s: i for i, s in enumerate(monos[:high])}
    mult = [pinv @ v[[row[s[:i] + (s[i] + 1,) + s[i + 1:]] for s in monos[:low]]]
            for i in range(n)]
    # Golden-ratio weights: no two lattice atoms share the combination.
    mix = sum(m * GOLDEN**i for i, m in enumerate(mult))
    q = np.linalg.eigh(mix + mix.T)[1]
    points = np.column_stack([np.einsum("ij,ik,kj->j", q, m, q) for m in mult])
    idx = {int(np.argmin(((samples - p) ** 2).sum(axis=1))) for p in points}
    return np.array(sorted(idx)) if len(idx) == r else None


def measure_recover(functional: MomentFunctional, region: Region,
                    tol: float = 1e-6) -> RecoveryResult:
    """Atomic measure on the region's samples whose moments fit L's.

    A flat moment matrix gives its atoms directly (``_flat_support``), with
    weights fitted by least squares on their design columns.  That fit is
    kept when every weight is > 0, the residual is <= tol and the gradient
    a^T (b - a x) on every sample is within the NNLS tolerance below, where
    NNLS itself stops.  Every other input, and every flat one that misses a
    check, goes to nonnegative least squares, started on a working set of 3m
    of the N samples (m moments) where (N - 3m) m >= 2**15.  It stops on the
    KKT test over all samples, so only which fitting measure it returns can
    differ from a run over all of them.
    """
    if functional.n != region.n:
        raise ValueError(f"variable count mismatch: {functional.n} vs {region.n}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
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
    kkt_tol = min(1e-12, tol**2 / 16 / b[0]) if b[0] > 0 else 1e-12
    support = _flat_support(functional, atoms, monos)
    if support is not None:
        a_s = a[:, support]
        x = np.linalg.lstsq(a_s, b)[0]
        # One refinement step: the gradient test below sits near rounding level.
        x += np.linalg.lstsq(a_s, b - a_s @ x)[0]
        resid = b - a_s @ x
        residual = math.sqrt(resid.dot(resid))
        if x.min() > 0 and residual <= tol and (resid @ a).max() <= kkt_tol:
            return RecoveryResult(AtomicMeasure.of(atoms[support], x), residual,
                                  len(x), True, True, tol)
    # Golden-ratio steps through the sample order leave gaps of two or three
    # lengths, so on a grid the set does not fall on a few lines, as strides do.
    # Below 2**15 multiply-adds saved per gradient the growth rounds cost more.
    start = (np.unique((np.arange(3 * len(monos)) * GOLDEN % 1 * len(atoms)).astype(np.intp))
             if a.size - 3 * len(monos) ** 2 >= 2**15 else None)  # (N - 3m) m saved
    result = nnls(a, b, tol=kkt_tol, start=start)
    keep = result.x > 0
    measure = AtomicMeasure.of(atoms[keep], result.x[keep])
    return RecoveryResult(measure, result.residual_norm,
                          measure.support_size(), result.converged,
                          result.residual_norm <= tol, tol)
