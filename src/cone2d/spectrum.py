"""Spectral computations: membership and outer boxes for the Gelfand set
of a weighted l1 norm, and the Zariski-density / Hausdorff test via
numerical null spaces of point-evaluation matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .norms import MAX_MATRIX_ENTRIES, WeightFunction
from .poly import Polynomial, design_matrix

DEFAULT_RANK_TOL = 1e-10


def monomials_upto(n: int, degree: int) -> list[tuple]:
    """All exponent vectors with |s| <= degree, in graded lex order (within a
    degree, descending lex); a new list per call of a tuple built once per (n, degree)
    and kept until the process exits (``_monomials.cache_clear()`` frees them all)."""
    return list(_monomials(n, degree))


@functools.cache
def _monomials(n: int, degree: int) -> tuple:
    if n == 0:
        return ((),) if degree >= 0 else ()
    # levels[d]: the exponents of the last i variables that sum to d, descending;
    # each step puts a new first exponent e = d, d - 1, ..., 0 in front
    levels = [[(d,)] for d in range(degree + 1)]
    for _ in range(n - 1):
        levels = [[(e,) + rest for e in range(d, -1, -1) for rest in levels[d - e]]
                  for d in range(degree + 1)]
    return tuple(exp for level in levels for exp in level)


def coefficient_space_dim(n: int, degree: int) -> int:
    """Dimension of the degree-<=D coefficient space, C(n + D, D)."""
    return math.comb(n + degree, degree)


def _dense_monomials(n: int, degree: int, rows: int) -> list[tuple]:
    """monomials_upto(n, degree), refused before anything is built where dense rows x K
    and K x K matrices over its K = C(n + D, D) monomials exceed MAX_MATRIX_ENTRIES."""
    if max(rows, k := coefficient_space_dim(n, degree)) * k > MAX_MATRIX_ENTRIES:
        raise ValueError(f"degree {degree} in {n} variables: {k} monomials; lower the degree")
    return monomials_upto(n, degree)


class KphiMembership(NamedTuple):
    """Outer-approximation verdict: necessary condition up to degree D."""

    contains: bool
    degree: int
    violated: tuple | None  # first exponent with |x^s| > w(s), if any

    def __bool__(self):
        return self.contains


def kphi_contains(x, phi: WeightFunction, degree: int) -> KphiMembership:
    """Check |x^s| <= w(s) for all |s| <= degree.

    True is only a degree-bounded necessary condition for membership in
    the spectrum; False is conclusive and carries the first violated s.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    x = tuple(float(v) for v in x)
    if len(x) != phi.n:
        raise ValueError(f"point dimension {len(x)} != weight dimension {phi.n}")
    monos = monomials_upto(phi.n, degree)
    for exp, mono in zip(monos, design_matrix([x], monos)[0]):
        if abs(mono) > phi(exp) * (1 + 1e-12):
            return KphiMembership(False, degree, exp)
    return KphiMembership(True, degree, None)


def kphi_box(phi: WeightFunction, degree: int) -> tuple:
    """Outer bounding box of the spectrum: r_i = min_k w(k*e_i)**(1/k).

    The box prod_i [-r_i, r_i] contains every point passing the monomial
    test, and shrinks (coordinate-wise) as the degree grows.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    radii = []
    for i in range(phi.n):
        best = math.inf
        for k in range(1, degree + 1):
            exp = tuple(k if j == i else 0 for j in range(phi.n))
            best = min(best, phi(exp) ** (1.0 / k))
        radii.append(best)
    return tuple((-r, r) for r in radii)


@dataclass
class VanishingBasis:
    """Orthonormal basis of the numerical right null space of the
    point-evaluation matrix: polynomials of degree <= D vanishing (to
    tolerance) on every input point.
    """

    degree: int
    basis: list  # of Polynomial
    singular_values: np.ndarray
    rank: int
    tol: float

    @property
    def kernel_dimension(self) -> int:
        return len(self.basis)


def vanishing_ideal_basis(points, degree: int, tol: float = DEFAULT_RANK_TOL
                          ) -> VanishingBasis:
    """Numerical null space of the evaluation matrix (rows = points,
    columns = monomials of degree <= D).

    Columns are scaled by their max magnitude before the SVD to tame
    conditioning; basis polynomials are rescaled back and normalized to
    unit coefficient 2-norm.  Degenerate inputs (e.g. one repeated point)
    are legal and simply yield a large kernel.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty point list")
    n = pts.shape[1]
    if n < 1:
        raise ValueError(f"variable count must be >= 1, got {n}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    monos = _dense_monomials(n, degree, len(pts))
    a = design_matrix(pts, monos)
    scale = np.max(np.abs(a), axis=0)
    scale[scale == 0] = 1.0
    _, sigma, vt = np.linalg.svd(a / scale, full_matrices=True)
    smax = sigma[0] if sigma.size else 0.0
    rank = int(np.sum(sigma > tol * smax)) if smax > 0 else 0
    basis = []
    for row in vt[rank:]:
        coeffs = row / scale
        coeffs = coeffs / np.linalg.norm(coeffs)
        basis.append(Polynomial(n, {exp: float(c) for exp, c in zip(monos, coeffs)}))
    return VanishingBasis(degree, basis, sigma, rank, tol)


def is_hausdorff(points, degree: int, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Degree-D Zariski-density certificate: no polynomial of degree <= D
    vanishes on all the points.

    True certifies density only up to degree-D witnesses; False is
    conclusive non-density at that degree.
    """
    return vanishing_ideal_basis(points, degree, tol).kernel_dimension == 0
