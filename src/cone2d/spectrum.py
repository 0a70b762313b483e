"""Spectral computations: membership and outer boxes for the Gelfand set
of a weighted l1 norm, and the Zariski-density / Hausdorff test via
numerical null spaces of point-evaluation matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .norms import WeightFunction
from .poly import Polynomial, design_matrix, grlex_key

DEFAULT_RANK_TOL = 1e-10


def monomials_upto(n: int, degree: int) -> list[tuple]:
    """All exponent vectors with |s| <= degree, graded lex order."""
    exps = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            exps.append(tuple(exp))
    return sorted(set(exps), key=grlex_key)


def coefficient_space_dim(n: int, degree: int) -> int:
    """Dimension of the degree-<=D coefficient space, C(n + D, D)."""
    return math.comb(n + degree, degree)


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
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    n = pts.shape[1]
    monos = monomials_upto(n, degree)
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
