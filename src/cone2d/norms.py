"""Seminorms, norms and regions: evaluation seminorms, sup-norms over
compact sample regions, weighted l1 norms, epsilon-fattenings, and the
factorial-weight comparison table.

Sup-norms are computed over a deterministic sample grid and are honest
LOWER bounds on the true sup, converging as the resolution shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .poly import Polynomial

# Boundary points of semialgebraic regions are kept down to this slack.
INEQ_TOL = -1e-12

# Refuse to materialize absurdly large sample grids.
MAX_GRID_POINTS = 4_000_000


class WeightFunction:
    """Weight map N^n -> R+ defining a weighted l1 norm on polynomials.

    Kinds: "one" (constant 1), "geometric" (prod_i radii[i]**s_i),
    "lasserre" (factorial weight (2*ceil(|s|/2))!), "table" (explicit map).

    When ``is_absolute_value`` is set, submultiplicativity
    w(s+t) <= w(s) * w(t) is checked lazily on queried exponent pairs and
    a violation is a hard error.  The factorial kind is never an absolute
    value: w(e1 + s) with |s| = 2 gives 24 > 2 * 2.
    """

    _CHECK_CACHE = 64

    def __init__(self, n: int, kind: str, radii=None, table=None,
                 is_absolute_value=None):
        if kind not in ("one", "geometric", "lasserre", "table"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.n = n
        self.kind = kind
        self.radii = tuple(float(r) for r in radii) if radii is not None else None
        if kind == "geometric":
            if self.radii is None or len(self.radii) != n:
                raise ValueError("geometric weight needs one radius per variable")
            if any(r <= 0 for r in self.radii):
                raise ValueError("geometric radii must be positive")
        self.table = {tuple(k): float(v) for k, v in table.items()} if table else None
        if kind == "table" and not self.table:
            raise ValueError("table weight needs explicit entries")
        if is_absolute_value is None:
            is_absolute_value = kind in ("one", "geometric")
        if is_absolute_value and kind == "lasserre":
            raise ValueError("the factorial weight is not an absolute value")
        self.is_absolute_value = bool(is_absolute_value)
        self._seen: list[tuple] = []
        zero = (0,) * n
        if abs(self(zero) - 1.0) > 1e-12:
            raise ValueError(f"weight at 0 must be 1, got {self(zero)}")

    @classmethod
    def one(cls, n: int) -> "WeightFunction":
        return cls(n, "one")

    @classmethod
    def geometric(cls, radii) -> "WeightFunction":
        return cls(len(radii), "geometric", radii=radii)

    @classmethod
    def lasserre(cls, n: int) -> "WeightFunction":
        return cls(n, "lasserre")

    def _raw(self, exp) -> float:
        if self.kind == "one":
            return 1.0
        if self.kind == "geometric":
            v = 1.0
            for r, e in zip(self.radii, exp):
                v *= r**e
            return v
        if self.kind == "lasserre":
            return float(lasserre_weight(sum(exp)))
        v = self.table.get(tuple(exp))
        if v is None:
            raise KeyError(f"table weight has no entry for exponent {list(exp)}")
        return v

    def __call__(self, exp) -> float:
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.n:
            raise ValueError(f"exponent length {len(exp)} != n = {self.n}")
        v = self._raw(exp)
        if self.is_absolute_value and self.kind == "table":
            self._lazy_check(exp, v)
        return v

    def _lazy_check(self, exp, v):
        for t in self._seen + [exp]:
            st = tuple(a + b for a, b in zip(exp, t))
            try:
                vst = self._raw(st)
            except KeyError:
                continue
            if vst > v * self._raw(t) * (1 + 1e-12):
                raise ValueError(
                    f"absolute-value violation: w({list(st)}) = {vst} > "
                    f"w({list(exp)}) * w({list(t)}) = {v * self._raw(t)}"
                )
        if exp not in self._seen:
            self._seen.append(exp)
            del self._seen[: -self._CHECK_CACHE]

    def to_json_dict(self) -> dict:
        if self.kind == "geometric":
            return {"kind": "geometric", "radii": list(self.radii)}
        if self.kind == "table":
            return {"kind": "table",
                    "entries": [{"exp": list(k), "val": v} for k, v in self.table.items()],
                    "is_absolute_value": self.is_absolute_value}
        if self.kind == "one":
            return {"kind": "one", "n": self.n}
        return {"kind": "lasserre", "n": self.n}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightFunction":
        kind = data["kind"]
        if kind == "geometric":
            return cls.geometric(data["radii"])
        if kind == "table":
            table = {tuple(e["exp"]): e["val"] for e in data["entries"]}
            n = len(next(iter(table)))
            return cls(n, "table", table=table,
                       is_absolute_value=data.get("is_absolute_value", False))
        if kind in ("one", "lasserre"):
            return cls(int(data.get("n", 1)), kind)
        raise ValueError(f"unknown weight kind {kind!r}")


def lasserre_weight(total_degree: int) -> int:
    """Factorial weight (2 * ceil(|s| / 2))!, exact integer arithmetic."""
    return math.factorial(2 * ((total_degree + 1) // 2))


@dataclass(frozen=True)
class Region:
    """Compact region: bounding box, optional polynomial inequalities
    (region = box intersected with {g_j >= 0}), and a deterministic
    sample grid at the stored resolution.
    """

    n: int
    box: tuple  # ((lo, hi), ...) per variable
    ineqs: tuple = ()
    resolution: float = 0.0
    sample_points: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def from_box(cls, box, ineqs=(), resolution=None) -> "Region":
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        n = len(box)
        for lo, hi in box:
            if hi < lo:
                raise ValueError(f"empty box side [{lo}, {hi}]")
        if resolution is None:
            resolution = 0.01 * max(max(hi - lo for lo, hi in box), 1.0)
        ineqs = tuple(ineqs)
        for g in ineqs:
            if g.n != n:
                raise ValueError(f"inequality has {g.n} variables, box has {n}")
        pts = _grid(box, resolution)
        for g in ineqs:
            pts = pts[g.evaluate_grid(pts) >= INEQ_TOL]
        if pts.shape[0] == 0:
            raise ValueError("region has no sample points (inequalities too tight)")
        pts.setflags(write=False)
        return cls(n, box, ineqs, float(resolution), pts)

    @classmethod
    def from_points(cls, points, resolution=None) -> "Region":
        """Region whose samples are exactly the given finite point set."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("empty point set")
        box = tuple((pts[:, i].min(), pts[:, i].max()) for i in range(pts.shape[1]))
        if resolution is None:
            resolution = 0.01 * max(max(hi - lo for lo, hi in box), 1.0)
        pts = pts[np.lexsort(pts.T[::-1])]
        pts.setflags(write=False)
        return cls(pts.shape[1], box, (), float(resolution), pts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "box": [list(side) for side in self.box],
            "ineqs": [g.to_json_dict() for g in self.ineqs],
            "resolution": self.resolution,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Region":
        ineqs = tuple(Polynomial.from_json_dict(g) for g in data.get("ineqs", []))
        return cls.from_box(data["box"], ineqs, data.get("resolution"))


def _grid(box, resolution) -> np.ndarray:
    axes = []
    total = 1
    for lo, hi in box:
        side = hi - lo
        num = 1 if side == 0 else max(2, int(round(side / resolution)) + 1)
        total *= num
        if total > MAX_GRID_POINTS:
            raise ValueError(
                f"grid would exceed {MAX_GRID_POINTS} points; raise the resolution"
            )
        axes.append(np.linspace(lo, hi, num))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def rho_alpha(f: Polynomial, alpha) -> float:
    """Evaluation seminorm |f(alpha)|; multiplicative but not a norm."""
    return abs(f.evaluate(alpha))


class SupNormResult(NamedTuple):
    """Sampled sup-norm: a lower bound on the true sup over the region."""

    value: float
    argmax: tuple
    resolution: float

    def __float__(self):
        return self.value


def sup_norm(f: Polynomial, region: Region) -> SupNormResult:
    """Max of |f| over the region's sample grid, with the attaining point."""
    if region.sample_points is None or region.sample_points.shape[0] == 0:
        raise ValueError("region has no sample points")
    vals = np.abs(f.evaluate_grid(region.sample_points))
    i = int(np.argmax(vals))
    return SupNormResult(float(vals[i]), tuple(region.sample_points[i]),
                         region.resolution)


def phi_norm(f: Polynomial, phi: WeightFunction) -> float:
    """Weighted l1 norm: sum over stored terms of |f_s| * w(s)."""
    if f.n != phi.n:
        raise ValueError(f"variable count mismatch: poly {f.n}, weight {phi.n}")
    return sum(abs(float(c)) * phi(exp) for exp, c in f.terms.items())


def fatten(region: Region, eps: float) -> Region:
    """Grid dilation of the sample set by Euclidean radius eps.

    The box inflates by eps per side; the new sample set is the original
    samples plus every inflated-grid point within eps of one of them, so
    the original samples are always a subset of the output.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    box = tuple((lo - eps, hi + eps) for lo, hi in region.box)
    # anchor the dilation grid at the original box corner so the kept
    # sample set grows monotonically with eps
    res = region.resolution
    axes = []
    total = 1
    for (lo, hi), (lo_e, hi_e) in zip(region.box, box):
        k0 = math.ceil((lo_e - lo) / res - 1e-12)
        k1 = math.floor((hi_e - lo) / res + 1e-12)
        total *= k1 - k0 + 1
        if total > MAX_GRID_POINTS:
            raise ValueError(
                f"grid would exceed {MAX_GRID_POINTS} points; raise the resolution"
            )
        axes.append(lo + res * np.arange(k0, k1 + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    tree = cKDTree(region.sample_points)
    dist, _ = tree.query(grid, k=1)
    keep = grid[dist <= eps * (1 + 1e-12)]
    pts = np.vstack([region.sample_points, keep])
    pts = np.unique(pts, axis=0)
    pts.setflags(write=False)
    return Region(region.n, box, (), region.resolution, pts)


class LasserreThreshold(NamedTuple):
    """Least N with M**N / N! < 1, plus the full ratio table."""

    found: bool
    threshold: int | None
    bound: float  # M, the max coordinate magnitude over the box
    ratios: tuple  # M**j / j! for j = 0..max_degree


def lasserre_threshold(region: Region, max_degree: int) -> LasserreThreshold:
    """Degree past which the factorial weight dominates monomial sup-norms.

    M is read off the bounding box; ratios are computed in exact rational
    arithmetic before conversion to float.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    m_bound = max(max(abs(lo), abs(hi)) for lo, hi in region.box)
    m_frac = Fraction(m_bound)
    ratios = []
    threshold = None
    for j in range(max_degree + 1):
        r = m_frac**j / math.factorial(j)
        ratios.append(float(r))
        if threshold is None and j >= 1 and r < 1:
            threshold = j
    return LasserreThreshold(threshold is not None, threshold, m_bound,
                             tuple(ratios))
