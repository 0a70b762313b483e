"""Seminorms, norms and regions: evaluation seminorms, sup-norms over
compact sample regions, weighted l1 norms, epsilon-fattenings, and the
factorial-weight comparison table.

Sup-norms are computed over a deterministic sample grid and are honest
LOWER bounds on the true sup, converging as the resolution shrinks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .poly import (EVAL_LOOP_TERMS, Polynomial, _on_lattice, _wire_entries, _wire_int,
                   _wire_object, _wire_real)

# Boundary points of semialgebraic regions are kept down to this slack.
INEQ_TOL = -1e-12

# Refuse to materialize absurdly large sample grids.
MAX_GRID_POINTS = 4_000_000


class WeightFunction:
    """Weight map N^n -> R+ defining a weighted l1 norm on polynomials.

    Kinds: "one" (constant 1), "geometric" (prod_i radii[i]**s_i),
    "lasserre" (factorial weight (2*ceil(|s|/2))!), "table" (explicit map).

    When ``is_absolute_value`` is set on a table weight, a query of s checks
    w(s+t) <= w(s) * w(t) for every table entry t with s+t in the table, in
    O(table size), and a violation is a hard error; the weight holds no state
    after construction.  The factorial kind is never an absolute value:
    w(e1 + s) with |s| = 2 gives 24 > 2 * 2.
    """

    def __init__(self, n: int, kind: str, radii=None, table=None,
                 is_absolute_value=None):
        if kind not in ("one", "geometric", "lasserre", "table"):
            raise ValueError(f"unknown weight kind {kind!r}")
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
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
        if self.table and any(len(k) != n for k in self.table):
            raise ValueError(f"table weight exponents must all have length {n}")
        if self.table and not all(v > 0 for v in self.table.values()):
            raise ValueError("table weight values must be positive")
        if is_absolute_value is None:
            is_absolute_value = kind in ("one", "geometric")
        if is_absolute_value and kind == "lasserre":
            raise ValueError("the factorial weight is not an absolute value")
        self.is_absolute_value = bool(is_absolute_value)
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

    def _raw(self, exp) -> float | None:
        """Weight at exp; None where a table weight has no entry."""
        if self.kind == "one":
            return 1.0
        if self.kind == "geometric":
            v = 1.0
            for r, e in zip(self.radii, exp):
                v *= r**e
            return v
        if self.kind == "lasserre":
            return float(lasserre_weight(sum(exp)))
        return self.table.get(tuple(exp))

    def __call__(self, exp) -> float:
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.n:
            raise ValueError(f"exponent length {len(exp)} != n = {self.n}")
        try:
            v = self._raw(exp)
        except OverflowError:
            raise ValueError(f"weight at exponent {list(exp)} exceeds the "
                             f"float range") from None
        if v is None:
            raise ValueError(f"table weight has no entry for exponent {list(exp)}")
        if self.is_absolute_value and self.kind == "table":
            for t, vt in self.table.items():
                st = tuple(map(operator.add, exp, t))
                vst = self.table.get(st)
                if vst is not None and vst > v * vt * (1 + 1e-12):
                    raise ValueError(
                        f"absolute-value violation: w({list(st)}) = {vst} > "
                        f"w({list(exp)}) * w({list(t)}) = {v * vt}"
                    )
        return v

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
        kind = _wire_object(data, "weight function")["kind"]
        if kind == "geometric":
            return cls.geometric([_wire_real(r, "radius") for r in data["radii"]])
        if kind == "table":
            table = _wire_entries(data["entries"], "val", _wire_real)
            return cls(len(next(iter(table), ())), "table", table=table,
                       is_absolute_value=data.get("is_absolute_value", False))
        if kind in ("one", "lasserre"):
            return cls(_wire_int(data.get("n", 1), "variable count n"), kind)
        raise ValueError(f"unknown weight kind {kind!r}")


def lasserre_weight(total_degree: int) -> int:
    """Factorial weight (2 * ceil(|s| / 2))!, exact integer arithmetic."""
    return math.factorial(2 * ((total_degree + 1) // 2))


@dataclass(frozen=True)
class Region:
    """Compact region: bounding box, optional polynomial inequalities
    (region = box intersected with {g_j >= 0}), and a deterministic
    sample grid at the stored resolution.  With read-only samples (as from_box,
    from_points and fatten make them) a Region memoizes its target-independent
    grid work: its samples' k-d tree and, per fit degree, the Chebyshev Gram
    matrix of the K monomials (8 K**2 bytes, 16 kB at degree 8 in 2-D) and
    each side's Chebyshev power rows.  The memo is per object: equal Regions
    never share it, and it takes no part in equality, hash, repr or JSON.
    from_box in two or more variables also records the lattice (axes, kept
    indices): values on the samples and the fit's A^T t then come from
    _on_lattice; other Regions (from_points, fatten, 1-D) build design matrices.
    """

    n: int
    box: tuple  # ((lo, hi), ...) per variable
    ineqs: tuple = ()
    resolution: float = 0.0
    sample_points: np.ndarray = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_box(cls, box, ineqs=(), resolution=None) -> "Region":
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        n = len(box)
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        for lo, hi in box:
            if not lo <= hi:
                raise ValueError(f"empty box side [{lo}, {hi}]")
        resolution = _resolution(box, resolution)
        ineqs = tuple(ineqs)
        for g in ineqs:
            if g.n != n:
                raise ValueError(f"inequality has {g.n} variables, box has {n}")
        # float sizes (np.rint rounds half to even) meet _lattice's cap before int()
        sizes = [1 if hi == lo else max(2, np.rint((hi - lo) / resolution) + 1)
                 for lo, hi in box]
        pts, axes = _lattice(sizes, lambda i: np.linspace(*box[i], int(sizes[i])))
        kept = np.arange(len(pts))
        for g in ineqs:
            inside = g.evaluate_grid(pts) >= INEQ_TOL
            pts, kept = pts[inside], kept[inside]
        if pts.shape[0] == 0:
            raise ValueError("region has no sample points (inequalities too tight)")
        for a in (pts, kept, *axes):
            a.setflags(write=False)
        region = cls(n, box, ineqs, resolution, pts)
        # Lattice or design: at degrees 8-12 on a 101 x 101 grid, values took 0.05-0.07
        # ms by axes against 0.6-1.3 ms by design matrix (A^T t 0.09-0.12 against
        # 0.8-1.5); in 1-D, where the lattice is the samples, 0.04-0.05 ms alike.
        if n > 1:
            region._memo["lattice"] = tuple(axes), kept
        return region

    @classmethod
    def from_points(cls, points, resolution=None) -> "Region":
        """Region whose samples are exactly the given finite point set."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim and not len(pts):
            raise ValueError("empty point set")
        pts = np.atleast_2d(pts)
        if pts.shape[1] < 1:
            raise ValueError(f"variable count must be >= 1, got {pts.shape[1]}")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        box = tuple((pts[:, i].min(), pts[:, i].max()) for i in range(pts.shape[1]))
        resolution = _resolution(box, resolution)
        pts = np.unique(pts, axis=0)  # distinct, in lexicographic order
        pts.setflags(write=False)
        return cls(pts.shape[1], box, (), resolution, pts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "box": [list(side) for side in self.box],
            "ineqs": [g.to_json_dict() for g in self.ineqs],
            "resolution": self.resolution,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Region":
        data = _wire_object(data, "region")
        ineqs = tuple(Polynomial.from_json_dict(g) for g in data.get("ineqs", []))
        box = [(_wire_real(lo, "box side"), _wire_real(hi, "box side"))
               for lo, hi in data["box"]]
        resolution = data.get("resolution")
        return cls.from_box(box, ineqs, None if resolution is None
                            else _wire_real(resolution, "resolution"))


def _memoized(region: Region, key, compute):
    """compute(), made read-only and kept in region's memo under key when
    the region's samples are read-only, so it is computed once per Region."""
    if region.sample_points.flags.writeable:
        return compute()
    if key not in region._memo:
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        region._memo[key] = value
    return region._memo[key]


def _kdtree(points):
    """scipy's k-d tree of the points; scipy.spatial is imported on first
    use, as most commands build no tree."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


def _resolution(box, resolution) -> float:
    """The grid spacing: 1% of the widest side (at least 0.01) by default;
    a given value must be positive and finite."""
    if resolution is None:
        return float(0.01 * max(max(hi - lo for lo, hi in box), 1.0))
    res = float(resolution)
    if not 0 < res < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    return res


def _lattice(sizes, axis) -> tuple:
    """(product of the ascending axes axis(i), of sizes[i] values each, as rows
    in lexicographic order, the axes); the size is capped before any axis exists."""
    if math.prod(sizes) > MAX_GRID_POINTS:
        raise ValueError(f"grid would exceed {MAX_GRID_POINTS} points; raise the resolution")
    axes = [axis(i) for i in range(len(sizes))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), axes


def _recorded_lattice(region: Region):
    """(axes, kept) as from_box recorded them (see Region), or None."""
    return None if region.sample_points.flags.writeable else region._memo.get("lattice")


def _sample_values(f: Polynomial, region: Region) -> np.ndarray:
    """f on the region's samples, by _on_lattice where it recorded a lattice."""
    lattice = _recorded_lattice(region)
    if lattice is None or f.n != region.n:  # evaluate_grid names a mismatch
        return f.evaluate_grid(region.sample_points)
    exps, coeffs, _ = f._eval_arrays()
    return _on_lattice(*lattice, exps, None, coeffs)


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
    """Max of |f| over the region's sample grid, with the attaining point; on a
    from_box Region in two or more variables f's values come axis by axis."""
    if region.sample_points is None or region.sample_points.shape[0] == 0:
        raise ValueError("region has no sample points")
    vals = np.abs(_sample_values(f, region))
    i = int(np.argmax(vals))
    return SupNormResult(float(vals[i]), tuple(region.sample_points[i]),
                         region.resolution)


def phi_norm(f: Polynomial, phi: WeightFunction) -> float:
    """Weighted l1 norm: sum over stored terms of |f_s| * w(s), in term order.  Above
    EVAL_LOOP_TERMS terms a one, geometric or lasserre w comes from r**e or degree tables
    and a sequential cumsum adds, as the loop does; table weights and overflow loop too."""
    if f.n != phi.n:
        raise ValueError(f"variable count mismatch: poly {f.n}, weight {phi.n}")
    if len(f.terms) > EVAL_LOOP_TERMS and phi.kind != "table":
        exps, coeffs, tops = f._eval_arrays()
        deg, w = exps.sum(axis=1), np.ones(len(coeffs))
        radii = phi.radii if phi.kind == "geometric" else ()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for r, col, top in zip(radii, exps.T, tops):
                    w = w * np.array([r**e for e in range(top + 1)])[col]
                if phi.kind == "lasserre":
                    w = np.array([float(lasserre_weight(k)) for k in range(deg.max() + 1)])[deg]
                return float((np.abs(coeffs) * w).cumsum()[-1])
        except OverflowError:
            pass
    return sum(abs(float(c)) * phi(exp) for exp, c in f.terms.items())


def _dilations(region: Region, eps_list) -> list[np.ndarray]:
    """fatten's sample rows for each eps of the ascending eps_list, from one
    lattice at the largest eps and the region's k-d tree, as the sets are
    nested.  A lattice point at distance 0 repeats a sample: dropping it keeps
    rows distinct, and a sample that rounds to a lattice index holding its
    exact coordinates marks that point, which is never queried."""
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ValueError(f"eps must be given, positive and finite, got {eps_list}")
    if sorted(eps_list) != eps_list:
        raise ValueError(f"eps values must be sorted ascending, got {eps_list}")
    reach = [eps * (1 + 1e-12) for eps in eps_list]  # rounding in the distance
    res, samples, e_max = region.resolution, region.sample_points, float(eps_list[-1])
    # k spans the inflated box padded by one step, so rounding loses no point;
    # k stays a float, so a huge eps overflows to inf and meets _lattice's cap
    k0 = np.floor(-e_max / res) - 1
    k1 = [np.ceil((float(hi - lo) + e_max) / res) + 1 for lo, hi in region.box]
    sizes = [k - k0 + 1 for k in k1]
    grid, _ = _lattice(sizes, lambda i: region.box[i][0] + res * np.arange(k0, k1[i] + 1))
    corner = np.array([lo for lo, _ in region.box])
    k = np.rint((samples - corner) / res)  # lo + k*res as _lattice computes it
    hit = np.all((corner + res * k == samples) & (k >= k0) & (k <= k1), axis=1)
    grid = np.delete(grid, np.ravel_multi_index((k[hit] - k0).astype(np.intp).T,
                                                np.array(sizes, dtype=np.intp)), axis=0)
    dist, _ = _memoized(region, "tree", lambda: _kdtree(samples)).query(grid, k=1)
    keep = (dist > 0) & (dist <= reach[-1])
    pts = np.vstack([samples, grid[keep]])
    dist = np.concatenate([np.zeros(len(samples)), dist[keep]])
    order = np.lexsort(pts.T[::-1])
    pts, dist = pts[order], dist[order]
    return [pts[dist <= r] for r in reach]


def fatten(region: Region, eps: float) -> Region:
    """Grid dilation by Euclidean radius eps: the samples plus every point
    lo + k*res of the lattice anchored at the box corner within eps of one,
    in lexicographic order, so the set grows with eps.  The box inflates by eps."""
    pts, = _dilations(region, [eps])
    pts.setflags(write=False)
    box = tuple((lo - eps, hi + eps) for lo, hi in region.box)
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
