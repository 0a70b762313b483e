"""Reference polynomial arithmetic for the benchmark's generator and oracles.

Everything here is written from the JSON wire format alone and never
imports cone2d, so a ground-truth check cannot share a defect with the
code it checks.  A polynomial is a dict mapping exponent tuples to
``Fraction`` (exact) or ``float`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def from_json(data: dict) -> dict:
    """Parse the wire format: coefficients "m/q", "m", or a JSON number."""
    terms = {}
    for entry in data["terms"]:
        raw = entry["coeff"]
        if isinstance(raw, str):
            num, _, den = raw.partition("/")
            c = Fraction(int(num), int(den) if den else 1)
        elif isinstance(raw, int):
            c = Fraction(raw)
        else:
            c = float(raw)
        terms[tuple(entry["exp"])] = c
    return terms


def to_json(n: int, terms: dict) -> dict:
    """Wire format; exact coefficients must be dyadic (denominator 2**k)."""
    out = []
    for exp in sorted(terms, key=lambda e: (sum(e), tuple(-x for x in e))):
        c = terms[exp]
        if isinstance(c, Fraction):
            if c.denominator & (c.denominator - 1):
                raise ValueError(f"coefficient {c} is not dyadic")
            coeff = str(c.numerator) if c.denominator == 1 else str(c)
        else:
            coeff = float(c)
        if c != 0:
            out.append({"coeff": coeff, "exp": list(exp)})
    return {"n": n, "terms": out}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return out


def scale(p: dict, s) -> dict:
    return {e: c * s for e, c in p.items()}


def power(p: dict, k: int, n: int) -> dict:
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = mul(out, p)
    return out


def monomials(n: int, degree: int) -> list:
    """Exponent vectors with |s| <= degree."""
    if n == 1:
        return [(i,) for i in range(degree + 1)]
    return [(i, j) for t in range(degree + 1) for i in range(t, -1, -1)
            for j in [t - i]]


def _dyadic_parts(x) -> tuple:
    """(numerator, k) with x == numerator / 2**k exactly."""
    num, den = Fraction(x).as_integer_ratio()
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError(f"{x} is not dyadic")
    return num, k


def eval_exact(terms: dict, point) -> Fraction:
    """Exact value at a dyadic point, by scaled integer arithmetic."""
    coords = [_dyadic_parts(x) for x in point]
    pow_cache: dict = {}
    parts = []
    top = 0
    for exp, c in terms.items():
        m, k = _dyadic_parts(c)
        for i, e in enumerate(exp):
            if e:
                key = (i, e)
                if key not in pow_cache:
                    pow_cache[key] = coords[i][0] ** e
                m *= pow_cache[key]
                k += coords[i][1] * e
        parts.append((m, k))
        top = max(top, k)
    total = sum(m << (top - k) for m, k in parts)
    return Fraction(total, 1 << top)


def eval_grid(terms: dict, points: np.ndarray) -> np.ndarray:
    """Float values on an (N, n) array, through per-axis power tables."""
    points = np.asarray(points, dtype=float)
    if not terms:
        return np.zeros(points.shape[0])
    exps = np.array(list(terms), dtype=int)
    coeffs = np.array([float(c) for c in terms.values()])
    top = int(exps.max())
    out = np.zeros(points.shape[0])
    tables = [np.vander(points[:, i], top + 1, increasing=True)
              for i in range(points.shape[1])]
    for exp, c in zip(exps, coeffs):
        col = np.full(points.shape[0], c)
        for i, e in enumerate(exp):
            if e:
                col = col * tables[i][:, e]
        out += col
    return out


def grid(box, resolution: float, ineqs=()) -> np.ndarray:
    """Sample grid of a region: linspace per axis with
    max(2, round(side / resolution) + 1) nodes (one node on a flat side),
    kept where every inequality polynomial is >= -1e-12."""
    axes = []
    for lo, hi in box:
        side = hi - lo
        num = 1 if side == 0 else max(2, int(round(side / resolution)) + 1)
        axes.append(np.linspace(lo, hi, num))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    for g in ineqs:
        pts = pts[eval_grid(g, pts) >= -1e-12]
    return pts
