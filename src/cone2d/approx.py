"""Constructive approximation of nonnegative polynomials by sums of
2d-powers, with self-verifying certificates.

Each operation returns a Certificate holding the constructed element's
structural decomposition (so cone membership can be checked
syntactically), the echoed parameters, and measured residuals.  Each
kind's residuals are defined once, in ``recompute_residuals``: the
constructors fill them from it and ``verify`` re-runs it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .norms import Region, WeightFunction, _dilations, _kdtree, _memoized, phi_norm, sup_norm
from .poly import Dyadic, Polynomial, design_matrix, nearest_dyadic
from .spectrum import monomials_upto

VERIFY_TOL = 1e-12
NODE_TIE_TOL = 1e-12
# The sup and witness fit (_fit) keeps its Chebyshev side when the singular
# values of its Gram matrix give cond(Gram) <= GRAM_COND (past it the normal
# equations lose more than half the float digits) and when the rounding
# scale of its monomial form, u * sum |c_k| * corner**k with corner the
# box's largest |x| per side, is at most MONOMIAL_ROUNDING * eps (a box far
# from the origin can fail this).  Otherwise it runs its monomial side, SVD
# least squares on the column-scaled monomial design.
GRAM_COND = 1e8
MONOMIAL_ROUNDING = 1e-6
# Candidate c of module_interpolate's separating form x1 + c*x2 + ...
_SEPARATING_COEFFS = (Dyadic(3, 3), Dyadic(5, 4), Dyadic(11, 4), Dyadic(13, 5))


class PsdViolationError(ValueError):
    """Input is provably outside the cone being approximated."""


@dataclass
class Certificate:
    """Result record of an approximation run.

    kind: one of "tk", "sup", "series", "module", "witness".
    decomposition: the constructed element(s) in structural form.
    residuals: measured per-point or sup residuals.
    params: echoed inputs (enough to re-run ``verify``).
    """

    kind: str
    success: bool
    params: dict
    decomposition: dict
    residuals: dict
    message: str = ""

    def element(self) -> Polynomial:
        """Expand the certified element as a plain polynomial."""
        d = self.decomposition
        if self.kind == "tk":
            base = Polynomial.constant(d["c"].n, Dyadic(1 << d["m"])) * d["c"]
            return base ** (2 * d["d"])
        if self.kind == "sup":
            return d["b"] ** (2 * d["d"])
        if self.kind == "series":
            return d["q"]
        if self.kind == "module":
            return _module_element(self.params, self.decomposition)
        if self.kind == "witness":
            return d["a"]
        raise ValueError(f"unknown certificate kind {self.kind!r}")

    def recompute_residuals(self) -> dict:
        """Residuals of the stored decomposition against the params."""
        p, d = self.params, self.decomposition
        if "witness_point" in self.residuals:
            # A failure certificate stores only the point refuting positivity.
            return {"witness_value": p["f"].evaluate(self.residuals["witness_point"])}
        if self.kind == "tk":
            scale, power = 2.0 ** (2 * d["d"] * d["m"]), 2 * d["d"]
            return _per_point(p["f"], p["points"],
                              [scale * v ** power for v in d["c"]._evaluate_at(p["points"])])
        if self.kind == "sup":
            samples = p["region"].sample_points
            return _power_gap(p["f"].evaluate_grid(samples), d["b"], d["d"], samples)
        if self.kind == "series":
            return _series_residuals(p, d["q"])
        if self.kind == "module":
            return _per_point(p["a"], p["points"], _module_element(p, d)._evaluate_at(p["points"]))
        if self.kind == "witness":
            return {"max_at_points": max(abs(d["a"].evaluate(pt)) for pt in p["points"]),
                    "sup_norm": sup_norm(d["a"], p["region"]).value}
        raise ValueError(f"unknown certificate kind {self.kind!r}")

    def verify(self, tol: float = VERIFY_TOL) -> bool:
        """Recompute residuals from the stored decomposition and compare."""
        fresh = self.recompute_residuals()
        return all(_close(val, self.residuals[key], tol) for key, val in fresh.items())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "success": self.success,
            "message": self.message,
            "params": _jsonify(self.params),
            "decomposition": _jsonify(self.decomposition),
            "residuals": _jsonify(self.residuals),
        }


def _close(fresh, stored, tol) -> bool:
    """Entrywise fresh == stored or |fresh - stored| <= tol * (1 + |stored|)
    over nested sequences: an infinity matches itself, a NaN matches nothing."""
    if isinstance(fresh, (list, tuple)):
        return len(fresh) == len(stored) and all(
            _close(u, v, tol) for u, v in zip(fresh, stored))
    fresh, stored = float(fresh), float(stored)
    return fresh == stored or abs(fresh - stored) <= tol * (1 + abs(stored))


def _jsonify(obj):
    if isinstance(obj, (Polynomial, Region, WeightFunction)):
        return obj.to_json_dict()
    if isinstance(obj, Dyadic):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (float, np.floating)):
        # Strict JSON has no infinities or NaN: they become "inf", "-inf", "nan".
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, np.integer):
        return obj.item()
    return obj


def _checked(kind: str, params: dict, decomposition: dict, passes) -> Certificate:
    """Certificate whose residuals come from ``recompute_residuals`` and
    whose success is ``passes(residuals)``."""
    cert = Certificate(kind, False, params, decomposition, {})
    cert.residuals = cert.recompute_residuals()
    cert.success = bool(passes(cert.residuals))
    return cert


def _not_psd(kind: str, params: dict, point, value, where: str) -> Certificate:
    """Failure certificate naming a point where f is too negative."""
    return Certificate(kind, False, params, {},
                       {"witness_point": point, "witness_value": float(value)},
                       message=f"not Psd {where}: f{point} = {value}")


def _per_point(target: Polynomial, points, values) -> dict:
    return {"per_point": [abs(t - v) for t, v in zip(target._evaluate_at(points), values)]}


def _power_gap(fvals, b: Polynomial, d: int, samples) -> dict:
    """Sampled sup of |f - b**(2d)| from f's values on the samples."""
    gap = np.abs(fvals - b.evaluate_grid(samples) ** (2 * d))
    i = int(np.argmax(gap))
    return {"sup": float(gap[i]), "argmax": tuple(samples[i])}


def _gram_solve(gram, rhs):
    """x with gram @ x = rhs by SVD least squares, or None when the singular
    values give cond(gram) > GRAM_COND."""
    x, _, _, sigma = np.linalg.lstsq(gram, rhs, rcond=None)
    return x if not sigma.size or sigma[-1] * GRAM_COND >= sigma[0] else None


def _chebyshev_powers(top: int, lo: float, hi: float) -> np.ndarray:
    """Row e: the coefficients of x**0 .. x**top in T_e(s*x + c), the
    Chebyshev polynomial on [lo, hi] mapped to [-1, 1], for e = 0 .. top."""
    s, c = 2 / (hi - lo), -(lo + hi) / (hi - lo)
    rows = np.zeros((top + 1, top + 1))
    rows[0, 0] = 1.0
    if top:
        rows[1, :2] = c, s
    for e in range(1, top):
        rows[e + 1] = 2 * c * rows[e] - rows[e - 1]
        rows[e + 1, 1:] += 2 * s * rows[e, :-1]
    return rows


def _to_monomials(coeffs, monos, box, powers=_chebyshev_powers) -> np.ndarray:
    """Monomial coefficients, in monos order, of the polynomial whose
    coefficients in the basis of design_matrix(., monos, box) are coeffs:
    one per-variable change of basis along each axis of a dense tensor,
    by the rows powers(top, lo, hi) of _chebyshev_powers."""
    top = max(max(exp) for exp in monos)
    idx = tuple(np.array(monos, dtype=np.intp).T)
    tensor = np.zeros((top + 1,) * len(box))
    tensor[idx] = coeffs
    for axis, (lo, hi) in enumerate(box):
        if hi != lo:
            tensor = np.moveaxis(np.tensordot(powers(top, lo, hi), tensor,
                                              axes=(0, axis)), 0, axis)
    return tensor[idx]


def _monomial_form(coeffs, monos, region, eps):
    """Monomial coefficients of the Chebyshev-basis coeffs (_to_monomials,
    with the region's memoized power rows), or None when their rounding on
    the box exceeds MONOMIAL_ROUNDING * eps."""
    coeffs = _to_monomials(coeffs, monos, region.box, lambda *side: _memoized(
        region, ("powers",) + side, lambda: _chebyshev_powers(*side)))
    corner = [max(abs(lo), abs(hi)) for lo, hi in region.box]
    size = np.abs(coeffs) @ design_matrix([corner], monos)[0]
    return coeffs if np.finfo(float).eps * size <= MONOMIAL_ROUNDING * eps else None


def _binomial_coeffs(r: float, d: int, n_terms: int, sign: int) -> list:
    """lam[i] = r**alpha * binom(alpha, i) * (sign / r)**i with
    alpha = 1/(2d), for i = 0 .. n_terms + 1 (the last one bounds the tail)."""
    alpha = 1.0 / (2 * d)
    lam = [r**alpha]
    binom = 1.0
    for i in range(n_terms + 1):
        binom *= (alpha - i) / (i + 1)
        lam.append(r**alpha * binom * (sign / r) ** (i + 1))
    return lam


def _series_residuals(params: dict, q: Polynomial) -> dict:
    r, a, d, n_terms, phi, sign = (params[k] for k in ("r", "a", "d", "N", "phi", "sign"))
    norm_a = phi_norm(a, phi)
    # |lam[i+1]| <= |lam[i]| / r since |(alpha - i)/(i + 1)| <= 1, so the
    # tail is dominated by a geometric series with ratio ||a|| / r; the
    # bound degenerates to +inf on the boundary ||a|| = r.
    ratio = norm_a / r
    series_tail = (abs(_binomial_coeffs(r, d, n_terms, sign)[-1])
                   * norm_a ** (n_terms + 1) / (1 - ratio) if ratio < 1 else math.inf)
    power_tail = (series_tail * 2 * d * (phi_norm(q, phi) + series_tail) ** (2 * d - 1)
                  if math.isfinite(series_tail) else math.inf)
    target = Polynomial.constant(a.n, r) + sign * a
    return {"phi_norm_error": phi_norm(q ** (2 * d) - target, phi),
            "tail_bound": power_tail, "series_tail": series_tail}


def _module_element(params, decomposition) -> Polynomial:
    generators = params["generators"]
    n = params["a"].n
    d = decomposition["d"]
    total = Polynomial.zero(n)
    for comp in decomposition["components"]:
        t, gi = comp["t_scalar"], comp["generator_index"]
        if gi is not None:
            t = Polynomial.constant(n, t) * generators[gi]
        total = total + (1.0 / comp["lam"]) * comp["p"] ** (2 * d) * t
    return total


def _separating_form(n: int, pts) -> Polynomial:
    """x1 + c*x2 + ... + c**(n-1)*xn for the c in _SEPARATING_COEFFS whose
    values on the distinct points have the widest smallest gap relative to
    their spread; x1 itself when n = 1."""
    distinct = np.unique(np.asarray(pts, dtype=float), axis=0)
    vals = [np.sort(distinct @ [float(c**i) for i in range(n)]) for c in _SEPARATING_COEFFS]
    gaps = [np.diff(v).min() / np.ptp(v) if np.ptp(v) > 0 else 0.0 for v in vals]
    c = _SEPARATING_COEFFS[int(np.argmax(gaps))]
    return Polynomial(n, {tuple(int(i == j) for j in range(n)): c**i for i in range(n)})


def _interp_coeffs(nodes, values) -> np.ndarray:
    """Monomial coefficients (ascending) of the Lagrange interpolant,
    via Newton divided differences."""
    k = len(nodes)
    dd = [float(v) for v in values]
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    poly = np.array([dd[k - 1]])  # descending order
    for i in range(k - 2, -1, -1):
        poly = np.convolve(poly, [1.0, -nodes[i]])
        poly[-1] += dd[i]
    return poly[::-1]


def _check_d_eps(d: int, eps: float):
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")


def _horner_exact(lams, b: Polynomial) -> Polynomial:
    """sum_i lams[i] * b**i for dyadic lams and an all-dyadic b, by Horner.

    The packed kernel (``_horner_packed``) spans (deg c + 1)**n digits of
    which it reads only the C(deg c + n, n) of total degree <= deg c.  It
    runs where that is at most twice as many (n <= 2, and n = 3 at deg c <= 1);
    elsewhere the span grows like n! times the result, so Horner runs over
    Polynomial arithmetic, which holds only the terms that occur.  Both
    give the same terms, byte for byte.
    """
    n, top = b.n, (len(lams) - 1) * b.degree()
    if (top + 1) ** n <= 2 * math.comb(top + n, n):
        return _horner_packed(lams, b)
    c = Polynomial.zero(n)
    for lt in reversed(lams):
        c = c * b + lt
    return c


def _horner_packed(lams, b: Polynomial) -> Polynomial:
    """sum_i lams[i] * b**i by Horner on one Python int (Kronecker
    substitution), for dyadic lams and an all-dyadic b.

    With b = beta / 2**B on b's common scale and K the largest scale of the
    lams, the integer polynomial 2**(K + (k-1)B) * c is Horner's
    acc = acc * beta + l_j, with l_j = lams[j] * 2**(K + (k-1-j)B).
    Exponent e is digit sum_i e_i * S**(n-1-i) of base 2**W, S = deg c + 1,
    so each step is one big-int * int product per term of b.  W is the
    bit length of the same Horner on |l_j| and ||beta||_1, which bounds
    every coefficient, plus 2, in whole bytes.  One to_bytes after a
    half-digit offset decodes the digits of total degree <= deg c only,
    in grlex order.
    """
    n, k = b.n, len(lams)
    scale_b = max((c.k for c in b.terms.values()), default=0)
    scale = max(lt.k for lt in lams) + (k - 1) * scale_b
    beta = [(exp, c.m << (scale_b - c.k)) for exp, c in b.terms.items()]
    ls = [lt.m << (scale - lt.k - j * scale_b) for j, lt in enumerate(lams)]
    norm1 = sum(abs(v) for _, v in beta)
    bound = 0
    for lj in reversed(ls):
        bound = bound * norm1 + abs(lj)
    width = (bound.bit_length() + 9) // 8  # bytes per digit
    top = (k - 1) * b.degree()
    places = [width * (top + 1) ** (n - 1 - i) for i in range(n)]  # byte offsets
    steps = [(8 * sum(map(operator.mul, exp, places)), v) for exp, v in beta]
    acc = 0
    for lj in reversed(ls):
        acc = sum((acc * v) << s for s, v in steps) + lj
    digits = (top + 1) ** n
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * digits, "little")  # half per digit
    raw = (acc + offset).to_bytes(width * digits, "little")
    terms = {}
    for exp in monomials_upto(n, top):
        at = sum(map(operator.mul, exp, places))
        terms[exp] = Dyadic(int.from_bytes(raw[at:at + width], "little") - half, scale)
    return Polynomial._ring_result(n, terms, False, ordered=True)


def tk_approximate(f: Polynomial, points, d: int, eps: float) -> Certificate:
    """Approximate f at finitely many points by a single scaled 2d-power.

    Construction: shift f by the smallest admissible dyadic 2**-k if it
    vanishes or dips slightly negative at a point; rescale by 2**(2dm)
    so all values land in (0, 1]; Lagrange-interpolate t -> t**(1/2d)
    through the distinct rescaled values; round the interpolant's
    coefficients to dyadics within a derivative-bound budget; compose
    with the rescaled input, c = sum_i lam_i * b**i, expanded exactly by
    Horner (``_horner_exact``): on one Kronecker-packed integer where
    that holds at most twice the digits it reads (one and two variables),
    over Polynomial arithmetic elsewhere.  The
    certified element is (2**m * c)**(2d) with c exactly dyadic, and every
    per-point residual is below eps.
    """
    _check_d_eps(d, eps)
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise ValueError("at least one point is required")
    for p in pts:
        if len(p) != f.n:
            raise ValueError(f"point dimension {len(p)} != {f.n}")
    f_exact = f.to_exact()
    vals = f._evaluate_at(pts)
    params = {"f": f, "points": pts, "d": d, "eps": eps}

    work = f_exact
    shift_k = None
    if min(vals) <= 0:
        # Minimal k with 2**-k <= eps/2; a smaller shift cannot help.
        shift_k = max(0, math.ceil(math.log2(2.0 / eps)))
        shift = Dyadic(1, shift_k)
        if min(vals) + float(shift) <= 0:
            i = int(np.argmin(vals))
            return _not_psd("tk", params, pts[i], vals[i], "at the points within eps/2")
        work = f_exact + Polynomial.constant(f.n, shift)
        vals = [v + float(shift) for v in vals]

    m = 0
    while max(vals) > 2.0 ** (2 * d * m):
        m += 1
    b = work * Dyadic(1, 2 * d * m)  # exact scaling into (0, 1]
    b_vals = [v / 2.0 ** (2 * d * m) for v in vals]

    nodes = []
    for v in sorted(b_vals):
        if not nodes or abs(v - nodes[-1]) > NODE_TIE_TOL:
            nodes.append(v)
    targets = [v ** (1.0 / (2 * d)) for v in nodes]
    lam = _interp_coeffs(nodes, targets)

    # Value error delta forces power error < eps / 2**(2dm) via the
    # derivative bound sup |d/dt t^(2d)| = 2d on [0, 1].
    delta = eps / (2 * d * 2.0 ** (2 * d * m) * (len(nodes) + 1))
    coeff_budget = delta / len(lam)
    kbits = max(0, math.ceil(math.log2(1.0 / coeff_budget)))
    lam_tilde = [nearest_dyadic(l, kbits) for l in lam]

    c = _horner_exact(lam_tilde, b)

    decomposition = {"m": m, "c": c, "d": d, "shift_k": shift_k,
                     "coeffs": lam_tilde, "nodes": nodes}
    return _checked("tk", params, decomposition,
                    lambda res: max(res["per_point"]) < eps)


def sup_approximate(f: Polynomial, region: Region, d: int, eps: float,
                    max_fit_degree: int) -> Certificate:
    """Approximate f in the sampled sup-norm by b**(2d).

    The continuous target (f + eps/2)**(1/2d) is fitted by discrete
    least squares over the region's sample grid, by ``_fit`` with no
    constraints: the normal equations in the total-degree Chebyshev basis
    of the region's box, or SVD least squares on column-scaled monomials
    where those fail their checks (GRAM_COND, MONOMIAL_ROUNDING); the
    message reports the rank deficiency of the latter.  Success means
    ||f - b**(2d)|| < eps on the samples.  On failure the certificate
    carries the best residual and the degree used.
    """
    _check_d_eps(d, eps)
    if max_fit_degree < 0:
        raise ValueError(f"fit degree must be >= 0, got {max_fit_degree}")
    samples = region.sample_points
    fvals = f.evaluate_grid(samples)
    params = {"f": f, "region": region, "d": d, "eps": eps,
              "max_fit_degree": max_fit_degree}
    imin = int(np.argmin(fvals))
    if fvals[imin] < -eps / 4:
        return _not_psd("sup", params, tuple(samples[imin]), fvals[imin],
                        "on the region within eps/4")

    target = (fvals + eps / 2) ** (1.0 / (2 * d))
    monos = monomials_upto(f.n, max_fit_degree)
    coeffs, _, rank = _fit((), (), region, target, monos, eps)
    message = (f"fit matrix rank-deficient: rank {rank} of {len(monos)} columns"
               if rank < len(monos) else "")
    b = Polynomial(f.n, {exp: float(ci) for exp, ci in zip(monos, coeffs)})

    residuals = _power_gap(fvals, b, d, samples)
    return Certificate("sup", residuals["sup"] < eps, params,
                       {"b": b, "d": d, "fit_degree": max_fit_degree},
                       residuals, message=message)


def series_root(r: float, a: Polynomial, d: int, n_terms: int,
                phi: WeightFunction, sign: int = 1) -> Certificate:
    """Truncated binomial series q_N for (r + sign*a)**(1/2d).

    Requires ||a||_phi < r strictly (the series' radius of convergence).
    phi_norm_error is ||q_N**(2d) - (r + sign*a)||_phi in float (rounding not
    bounded); series_tail, sum_{i>N} |lambda_i| ||a||_phi**i by geometric
    majorization, bounds ||q_N - (r + sign*a)**(1/2d)||_phi, and tail_bound the
    exact phi_norm_error by submultiplicativity.  ``success`` is always True."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if n_terms < 0:
        raise ValueError(f"series length must be >= 0, got {n_terms}")
    if not 0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {r!r}")
    norm_a = phi_norm(a, phi)
    if norm_a > r:
        raise ValueError(f"series requires ||a||_phi < r: {norm_a} > {r}")

    params = {"r": float(r), "a": a, "d": d, "N": n_terms, "phi": phi,
              "sign": sign}
    lam = _binomial_coeffs(params["r"], d, n_terms, sign)
    q = Polynomial.zero(a.n)
    a_pow = Polynomial.constant(a.n, 1)
    for i in range(n_terms + 1):
        if i > 0:
            a_pow = a_pow * a
        q = q + lam[i] * a_pow
    return _checked("series", params, {"q": q, "d": d, "coeffs": lam[: n_terms + 1]},
                    lambda res: True)


def module_interpolate(a: Polynomial, generators, points, d: int) -> Certificate:
    """Exact-at-points member of the 2d-power module generated by the
    given polynomials (plus the implicit generator 1).

    Node element t_i is a(x_i) if that is >= 0, else a nonnegative multiple
    of a generator negative at x_i.  p_i is the Lagrange basis polynomial at
    nu_i = ell(x_i) in one dyadic linear form ell separating the points, and
    lam_i counts the points sharing nu_i; sum_j (1/lam_j) p_j**(2d) t_j then
    matches a at every point and is syntactically in the module.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    generators = list(generators)
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise ValueError("at least one point is required")
    avals = a._evaluate_at(pts)
    one = Polynomial.constant(a.n, 1)

    node_elems = []  # (nonnegative scalar, generator index or None)
    for p, v in zip(pts, avals):
        if v >= 0:
            node_elems.append((v, None))
            continue
        gi = next((j for j, s in enumerate(generators) if s.evaluate(p) < 0), None)
        if gi is None:
            raise PsdViolationError(
                f"point {p} lies in the module's nonnegativity set but "
                f"a{p} = {v} < 0"
            )
        node_elems.append((v / generators[gi].evaluate(p), gi))

    ell = _separating_form(a.n, pts)
    nodes = ell._evaluate_at(pts)
    factors = {vj: ell - vj for vj in dict.fromkeys(nodes)}  # distinct, first occurrence order
    components = []
    for vi, (scalar, gi) in zip(nodes, node_elems):
        pi = one
        for vj, factor in factors.items():
            if vj != vi:
                pi = pi * factor * (1.0 / (vi - vj))
        components.append({"lam": nodes.count(vi), "p": pi, "t_scalar": scalar,
                           "generator_index": gi})
    params = {"a": a, "generators": generators, "points": pts, "d": d}
    decomposition = {"d": d, "components": components}
    return _checked("module", params, decomposition,
                    lambda res: max(res["per_point"]) < 1e-9)


def _fit(anchors, rhs, region, target, monos, eps):
    """(monomial coefficients x, feasibility |C x0 - rhs|, rank) of the
    least-squares fit of target on the region's samples subject to C x = rhs
    at the anchors, by the null-space method (Golub & Van Loan, Matrix
    Computations, 6.2): one SVD of C gives the minimum-norm x0 and a basis
    Z of its null space, and x = x0 + Z y with y the least-squares fit of
    target - A x0 by A Z.  With no anchors, x0 = 0 and Z = I without an
    SVD, and A Z is A.

    The fit runs in the box's Chebyshev basis, y from the normal equations
    by _gram_solve on the region's memoized Gram A^T A, and is kept unless
    those or x's monomial form fail their check (GRAM_COND,
    MONOMIAL_ROUNDING).  Otherwise it runs again in monomials, y by SVD
    least squares on the column-scaled A Z, and rank is that solve's (Z's
    column count on the Chebyshev side)."""
    x0, z, feas = np.zeros(len(monos)), np.eye(len(monos)), 0.0
    for basis in (region.box, None):
        if len(anchors):
            constraints = design_matrix(anchors, monos, basis)
            u, sigma, vt = np.linalg.svd(constraints)
            rank = int(np.sum(sigma > 1e-12 * sigma[0]))
            x0 = vt[:rank].T @ (u[:, :rank].T @ rhs / sigma[:rank])
            z = vt[rank:].T
            feas = np.linalg.norm(constraints @ x0 - rhs)
        a = design_matrix(region.sample_points, monos, basis)
        if basis is not None:
            gram = _memoized(region, ("gram", len(monos)), lambda: a.T @ a)
            y = _gram_solve(z.T @ gram @ z, z.T @ (a.T @ target - gram @ x0))
            x = None if y is None else _monomial_form(x0 + z @ y, monos, region, eps)
            fit_rank = z.shape[1]
        else:
            az = a @ z if len(anchors) else a
            scale = np.max(np.abs(az), axis=0)
            scale[scale == 0] = 1.0
            y, _, fit_rank, _ = np.linalg.lstsq(az / scale, target - a @ x0, rcond=None)
            x = x0 + z @ (y / scale)
        if x is not None:
            return x, feas, fit_rank


def strictness_witness(points, region: Region, eps: float,
                       fit_degree: int) -> Certificate:
    """Witness that the sup-norm ball contains no evaluation-seminorm
    neighborhood: a polynomial small at all the given points yet of
    sampled sup-norm near 1, via the least-squares fit ``_fit`` that
    ``sup_approximate`` shares, here of a bump target vanishing near the
    points, constrained to 0 at them and to 1 at a separated sample.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if fit_degree < 0:
        raise ValueError(f"fit degree must be >= 0, got {fit_degree}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not pts.size:
        raise ValueError("at least one point is required")
    if pts.shape[1] != region.n:
        raise ValueError(f"point dimension {pts.shape[1]} != {region.n}")
    samples = region.sample_points
    dist, _ = _kdtree(pts).query(samples, k=1)
    ib = int(np.argmax(dist))
    beta = tuple(samples[ib])
    if dist[ib] <= region.resolution:
        raise ValueError(
            f"no sample separated from the points: best distance {dist[ib]} "
            f"<= resolution {region.resolution}"
        )

    monos = monomials_upto(region.n, fit_degree)
    point_list = [tuple(p) for p in pts]
    params = {"points": point_list, "region": region, "eps": eps,
              "fit_degree": fit_degree}
    rhs = np.zeros(len(pts) + 1)
    rhs[-1] = 1.0
    bump = np.clip(dist / dist[ib], 0.0, 1.0) ** 2
    anchors = np.vstack([pts, beta])
    x, feas, _ = _fit(anchors, rhs, region, bump, monos, eps)
    a_poly = Polynomial(region.n, {exp: float(ci) for exp, ci in zip(monos, x)})

    cert = _checked("witness", params, {"a": a_poly, "beta": beta},
                    lambda res: feas <= 1e-8 and res["max_at_points"] <= eps
                    and res["sup_norm"] >= 1 - eps)
    if not cert.success:
        cert.message = (f"fit degree {fit_degree} too small: |a| at points "
                        f"{cert.residuals['max_at_points']}, sup "
                        f"{cert.residuals['sup_norm']}, constraint feasibility {feas}")
    return cert


@dataclass
class FatteningReport:
    """Minima of f over successive grid fattenings of the region.

    Membership in the fattened-closure cone requires nonnegativity on
    SOME open fattening, so the smallest epsilon decides the verdict.
    """

    entries: list = field(default_factory=list)  # (eps, min value, argmin)
    member: bool = False


def psd_on_fattening(f: Polynomial, region: Region, eps_list) -> FatteningReport:
    """Evaluate min f over fatten(region, eps) for each eps."""
    eps_list = list(eps_list)
    entries = []
    for eps, fat in zip(eps_list, _dilations(region, eps_list)):
        vals = f.evaluate_grid(fat)
        i = int(np.argmin(vals))
        entries.append((eps, float(vals[i]), tuple(fat[i])))
    return FatteningReport(entries, entries[0][1] >= 0)
