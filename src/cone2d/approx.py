"""Constructive approximation of nonnegative polynomials by sums of
2d-powers, with self-verifying certificates.

Each operation returns a Certificate holding the constructed element's
structural decomposition (so cone membership can be checked
syntactically), the echoed parameters, and measured residuals that
``verify`` can recompute from the decomposition alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .norms import Region, WeightFunction, phi_norm, fatten, sup_norm
from .poly import Dyadic, Polynomial, design_matrix, nearest_dyadic
from .spectrum import monomials_upto

VERIFY_TOL = 1e-12
NODE_TIE_TOL = 1e-12


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
        if "witness_point" in self.residuals:
            # A failure certificate stores only the point refuting positivity.
            f = self.params["f"]
            return {"witness_value": f.evaluate(self.residuals["witness_point"])}
        if self.kind == "tk":
            m, c, d = (self.decomposition[k] for k in ("m", "c", "d"))
            f = self.params["f"]
            out = {}
            per_point = []
            for p in self.params["points"]:
                val = 2.0 ** (2 * d * m) * c.evaluate(p) ** (2 * d)
                per_point.append(abs(f.evaluate(p) - val))
            out["per_point"] = per_point
            return out
        if self.kind == "sup":
            b, d = self.decomposition["b"], self.decomposition["d"]
            f, region = self.params["f"], self.params["region"]
            fv = f.evaluate_grid(region.sample_points)
            bv = b.evaluate_grid(region.sample_points) ** (2 * d)
            gap = np.abs(fv - bv)
            i = int(np.argmax(gap))
            return {"sup": float(gap[i]),
                    "argmax": tuple(region.sample_points[i])}
        if self.kind == "series":
            q = self.decomposition["q"]
            d = self.decomposition["d"]
            r, sign = self.params["r"], self.params["sign"]
            phi = self.params["phi"]
            a = self.params["a"]
            target = Polynomial.constant(a.n, float(r)) + sign * a
            return {"phi_norm_error": phi_norm(q ** (2 * d) - target, phi),
                    "tail_bound": self.residuals["tail_bound"],
                    "series_tail": self.residuals["series_tail"]}
        if self.kind == "module":
            p = _module_element(self.params, self.decomposition)
            a = self.params["a"]
            return {"per_point": [abs(p.evaluate(pt) - a.evaluate(pt))
                                  for pt in self.params["points"]]}
        if self.kind == "witness":
            a = self.decomposition["a"]
            region = self.params["region"]
            max_at = max(abs(a.evaluate(p)) for p in self.params["points"])
            return {"max_at_points": max_at,
                    "sup_norm": float(sup_norm(a, region))}
        raise ValueError(f"unknown certificate kind {self.kind!r}")

    def verify(self, tol: float = VERIFY_TOL) -> bool:
        """Recompute residuals from the stored decomposition and compare."""
        fresh = self.recompute_residuals()
        for key, val in fresh.items():
            stored = self.residuals[key]
            if isinstance(val, (list, tuple)) and not isinstance(val, str):
                stored_seq = list(stored)
                val_seq = list(val)
                if len(stored_seq) != len(val_seq):
                    return False
                for u, v in zip(val_seq, stored_seq):
                    u = float(u) if not isinstance(u, tuple) else u
                    if isinstance(u, tuple):
                        continue
                    if abs(u - float(v)) > tol * (1 + abs(float(v))):
                        return False
            elif isinstance(val, tuple):
                continue
            else:
                if abs(float(val) - float(stored)) > tol * (1 + abs(float(stored))):
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "success": self.success,
            "message": self.message,
            "params": _jsonify(self.params),
            "decomposition": _jsonify(self.decomposition),
            "residuals": _jsonify(self.residuals),
        }


def _jsonify(obj):
    if isinstance(obj, Polynomial):
        return obj.to_json_dict()
    if isinstance(obj, Region):
        return obj.to_json_dict()
    if isinstance(obj, WeightFunction):
        return obj.to_json_dict()
    if isinstance(obj, Dyadic):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _module_element(params, decomposition) -> Polynomial:
    generators = params["generators"]
    n = params["a"].n
    d = decomposition["d"]
    total = Polynomial.zero(n)
    for comp in decomposition["components"]:
        t = Polynomial.constant(n, comp["t_scalar"])
        if comp["generator_index"] is not None:
            t = t * generators[comp["generator_index"]]
        total = total + (1.0 / comp["lam"]) * comp["p"] ** (2 * d) * t
    return total


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


def tk_approximate(f: Polynomial, points, d: int, eps: float) -> Certificate:
    """Approximate f at finitely many points by a single scaled 2d-power.

    Construction: shift f by the smallest admissible dyadic 2**-k if it
    vanishes or dips slightly negative at a point; rescale by 2**(2dm)
    so all values land in (0, 1]; Lagrange-interpolate t -> t**(1/2d)
    through the distinct rescaled values; round the interpolant's
    coefficients to dyadics within a derivative-bound budget; compose
    with the rescaled input.  The certified element is (2**m * c)**(2d)
    with c exactly dyadic, and every per-point residual is below eps.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    pts = [tuple(float(v) for v in p) for p in points]
    for p in pts:
        if len(p) != f.n:
            raise ValueError(f"point dimension {len(p)} != {f.n}")
    f_exact = f.to_exact()
    vals = [f.evaluate(p) for p in pts]
    params = {"f": f, "points": pts, "d": d, "eps": eps}

    work = f_exact
    shift_k = None
    if min(vals) <= 0:
        # Minimal k with 2**-k <= eps/2; a smaller shift cannot help.
        shift_k = max(0, math.ceil(math.log2(2.0 / eps)))
        shift = Dyadic(1, shift_k)
        if min(vals) + float(shift) <= 0:
            i = int(np.argmin(vals))
            return Certificate(
                "tk", False, params, {}, {"witness_point": pts[i],
                                          "witness_value": vals[i]},
                message=(f"not Psd at the points within eps/2: "
                         f"f{pts[i]} = {vals[i]}"),
            )
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

    c = Polynomial.zero(f.n)
    b_pow = Polynomial.constant(f.n, Dyadic(1))
    for j, lt in enumerate(lam_tilde):
        if j > 0:
            b_pow = b_pow * b
        c = c + Polynomial.constant(f.n, lt) * b_pow

    residuals = [abs(f.evaluate(p) - 2.0 ** (2 * d * m) * c.evaluate(p) ** (2 * d))
                 for p in pts]
    decomposition = {"m": m, "c": c, "d": d, "shift_k": shift_k,
                     "coeffs": lam_tilde, "nodes": nodes}
    return Certificate("tk", max(residuals) < eps, params, decomposition,
                       {"per_point": residuals})


def sup_approximate(f: Polynomial, region: Region, d: int, eps: float,
                    max_fit_degree: int) -> Certificate:
    """Approximate f in the sampled sup-norm by b**(2d).

    The continuous target (f + eps/2)**(1/2d) is fitted by discrete
    least squares over the region's sample grid; success means
    ||f - b**(2d)|| < eps on the samples.  On failure the certificate
    carries the best residual and the degree used.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    samples = region.sample_points
    fvals = f.evaluate_grid(samples)
    params = {"f": f, "region": region, "d": d, "eps": eps,
              "max_fit_degree": max_fit_degree}
    imin = int(np.argmin(fvals))
    if fvals[imin] < -eps / 4:
        return Certificate(
            "sup", False, params, {},
            {"witness_point": tuple(samples[imin]),
             "witness_value": float(fvals[imin])},
            message=(f"not Psd on the region within eps/4: "
                     f"f{tuple(samples[imin])} = {fvals[imin]}"),
        )

    target = (fvals + eps / 2) ** (1.0 / (2 * d))
    monos = monomials_upto(f.n, max_fit_degree)
    a = design_matrix(samples, monos)
    scale = np.max(np.abs(a), axis=0)
    scale[scale == 0] = 1.0
    coeffs, _, rank, _ = np.linalg.lstsq(a / scale, target, rcond=None)
    coeffs = coeffs / scale
    b = Polynomial(f.n, {exp: float(ci) for exp, ci in zip(monos, coeffs)})

    bvals = b.evaluate_grid(samples) ** (2 * d)
    gap = np.abs(fvals - bvals)
    i = int(np.argmax(gap))
    residual = float(gap[i])
    message = ""
    if rank < len(monos):
        message = f"fit matrix rank-deficient: rank {rank} of {len(monos)} columns"
    return Certificate(
        "sup", residual < eps, params,
        {"b": b, "d": d, "fit_degree": max_fit_degree},
        {"sup": residual, "argmax": tuple(samples[i])},
        message=message,
    )


def series_root(r: float, a: Polynomial, d: int, n_terms: int,
                phi: WeightFunction, sign: int = 1) -> Certificate:
    """Truncated binomial series q_N for (r + sign*a)**(1/2d).

    Requires ||a||_phi < r strictly (the series' radius of convergence).
    The certificate records the measured ||q_N**(2d) - (r + sign*a)||_phi,
    the raw series tail sum_{i>N} |lambda_i| ||a||_phi**i (closed form by
    geometric majorization), and a tail bound on the measured power-level
    error obtained from submultiplicativity of the weighted l1 norm.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if n_terms < 0:
        raise ValueError(f"series length must be >= 0, got {n_terms}")
    norm_a = phi_norm(a, phi)
    if norm_a > r:
        raise ValueError(f"series requires ||a||_phi < r: {norm_a} > {r}")

    alpha = 1.0 / (2 * d)
    # lam[i] = r**alpha * binom(alpha, i) * (sign / r)**i
    lam = [r**alpha]
    binom = 1.0
    for i in range(n_terms + 1):
        binom *= (alpha - i) / (i + 1)
        lam.append(r**alpha * binom * (sign / r) ** (i + 1))

    q = Polynomial.zero(a.n)
    a_pow = Polynomial.constant(a.n, 1)
    for i in range(n_terms + 1):
        if i > 0:
            a_pow = a_pow * a
        q = q + lam[i] * a_pow

    # |lam[i+1]| <= |lam[i]| / r since |(alpha - i)/(i + 1)| <= 1, so the
    # tail is dominated by a geometric series with ratio ||a|| / r; the
    # bound degenerates to +inf on the boundary ||a|| = r.
    ratio = norm_a / r
    if ratio < 1:
        series_tail = abs(lam[n_terms + 1]) * norm_a ** (n_terms + 1) / (1 - ratio)
    else:
        series_tail = math.inf
    norm_q = phi_norm(q, phi)
    power_tail = (series_tail * 2 * d
                  * (norm_q + series_tail) ** (2 * d - 1)
                  if math.isfinite(series_tail) else math.inf)

    target = Polynomial.constant(a.n, float(r)) + sign * a
    measured = phi_norm(q ** (2 * d) - target, phi)
    residuals = {"phi_norm_error": measured, "tail_bound": power_tail,
                 "series_tail": series_tail}
    params = {"r": float(r), "a": a, "d": d, "N": n_terms, "phi": phi,
              "sign": sign}
    return Certificate("series", True, params,
                       {"q": q, "d": d, "coeffs": lam[: n_terms + 1]},
                       residuals)


def module_interpolate(a: Polynomial, generators, points, d: int) -> Certificate:
    """Exact-at-points member of the 2d-power module generated by the
    given polynomials (plus the implicit generator 1).

    Builds node elements t_i matching a's values, Lagrange-style products
    p_il over distinct node values, multiplicity counts, and assembles
    p = sum_j (1/lam_j) p_j**(2d) t_j, which matches a at every point.
    The decomposition certifies module membership syntactically.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    generators = list(generators)
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise ValueError("at least one point is required")
    avals = [a.evaluate(p) for p in pts]
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

    t_polys = [scalar * (generators[gi] if gi is not None else one)
               for scalar, gi in node_elems]
    k = len(pts)
    tvals = [[t.evaluate(p) for t in t_polys] for p in pts]  # tvals[i][l]

    p_polys = []
    for i in range(k):
        pi = one
        for ell in range(k):
            for j in range(k):
                if abs(tvals[i][ell] - tvals[j][ell]) > NODE_TIE_TOL:
                    pi = pi * (t_polys[ell] - tvals[j][ell]) * (
                        1.0 / (tvals[i][ell] - tvals[j][ell]))
            # p_il = 1 when no j separates, which the loop realizes as-is
        p_polys.append(pi)

    lam = []
    for i in range(k):
        lam.append(sum(
            1 for kk in range(k)
            if all(abs(tvals[kk][ell] - tvals[i][ell]) <= NODE_TIE_TOL
                   for ell in range(k))
        ))

    components = [{"lam": lam[j], "p": p_polys[j],
                   "t_scalar": node_elems[j][0],
                   "generator_index": node_elems[j][1]}
                  for j in range(k)]
    params = {"a": a, "generators": generators, "points": pts, "d": d}
    decomposition = {"d": d, "components": components}
    p_total = _module_element(params, decomposition)
    residuals = [abs(p_total.evaluate(p) - v) for p, v in zip(pts, avals)]
    return Certificate("module", max(residuals) < 1e-9, params, decomposition,
                       {"per_point": residuals})


def strictness_witness(points, region: Region, eps: float,
                       fit_degree: int) -> Certificate:
    """Witness that the sup-norm ball contains no evaluation-seminorm
    neighborhood: a polynomial small at all the given points yet of
    sampled sup-norm near 1, via a constrained fit to a bump target
    vanishing near the points and equal to 1 at a separated sample.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    samples = region.sample_points
    tree = cKDTree(pts)
    dist, _ = tree.query(samples, k=1)
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
    constraints = design_matrix(np.vstack([pts, beta]), monos)
    rhs = np.zeros(len(pts) + 1)
    rhs[-1] = 1.0

    # Equality-constrained least squares on the bump target via the
    # null-space method: x = x0 + Z y with C x0 = rhs, C Z = 0.
    x0, _, _, _ = np.linalg.lstsq(constraints, rhs, rcond=None)
    feas = np.linalg.norm(constraints @ x0 - rhs)
    u, sigma, vt = np.linalg.svd(constraints)
    rank = int(np.sum(sigma > 1e-12 * sigma[0]))
    z = vt[rank:].T
    a_mat = design_matrix(samples, monos)
    bump = np.clip(dist / dist[ib], 0.0, 1.0) ** 2
    if z.shape[1] > 0:
        y, _, _, _ = np.linalg.lstsq(a_mat @ z, bump - a_mat @ x0, rcond=None)
        x = x0 + z @ y
    else:
        x = x0
    a_poly = Polynomial(region.n, {exp: float(ci) for exp, ci in zip(monos, x)})

    max_at = max(abs(a_poly.evaluate(p)) for p in point_list)
    sup = sup_norm(a_poly, region)
    success = feas <= 1e-8 and max_at <= eps and sup.value >= 1 - eps
    message = "" if success else (
        f"fit degree {fit_degree} too small: |a| at points {max_at}, "
        f"sup {sup.value}, constraint feasibility {feas}"
    )
    return Certificate("witness", success, params,
                       {"a": a_poly, "beta": beta},
                       {"max_at_points": max_at, "sup_norm": sup.value},
                       message=message)


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
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must be nonempty and positive")
    if sorted(eps_list) != eps_list:
        raise ValueError("eps_list must be sorted ascending")
    report = FatteningReport()
    for eps in eps_list:
        fat = fatten(region, eps)
        vals = f.evaluate_grid(fat.sample_points)
        i = int(np.argmin(vals))
        report.entries.append((eps, float(vals[i]), tuple(fat.sample_points[i])))
    report.member = report.entries[0][1] >= 0
    return report
