"""Seeded job mixes and the closures that run them.

``generate(workload, seed)`` returns a plain-JSON spec: every input of
every job plus the ground truth known from its construction.  It uses
only numpy and ``polyref``, so the same seed gives byte-identical specs
and the program under test sees nothing but the generated inputs.
``build(spec, c2, workdir)`` turns a spec into ``Job`` closures over a
freshly imported cone2d; CLI jobs get their JSON input files written
into ``workdir``.

The mixes are stratified: the list of (job kind, size) pairs of a pass
is fixed, and the seed draws coefficients, points and the order.  That
keeps the cost distribution, and so the latency percentiles, comparable
across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import polyref as pr

WORKLOADS = ("grid_fit", "exact_certs", "cli_moments")

# How many jobs of each kind are run untimed during set-up, cheapest
# sizes first, so cold BLAS/allocator start-up stays out of job_ms.
WARM_PER_KIND = 2


@dataclass
class Job:
    index: int
    kind: str
    spec: dict
    call: Callable[[], Any]
    verify: Callable[[Any], bool] | None = None
    inputs: tuple = ()        # CLI input files
    replay: Callable[[], Any] | None = None   # the CLI certificate, via the API


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


# -- generation helpers (numpy + polyref only) --------------------------


def _rand_float_poly(rng, n: int, degree: int, lo=-1.0, hi=1.0) -> dict:
    return {e: float(rng.uniform(lo, hi)) for e in pr.monomials(n, degree)}


def _rand_dyadic_poly(rng, n: int, degree: int, bits: int = 3) -> dict:
    """Nonzero coefficients +-m / 2**bits, 1 <= m <= 2**bits."""
    one = 1 << bits
    return {e: Fraction(int(rng.integers(1, one + 1)) * int(rng.choice((-1, 1))), one)
            for e in pr.monomials(n, degree)}


def _normalized(rng, n, degree, samples, amp) -> dict:
    """Random float poly scaled to max |q| = amp on the samples."""
    q = _rand_float_poly(rng, n, degree)
    top = float(np.max(np.abs(pr.eval_grid(q, samples))))
    return pr.scale(q, amp / top)


def _disk(cx: float, cy: float, r: float) -> dict:
    return {(0, 0): r * r - cx * cx - cy * cy, (1, 0): 2 * cx, (0, 1): 2 * cy,
            (2, 0): -1.0, (0, 2): -1.0}


def _region(box, resolution, ineqs=()) -> dict:
    return {"n": len(box), "box": [list(map(float, side)) for side in box],
            "resolution": resolution,
            "ineqs": [pr.to_json(len(box), g) for g in ineqs]}


def _region_samples(region: dict) -> np.ndarray:
    ineqs = [pr.from_json(g) for g in region["ineqs"]]
    return pr.grid(region["box"], region["resolution"], ineqs)


def _spread_points(rng, k: int, lo: float, hi: float) -> list:
    """k distinct 1-D points, jittered around an even spacing."""
    step = (hi - lo) / k
    return [[float(lo + (i + 0.5 + rng.uniform(-0.3, 0.3)) * step)]
            for i in range(k)]


def _uniform_moments(box, degree: int) -> dict:
    moments = []
    for exp in pr.monomials(len(box), degree):
        v = 1.0
        for (lo, hi), e in zip(box, exp):
            v *= (hi ** (e + 1) - lo ** (e + 1)) / ((e + 1) * (hi - lo))
        moments.append({"exp": list(exp), "val": v})
    return {"n": len(box), "D": degree, "moments": moments}


def _atomic_moments(atoms, weights, degree: int) -> dict:
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    moments = []
    for exp in pr.monomials(atoms.shape[1], degree):
        col = np.prod(atoms ** np.array(exp), axis=1)
        moments.append({"exp": list(exp), "val": float(col @ weights)})
    return {"n": atoms.shape[1], "D": degree, "moments": moments}


# Distance from a signed functional's moment vector to every nonnegative
# measure's, far above the 1e-6 tolerance of moments recover.
SIGNED_MARGIN = 1e-3


def _signed_margin(atoms: np.ndarray, w: np.ndarray) -> float:
    """Lower bound on ||m - m_mu|| over nonnegative measures mu, for the
    moments m of sum_j w_j delta(atoms_j) with only w[-1] < 0.

    h = prod_j (x_neg - a_j) . (x - a_j) vanishes at every positive atom
    a_j and not at x_neg, so L(h**2) = w[-1] h(x_neg)**2 < 0 while
    L_mu(h**2) >= 0; Cauchy-Schwarz turns that gap into the bound.
    """
    n = atoms.shape[1]
    neg = atoms[-1]
    h = {(0,) * n: 1.0}
    for a in atoms[:-1]:
        u = neg - a
        line = {(0,) * n: -float(u @ a)}
        for v in range(n):
            line[tuple(1 if j == v else 0 for j in range(n))] = float(u[v])
        h = pr.mul(h, line)
    h2 = pr.mul(h, h)
    value = float(pr.eval_grid(h2, neg[None, :])[0])
    return abs(w[-1]) * value / float(np.linalg.norm(list(h2.values())))


def _shuffled(rng, jobs: list) -> list:
    """Mark the warm-up jobs (the first WARM_PER_KIND of each kind and
    region, in generation order, which lists small sizes first), then
    draw the order of the timed pass from the seed."""
    seen: dict = {}
    for job in jobs:
        key = (job["kind"], job.get("region") if isinstance(job.get("region"), str) else None)
        seen[key] = seen.get(key, 0) + 1
        job["warm"] = seen[key] <= WARM_PER_KIND
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# -- grid_fit ------------------------------------------------------------


def _gen_grid_fit(rng) -> dict:
    # The regions are fixed: x**e costs far more for negative x than for
    # positive x in numpy, so a seeded share of negative samples would
    # make the cost of a pass depend on the seed.
    regions = {
        "line": _region([(-1.0, 1.0)], 1e-3),
        "line_shifted": _region([(-0.5, 1.5)], 1e-3),
        "square": _region([(-1.0, 1.0), (-1.0, 1.0)], 0.02),
        "disk": _region([(-1.0, 1.0), (-1.0, 1.0)], 0.02,
                        [_disk(0.05, -0.05, 0.9)]),
        "patch": _region([(0.0, 1.0), (0.0, 1.0)], 0.02),
    }
    samples = {k: _region_samples(v) for k, v in regions.items()}
    jobs = []

    # sup_approximate: 1-D at resolution 1e-3, 2-D boxes and disks at
    # 0.02; fit degrees 8-12; a fifth of the targets dip below -eps/4.
    plan = ([(("line", "line_shifted")[i % 2], 3, i) for i in range(40)]
            + [(("square", "disk")[i % 2], 2, i) for i in range(10)])
    for rid, qdeg, i in plan:
        n = regions[rid]["n"]
        d = 1 + (i // 2) % 2
        eps = 0.02
        fit_degree = 8 + (i // 4) % 5
        b0 = pr.add({(0,) * n: 1.0},
                    _normalized(rng, n, qdeg, samples[rid], 0.25))
        f = pr.power(b0, 2 * d, n)
        dips = i % 5 == 4
        if dips:
            fmin = float(np.min(pr.eval_grid(f, samples[rid])))
            f = pr.add(f, {(0,) * n: -(fmin + eps)})
        jobs.append({"kind": "sup", "region": rid, "f": pr.to_json(n, f),
                     "d": d, "eps": eps, "fit_degree": fit_degree,
                     "expect": "failure" if dips else "success"})

    # strictness_witness: 1-D degree 15, 2-D degree 8.  With k points a
    # product of k squared distances (degree 2k) is a witness, so one
    # exists at these degrees.
    for i in range(14):
        rid = ("line", "line_shifted")[i % 2] if i < 8 else ("square", "disk")[i % 2]
        n = regions[rid]["n"]
        k = 2 + i % 4 if n == 1 else 2 + i % 3
        idx = rng.choice(samples[rid].shape[0], size=k, replace=False)
        pts = [list(map(float, samples[rid][j])) for j in sorted(idx)]
        jobs.append({"kind": "witness", "region": rid, "points": pts,
                     "eps": 0.05, "fit_degree": 15 if n == 1 else 8,
                     "expect": "success"})

    # psd_on_fattening with 3 ascending eps; a fifth are non-members
    # (negative at a sample of the region itself).
    for i in range(16):
        rid = ("line", "patch")[i % 2]
        n = regions[rid]["n"]
        eps_list = [0.005, 0.01, 0.02] if n == 1 else [0.02, 0.04, 0.06]
        member = i % 5 != 4
        if member:
            q = _rand_float_poly(rng, n, 2)
            f = pr.add(pr.mul(q, q), {(0,) * n: float(rng.uniform(0.05, 0.2))})
        else:
            s = samples[rid][int(rng.integers(samples[rid].shape[0]))]
            f = {(0,) * n: -0.01}
            for v in range(n):
                e1 = tuple(1 if j == v else 0 for j in range(n))
                e2 = tuple(2 if j == v else 0 for j in range(n))
                f = pr.add(f, {e2: 1.0, e1: -2 * float(s[v]),
                               (0,) * n: float(s[v]) ** 2})
        jobs.append({"kind": "fattening", "region": rid, "f": pr.to_json(n, f),
                     "eps_list": eps_list,
                     "expect": "member" if member else "non_member"})

    # sampled sup-norm of degree 4-6 polynomials.
    for i in range(24):
        rid = ("line", "square", "disk", "line_shifted")[i % 4]
        n = regions[rid]["n"]
        f = _rand_float_poly(rng, n, 4 + i % 3)
        jobs.append({"kind": "sup_norm", "region": rid, "f": pr.to_json(n, f),
                     "expect": "value"})
    return {"regions": regions, "jobs": jobs}


# -- exact_certs ---------------------------------------------------------


def _psd_tk_input(rng, n: int, k: int) -> tuple:
    """k points and f = (q**2 (+ a second square in 2-D) + c) / 2**s with
    c > 0, so f > 0 everywhere; s makes max f at the points at most 1,
    which keeps tk's scaling exponent m = 0 on every seed."""
    pts = [list(map(float, rng.uniform(-1, 1, size=n))) for _ in range(k)]
    c = {(0,) * n: Fraction(int(rng.integers(1, 9)), 8)}
    if n == 1:
        q = _rand_dyadic_poly(rng, 1, 2)
        f = pr.add(pr.mul(q, q), c)
    else:
        q1 = _rand_dyadic_poly(rng, 2, 1)
        q2 = {e: v for e, v in _rand_dyadic_poly(rng, 2, 1).items() if sum(e)}
        f = pr.add(pr.add(pr.mul(q1, q1), pr.mul(q2, q2)), c)
    top = max(pr.eval_exact(f, p) for p in pts)
    s = 0
    while top > 1:
        top /= 2
        s += 1
    return pr.to_json(n, pr.scale(f, Fraction(1, 1 << s))), pts


def _gen_exact_certs(rng) -> dict:
    jobs = []
    # tk_approximate: degree-4 targets in 1 variable, quadratics in 2;
    # the largest sizes are the known breakdown range.
    tk_plan = ([(1, k, 1 + i % 3) for i, k in enumerate(
                   (5, 5, 6, 6, 7, 8, 8, 9, 10, 10, 10, 11, 12, 12, 13, 14, 14,
                    15, 16, 17, 18, 18, 19, 20, 20, 21, 22, 22, 23, 24, 25, 25))]
               + [(2, k, 1 + i % 3) for i, k in enumerate(
                   (5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 16, 18, 20))]
               + [(2, 25, 2)])
    for n, k, d in tk_plan:
        f, pts = _psd_tk_input(rng, n, k)
        jobs.append({"kind": "tk", "f": f, "points": pts,
                     "d": d, "eps": 1e-3, "expect": "success"})

    # series_root: 1 variable (degree-2 a) and 2 variables (degree-1 a),
    # N = 4..12, ||a||_phi / r between 1/3 and 2/3.
    for i in range(36):
        n = 1 if i < 21 else 2
        n_terms = 4 + (i % 5) * 2
        a = _rand_float_poly(rng, n, 2 if n == 1 else 1)
        if i % 2:
            radii = [float(v) for v in rng.uniform(0.5, 1.0, size=n)]
            phi = {"kind": "geometric", "radii": radii}
            norm = sum(abs(c) * math.prod(r ** e for r, e in zip(radii, exp))
                       for exp, c in a.items())
        else:
            phi = {"kind": "one", "n": n}
            norm = sum(abs(c) for c in a.values())
        jobs.append({"kind": "series", "a": pr.to_json(n, a), "phi": phi,
                     "r": norm * float(rng.uniform(1.5, 3.0)),
                     "d": 1 if n == 2 and n_terms > 8 else 1 + (i // 5) % 2,
                     "N": n_terms,
                     "sign": 1 if i % 3 else -1, "expect": "success"})

    # module_interpolate: 1-D, 3..8 points, a negative on the left half
    # of the points; one generator negative at all of them, so every
    # point has a node element and the construction is exact in exact
    # arithmetic.
    for k, d in ((3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2),
                 (7, 1), (8, 1), (3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2)):
        pts = _spread_points(rng, k, -1.0, 1.0)
        mid = 0.5 * (pts[(k - 1) // 2][0] + pts[k // 2][0])
        w = float(rng.uniform(-0.2, 0.2))
        # a(x) = (x - mid) * (1 + w * (x - mid)): the second factor stays
        # >= 0.6 on [-1, 1], so a < 0 exactly on the left half.
        a = {(0,): -mid + w * mid * mid, (1,): 1.0 - 2 * w * mid, (2,): w}
        jobs.append({"kind": "module", "a": pr.to_json(1, a),
                     "generators": [pr.to_json(1, {(0,): -2.0, (1,): 1.0})],
                     "points": pts, "d": d, "expect": "success"})
    return {"regions": {}, "jobs": jobs}


# -- cli_moments ---------------------------------------------------------


def _gen_cli_moments(rng) -> dict:
    regions = {
        "atoms1": _region([(0.0, 1.0)], 0.01),          # 101 atoms
        "atoms2": _region([(0.0, 1.0), (0.0, 1.0)], 0.025),  # 1681 atoms
        "square": _region([(-1.0, 1.0), (-1.0, 1.0)], 0.02),
        "line": _region([(-1.0, 1.0)], 1e-3),
    }
    samples = {k: _region_samples(v) for k, v in regions.items()}
    jobs = []

    def functional(rid, degree, flavour, i):
        """Moment data; the atom count is fixed by the job index i so
        that the NNLS work of a pass does not depend on the seed."""
        box = regions[rid]["box"]
        if flavour == "uniform":
            return _uniform_moments(box, degree)
        grid = samples[rid]
        if flavour == "atomic":
            k = 2 + i % 6
            idx = rng.choice(grid.shape[0], size=k, replace=False)
            return _atomic_moments(grid[idx], rng.uniform(0.1, 1.0, size=k),
                                   degree)
        # Signed: k <= D/2 positive atoms and one negative.
        k = 1 + i % (degree // 2)
        while True:
            idx = rng.choice(grid.shape[0], size=k + 1, replace=False)
            w = rng.uniform(0.2, 1.0, size=k + 1)
            w[-1] = -0.5 * w[:-1].sum()
            if _signed_margin(grid[idx], w) > SIGNED_MARGIN:
                return _atomic_moments(grid[idx], w, degree)

    flavours = ("uniform", "atomic", "uniform", "atomic", "signed")
    # moments recover is the core of this mix: 1-D at D = 4..10 and, mostly,
    # 2-D at D = 6..10, where the inner NNLS solves dominate.
    for i in range(60):
        rid = "atoms1" if i < 12 else "atoms2"
        flavour = flavours[i % 5]
        degree = (4 + 2 * (i // 3) if i < 12
                  else (6, 8, 8, 10, 10, 10)[(i - 12) // 8])
        jobs.append({"kind": "cli.recover", "region": rid,
                     "moments": functional(rid, degree, flavour, i),
                     "expect": "non_psd" if flavour == "signed" else "psd"})
    for i in range(8):
        rid = ("atoms1", "atoms2")[i % 2]
        flavour = flavours[i % 5]
        jobs.append({"kind": "cli.check",
                     "moments": functional(rid, 4 + 2 * (i % 3), flavour, i),
                     "expect": "non_psd" if flavour == "signed" else "psd"})
    for i in range(4):
        rid = ("atoms1", "atoms2")[i % 2]
        n = regions[rid]["n"]
        phi = ({"kind": "geometric",
                "radii": [float(v) for v in rng.uniform(0.5, 2.0, size=n)]}
               if i % 2 else {"kind": "lasserre", "n": n})
        jobs.append({"kind": "cli.continuity", "phi": phi,
                     "moments": functional(rid, 4 + 2 * (i % 3), "uniform", i),
                     "expect": "value"})
    for i in range(6):
        rid = ("atoms1", "atoms2")[i % 2]
        jobs.append({"kind": "power_check", "d": 1, "seed": int(rng.integers(2**31)),
                     "moments": functional(rid, 4 + 2 * (i // 3),
                                           ("uniform", "atomic")[i % 2], i),
                     "expect": "psd"})
    for i in range(10):
        degree = 2 + i % 7
        dim = len(pr.monomials(2, degree))
        if i % 2:
            theta = rng.uniform(0, 2 * np.pi, size=dim + 4)
            pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            expect = "vanishing"
        else:
            pts = rng.uniform(-1, 1, size=(dim + 8, 2))
            expect = "hausdorff"
        jobs.append({"kind": "cli.hausdorff", "degree": degree,
                     "points": {"points": pts.tolist()}, "expect": expect})
    for i in range(4):
        n = 1 + i % 2
        phi = ({"kind": "geometric",
                "radii": [float(v) for v in rng.uniform(0.5, 2.0, size=n)]}
               if i % 2 else {"kind": "lasserre", "n": n})
        jobs.append({"kind": "cli.kphi_box", "phi": phi, "degree": 4 + i,
                     "expect": "value"})
    for i in range(4):
        side = float(rng.uniform(1.0, 4.0))
        lo = float(rng.uniform(-side, 0.0))
        box = [(lo, lo + side), (-side / 2, side / 2)]
        jobs.append({"kind": "cli.compare",
                     "region": _region(box, side / 100), "max_degree": 20,
                     "expect": "value"})
    for i in range(9):
        sub = ("sup", "phi", "rho")[i % 3]
        f = pr.to_json(2, _rand_float_poly(rng, 2, 4))
        job = {"kind": f"cli.norms_{sub}", "f": f, "expect": "value"}
        if sub == "sup":
            job["region"] = "square"
        elif sub == "phi":
            job["phi"] = {"kind": "geometric",
                          "radii": [float(v) for v in rng.uniform(0.5, 2.0, 2)]}
        else:
            job["point"] = [float(v) for v in rng.uniform(-2, 2, size=2)]
        jobs.append(job)
    for i, k in enumerate((5, 6, 8, 10, 12, 15)):
        f, pts = _psd_tk_input(rng, 2, k)
        jobs.append({"kind": "cli.tk", "f": f, "points": pts,
                     "d": 1 + i % 2, "eps": 1e-3, "expect": "success"})
    for i in range(6):
        d = 1 + i % 2
        b0 = pr.add({(0,): 1.0}, _normalized(rng, 1, 3, samples["line"], 0.25))
        jobs.append({"kind": "cli.sup", "region": "line",
                     "f": pr.to_json(1, pr.power(b0, 2 * d, 1)), "d": d,
                     "eps": 0.02, "fit_degree": 8 + i % 5, "expect": "success"})
    for i in range(4):
        k = 2 + i % 4
        idx = rng.choice(samples["line"].shape[0], size=k, replace=False)
        pts = [list(map(float, samples["line"][j])) for j in sorted(idx)]
        jobs.append({"kind": "cli.witness", "region": "line", "points": pts,
                     "eps": 0.05, "fit_degree": 15, "expect": "success"})
    return {"regions": regions, "jobs": jobs}


_GENERATORS = {"grid_fit": _gen_grid_fit, "exact_certs": _gen_exact_certs,
               "cli_moments": _gen_cli_moments}


def generate(workload: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = _GENERATORS[workload](rng)
    spec["jobs"] = _shuffled(rng, spec["jobs"])
    spec.update(workload=workload, seed=seed)
    return spec


# -- building jobs over an imported cone2d ------------------------------


def _cli_caller(cli_mod, argv: list) -> Callable[[], tuple]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_mod.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue()
    return call


def _write(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        fh.write(dumps(data))
    return path


# argv flag -> spec field holding that file's content
_CLI_FILES = {"--poly": "f", "--region": "region", "--points": "points",
              "--moments": "moments", "--phi": "phi"}


def _cli_argv(job: dict, paths: dict) -> list:
    kind = job["kind"][len("cli."):]
    head = {
        "recover": ["moments", "recover", "--moments", "--region"],
        "check": ["moments", "check", "--moments"],
        "continuity": ["moments", "continuity", "--moments", "--phi"],
        "hausdorff": ["spectrum", "hausdorff", "--points", "--degree"],
        "kphi_box": ["spectrum", "kphi-box", "--phi", "--degree"],
        "compare": ["compare", "--region", "--max-degree"],
        "norms_sup": ["norms", "sup", "--poly", "--region"],
        "norms_phi": ["norms", "phi", "--poly", "--phi"],
        "norms_rho": ["norms", "rho", "--poly", "--point"],
        "tk": ["approx", "tk", "--poly", "--points", "--d", "--eps"],
        "sup": ["approx", "sup", "--poly", "--region", "--d", "--eps",
                "--max-degree"],
        "witness": ["witness", "--region", "--points", "--eps", "--degree"],
    }[kind]
    values = {"--degree": job.get("degree", job.get("fit_degree")),
              "--max-degree": job.get("max_degree", job.get("fit_degree")),
              "--d": job.get("d"), "--eps": job.get("eps"),
              "--point": ",".join(repr(v) for v in job.get("point", ()))}
    argv = ["--no-timestamp"]
    for token in head:
        if not token.startswith("--"):
            argv.append(token)
        elif token in _CLI_FILES:
            argv += [token, paths[token]]
        else:
            argv.append(f"{token}={values[token]}")  # "=" keeps "-1,2" a value
    return argv


def build(spec: dict, c2, cli_mod, workdir: str) -> list:
    """Job closures over the cone2d package ``c2``.  Each closure looks
    the callable up on the package at call time, so a traced run sees
    the wrapped names."""
    regions = {rid: c2.Region.from_json_dict(data)
               for rid, data in spec["regions"].items()}
    jobs = []
    if any(j["kind"].startswith("cli.") for j in spec["jobs"]):
        os.makedirs(workdir, exist_ok=True)
    region_files: dict = {}
    for index, job in enumerate(spec["jobs"]):
        kind = job["kind"]
        if kind.startswith("cli."):
            paths = {}
            for flag, field in _CLI_FILES.items():
                if field not in job:
                    continue
                content = job[field]
                if isinstance(content, str):  # a shared region, by id
                    if content not in region_files:
                        region_files[content] = _write(
                            workdir, "region-" + content, spec["regions"][content])
                    paths[flag] = region_files[content]
                else:
                    paths[flag] = _write(workdir, f"{index}-{field}", content)
            api_kind = kind[len("cli."):]
            replay = (_api_call(api_kind, job, c2, regions)
                      if api_kind in ("tk", "sup", "witness") else None)
            jobs.append(Job(index, kind, job, _cli_caller(cli_mod, _cli_argv(job, paths)),
                            inputs=tuple(paths.values()), replay=replay))
            continue
        verify = (lambda cert: cert.verify()) if kind in _CERT_KINDS else None
        jobs.append(Job(index, kind, job, _api_call(kind, job, c2, regions), verify))
    return jobs


_CERT_KINDS = ("sup", "witness", "tk", "series", "module")


def _api_call(kind: str, job: dict, c2, regions: dict) -> Callable[[], Any]:
    poly = c2.Polynomial.from_json_dict
    region = regions.get(job.get("region"))
    if kind == "sup":
        f = poly(job["f"])
        return lambda: c2.sup_approximate(f, region, job["d"], job["eps"],
                                          job["fit_degree"])
    if kind == "witness":
        pts = [tuple(p) for p in job["points"]]
        return lambda: c2.strictness_witness(pts, region, job["eps"], job["fit_degree"])
    if kind == "fattening":
        f = poly(job["f"])
        return lambda: c2.psd_on_fattening(f, region, job["eps_list"])
    if kind == "sup_norm":
        f = poly(job["f"])
        return lambda: c2.sup_norm(f, region)
    if kind == "tk":
        f = poly(job["f"])
        pts = [tuple(p) for p in job["points"]]
        return lambda: c2.tk_approximate(f, pts, job["d"], job["eps"])
    if kind == "series":
        a, phi = poly(job["a"]), c2.WeightFunction.from_json_dict(job["phi"])
        return lambda: c2.series_root(job["r"], a, job["d"], job["N"], phi, job["sign"])
    if kind == "module":
        a = poly(job["a"])
        gens = [poly(g) for g in job["generators"]]
        pts = [tuple(p) for p in job["points"]]
        return lambda: c2.module_interpolate(a, gens, pts, job["d"])
    if kind == "power_check":
        fn = c2.MomentFunctional.from_json_dict(job["moments"])
        return lambda: c2.power_psd_check(fn, job["d"], seed=job["seed"])
    raise ValueError(f"unknown job kind {kind!r}")


def describe(job: dict) -> str:
    """Short size label of a job spec, for failure reports."""
    parts = []
    for key in ("f", "a", "moments"):
        if isinstance(job.get(key), dict) and "n" in job[key]:
            parts.append(f"n={job[key]['n']}")
            break
    points = job.get("points")
    if points is not None:
        parts.append(f"points={len(points['points'] if isinstance(points, dict) else points)}")
    for key in ("d", "N", "fit_degree", "degree"):
        if key in job:
            parts.append(f"{key}={job[key]}")
    if isinstance(job.get("moments"), dict):
        parts.append(f"D={job['moments']['D']}")
    return " ".join(parts)


def as_report(job: Job, result) -> dict:
    """JSON form of a job's result, the only thing the oracles read."""
    if job.kind.startswith("cli."):
        code, out = result
        return {"exit": code, "stdout": out}
    if job.kind == "fattening":
        return {"member": result.member,
                "entries": [[e, v, list(p)] for e, v, p in result.entries]}
    if job.kind == "sup_norm":
        return {"value": result.value, "argmax": list(result.argmax)}
    if job.kind == "power_check":
        h = result.counterexample
        return {"consistent": result.consistent,
                "counterexample": h.to_json_dict() if h is not None else None,
                "value": result.counterexample_value}
    return result.to_json_dict()
