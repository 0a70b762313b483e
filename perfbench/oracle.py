"""Ground-truth checks, one per job kind, run outside the timed section.

Each check reads the job's spec (its inputs and the verdict known from
how they were built) and the JSON form of the result, and recomputes
what the result claims with ``polyref`` only:

- tk: exact evaluation of f and (2**m c)**(2d) at the dyadic points;
- sup, witness: dense re-sampling at half the region's resolution;
- series: the power-level error recomputed by independent expansion;
- module: exact evaluation of the structural decomposition;
- recover: the moments of the returned measure;
- check, hausdorff: the verdict known from construction, and the
  witness polynomial re-evaluated.

Only inputs with a clean ground truth are generated, so every
disagreement is a failure of the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

import polyref as pr


@dataclass
class Check:
    ok: bool            # verdict matches ground truth, every re-check passed
    claim: bool         # the job claimed success (or exited 0)
    refuted: bool       # a re-check contradicts what the job claimed
    note: str = ""


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def _strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _region(spec: dict, job: dict) -> dict:
    r = job["region"]
    return spec["regions"][r] if isinstance(r, str) else r


def _dense(region: dict) -> np.ndarray:
    ineqs = [pr.from_json(g) for g in region["ineqs"]]
    return pr.grid(region["box"], region["resolution"] / 2, ineqs)


def _samples(region: dict) -> np.ndarray:
    ineqs = [pr.from_json(g) for g in region["ineqs"]]
    return pr.grid(region["box"], region["resolution"], ineqs)


def _in_region(region: dict, point) -> bool:
    for x, (lo, hi) in zip(point, region["box"]):
        if not lo - 1e-12 <= x <= hi + 1e-12:
            return False
    p = np.array([point], dtype=float)
    return all(pr.eval_grid(pr.from_json(g), p)[0] >= -1e-12
               for g in region["ineqs"])


def _weight(phi: dict, exp) -> float:
    if phi["kind"] == "one":
        return 1.0
    if phi["kind"] == "geometric":
        return math.prod(r ** e for r, e in zip(phi["radii"], exp))
    if phi["kind"] == "lasserre":
        return float(math.factorial(2 * ((sum(exp) + 1) // 2)))
    raise ValueError(f"unknown weight kind {phi['kind']!r}")


def _moments(data: dict) -> dict:
    return {tuple(m["exp"]): m["val"] for m in data["moments"]}


# -- certificate kinds (API results and CLI approx reports) --------------


def check_tk(spec, job, cert) -> Check:
    if not cert["success"]:
        return Check(False, False, False, "claimed failure on data PSD at the points")
    dec = cert["decomposition"]
    f, c = pr.from_json(job["f"]), pr.from_json(dec["c"])
    scale, power, eps = Fraction(2) ** dec["m"], 2 * dec["d"], Fraction(job["eps"])
    for p in job["points"]:
        res = abs(pr.eval_exact(f, p) - (scale * pr.eval_exact(c, p)) ** power)
        if res >= eps:
            return Check(False, True, True, f"exact residual {float(res):.3g} at {p}")
    return Check(True, True, False)


def check_sup(spec, job, cert) -> Check:
    region = _region(spec, job)
    f = pr.from_json(job["f"])
    eps = job["eps"]
    if cert["success"]:
        if job["expect"] != "success":
            return Check(False, True, True, "claimed success on a target below -eps")
        dec = cert["decomposition"]
        pts = _dense(region)
        bv = pr.eval_grid(pr.from_json(dec["b"]), pts) ** (2 * dec["d"])
        gap = float(np.max(np.abs(pr.eval_grid(f, pts) - bv)))
        if not gap < eps:
            return Check(False, True, True, f"dense residual {gap:.3g} >= eps")
        return Check(True, True, False)
    if job["expect"] == "success":
        return Check(False, False, False, "claimed failure on a fittable target")
    res = cert["residuals"]
    point = res["witness_point"]
    value = float(pr.eval_grid(f, np.array([point], dtype=float))[0])
    if not (_in_region(region, point) and value < -eps / 4
            and _close(value, res["witness_value"], 1e-9)):
        return Check(False, False, True, f"bad witness {point}: f = {value}")
    return Check(True, False, False)


def check_witness(spec, job, cert) -> Check:
    if not cert["success"]:
        return Check(False, False, False, "no witness found at a degree where one exists")
    eps = job["eps"]
    a = pr.from_json(cert["decomposition"]["a"])
    at_points = float(np.max(np.abs(pr.eval_grid(a, np.array(job["points"])))))
    sup = float(np.max(np.abs(pr.eval_grid(a, _dense(_region(spec, job))))))
    if at_points > eps or sup < 1 - eps:
        return Check(False, True, True, f"|a| at points {at_points:.3g}, sup {sup:.3g}")
    return Check(True, True, False)


def check_series(spec, job, cert) -> Check:
    dec, res = cert["decomposition"], cert["residuals"]
    q, a = pr.from_json(dec["q"]), pr.from_json(job["a"])
    n = job["a"]["n"]
    target = pr.add(pr.scale(a, job["sign"]), {(0,) * n: job["r"]})
    err = pr.add(pr.power(q, 2 * dec["d"], n), pr.scale(target, -1.0))
    measured = sum(abs(float(c)) * _weight(job["phi"], e) for e, c in err.items())
    if not cert["success"]:
        return Check(False, False, False, "series refused inside its radius")
    if not _close(measured, res["phi_norm_error"], 1e-6):
        return Check(False, True, True,
                     f"error {measured:.6g} != reported {res['phi_norm_error']:.6g}")
    if measured > res["tail_bound"] * (1 + 1e-9) + 1e-15:
        return Check(False, True, True,
                     f"error {measured:.3g} above its tail bound {res['tail_bound']:.3g}")
    return Check(True, True, False)


def check_module(spec, job, cert) -> Check:
    if not cert["success"]:
        return Check(False, False, False, "interpolation failed on separable points")
    a = pr.from_json(job["a"])
    gens = [pr.from_json(g) for g in job["generators"]]
    comps = cert["decomposition"]["components"]
    power = 2 * cert["decomposition"]["d"]
    parsed = []
    for comp in comps:
        if comp["t_scalar"] < 0 or comp["lam"] < 1:
            return Check(False, True, True, "decomposition leaves the module")
        parsed.append((Fraction(1, comp["lam"]), pr.from_json(comp["p"]),
                       Fraction(comp["t_scalar"]), comp["generator_index"]))
    for p in job["points"]:
        total = Fraction(0)
        for inv_lam, poly, t, gi in parsed:
            g = pr.eval_exact(gens[gi], p) if gi is not None else 1
            total += inv_lam * pr.eval_exact(poly, p) ** power * t * g
        res = abs(total - pr.eval_exact(a, p))
        if res >= Fraction(1, 10**9):
            return Check(False, True, True, f"exact residual {float(res):.3g} at {p}")
    return Check(True, True, False)


# -- other API kinds ---------------------------------------------------


def check_fattening(spec, job, rep) -> Check:
    region = _region(spec, job)
    f = pr.from_json(job["f"])
    tree = cKDTree(_samples(region))
    last = math.inf
    for eps, value, point in rep["entries"]:
        dist, _ = tree.query(point)
        actual = float(pr.eval_grid(f, np.array([point]))[0])
        if dist > eps * (1 + 1e-9) or not _close(actual, value, 1e-9) or value > last:
            return Check(False, rep["member"], True, f"bad minimum {value} at {point}")
        last = value
    expected = job["expect"] == "member"
    if rep["member"] != expected:
        return Check(False, rep["member"], rep["member"], f"member = {rep['member']}")
    return Check(True, rep["member"], False)


def check_sup_norm(spec, job, rep) -> Check:
    region = _region(spec, job)
    f = pr.from_json(job["f"])
    top = float(np.max(np.abs(pr.eval_grid(f, _samples(region)))))
    at = abs(float(pr.eval_grid(f, np.array([rep["argmax"]]))[0]))
    if not (_close(rep["value"], top, 1e-9) and _close(at, top, 1e-9)):
        return Check(False, True, True, f"sup {rep['value']} != {top}")
    return Check(True, True, False)


def check_power(spec, job, rep) -> Check:
    if rep["consistent"]:
        return Check(True, True, False)
    return Check(False, False, False, "counterexample to a functional with a measure")


# -- CLI kinds ---------------------------------------------------------


def _cli_recover(spec, job, result, code) -> Check:
    claim = code == 0
    if claim != bool(result["success"]):
        return Check(False, claim, True, "exit code disagrees with the verdict")
    if job["expect"] == "non_psd":
        # The generator keeps every nonnegative measure's moments at least
        # 1e-3 away, so no recovery can meet the 1e-6 tolerance.
        return Check(not claim, claim, claim,
                     "recovered a measure for a non-PSD functional" if claim else "")
    if not claim:
        return Check(False, False, False, "no measure recovered for a moment sequence")
    atoms = np.array(result["atoms"], dtype=float).reshape(-1, job["moments"]["n"])
    weights = np.array(result["weights"], dtype=float)
    grid = _samples(_region(spec, job))
    dist, _ = cKDTree(grid).query(atoms) if len(atoms) else (np.zeros(0), None)
    if np.any(weights < 0) or np.any(dist > 1e-12):
        return Check(False, True, True, "atoms off the grid or negative weights")
    target = _moments(job["moments"])
    resid = math.sqrt(sum(
        (float(np.prod(atoms ** np.array(e), axis=1) @ weights) - v) ** 2
        for e, v in target.items()))
    if resid > 1e-6 * (1 + 1e-6):
        return Check(False, True, True, f"moment residual {resid:.3g}")
    return Check(True, True, False)


def _cli_check(spec, job, result, code) -> Check:
    claim = code == 0
    if claim != bool(result["psd"]):
        return Check(False, claim, True, "exit code disagrees with the verdict")
    if job["expect"] == "psd":
        return Check(claim, claim, False, "" if claim else "PSD functional refused")
    if claim:
        return Check(False, True, True, "non-PSD functional accepted")
    h = pr.from_json(result["witness"])
    moments = _moments(job["moments"])
    value = sum(float(c) * moments[e] for e, c in pr.mul(h, h).items())
    if not value < 0:
        return Check(False, False, True, f"witness gives L(h^2) = {value}")
    return Check(True, False, False)


def _cli_continuity(spec, job, result, code) -> Check:
    moments, phi = _moments(job["moments"]), job["phi"]
    table, best = [], 0.0
    for k in range(job["moments"]["D"] + 1):
        for e, v in moments.items():
            if sum(e) == k:
                best = max(best, abs(v) / _weight(phi, e))
        table.append(best)
    ok = code == 0 and len(table) == len(result["table"]) and all(
        _close(x, y, 1e-12) for x, y in zip(result["table"], table))
    return Check(ok, code == 0, not ok, "" if ok else "continuity table differs")


def _cli_hausdorff(spec, job, result, code) -> Check:
    claim = code == 0
    if claim != bool(result["hausdorff"]):
        return Check(False, claim, True, "exit code disagrees with the verdict")
    pts = np.array(job["points"]["points"])
    degree = job["degree"]
    if job["expect"] == "hausdorff":
        return Check(claim, claim, False, "" if claim else "generic cloud refused")
    if claim:
        return Check(False, True, True, "points on a circle called Hausdorff")
    want = math.comb(degree, 2)
    worst = max(float(np.max(np.abs(pr.eval_grid(pr.from_json(q), pts))))
                for q in result["basis"])
    ok = result["kernel_dimension"] == want and worst < 1e-6
    return Check(ok, False, worst >= 1e-6,
                 "" if ok else f"kernel {result['kernel_dimension']} (want {want}), "
                               f"max |q| on points {worst:.3g}")


def _cli_kphi_box(spec, job, result, code) -> Check:
    phi = job["phi"]
    n = len(phi["radii"]) if phi["kind"] == "geometric" else phi["n"]
    want = []
    for i in range(n):
        r = min(_weight(phi, tuple(k if j == i else 0 for j in range(n))) ** (1 / k)
                for k in range(1, job["degree"] + 1))
        want.append(r)
    ok = code == 0 and all(_close(hi, r, 1e-12) and _close(-lo, r, 1e-12)
                           for (lo, hi), r in zip(result["box"], want))
    return Check(ok, code == 0, not ok, "" if ok else "box differs")


def _cli_compare(spec, job, result, code) -> Check:
    box = _region(spec, job)["box"]
    bound = max(max(abs(lo), abs(hi)) for lo, hi in box)
    m = Fraction(bound)
    threshold = next((j for j in range(1, job["max_degree"] + 1)
                      if m ** j / math.factorial(j) < 1), None)
    found = threshold is not None
    ok = (result["found"] == found and result["threshold"] == threshold
          and result["bound"] == bound and code == (0 if found else 1))
    return Check(ok, code == 0, not ok, "" if ok else "threshold differs")


def _cli_norms(spec, job, result, code) -> Check:
    f = pr.from_json(job["f"])
    sub = job["kind"][len("cli.norms_"):]
    if sub == "sup":
        want = float(np.max(np.abs(pr.eval_grid(f, _samples(_region(spec, job))))))
        rel = 1e-9
    elif sub == "phi":
        want = sum(abs(c) * _weight(job["phi"], e) for e, c in f.items())
        rel = 1e-12
    else:
        want = float(abs(pr.eval_exact(f, job["point"])))
        rel = 1e-12
    ok = code == 0 and _close(result["value"], want, rel)
    return Check(ok, code == 0, not ok, "" if ok else f"{result['value']} != {want}")


def _cli_cert(check):
    def run(spec, job, result, code):
        if (code == 0) != bool(result["success"]):
            return Check(False, code == 0, True, "exit code disagrees with the verdict")
        return check(spec, job, result)
    return run


_API = {"tk": check_tk, "sup": check_sup, "witness": check_witness,
        "series": check_series, "module": check_module,
        "fattening": check_fattening, "sup_norm": check_sup_norm,
        "power_check": check_power}

_CLI = {"recover": _cli_recover, "check": _cli_check,
        "continuity": _cli_continuity, "hausdorff": _cli_hausdorff,
        "kphi_box": _cli_kphi_box, "compare": _cli_compare,
        "norms_sup": _cli_norms, "norms_phi": _cli_norms, "norms_rho": _cli_norms,
        "tk": _cli_cert(check_tk), "sup": _cli_cert(check_sup),
        "witness": _cli_cert(check_witness)}


def check(spec: dict, job: dict, report: dict, verified) -> Check:
    """Check one job's result (``report`` is its JSON form; ``verified``
    is what Certificate.verify() returned, or None)."""
    kind = job["kind"]
    if kind.startswith("cli."):
        try:
            doc = _strict_loads(report["stdout"])
        except ValueError as exc:
            return Check(False, report["exit"] == 0, True, f"stdout is not strict JSON: {exc}")
        if "result" not in doc:
            return Check(False, report["exit"] == 0, False, f"error report: {doc}")
        return _CLI[kind[len("cli."):]](spec, job, doc["result"], report["exit"])
    out = _API[kind](spec, job, report)
    if verified is False:
        return Check(False, out.claim, out.claim, "verify() rejected its own certificate")
    return out
