"""Batch command-line front door: parse inputs, dispatch, emit JSON reports.

Exit codes: 0 success, 1 certified non-membership or failure verdict,
2 input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .approx import (PsdViolationError, strictness_witness, sup_approximate,
                     tk_approximate)
from .moments import (MomentFunctional, hankel_psd_check, measure_recover,
                      phi_continuity)
from .norms import (Region, WeightFunction, lasserre_threshold, phi_norm,
                    rho_alpha, sup_norm)
from .poly import Polynomial
from .spectrum import is_hausdorff, kphi_box, vanishing_ideal_basis

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _finite(v, what="number") -> float:
    """float(v), rejecting infinities and NaN: reports must stay strict JSON."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"non-finite {what} {v!r}")
    return x


def _points(data):
    pts = data.get("points") if isinstance(data, dict) else data
    if not pts:
        raise ValueError("no points found")
    return [tuple(_finite(v) for v in p) for p in pts]


def _load(path, parse, what):
    """Read a JSON input file and parse it; bad content is an InputError."""
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    try:
        with open(path) as fh:
            return parse(json.load(fh, parse_float=_finite,
                                   parse_constant=_finite))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: invalid {what}: {exc}") from exc


def default_tol() -> float:
    return _finite(os.environ.get("CONE2D_TOL", "1e-9"), "CONE2D_TOL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cone2d",
        description="Topologies, spectra, approximation certificates and "
                    "moment recovery for cones of sums of 2d-powers.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed threaded through randomized operations")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit wall time from the report (byte-stable output)")
    parser.add_argument("--summary", action="store_true",
                        help="append a human-readable summary line to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    norms = sub.add_parser("norms", help="evaluate seminorms and norms")
    norms_sub = norms.add_subparsers(dest="subcommand", required=True)
    p = norms_sub.add_parser("sup")
    p.add_argument("--poly", required=True)
    p.add_argument("--region", required=True)
    p = norms_sub.add_parser("phi")
    p.add_argument("--poly", required=True)
    p.add_argument("--phi", required=True)
    p = norms_sub.add_parser("rho")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, e.g. 1,2")

    spectrum = sub.add_parser("spectrum", help="spectrum and density tests")
    spectrum_sub = spectrum.add_subparsers(dest="subcommand", required=True)
    p = spectrum_sub.add_parser("kphi-box")
    p.add_argument("--phi", required=True)
    p.add_argument("--degree", type=int, required=True)
    p = spectrum_sub.add_parser("hausdorff")
    p.add_argument("--points", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    approx = sub.add_parser("approx", help="approximation certificates")
    approx_sub = approx.add_subparsers(dest="subcommand", required=True)
    p = approx_sub.add_parser("tk")
    p.add_argument("--poly", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--eps", type=float, required=True)
    p = approx_sub.add_parser("sup")
    p.add_argument("--poly", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--max-degree", type=int, default=20)

    moments = sub.add_parser("moments", help="moment functional operations")
    moments_sub = moments.add_subparsers(dest="subcommand", required=True)
    p = moments_sub.add_parser("check")
    p.add_argument("--moments", required=True)
    p.add_argument("--tol", type=float, default=None)
    p = moments_sub.add_parser("recover")
    p.add_argument("--moments", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--tol", type=float, default=None)
    p = moments_sub.add_parser("continuity")
    p.add_argument("--moments", required=True)
    p.add_argument("--phi", required=True)

    compare = sub.add_parser("compare", help="factorial-weight comparison table")
    compare.add_argument("--region", required=True)
    compare.add_argument("--max-degree", type=int, default=20)

    witness = sub.add_parser("witness", help="strict-fineness witness")
    witness.add_argument("--region", required=True)
    witness.add_argument("--points", required=True)
    witness.add_argument("--eps", type=float, default=0.01)
    witness.add_argument("--degree", type=int, default=15)

    return parser


def _run(args) -> tuple[dict, int]:
    cmd = args.command
    sc = getattr(args, "subcommand", None)
    for opt in ("eps", "tol"):
        if getattr(args, opt, None) is not None:
            _finite(getattr(args, opt), "--" + opt)

    if cmd == "norms" and sc == "sup":
        f = _load(args.poly, Polynomial.from_json_dict, "polynomial")
        region = _load(args.region, Region.from_json_dict, "region")
        res = sup_norm(f, region)
        return ({"value": res.value, "argmax": list(res.argmax),
                 "resolution": res.resolution}, EXIT_OK)
    if cmd == "norms" and sc == "phi":
        f = _load(args.poly, Polynomial.from_json_dict, "polynomial")
        phi = _load(args.phi, WeightFunction.from_json_dict, "weight function")
        return ({"value": phi_norm(f, phi)}, EXIT_OK)
    if cmd == "norms" and sc == "rho":
        f = _load(args.poly, Polynomial.from_json_dict, "polynomial")
        point = tuple(_finite(v) for v in args.point.split(","))
        return ({"value": rho_alpha(f, point)}, EXIT_OK)

    if cmd == "spectrum" and sc == "kphi-box":
        phi = _load(args.phi, WeightFunction.from_json_dict, "weight function")
        return ({"box": list(kphi_box(phi, args.degree)),
                 "degree": args.degree}, EXIT_OK)
    if cmd == "spectrum" and sc == "hausdorff":
        pts = _load(args.points, _points, "points")
        basis = vanishing_ideal_basis(pts, args.degree, args.tol)
        hausdorff = basis.kernel_dimension == 0
        result = {"hausdorff": hausdorff,
                  "kernel_dimension": basis.kernel_dimension,
                  "degree": args.degree,
                  "basis": [q.to_json_dict() for q in basis.basis]}
        return (result, EXIT_OK if hausdorff else EXIT_VERDICT)

    if cmd == "approx" and sc == "tk":
        f = _load(args.poly, Polynomial.from_json_dict, "polynomial")
        pts = _load(args.points, _points, "points")
        cert = tk_approximate(f, pts, args.d, args.eps)
        return (cert.to_json_dict(), EXIT_OK if cert.success else EXIT_VERDICT)
    if cmd == "approx" and sc == "sup":
        f = _load(args.poly, Polynomial.from_json_dict, "polynomial")
        region = _load(args.region, Region.from_json_dict, "region")
        cert = sup_approximate(f, region, args.d, args.eps, args.max_degree)
        return (cert.to_json_dict(), EXIT_OK if cert.success else EXIT_VERDICT)

    if cmd == "moments" and sc == "check":
        functional = _load(args.moments, MomentFunctional.from_json_dict,
                           "moment functional")
        tol = args.tol if args.tol is not None else default_tol()
        verdict = hankel_psd_check(functional, tol)
        result = {"psd": verdict.psd, "min_eigenvalue": verdict.min_eigenvalue}
        if verdict.witness is not None:
            result["witness"] = verdict.witness.to_json_dict()
        return (result, EXIT_OK if verdict.psd else EXIT_VERDICT)
    if cmd == "moments" and sc == "recover":
        functional = _load(args.moments, MomentFunctional.from_json_dict,
                           "moment functional")
        region = _load(args.region, Region.from_json_dict, "region")
        tol = args.tol if args.tol is not None else 1e-6
        rec = measure_recover(functional, region, tol)
        result = {
            "success": rec.success,
            "residual": rec.residual,
            "support_size": rec.support_size,
            "converged": rec.converged,
            "atoms": [list(a) for a in rec.measure.atoms],
            "weights": list(rec.measure.weights),
        }
        return (result, EXIT_OK if rec.success else EXIT_VERDICT)
    if cmd == "moments" and sc == "continuity":
        functional = _load(args.moments, MomentFunctional.from_json_dict,
                           "moment functional")
        phi = _load(args.phi, WeightFunction.from_json_dict, "weight function")
        report = phi_continuity(functional, phi)
        return ({"constant": report.constant,
                 "table": list(report.table)}, EXIT_OK)

    if cmd == "compare":
        region = _load(args.region, Region.from_json_dict, "region")
        res = lasserre_threshold(region, args.max_degree)
        result = {"found": res.found, "threshold": res.threshold,
                  "bound": res.bound, "ratios": list(res.ratios)}
        return (result, EXIT_OK if res.found else EXIT_VERDICT)

    if cmd == "witness":
        region = _load(args.region, Region.from_json_dict, "region")
        pts = _load(args.points, _points, "points")
        cert = strictness_witness(pts, region, args.eps, args.degree)
        return (cert.to_json_dict(), EXIT_OK if cert.success else EXIT_VERDICT)

    raise InputError(f"unknown command {cmd} {sc}")


def _input_digests(args) -> dict:
    digests = {}
    for attr in ("poly", "region", "phi", "points", "moments"):
        path = getattr(args, attr, None)
        if path and os.path.exists(path):
            digests[attr] = _digest(path)
    return digests


def _error(payload: dict, code: int) -> int:
    print(json.dumps(payload))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        result, code = _run(args)
    except PsdViolationError as exc:
        return _error({"error": str(exc), "verdict": "non-membership"}, EXIT_VERDICT)
    except (InputError, ValueError, OverflowError) as exc:
        return _error({"error": str(exc)}, EXIT_INPUT)
    report = {
        "command": " ".join(argv if argv is not None else sys.argv[1:]),
        "inputs": _input_digests(args),
        "result": result,
        "version": __version__,
    }
    if not args.no_timestamp:
        report["wall_time_s"] = time.monotonic() - start
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        return _error({"error": f"result is not strict JSON: {exc}"}, EXIT_INPUT)
    print(text)
    if args.summary:
        print(f"cone2d {args.command}: exit {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
