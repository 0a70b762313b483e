"""Batch command-line front door: parse inputs, dispatch, emit JSON reports.

Exit codes: 0 success, 1 certified non-membership or failure verdict,
2 input and usage errors.  ``INPUTS`` and ``COMMANDS`` declare the whole
command line; the parser, input loading and input digests derive from them.
"""

from __future__ import annotations

import argparse
import functools
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
from .poly import Polynomial, _wire_real
from .spectrum import kphi_box, vanishing_ideal_basis

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


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
    return [tuple(_wire_real(v, "coordinate") for v in p) for p in pts]


# Input file flag -> (label in error messages, parser of its JSON content).
# Parsers look library callables up when called, so rebinding them takes effect.
INPUTS = {
    "poly": ("polynomial", lambda data: Polynomial.from_json_dict(data)),
    "region": ("region", lambda data: Region.from_json_dict(data)),
    "phi": ("weight function", lambda data: WeightFunction.from_json_dict(data)),
    "points": ("points", _points),
    "moments": ("moment functional",
                lambda data: MomentFunctional.from_json_dict(data)),
}


def _load(path, name):
    """Parse input file ``name``: (value, digest).  Bad content is an InputError."""
    what, parse = INPUTS[name]
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        value = parse(json.loads(raw.decode(), parse_float=_finite,
                                 parse_constant=_finite))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: invalid {what}: {exc}") from exc
    return value, hashlib.sha256(raw).hexdigest()[:16]


def default_tol() -> float:
    return _finite(os.environ.get("CONE2D_TOL", "1e-9"), "CONE2D_TOL")


def _hausdorff(args, pts):
    basis = vanishing_ideal_basis(pts, args.degree, args.tol)
    return {"hausdorff": basis.kernel_dimension == 0,
            "kernel_dimension": basis.kernel_dimension, "degree": args.degree,
            "basis": [q.to_json_dict() for q in basis.basis]}


def _moments_check(args, functional):
    tol = default_tol() if args.tol is None else args.tol
    verdict = hankel_psd_check(functional, tol)
    result = {"psd": verdict.psd, "min_eigenvalue": verdict.min_eigenvalue}
    if verdict.witness is not None:
        result["witness"] = verdict.witness.to_json_dict()
    return result


def _moments_recover(args, functional, region):
    rec = measure_recover(functional, region, 1e-6 if args.tol is None else args.tol)
    return {"success": rec.success, "residual": rec.residual,
            "support_size": rec.support_size, "converged": rec.converged,
            "atoms": [list(a) for a in rec.measure.atoms],
            "weights": list(rec.measure.weights)}


# Type of each flag that is not an input file, the same in every command.
FLAG_TYPES = {"--point": str, "--d": int, "--eps": float, "--tol": float,
              "--degree": int, "--max-degree": int}
FLAG_HELP = {"--point": "comma-separated coordinates, e.g. 1,2"}
REQUIRED = ...  # the "default" of a flag that must be given

# (command, subcommand or None) -> (input files, {flag: default}, verdict,
# handler).  Each input file is a required flag.  The handler takes the
# parsed args and the loaded inputs in declared order and returns the
# result; exit 1 when the result's ``verdict`` field is false.  Handlers
# look library callables up when called.
COMMANDS = {
    ("norms", "sup"): (("poly", "region"), {}, None,
                       lambda args, f, region: sup_norm(f, region)._asdict()),
    ("norms", "phi"): (("poly", "phi"), {}, None,
                       lambda args, f, phi: {"value": phi_norm(f, phi)}),
    ("norms", "rho"): (("poly",), {"--point": REQUIRED}, None, lambda args, f: {
        "value": rho_alpha(f, tuple(map(_finite, args.point.split(","))))}),
    ("spectrum", "kphi-box"): (("phi",), {"--degree": REQUIRED}, None, lambda args, phi: {
        "box": list(kphi_box(phi, args.degree)), "degree": args.degree}),
    ("spectrum", "hausdorff"): (("points",), {"--degree": REQUIRED, "--tol": 1e-10},
                                "hausdorff", _hausdorff),
    ("approx", "tk"): (("poly", "points"), {"--d": 1, "--eps": REQUIRED}, "success",
                       lambda args, f, pts: tk_approximate(
                           f, pts, args.d, args.eps).to_json_dict()),
    ("approx", "sup"): (("poly", "region"), {"--d": 1, "--eps": REQUIRED,
                                             "--max-degree": 20}, "success",
                        lambda args, f, region: sup_approximate(
                            f, region, args.d, args.eps, args.max_degree).to_json_dict()),
    ("moments", "check"): (("moments",), {"--tol": None}, "psd", _moments_check),
    ("moments", "recover"): (("moments", "region"), {"--tol": None}, "success",
                             _moments_recover),
    ("moments", "continuity"): (("moments", "phi"), {}, None,
                                lambda args, m, phi: phi_continuity(m, phi)._asdict()),
    ("compare", None): (("region",), {"--max-degree": 20}, "found",
                        lambda args, region: lasserre_threshold(
                            region, args.max_degree)._asdict()),
    ("witness", None): (("region", "points"), {"--eps": 0.01, "--degree": 15}, "success",
                        lambda args, region, pts: strictness_witness(
                            pts, region, args.eps, args.degree).to_json_dict()),
}

# Help line of each top-level command.
COMMAND_HELP = {
    "norms": "evaluate seminorms and norms",
    "spectrum": "spectrum and density tests",
    "approx": "approximation certificates",
    "moments": "moment functional operations",
    "compare": "factorial-weight comparison table",
    "witness": "strict-fineness witness",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors become InputError, reported as JSON with exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, derived from COMMANDS once per process."""
    parser = _Parser(
        prog="cone2d",
        description="Topologies, spectra, approximation certificates and "
                    "moment recovery for cones of sums of 2d-powers.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for compatibility; no command reads it")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit wall time from the report (byte-stable output)")
    parser.add_argument("--summary", action="store_true",
                        help="append a human-readable summary line to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (cmd, subcmd), (inputs, flags, _, _) in COMMANDS.items():
        if subcmd is None:
            p = sub.add_parser(cmd, help=COMMAND_HELP[cmd])
        else:
            if cmd not in groups:
                groups[cmd] = sub.add_parser(cmd, help=COMMAND_HELP[cmd]).add_subparsers(
                    dest="subcommand", required=True)
            p = groups[cmd].add_parser(subcmd)
        for name in inputs:
            p.add_argument("--" + name, required=True)
        for flag, default in flags.items():
            p.add_argument(flag, type=FLAG_TYPES[flag], required=default is REQUIRED,
                           default=default, help=FLAG_HELP.get(flag))
    return parser


def _run(args) -> tuple[dict, dict, int]:
    """Load the command's inputs, run its handler: (result, digests, exit code)."""
    key = args.command, getattr(args, "subcommand", None)
    inputs, _, verdict, handler = COMMANDS[key]
    for opt in ("eps", "tol"):
        if getattr(args, opt, None) is not None:
            _finite(getattr(args, opt), "--" + opt)
    values, digests = [], {}
    for name in inputs:
        value, digests[name] = _load(getattr(args, name), name)
        values.append(value)
    result = handler(args, *values)
    return result, digests, EXIT_VERDICT if verdict and not result[verdict] else EXIT_OK


def _error(payload: dict, code: int) -> int:
    print(json.dumps(payload))
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.monotonic()
        result, digests, code = _run(args)
    except PsdViolationError as exc:
        return _error({"error": str(exc), "verdict": "non-membership"}, EXIT_VERDICT)
    except (InputError, ValueError, OverflowError) as exc:
        return _error({"error": str(exc)}, EXIT_INPUT)
    report = {"command": " ".join(argv if argv is not None else sys.argv[1:]),
              "inputs": digests, "result": result, "version": __version__}
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
