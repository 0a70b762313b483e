"""Every end-to-end CLI case as one table of rows, and the runner for a row.

A row is ``(id, command line, exit code, check)``.  ``{name}`` in the command
line is the path of ``FILES[name]``, written as JSON to ``name.json`` in a fresh
directory; ``{dir}`` is that directory.  Every report must be strict JSON.  An
exit-2 row reports exactly ``{"error": ...}``, and its check is a substring of
the message.  Any other row's check is a predicate on the report's ``result``.

``tests/test_cli.py`` runs each row in-process through ``cone2d.cli.main``;
``python tests/cli_cases.py`` runs each through the ``cone2d`` console script
on PATH, in a temporary directory of its own.  To add a case, add its row to
``CASES`` and its input files to ``FILES``.
"""

import itertools
import json
import math
import shlex
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np

from cone2d.moments import uniform_box_moments
from cone2d.poly import Polynomial

Case = namedtuple("Case", "id argv exit check", defaults=[""])

X = Polynomial.variable(1, 0)
NO_VARS = "variable count must be >= 1"
# Three and five on-grid atoms (x, y, weight) of [0, 1]^2.
ATOMS3 = [(0.25, 0.5, 0.5), (0.75, 0.125, 0.3), (0.5, 0.875, 0.2)]
ATOMS5 = ATOMS3 + [(0.125, 0.25, 0.4), (0.875, 0.625, 0.6)]


def exponents(n, degree):
    """Exponents of total degree <= degree in lexicographic order."""
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]


def unit_cube_moments(n, degree):
    return {"n": n, "D": degree, "moments": [
        {"exp": list(e), "val": 1 / math.prod(s + 1 for s in e)}
        for e in exponents(n, degree)]}


def atomic_moments(atoms, degree):
    return {"n": 2, "D": degree, "moments": [
        {"exp": [a, b], "val": sum(w * x**a * y**b for x, y, w in atoms)}
        for a, b in exponents(2, degree)]}


def coeff12(a, b):
    return ((7 * a + 3 * b) % 11 - 5) / 10


def terms(*pairs, n=1):
    return {"n": n, "terms": [{"coeff": c, "exp": e} for c, e in pairs]}


def moments1(*values, **fields):
    """L(x^k) = values[k]; fields replace n or D."""
    return {"n": 1, "D": len(values) - 1,
            "moments": [{"exp": [k], "val": v} for k, v in enumerate(values)], **fields}


def table(*entries):
    return {"kind": "table", "entries": [{"exp": e, "val": v} for e, v in entries]}


# The Hankel matrix of 1, 0, -1 has eigenvalue -1.
INDEFINITE = moments1(1.0, 0.0, -1.0)
THETA = np.linspace(0, 2 * np.pi, 20, endpoint=False)

FILES = {
    "poly": (X**2).to_json_dict(),
    "x": X.to_json_dict(),
    "x2_plus_1": (X**2 + 1).to_json_dict(),
    "minus_2": Polynomial.constant(1, -2).to_json_dict(),
    "x_minus_half_sq": ((X - 0.5) ** 2).to_json_dict(),
    # the README's example
    "f": terms((1.0, [2]), (1.0, [0])),
    "pts": {"points": [[0.0], [1.0]]},
    "points2": {"points": [[0.1], [0.5]]},
    "origin": {"points": [[0.0]]},
    "five_points": {"points": [[0.1], [0.2], [0.3], [0.4], [0.5]]},
    "circle": {"points": np.c_[np.cos(THETA), np.sin(THETA)].tolist()},
    "region": {"n": 1, "box": [[0.0, 1.0]], "ineqs": [], "resolution": 0.05},
    "region_fine": {"n": 1, "box": [[0.0, 1.0]], "ineqs": [], "resolution": 0.01},
    "region_finer": {"n": 1, "box": [[0.0, 1.0]], "ineqs": [], "resolution": 0.005},
    "region_pm1": {"n": 1, "box": [[-1.0, 1.0]], "ineqs": [], "resolution": 0.05},
    "region_pm3": {"n": 1, "box": [[-3.0, 3.0]], "ineqs": [], "resolution": 0.06},
    "region2": {"n": 2, "box": [[0.0, 1.0], [0.0, 1.0]], "ineqs": [], "resolution": 0.1},
    "mom1": uniform_box_moments([(-1, 1)], 1).to_json_dict(),
    "mom4": uniform_box_moments([(-1, 1)], 4).to_json_dict(),
    "mom6": uniform_box_moments([(-1, 1)], 6).to_json_dict(),
    "indefinite": INDEFINITE,
    "tiny_negative": moments1(1.0, 0.0, -1e-4),
    "table": table(([0], 1.0), ([1], 1.0)),
    "one_weight": {"kind": "one", "n": 1},
    "geometric": {"kind": "geometric", "radii": [2.0, 0.5]},
    "lasserre": {"kind": "lasserre", "n": 1},
    "poly12": {"n": 2, "terms": [{"coeff": coeff12(a, b), "exp": [a, b]}
                                 for a in range(13) for b in range(13 - a)]},
    "geo": {"kind": "geometric", "radii": [0.3, 1.7]},
    "u1_D4": unit_cube_moments(1, 4),
    "k1": {"box": [[0, 1]], "resolution": 0.01},
    "u2_D10": unit_cube_moments(2, 10),
    "k2": {"box": [[0, 1], [0, 1]], "resolution": 0.025},
    "u3_D6": unit_cube_moments(3, 6),
    "k3": {"box": [[0, 1], [0, 1], [0, 1]], "resolution": 0.1},
    "atoms3_D8": atomic_moments(ATOMS3, 8),
    "atoms5_D10": atomic_moments(ATOMS5, 10),
    "f2": terms((1.0, [2, 0]), (-0.5, [1, 1]), (1.0, [0, 2]), n=2),
    "square": {"box": [[-1, 1], [-1, 1]], "resolution": 0.02},
    "far": {"box": [[10, 11]], "resolution": 0.001},
    "far_pts": {"points": [[10.25], [10.5]]},
    "square_pts": {"points": [[0, 0], [0.5, -0.25]]},
    "f_tk": terms((0.25, [0, 0]), (0.25, [2, 0]), (-0.125, [1, 1]), (0.25, [0, 2]), n=2),
    "lattice": {"points": [[i / 4 + ((3 * i + j) % 5) / 64, j / 4 + ((i + 2 * j) % 5) / 64]
                           for i in range(5) for j in range(5)]},
    # bad inputs
    "duplicate_poly": terms((1.0, [2]), (2.0, [2])),
    # x >= 5 inside [0, 1] leaves no samples
    "x_ge_5": {"n": 1, "box": [[0, 1]], "resolution": 0.1, "ineqs": [(X - 5).to_json_dict()]},
    "flat": {"points": [1, 2]},
    "nan_poly": terms((float("nan"), [1])),
    "inf_pts": {"points": [["inf"]]},
    "big_poly": terms((1e308, [1])),
    "partial": moments1(1.0, 0.0, D=4),
    "empty_side": {"n": 1, "box": [[1.0, 0.0]], "resolution": 0.1},
    "empty_table": table(),
    "ragged_table": table(([0], 1.0), ([2], 1.0), ([2, 0], 5.0)),
    "float_n": terms((1.0, [2]), n=1.0),
    "bool_n": terms((1.0, [2]), n=True),
    "float_exp": terms((1.0, [1.5])),
    "bool_exp": terms((1.0, [True])),
    "bool_coeff": terms((True, [2])),
    "zero_res": {"n": 1, "box": [[0, 1]], "resolution": 0},
    "negative_res": {"n": 1, "box": [[0, 1]], "resolution": -0.1},
    "moments_float_n": dict(INDEFINITE, n=1.5),
    "moments_float_D": dict(INDEFINITE, D=2.5),
    "moments_float_exp": {"n": 1, "D": 2, "moments": [
        {"exp": [0], "val": 1.0}, {"exp": [1.0], "val": 0.0}, {"exp": [2], "val": 1.0}]},
    "lasserre_float_n": {"kind": "lasserre", "n": 1.7},
    "table_float_exp": table(([0], 1.0), ([1.0], 1.0), ([2], 1.0)),
    "negative_table": table(([0], 1.0), ([1], 1.0), ([2], -2.0)),
    "moments_bool_val": moments1(True, 0.0, -1.0),
    "moments_string_val": moments1(1.0, 0.0, "0.5"),
    "table_bool_val": table(([0], 1.0), ([2], True)),
    "table_duplicate": table(([0], 1.0), ([2], 1.0), ([2], 2.0)),
    "geometric_string": {"kind": "geometric", "radii": ["0.5"]},
    "pts_bool_string": {"points": [[True], ["0.5"]]},
    "region_bool_string": {"box": [[False, "1"]], "resolution": "0.25"},
    "mom_D_neg": dict(INDEFINITE, D=-1),
    # no variables at all
    "empty_box": {"box": []},
    "moments_n0": {"n": 0, "D": 2, "moments": [{"exp": [], "val": 1.0}]},
    "no_radii": {"kind": "geometric", "radii": []},
    "one_n0": {"kind": "one", "n": 0},
    "empty_point": {"points": [[]]},
    # a JSON value that is not an object
    "json_list": [1, 2],
    "json_number": 5,
    "term_number": {"n": 1, "terms": [3]},
}


def phi_sum_in_grlex_order(result):
    """The phi norm of poly12 has the same bits as a loop in grlex order."""
    want = 0.0
    for a, b in sorted(exponents(2, 12), key=lambda e: (sum(e), -e[0])):
        want += abs(coeff12(a, b)) * (0.3**a * 1.7**b)
    return result["value"] == want


def recovers_unit_cube(n, samples, degree):
    """What any recovery of the uniform moments of [0, 1]^n must satisfy:
    success, every atom one of the grid's samples, every weight > 0, and
    the atoms' moments within 1e-6 (2-norm) of L."""
    grid = set(itertools.product(np.linspace(0, 1, samples).tolist(), repeat=n))
    moments = unit_cube_moments(n, degree)["moments"]

    def check(result):
        atoms = [tuple(a) for a in result["atoms"]]
        gap = math.sqrt(sum((sum(w * math.prod(x**s for x, s in zip(atom, m["exp"]))
                                 for atom, w in zip(atoms, result["weights"])) - m["val"]) ** 2
                            for m in moments))
        return (result["success"] is True and all(a in grid for a in atoms)
                and all(w > 0 for w in result["weights"]) and gap <= 1e-6)
    return check


def succeeds(result):
    return result["success"] is True


CASES = [Case(*row) for row in [
    ("rho-valid-polynomial", "norms rho --poly {poly} --point 3", 0,
     lambda r: r["value"] == 9.0),
    ("missing-file", "norms rho --poly {dir}/absent.json --point 0", 2, "no such file"),
    ("poly-is-directory", "norms rho --poly {dir} --point 1", 2),
    ("poly-duplicate-exponent", "norms rho --poly {duplicate_poly} --point 0", 2, "duplicate"),
    ("sup-overconstrained-region", "norms sup --poly {x} --region {x_ge_5}", 2,
     "no sample points"),
    ("tk-eps", "approx tk --poly {poly} --points {points2} --eps -1", 2),
    ("sup-eps", "approx sup --poly {poly} --region {region} --eps -1", 2),
    ("witness-eps", "witness --region {region} --points {points2} --eps 2", 2),
    ("rho-dimension", "norms rho --poly {poly} --point 1,2", 2),
    ("check-degree", "moments check --moments {mom1}", 2),
    ("tk-flat-points", "approx tk --poly {poly} --points {flat} --eps 0.1", 2),
    ("hausdorff-flat-points", "spectrum hausdorff --points {flat} --degree 2", 2),
    ("phi-table-missing", "norms phi --poly {poly} --phi {table}", 2),
    ("kphi-box-table-missing", "spectrum kphi-box --phi {table} --degree 3", 2),
    ("continuity-table-missing", "moments continuity --moments {mom4} --phi {table}", 2),
    ("kphi-box-lasserre-overflow", "spectrum kphi-box --phi {lasserre} --degree 200", 2),
    ("rho-inf-point", "norms rho --poly {poly} --point inf", 2),
    ("nan-coefficient", "norms rho --poly {nan_poly} --point 1", 2),
    ("inf-point-string", "approx tk --poly {poly} --points {inf_pts} --eps 0.1", 2),
    ("rho-overflow", "norms rho --poly {poly} --point 1e200", 2),
    ("rho-infinite-result", "norms rho --poly {big_poly} --point 10", 2),
    ("check-tol-inf", "moments check --moments {indefinite} --tol inf", 2),
    ("check-tol-nan", "moments check --moments {indefinite} --tol nan", 2),
    ("recover-tol-inf", "moments recover --moments {mom4} --region {region} --tol inf", 2),
    ("hausdorff-tol-nan", "spectrum hausdorff --points {points2} --degree 2 --tol nan", 2),
    ("tk-eps-inf", "approx tk --poly {poly} --points {points2} --eps inf", 2),
    ("sup-eps-nan", "approx sup --poly {poly} --region {region} --eps nan", 2),
    ("witness-eps-nan", "witness --region {region} --points {points2} --eps nan", 2),
    ("recover-dimension-mismatch", "moments recover --moments {mom4} --region {region2}", 2),
    ("recover-incomplete-moments", "moments recover --moments {partial} --region {region}", 2),
    ("compare-max-degree-0", "compare --region {region} --max-degree 0", 2),
    ("compare-empty-box-side", "compare --region {empty_side}", 2),
    ("phi-table-empty", "norms phi --poly {poly} --phi {empty_table}", 2),
    ("continuity-table-empty", "moments continuity --moments {mom4} --phi {empty_table}", 2),
    ("phi-table-ragged", "norms phi --poly {poly} --phi {ragged_table}", 2),
    ("tk-float-n", "approx tk --poly {float_n} --points {points2} --eps 0.1", 2),
    ("rho-bool-n", "norms rho --poly {bool_n} --point 3", 2),
    ("rho-float-exponent", "norms rho --poly {float_exp} --point 3", 2),
    ("rho-bool-exponent", "norms rho --poly {bool_exp} --point 3", 2),
    ("rho-bool-coefficient", "norms rho --poly {bool_coeff} --point 3", 2),
    ("usage-missing-flag", "approx tk --poly {poly}", 2),
    ("usage-bad-value", "approx tk --poly {poly} --points {points2} --eps abc", 2),
    ("usage-unknown-command", "bogus", 2),
    ("region-zero-resolution", "norms sup --poly {poly} --region {zero_res}", 2),
    ("region-negative-resolution", "norms sup --poly {poly} --region {negative_res}", 2),
    ("moments-float-n", "moments check --moments {moments_float_n}", 2),
    ("moments-float-D", "moments check --moments {moments_float_D}", 2),
    ("moments-float-exponent", "moments check --moments {moments_float_exp}", 2),
    ("lasserre-float-n", "spectrum kphi-box --phi {lasserre_float_n} --degree 3", 2),
    ("table-float-exponent", "norms phi --poly {poly} --phi {table_float_exp}", 2),
    ("table-negative-value", "norms phi --poly {poly} --phi {negative_table}", 2),
    ("witness-negative-degree", "witness --region {region} --points {points2} --degree -1", 2),
    ("sup-negative-max-degree",
     "approx sup --poly {poly} --region {region} --eps 0.1 --max-degree -1", 2),
    ("moments-bool-value", "moments check --moments {moments_bool_val}", 2),
    ("moments-string-value", "moments check --moments {moments_string_val}", 2),
    ("table-bool-value", "norms phi --poly {poly} --phi {table_bool_val}", 2),
    ("table-duplicate-exponent", "norms phi --poly {poly} --phi {table_duplicate}", 2),
    ("geometric-string-radius", "spectrum kphi-box --phi {geometric_string} --degree 3", 2),
    ("points-bool-and-string", "spectrum hausdorff --points {pts_bool_string} --degree 1", 2),
    ("region-bool-and-string", "compare --region {region_bool_string}", 2),
    ("recover-negative-D", "moments recover --moments {mom_D_neg} --region {region}", 2),
    ("recover-tol-negative", "moments recover --moments {mom4} --region {region} --tol -1", 2),
    ("region-empty-box", "compare --region {empty_box}", 2, NO_VARS),
    ("region-is-a-list", "norms sup --poly {poly} --region {json_list}", 2,
     "region must be a JSON object, got list"),
    ("region-is-a-number", "norms sup --poly {poly} --region {json_number}", 2,
     "region must be a JSON object, got int"),
    ("poly-is-a-list", "norms rho --poly {json_list} --point 0", 2,
     "polynomial must be a JSON object, got list"),
    ("phi-is-a-number", "norms phi --poly {poly} --phi {json_number}", 2,
     "weight function must be a JSON object, got int"),
    ("moments-is-a-list", "moments check --moments {json_list}", 2,
     "moment functional must be a JSON object, got list"),
    ("poly-term-is-a-number", "norms rho --poly {term_number} --point 0", 2,
     "entry must be a JSON object, got int"),
    ("moments-no-variables", "moments check --moments {moments_n0}", 2, NO_VARS),
    ("kphi-box-no-radii", "spectrum kphi-box --phi {no_radii} --degree 3", 2, NO_VARS),
    ("kphi-box-no-variables", "spectrum kphi-box --phi {one_n0} --degree 3", 2, NO_VARS),
    ("hausdorff-empty-point", "spectrum hausdorff --points {empty_point} --degree 2", 2,
     NO_VARS),
    ("tk-success", "approx tk --poly {x2_plus_1} --points {pts} --eps 0.01", 0,
     lambda r: r["success"] and max(r["residuals"]["per_point"]) < 0.01),
    ("readme-tk-example", "--no-timestamp approx tk --poly {f} --points {pts} --eps 1e-3", 0,
     lambda r: r["kind"] == "tk" and r["success"] is True),
    ("tk-negative-point", "approx tk --poly {minus_2} --points {origin} --eps 0.01", 1,
     lambda r: r["residuals"]["witness_point"] == [0.0]),
    ("tk-2d-lattice", "--no-timestamp approx tk --poly {f_tk} --points {lattice} --d 2 "
     "--eps 1e-3", 0, succeeds),
    ("sup-success", "approx sup --poly {x_minus_half_sq} --region {region_fine} --eps 0.1", 0,
     lambda r: r["residuals"]["sup"] < 0.1),
    ("sup-2d-degree-12", "--no-timestamp approx sup --poly {f2} --region {square} --d 1 "
     "--eps 0.1 --max-degree 12", 0, succeeds),
    ("witness", "witness --region {region_finer} --points {five_points} --eps 0.01 "
     "--degree 15", 0, lambda r: r["residuals"]["sup_norm"] >= 0.9),
    # on [10, 11] the fit's monomial form would round visibly, so it runs in monomials
    ("witness-far-interval", "--no-timestamp witness --region {far} --points {far_pts} "
     "--eps 0.05 --degree 15", 0, succeeds),
    # on [-1, 1]^2 the fit runs in the box's Chebyshev basis
    ("witness-square-chebyshev", "--no-timestamp witness --region {square} "
     "--points {square_pts} --degree 8", 0, succeeds),
    # poly12 has 91 terms, past the per-term loop
    ("phi-geometric-91-terms", "--no-timestamp norms phi --poly {poly12} --phi {geo}", 0,
     phi_sum_in_grlex_order),
    ("kphi-box-geometric", "spectrum kphi-box --phi {geometric} --degree 4", 0,
     lambda r: r["box"] == [[-2.0, 2.0], [-0.5, 0.5]]),
    ("hausdorff-circle", "spectrum hausdorff --points {circle} --degree 2", 1,
     lambda r: r["kernel_dimension"] == 1),
    ("compare-threshold", "compare --region {region_pm3} --max-degree 20", 0,
     lambda r: r["threshold"] == 7),
    ("check-psd", "moments check --moments {mom4}", 0, lambda r: r["psd"]),
    ("check-indefinite-witness", "moments check --moments {indefinite}", 1,
     lambda r: not r["psd"] and "witness" in r),
    ("continuity", "moments continuity --moments {mom4} --phi {one_weight}", 0,
     lambda r: r["constant"] <= 1.0),
    ("recover-uniform-pm1", "moments recover --moments {mom6} --region {region_pm1}", 0,
     lambda r: r["residual"] < 1e-6 and all(w >= 0 for w in r["weights"])),
    ("recover-uniform-unit-interval", "--no-timestamp moments recover "
     "--moments {u1_D4} --region {k1}", 0, succeeds),
    # NNLS starts on a working set, so check what any answer must satisfy
    ("recover-uniform-square-D10", "--no-timestamp moments recover "
     "--moments {u2_D10} --region {k2}", 0, recovers_unit_cube(2, 41, 10)),
    ("recover-uniform-cube-D6", "--no-timestamp moments recover "
     "--moments {u3_D6} --region {k3}", 0, recovers_unit_cube(3, 11, 6)),
    # NNLS drops columns in about half its steps
    ("recover-atomic-D8", "--no-timestamp moments recover --moments {atoms3_D8} "
     "--region {k2}", 0, succeeds),
    # read off the flat moment matrix, one atom each (NNLS alone returns 8)
    ("recover-flat-atomic-D10", "--no-timestamp moments recover --moments {atoms5_D10} "
     "--region {k2}", 0, lambda r: r["success"] is True and r["support_size"] == 5),
]]


class InputPaths(dict):
    """{name} -> workdir/name.json, written from FILES[name] when first named."""

    def __init__(self, workdir):
        super().__init__(dir=Path(workdir))

    def __missing__(self, name):
        path = self["dir"] / f"{name}.json"
        path.write_text(json.dumps(FILES[name]))
        self[name] = str(path)
        return self[name]


def _not_strict(constant):
    raise ValueError(f"report is not strict JSON: {constant}")


def run_case(case, workdir, invoke):
    """Write the row's input files into workdir, run its command line
    through invoke(argv) -> (exit code, stdout), and check the report."""
    paths = InputPaths(workdir)
    code, out = invoke([arg.format_map(paths) for arg in shlex.split(case.argv)])
    report = json.loads(out, parse_constant=_not_strict)
    assert code == case.exit, (code, report)
    if case.exit == 2:
        assert set(report) == {"error"} and case.check in report["error"], report
    else:
        assert case.check(report["result"]), report


def _console_script(argv):
    proc = subprocess.run(["cone2d", *argv], stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


if __name__ == "__main__":
    failed = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            try:
                run_case(case, workdir, _console_script)
            except (AssertionError, ValueError) as exc:
                failed.append(case.id)
                print(f"FAIL {case.id}: {exc!r}"[:2000])
    print(f"{len(CASES) - len(failed)} of {len(CASES)} rows passed")
    sys.exit(1 if failed else 0)
