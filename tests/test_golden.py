"""Golden serialized outputs of the polynomial core and the certificates
built on it.

The expected bytes live in tests/data/golden.json.  Any change to the
coefficient arithmetic, term order or JSON encoding that alters a byte of
``Polynomial.dumps()`` or ``Certificate.to_json_dict()`` fails here.  The
cases avoid LAPACK-backed certificates (sup, witness), whose last digits
depend on the BLAS build.

Regenerate the data only for an intended format change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np

from cone2d.approx import module_interpolate, series_root, tk_approximate
from cone2d.norms import WeightFunction
from cone2d.poly import Dyadic, Polynomial

DATA = Path(__file__).parent / "data" / "golden.json"


def X(n, i):
    return Polynomial.variable(n, i)


def _polynomials():
    x, y = X(2, 0), X(2, 1)
    exact = (x + y * Dyadic(3, 2) - 1) ** 4 - x * y * Dyadic(5, 3)
    flt = (0.1 * x + 0.7 * y - 1.3) ** 3 * (x - 0.25)
    mixed = exact + Polynomial(2, {(5, 0): 0.3, (0, 6): -2.2})
    mixed_np = Polynomial(2, {(1, 0): Dyadic(3, 1), (0, 1): 0.2,
                              (0, 0): np.float64(-1.5)})
    return {
        "exact": exact,
        "float": flt,
        "mixed_disjoint": mixed,
        "mixed_sum": exact + flt,
        "mixed_product": mixed_np ** 3 - mixed_np * Dyadic(5, 3),
        "mixed_times_exact": (mixed_np + 1) * (x - Dyadic(1, 2)) ** 2,
    }


def _certificates():
    x1 = X(1, 0)
    x, y = X(2, 0), X(2, 1)
    f1 = x1 ** 2 - 0.9 * x1 + 0.3
    pts1 = [(0.1,), (0.45,), (0.8,), (1.3,), (1.7,)]
    f2 = 0.5 * x ** 2 + y ** 2 - 0.3 * x * y + Dyadic(1, 3)
    pts2 = [(0.0, 0.5), (0.3, -0.2), (-0.6, 0.1), (0.9, 0.9)]
    certs = {}
    for d in (1, 2, 3):
        certs[f"tk_n1_d{d}"] = tk_approximate(f1, pts1, d, 1e-3)
        certs[f"tk_n2_d{d}"] = tk_approximate(f2, pts2, d, 1e-3)
    certs["series_float"] = series_root(1.0, 0.3 * x - 0.2 * y, 2, 6,
                                        WeightFunction.one(2))
    certs["series_exact"] = series_root(2.0, x * y - x * Dyadic(1, 2), 1, 5,
                                        WeightFunction.geometric([0.5, 1.0]),
                                        sign=-1)
    certs["module"] = module_interpolate(x1 ** 2 - 0.5, [x1],
                                         [(-1.0,), (-0.5,), (1.5,), (2.0,)], 1)
    return certs


def _outputs():
    out = {f"poly/{name}": {"dumps": p.dumps(), "demoted": p.demoted}
           for name, p in _polynomials().items()}
    out.update({f"cert/{name}": json.dumps(c.to_json_dict())
                for name, c in _certificates().items()})
    return out


def test_golden_bytes():
    golden = json.loads(DATA.read_text())
    outputs = _outputs()
    assert sorted(outputs) == sorted(golden)
    changed = [name for name in golden if outputs[name] != golden[name]]
    assert changed == []


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n")
