"""Span recorder for the traced run, installed from outside the program.

``patch`` wraps the public callables of each cone2d module and rebinds
every name under which the program looks them up: the class attribute
(and its aliases, e.g. ``__rmul__``), the module global, and the copies
imported into other modules and into the package namespace.
``numpy.linalg.lstsq``/``svd``/``eigh`` are wrapped too and named after
the calling cone2d module (``approx.lstsq``, ``moments.lstsq``, ...).
``restore`` puts every original back; ``leftover_wrappers`` proves it.

A span is (name, start, end, parent, job).  A layer's self time is its
span time minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MARK = "__perfbench_wrapped__"

# (module, attribute path) -> span name.  Attribute paths with a dot
# are methods; every alias of the same function in the class is wrapped.
LAYERS = {
    ("poly", "Polynomial.__mul__"): "poly.mul",
    ("poly", "Polynomial.__add__"): "poly.add",
    ("poly", "Polynomial.__sub__"): "poly.sub",
    ("poly", "Polynomial.__rsub__"): "poly.sub",
    ("poly", "Polynomial.__neg__"): "poly.neg",
    ("poly", "Polynomial.__pow__"): "poly.pow",
    ("poly", "Polynomial.evaluate"): "poly.eval",
    ("poly", "Polynomial.evaluate_exact"): "poly.eval",
    ("poly", "Polynomial.evaluate_grid"): "poly.eval_grid",
    ("poly", "Polynomial.to_json_dict"): "poly.json",
    ("poly", "Polynomial.from_json_dict"): "poly.json",
    ("poly", "Polynomial.to_exact"): "poly.convert",
    ("poly", "Polynomial.to_float"): "poly.convert",
    ("poly", "Polynomial.dyadic_round"): "poly.convert",
    ("norms", "Region.from_box"): "norms.region",
    ("norms", "Region.from_points"): "norms.region",
    ("norms", "Region.from_json_dict"): "norms.region",
    ("norms", "WeightFunction.from_json_dict"): "norms.weight",
    ("norms", "sup_norm"): "norms.sup_norm",
    ("norms", "phi_norm"): "norms.phi_norm",
    ("norms", "rho_alpha"): "norms.rho",
    ("norms", "fatten"): "norms.fatten",
    ("norms", "lasserre_threshold"): "norms.lasserre",
    ("spectrum", "monomials_upto"): "spectrum.monomials",
    ("spectrum", "vanishing_ideal_basis"): "spectrum.vanishing",
    ("spectrum", "is_hausdorff"): "spectrum.hausdorff",
    ("spectrum", "kphi_box"): "spectrum.kphi_box",
    ("spectrum", "kphi_contains"): "spectrum.kphi_contains",
    ("approx", "tk_approximate"): "approx.tk",
    ("approx", "sup_approximate"): "approx.sup",
    ("approx", "series_root"): "approx.series",
    ("approx", "module_interpolate"): "approx.module",
    ("approx", "strictness_witness"): "approx.witness",
    ("approx", "psd_on_fattening"): "approx.fattening",
    ("approx", "Certificate.verify"): "approx.verify",
    ("approx", "Certificate.element"): "approx.element",
    ("approx", "Certificate.to_json_dict"): "approx.to_json",
    ("moments", "hankel_psd_check"): "moments.hankel",
    ("moments", "power_psd_check"): "moments.power_check",
    ("moments", "nnls"): "moments.nnls",
    ("moments", "measure_recover"): "moments.recover",
    ("moments", "phi_continuity"): "moments.continuity",
    ("moments", "from_measure"): "moments.functional",
    ("moments", "uniform_box_moments"): "moments.functional",
    ("moments", "MomentFunctional.from_json_dict"): "moments.load",
    ("moments", "MomentFunctional.__call__"): "moments.apply",
    ("cli", "main"): "cli",
}
LINALG = ("lstsq", "svd", "eigh")
MODULES = ("poly", "norms", "spectrum", "approx", "moments", "cli")


def _lstsq_flops(args):
    """Computed flop count of an R-SVD least-squares solve,
    2 m k**2 + 11 k**3 with k the smaller side (Golub & Van Loan)."""
    m, k = sorted(np.shape(args[0]))[::-1]
    return 2 * m * k * k + 11 * k ** 3


def _dyadic_bits(c) -> int:
    """Bits of numerator plus denominator exponent of m / 2**k."""
    return abs(c.m).bit_length() + c.k


COUNTERS = {
    "poly.mul": lambda t, a, r: t.add("poly.mul.term_pairs", len(a[0].terms) * (
        len(a[1].terms) if hasattr(a[1], "terms") else 1)),
    "poly.eval_grid": lambda t, a, r: t.add(
        "poly.eval_grid.point_terms", r.shape[0] * len(a[0].terms)),
    "norms.fatten": lambda t, a, r: t.add(
        "norms.fatten.points_out", r.sample_points.shape[0]),
    "moments.nnls": lambda t, a, r: t.add("moments.nnls.iterations", r.iterations),
    "approx.lstsq": lambda t, a, r: t.add("approx.lstsq.flops_computed",
                                          _lstsq_flops(a)),
    "moments.lstsq": lambda t, a, r: t.add("moments.lstsq.flops_computed",
                                           _lstsq_flops(a)),
    "approx.tk": lambda t, a, r: _tk_sizes(t, r),
}


def _tk_sizes(tracer, cert):
    """Size of the certified c: term count and longest coefficient."""
    if "c" in cert.decomposition:
        terms = cert.decomposition["c"].terms
        tracer.top("approx.tk.c_terms.max", len(terms))
        tracer.top("approx.tk.coeff_bits.max",
                   max((_dyadic_bits(c) for c in terms.values()), default=0))


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []      # indices of open spans
        self.child: list = []      # enclosed time of each open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_s = 0.0
        self.job = None

    def add(self, name, value):
        self.counts[name] += value

    def top(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                               self.job])
            self.stack.append(idx)
            self.child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                enclosed = self.child.pop()
                dur = end - start
                if self.child:
                    self.child[-1] += dur
                else:
                    self.root_s += dur
                self.self_s[name] += dur - enclosed
                self.calls[name] += 1
                self.spans[idx][1:3] = start, end
            if counter is not None:
                counter(self, args, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def wrap_linalg(self, fname, fn):
        wrapped = {}

        @functools.wraps(fn)
        def dispatch(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("cone2d."):
                return fn(*args, **kwargs)
            name = f"{caller.rsplit('.', 1)[1]}.{fname}"
            if name not in wrapped:
                wrapped[name] = self.wrap(name, fn)
            return wrapped[name](*args, **kwargs)

        setattr(dispatch, MARK, fn)
        return dispatch


def patch(c2, tracer: Tracer) -> list:
    """Install the wrappers; returns the (owner, attribute, original)
    records that ``restore`` needs."""
    modules = [c2] + [getattr(c2, m) for m in MODULES]
    records = []
    for (mod, path), name in LAYERS.items():
        owner = getattr(c2, mod)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = tracer.wrap(name, fn)
            new = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
            for attr, val in list(vars(cls).items()):
                if val is raw:
                    records.append((cls, attr, raw))
                    setattr(cls, attr, new)
            continue
        orig = getattr(owner, path)
        wrapper = tracer.wrap(name, orig)
        for module in modules:
            for attr, val in list(vars(module).items()):
                if val is orig:
                    records.append((module, attr, orig))
                    setattr(module, attr, wrapper)
    for fname in LINALG:
        orig = getattr(np.linalg, fname)
        records.append((np.linalg, fname, orig))
        setattr(np.linalg, fname, tracer.wrap_linalg(fname, orig))
    return records


def restore(records: list) -> None:
    for owner, attr, orig in reversed(records):
        setattr(owner, attr, orig)


def leftover_wrappers(c2) -> list:
    """Every name in cone2d or numpy.linalg still bound to a wrapper."""
    found = []
    owners = [c2, np.linalg] + [getattr(c2, m) for m in MODULES]
    owners += [v for m in owners for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("cone2d")]
    for owner in owners:
        for attr, val in vars(owner).items():
            fn = val.__func__ if isinstance(val, classmethod) else val
            if hasattr(fn, MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def layer_metrics(tracer: Tracer, traced_wall: float, job_wall: float,
                  untraced_wall: float) -> dict:
    """Flat metric dict: <span>.self_ms, <span>.calls, the counters,
    and the trace's own validity figures."""
    out = {}
    for name, secs in tracer.self_s.items():
        out[f"{name}.self_ms"] = secs * 1e3
        out[f"{name}.calls"] = tracer.calls[name]
    out.update(tracer.counts)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall  # vs the median pass
    out["trace.coverage"] = tracer.root_s / job_wall
    return out
