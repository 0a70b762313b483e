"""Self-tests of the benchmark harness.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import polyref as pr  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _strict(text: str):
    def reject(token):
        raise ValueError(token)
    return json.loads(text, parse_constant=reject)


def _first(spec, kind, pred=lambda j: True):
    return next(j for j in spec["jobs"] if j["kind"] == kind and pred(j))


def test_same_seed_same_inputs():
    base = run.OUT / "selftest"
    c2, cli_mod = run.import_cone2d()
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert workloads.dumps(a) == workloads.dumps(b), name
        assert workloads.dumps(a) != workloads.dumps(workloads.generate(name, 8)), name
        files = []
        for i, spec in enumerate((a, b)):
            workdir = base / f"{name}-{i}"
            jobs = workloads.build(spec, c2, cli_mod, str(workdir))
            files.append({Path(p).name: Path(p).read_bytes()
                          for job in jobs for p in job.inputs})
        assert files[0] == files[1], name


def test_oracle_flags_tampered_certificates():
    c2, _ = run.import_cone2d()
    spec = workloads.generate("exact_certs", 3)
    tk = _first(spec, "tk", lambda j: len(j["points"]) <= 8)
    cert = c2.tk_approximate(c2.Polynomial.from_json_dict(tk["f"]),
                             [tuple(p) for p in tk["points"]], tk["d"], tk["eps"])
    good = cert.to_json_dict()
    assert oracle.check_tk(spec, tk, good).ok
    bad = copy.deepcopy(good)
    term = bad["decomposition"]["c"]["terms"][0]
    term["coeff"] = str(pr.from_json({"terms": [term]})[tuple(term["exp"])] + Fraction(1, 64))
    verdict = oracle.check_tk(spec, tk, bad)
    assert verdict.claim and verdict.refuted and not verdict.ok

    spec = workloads.generate("grid_fit", 3)
    sup = _first(spec, "sup", lambda j: j["expect"] == "success")
    region = c2.Region.from_json_dict(spec["regions"][sup["region"]])
    cert = c2.sup_approximate(c2.Polynomial.from_json_dict(sup["f"]), region,
                              sup["d"], sup["eps"], sup["fit_degree"])
    good = cert.to_json_dict()
    assert oracle.check_sup(spec, sup, good).ok
    bad = copy.deepcopy(good)
    bad["decomposition"]["b"]["terms"][0]["coeff"] += 0.05
    verdict = oracle.check_sup(spec, sup, bad)
    assert verdict.claim and verdict.refuted


def test_wrappers_fully_removed():
    c2, _ = run.import_cone2d()
    originals = {
        "mul": c2.Polynomial.__dict__["__mul__"],
        "rmul": c2.Polynomial.__dict__["__rmul__"],
        "from_box": c2.Region.__dict__["from_box"],
        "monomials": c2.approx.monomials_upto,
        "package_sup": c2.sup_approximate,
        "cli_sup": c2.cli.sup_approximate,
        "lstsq": np.linalg.lstsq,
    }
    tracer = tracing.Tracer()
    records = tracing.patch(c2, tracer)
    try:
        assert hasattr(c2.Polynomial.__dict__["__rmul__"], tracing.MARK)
        assert hasattr(c2.Region.__dict__["from_box"].__func__, tracing.MARK)
        assert hasattr(c2.moments.monomials_upto, tracing.MARK)
        assert hasattr(c2.cli.sup_approximate, tracing.MARK)
        assert hasattr(np.linalg.lstsq, tracing.MARK)
        x = c2.Polynomial.variable(1, 0)
        region = c2.Region.from_box([(0.0, 1.0)], resolution=0.1)
        c2.sup_approximate(x * x + 1.0, region, 1, 0.1, 4)
        assert tracer.calls["poly.mul"] >= 1 and tracer.calls["approx.lstsq"] == 1
        assert tracer.calls["norms.region"] == 1 and tracer.calls["approx.sup"] == 1
        assert tracer.stack == [] and tracer.child == []
    finally:
        tracing.restore(records)
    assert tracing.leftover_wrappers(c2) == []
    assert c2.Polynomial.__dict__["__mul__"] is originals["mul"]
    assert c2.Polynomial.__dict__["__rmul__"] is originals["rmul"]
    assert c2.Region.__dict__["from_box"] is originals["from_box"]
    assert c2.approx.monomials_upto is originals["monomials"]
    assert c2.sup_approximate is originals["package_sup"]
    assert c2.cli.sup_approximate is originals["cli_sup"]
    assert np.linalg.lstsq is originals["lstsq"]


def test_output_is_strict_json():
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli_moments",
             "--seed", "5", "--seconds", "0.1", "--trace", trace],
            capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        last = _strict(proc.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        results = _strict((run.OUT / "results" / f"cli_moments-seed5-trace{trace}.json")
                          .read_text())
        # attempted counts distinct jobs, each timed on every pass
        assert last["attempted"] == len(workloads.generate("cli_moments", 5)["jobs"])
        assert results["metrics"]["timed_runs"] >= run.MIN_JOBS
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        group = "per_layer" if trace == "1" else "end_to_end"
        assert set(last["metrics"]) == {m["name"] for m in bench[group]}


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
