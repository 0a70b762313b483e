"""cone2d benchmark: seeded certificate workloads, checked against ground truth.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

A single client runs a closed loop: the next job starts only after the
previous one returned.  A run sets up (imports cone2d, generates the
inputs, runs the warm-up jobs), then runs whole passes over the job list
until ``--seconds`` of pass time and at least ``MIN_JOBS`` job runs,
then sets up again several times; ``setup_s`` is the median set-up.
Every result is checked by ``oracle`` between passes, outside the timed
section.  ``job_ms``/``verify_ms`` percentiles are over every timed
execution of every job; ``jobs_per_s`` is the median over passes of a
pass's jobs divided by its wall time.  Medians rather than minima: on a
shared host the fastest runs come from short bursts of an idle machine,
so a minimum depends on whether a burst fell into the run.  ``attempted``
and ``failed`` count distinct jobs; a job runs once per pass, and a
repeat whose result differs from its first run makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
one pass with every public cone2d callable wrapped (see ``tracing``),
removes the wrappers, runs the timed passes as usual and prints the
per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a results file with the
run's metadata, every metric and every failure is written under
``perfbench/out/results/``.

BLAS runs single-threaded (one closed-loop client on a 2-core box), so
that the figures do not depend on what else the machine is running.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds; setup_s is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
MIN_JOBS = 100
REPLAY_VERIFY = 5
# Never start another pass past this many timed seconds (the whole run
# must end within 180 s).
PASS_CUTOFF_S = 100.0
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "job_ms.p50": "ms", "job_ms.p90": "ms", "jobs_per_s": "1/s",
    "verify_ms.p50": "ms", "pass_ratio": "ratio", "sound_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# Reported alongside (results file and stdout table), not gated: they
# are 0 on most workloads, so their complements above carry the bound.
INFO_UNITS = {"fail_ratio": "ratio", "unsound_count": "count",
              "changed_results": "count", "job_count": "count",
              "pass_count": "count", "timed_runs": "count",
              "jobs_per_wall_s": "1/s"}


class Row(NamedTuple):
    """What is kept of one timed job once its result has been checked."""
    index: int
    kind: str
    job_s: float
    verify_s: float | None
    check: object
    changed: bool


@dataclass
class Record:
    job: object
    result: object
    verified: object
    error: str | None
    job_s: float
    verify_s: float | None


def run_job(job) -> Record:
    t0 = perf_counter()
    result = verified = error = None
    t1 = None
    try:
        result = job.call()
        t1 = perf_counter()
        if job.verify is not None:
            verified = job.verify(result)
    except Exception as exc:  # a job that raises is counted as failed, never fatal
        stage = "call" if t1 is None else "verify()"
        error = f"{stage} raised {type(exc).__name__}: {exc}"
    t2 = perf_counter()
    verify_s = t2 - t1 if job.verify is not None and t1 is not None else None
    return Record(job, result, verified, error, t2 - t0, verify_s)


def run_pass(jobs, tracer=None) -> tuple:
    records = []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.index
        records.append(run_job(job))
    return records, perf_counter() - start


def import_cone2d():
    for name in [m for m in sys.modules if m == "cone2d" or m.startswith("cone2d.")]:
        del sys.modules[name]
    c2 = importlib.import_module("cone2d")
    cli_mod = importlib.import_module("cone2d.cli")
    if Path(c2.__file__).resolve().parent != (SRC / "cone2d").resolve():
        raise ImportError(f"cone2d imported from {c2.__file__}, not from {SRC}")
    return c2, cli_mod


def setup(workloads, workload: str, seed: int, workdir: Path):
    start = perf_counter()
    c2, cli_mod = import_cone2d()
    spec = workloads.generate(workload, seed)
    jobs = workloads.build(spec, c2, cli_mod, str(workdir))
    for job in jobs:
        if job.spec["warm"]:
            run_job(job)
    return perf_counter() - start, c2, spec, jobs


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metadata(args) -> dict:
    import numpy as np
    import scipy

    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        head = ref
        if ref.startswith("ref: "):
            path = git / ref[5:]
            if path.is_file():
                head = path.read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        head = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((SRC / "cone2d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": head, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: os.environ.get(k) for k in BLAS_ENV}},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "clients": 1, "loop": "closed",
    }


def check_records(oracle, workloads, spec, records, seen: dict) -> list:
    """Oracle verdict per record.  ``seen`` maps a job index to the JSON
    digest of its first result and that result's verdict; a repeat with
    the same bytes reuses the verdict, a repeat with other bytes is
    checked afresh and flagged as changed."""
    out = []
    for rec in records:
        if rec.error is not None:
            out.append((oracle.Check(False, False, False, rec.error), False))
            continue
        try:
            report = workloads.as_report(rec.job, rec.result)
            key = (hashlib.sha256(workloads.dumps(report).encode()).hexdigest(),
                   rec.verified)
        except (TypeError, ValueError) as exc:
            out.append((oracle.Check(False, True, True, f"result not strict JSON: {exc}"),
                        False))
            continue
        first = seen.get(rec.job.index)
        if first is not None and first[0] == key:
            out.append((first[1], False))
            continue
        try:
            verdict = oracle.check(spec, rec.job.spec, report, rec.verified)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdict = oracle.Check(False, True, True, f"malformed result: {exc!r}")
        if first is None:
            seen[rec.job.index] = (key, verdict)
        out.append((verdict, first is not None))
    return out


def replay_verify_ms(jobs) -> list:
    """Certificate.verify() latency for the CLI's certificate jobs: the
    same inputs through the API, REPLAY_VERIFY runs per certificate."""
    times = []
    for job in jobs:
        if job.replay is not None:
            cert = job.replay()
            for _ in range(REPLAY_VERIFY):
                t0 = perf_counter()
                cert.verify()
                times.append((perf_counter() - t0) * 1e3)
    return times


def traced_pass(tracing, c2, jobs, check) -> dict:
    """One pass with every layer wrapped; the wrappers are gone after."""
    tracer = tracing.Tracer()
    patches = tracing.patch(c2, tracer)
    try:
        records, wall = run_pass(jobs, tracer)
    finally:
        tracing.restore(patches)
    left = tracing.leftover_wrappers(c2)
    if left:
        raise RuntimeError(f"wrappers left after the traced pass: {left}")
    check(records)
    return {
        "tracer": tracer, "wall": wall, "job_wall": sum(r.job_s for r in records),
        "bytes_in": sum(os.path.getsize(p) for r in records for p in r.job.inputs),
        "bytes_out": sum(len(r.result[1].encode()) for r in records
                         if r.error is None and r.job.kind.startswith("cli.")),
    }


def timed_passes(jobs, seconds: float, check) -> tuple:
    """Whole passes until ``seconds`` of pass time and MIN_JOBS jobs;
    each pass is checked, and its results dropped, before the next."""
    walls, rows = [], []
    while True:
        gc.collect()
        records, wall = run_pass(jobs)
        walls.append(wall)
        rows += [Row(r.job.index, r.job.kind, r.job_s, r.verify_s, c, changed)
                 for r, (c, changed) in zip(records, check(records))]
        del records
        elapsed = sum(walls)
        if (elapsed >= seconds and len(rows) >= MIN_JOBS) or elapsed + wall > PASS_CUTOFF_S:
            return walls, rows


def pooled_ms(rows, field: str) -> list:
    """Every timed execution's ``field``, in ms."""
    return [getattr(r, field) * 1e3 for r in rows if getattr(r, field) is not None]


def per_job(rows) -> dict:
    """Oracle verdict per distinct job: a job fails, claims or is
    refuted if it did so on any pass."""
    jobs: dict = {}
    for r in rows:
        ok, claim, refuted = jobs.get(r.index, (True, False, False))
        jobs[r.index] = (ok and r.check.ok, claim or r.check.claim,
                         refuted or (r.check.claim and r.check.refuted))
    return jobs


def run_one(args) -> int:
    if not (SRC / "cone2d" / "__init__.py").is_file():
        print(f"error: no cone2d sources under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported here, after the BLAS settings)

    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-{args.seed}"
    secs, c2, spec, jobs = setup(workloads, args.workload, args.seed, workdir)
    setups = [secs]

    seen: dict = {}

    def check(records):
        return check_records(oracle, workloads, spec, records, seen)

    traced = traced_pass(tracing, c2, jobs, check) if args.trace else None
    walls, rows = timed_passes(jobs, args.seconds, check)

    verdicts = per_job(rows)
    attempted = len(verdicts)
    failed = sum(not ok for ok, _, _ in verdicts.values())
    claims = sum(claim for _, claim, _ in verdicts.values())
    unsound = sum(refuted for _, _, refuted in verdicts.values())
    # A repeat whose result differs from the first run of that job (the
    # traced pass included) means tracing or state changed an answer.
    changed = sum(r.changed for r in rows)
    correct = changed == 0 and not any(r.check.refuted for r in rows)

    verify_ms = None if traced else (pooled_ms(rows, "verify_s")
                                     or replay_verify_ms(jobs))
    # The repeat set-ups come after the timed passes: re-importing cone2d
    # many times leaves the heap in a state that slows later jobs.
    while not traced and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
        gc.collect()
        setups.append(setup(workloads, args.workload, args.seed, workdir)[0])

    if traced is not None:
        metrics = tracing.layer_metrics(traced["tracer"], traced["wall"],
                                        traced["job_wall"], statistics.median(walls))
        metrics["cli.bytes_in"] = traced["bytes_in"]
        metrics["cli.bytes_out"] = traced["bytes_out"]
        units = per_layer_units()
    else:
        job_ms = pooled_ms(rows, "job_s")
        metrics = {
            "job_ms.p50": statistics.median(job_ms),
            "job_ms.p90": p90(job_ms),
            # one client, closed loop: every pass runs every job once
            "jobs_per_s": statistics.median(len(jobs) / w for w in walls),
            "verify_ms.p50": statistics.median(verify_ms),
            "pass_ratio": 1.0 - failed / attempted,
            "sound_ratio": 1.0 - unsound / claims if claims else 1.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    out_metrics = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
    metrics.update(fail_ratio=failed / attempted, unsound_count=unsound,
                   changed_results=changed, job_count=attempted, pass_count=len(walls),
                   timed_runs=len(rows), jobs_per_wall_s=len(rows) / sum(walls))

    failures: dict = {}
    by_kind: dict = {}
    for index, kind, job_s, _, c, _ in rows:
        k = by_kind.setdefault(kind, {"runs": 0, "failed_runs": 0, "unsound": 0,
                                      "job_ms": []})
        k["runs"] += 1
        k["failed_runs"] += not c.ok
        k["unsound"] += c.claim and c.refuted
        k["job_ms"].append(job_s * 1e3)
        if not c.ok:
            entry = failures.setdefault(index, {"job": index, "kind": kind,
                                                "size": workloads.describe(spec["jobs"][index]),
                                                "note": c.note, "claim": c.claim,
                                                "refuted": c.refuted, "times": 0})
            entry["times"] += 1
    for k in by_kind.values():
        k["job_ms.p50"] = statistics.median(k.pop("job_ms"))

    results = {"meta": metadata(args), "correct": correct, "attempted": attempted,
               "failed": failed, "metrics": metrics, "setup_s_each": setups,
               "pass_walls_s": walls, "by_kind": by_kind,
               "failures": [failures[i] for i in sorted(failures)]}
    if traced is not None:
        results["spans"] = [[n, round(s, 7), round(e, 7), p, j]
                            for n, s, e, p, j in traced["tracer"].spans]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, allow_nan=False))

    for name, m in out_metrics.items():
        print(f"{args.workload}  {name:32s} {m['value']:14.6g} {m['unit']}")
    for name, unit in INFO_UNITS.items():
        print(f"{args.workload}  {name:32s} {metrics[name]:14.6g} {unit}")
    for entry in results["failures"]:
        print(f"{args.workload}  failed job {entry['job']} ({entry['kind']} "
              f"{entry['size']}): {entry['note']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}, allow_nan=False))
    return 0


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process, one after the other; prints
    each workload's metric lines and a JSON summary as the last line."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary, allow_nan=False))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="grid_fit, exact_certs, cli_moments, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
