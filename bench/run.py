"""darcyfem benchmark: one workload, timed end to end or traced layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload vortex_n112 --seed 1 --seconds 30 --trace 0

A closed loop: one client in this process runs one job at a time, with BLAS
pinned to one thread.  Each job builds the problem and mesh from the seed
(untimed), times the public darcyfem call, then checks every solve (untimed).
While an untraced job runs, a fixed reference kernel is interleaved with it
(see reference.py), and the job's time is reported as a multiple of that
kernel's time, which cancels most of the shared host's drift in speed.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
from traced jobs that alternate with untraced ones.  The full record
(environment, samples, spans) goes to ``bench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from envinfo import environment, pin_blas_threads

pin_blas_threads()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5

from reference import Pauses, ReferenceSampler  # noqa: E402
from spans import Tracer, nesting_violations, self_seconds  # noqa: E402
from workloads import SMALL, WORKLOADS, check, same_fingerprint  # noqa: E402

# name -> unit; the order is the print order.
END_TO_END = {
    "solve_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "err_rel": "1",
    "eta_d": "1",
}

PER_LAYER = {
    "mesh.generate_s": "s",
    "mesh.refine_s": "s",
    "mesh.refine_calls": "count",
    "mesh.triangles": "count",
    "mesh.vertices": "count",
    "assembly.setup_s": "s",
    "assembly.setup_calls": "count",
    "assembly.step_s": "s",
    "assembly.step_calls": "count",
    "assembly.pressure_s": "s",
    "assembly.recover_s": "s",
    "assembly.cg_iters": "count",
    "assembly.cg_iters_first": "count",
    "assembly.cg_iters_per_solve": "count",
    "assembly.cg_us_per_iter": "us",
    "assembly.s_nnz": "count",
    "assembly.cg_bytes_per_iter_computed": "B",
    "assembly.cg_flops_per_iter_computed": "flop",
    "assembly.cg_gbs_computed": "GB/s",
    "indicators.setup_s": "s",
    "indicators.setup_calls": "count",
    "indicators.compute_s": "s",
    "indicators.compute_calls": "count",
    "nonlinear_solver.outer_iters": "count",
    "nonlinear_solver.solves": "count",
    "nonlinear_solver.self_s": "s",
    "nonlinear_solver.true_error_s": "s",
    "adaptivity.mark_s": "s",
    "adaptivity.levels": "count",
    "adaptivity.self_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# CG kernel figures, computed from array sizes (not measured traffic)
# ---------------------------------------------------------------------------

# Length-n float64 vectors read or written per iteration of the loop in
# darcyfem.assembly.deflated_cg (no Jacobi), counted per statement and
# ignoring numpy temporaries: S @ p 2, p . Sp 2, x += a p 3, r -= a Sp 3,
# r -= mean(r) 3, |r| 1, r . z 2, p = z + b p 3.
CG_VECTOR_PASSES = 19


def cg_bytes_per_iter(n: int, nnz: int) -> int:
    """CSR values (8 B) and column indices (4 B) per non-zero, row pointers
    (4 B) per row, plus the vector passes."""
    return 12 * nnz + 4 * (n + 1) + 8 * CG_VECTOR_PASSES * n


def cg_flops_per_iter(n: int, nnz: int) -> int:
    """SpMV 2 nnz; three dot products and three axpys 2 n each; the mean
    projection 2 n."""
    return 2 * nnz + 14 * n


def layer_metrics(spans, out) -> dict:
    """Per-layer figures of one traced job from its spans and output."""
    def total(name):
        return sum(s.seconds for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    pressure = [s for s in spans if s.name == "assembly.pressure"]
    cg_iters = sum(s.counts["cg_iters"] for s in pressure)
    first = []
    for solve in (s for s in spans if s.name == "nonlinear_solver.solve"):
        kids = [s for s in pressure if s.parent == solve.sid]
        if kids:
            first.append(kids[0].counts["cg_iters"])
    last = pressure[-1].counts if pressure else {"n": 0, "nnz": 0}
    pressure_s = total("assembly.pressure")
    cg_bytes = sum(s.counts["cg_iters"] * cg_bytes_per_iter(s.counts["n"],
                                                            s.counts["nnz"])
                   for s in pressure)
    mesh = out.final_mesh
    return {
        "mesh.generate_s": total("mesh.generate"),
        "mesh.refine_s": total("mesh.refine"),
        "mesh.refine_calls": calls("mesh.refine"),
        "mesh.triangles": mesh.n_triangles,
        "mesh.vertices": mesh.n_vertices,
        "assembly.setup_s": total("assembly.setup"),
        "assembly.setup_calls": calls("assembly.setup"),
        "assembly.step_s": total("assembly.step"),
        "assembly.step_calls": calls("assembly.step"),
        "assembly.pressure_s": pressure_s,
        "assembly.recover_s": total("assembly.recover"),
        "assembly.cg_iters": cg_iters,
        "assembly.cg_iters_first": max(first, default=0),
        "assembly.cg_iters_per_solve": cg_iters / max(len(pressure), 1),
        "assembly.cg_us_per_iter": 1e6 * pressure_s / max(cg_iters, 1),
        "assembly.s_nnz": last["nnz"],
        "assembly.cg_bytes_per_iter_computed":
            cg_bytes_per_iter(last["n"], last["nnz"]),
        "assembly.cg_flops_per_iter_computed":
            cg_flops_per_iter(last["n"], last["nnz"]),
        "assembly.cg_gbs_computed": cg_bytes / pressure_s / 1e9
        if pressure_s > 0 else 0.0,
        "indicators.setup_s": total("indicators.setup"),
        "indicators.setup_calls": calls("indicators.setup"),
        "indicators.compute_s": total("indicators.compute"),
        "indicators.compute_calls": calls("indicators.compute"),
        "nonlinear_solver.outer_iters":
            count("nonlinear_solver.solve", "outer_iters"),
        "nonlinear_solver.solves": calls("nonlinear_solver.solve"),
        "nonlinear_solver.self_s": self_seconds(spans, "nonlinear_solver.solve"),
        "nonlinear_solver.true_error_s": total("nonlinear_solver.true_error"),
        "adaptivity.mark_s": total("adaptivity.mark"),
        "adaptivity.levels": count("adaptivity.loop", "levels"),
        "adaptivity.self_s": self_seconds(spans, "adaptivity.loop"),
    }


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    traced: bool
    seconds: float
    attempted: int
    failed: int
    reasons: list
    fingerprint: tuple | None = None
    reference_s: float = float("nan")  # median reference unit during the job
    err_rel: float = float("nan")
    eta_d: float = float("nan")
    layers: dict | None = None

    @property
    def succeeded(self) -> bool:
        return self.failed == 0 and not self.reasons

    @property
    def ratio(self) -> float:
        """The job's time in reference units."""
        return self.seconds / self.reference_s


def run_job(workload, seed: int, tracer: Tracer | None = None,
            job_id: int = 0, sampler: ReferenceSampler | None = None) -> Job:
    """Set up (untimed), run the public call (timed, less the sampler's
    pauses), check (untimed)."""
    def body():
        problem, mesh = workload.setup(seed)
        with sampler.sampling() if sampler else nullcontext(Pauses()) \
                as pauses:
            t0 = time.perf_counter()
            try:
                out = workload.run(problem, mesh)
            finally:
                t1 = time.perf_counter()
                elapsed = t1 - t0 - pauses.paused_before(t1)
        return problem, out, elapsed, pauses.units

    traced = tracer is not None
    gc.collect()  # start every job without the previous job's garbage
    t0 = time.perf_counter()
    try:
        if traced:
            with tracer.active(job_id):
                problem, out, elapsed, units = body()
        else:
            problem, out, elapsed, units = body()
    except Exception as exc:  # a failed solve is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        n = workload.expected_solves()
        return Job(traced, time.perf_counter() - t0, n, n,
                   [f"raised {type(exc).__name__}: {exc}"])
    verdict = check(workload, problem, out)
    job = Job(traced, elapsed, verdict.attempted, verdict.failed,
              verdict.reasons, out.fingerprint(), err_rel=out.err_rel,
              eta_d=out.eta_d)
    if units:
        job.reference_s = statistics.median(units)
    if traced:
        spans = tracer.job_spans(job_id)
        job.reasons += nesting_violations(spans)
        job.layers = layer_metrics(spans, out)
    return job


def probe_setup(workload_name: str, seed: int) -> float:
    """Seconds to import darcyfem and build problem and mesh, fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload_name,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _finite_median(values) -> float:
    """Median of the finite values; 0 when there are none (the run then has
    failed its checks already)."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS, warm_up=None) -> dict:
    """One benchmark run: returns the result record (metrics, samples,
    correctness) without printing anything."""
    setup = [] if trace else [probe_setup(workload.name, seed)
                              for _ in range(setup_repeats)]
    if warm_up is not None:
        run_job(warm_up, seed)

    tracer = Tracer() if trace else None
    sampler = None if trace else ReferenceSampler()
    jobs: list[Job] = []
    min_jobs = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(jobs) % 2 == 1
        started = time.perf_counter()
        jobs.append(run_job(workload, seed, tracer if traced else None,
                            job_id=len(jobs), sampler=sampler))
        if len(jobs) == 1:
            # Later jobs only add allocator noise to the peak.
            peak_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if len(jobs) >= min_jobs and now + (now - started) > deadline:
            break

    reasons = [f"job {i}: {r}" for i, j in enumerate(jobs) for r in j.reasons]
    ref = next((j.fingerprint for j in jobs if j.fingerprint), None)
    for i, j in enumerate(jobs):
        if j.fingerprint and not same_fingerprint(j.fingerprint, ref):
            reasons.append(f"job {i}: fingerprint {j.fingerprint} differs "
                           f"from the first job's {ref}")
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    correct = not reasons and failed == 0

    def timed(traced):
        """Successful jobs only, unless none succeeded (then not correct)."""
        kind = [j for j in jobs if j.traced == traced]
        return [j for j in kind if j.succeeded] or kind

    samples = {"solve_s": [j.seconds for j in timed(False)]}
    if trace:
        # A job that raised has no layers; the run is then not correct, but
        # still reports.
        layers = [j.layers for j in jobs if j.layers] or \
            [dict.fromkeys(PER_LAYER, 0.0)]
        samples["traced_solve_s"] = [j.seconds for j in timed(True)]
        metrics = {name: statistics.median(x[name] for x in layers)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(
            samples["traced_solve_s"]) - statistics.median(samples["solve_s"])
        units = PER_LAYER
    else:
        samples["setup_s"] = setup
        samples["reference_s"] = [j.reference_s for j in timed(False)]
        samples["solve_ref"] = [j.ratio for j in timed(False)]
        metrics = {
            "solve_ref": _finite_median(samples["solve_ref"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mib,
            "err_rel": _finite_median(j.err_rel for j in jobs),
            "eta_d": _finite_median(j.eta_d for j in jobs),
        }
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
        "samples": samples,
        "jobs": len(jobs),
        "reasons": reasons,
        "fingerprint": list(ref) if ref else None,
        "spans": tracer.as_records() if tracer else [],
    }


def report(workload: str, seed: int, trace: bool, env: dict,
           result: dict) -> None:
    """Human-readable lines; the JSON line printed after them is the result."""
    print(f"darcyfem benchmark  workload={workload} seed={seed} "
          f"trace={int(trace)} params={env['params']}")
    print(f"env  cpus={env['cpu_count']} cpu={env['cpu_model']!r} "
          f"caches={env['caches']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['blas_threads']} commit={env['git_commit']}")
    rows = [(name, m["value"], m["unit"])
            for name, m in result["metrics"].items()]
    # Wall seconds of the jobs and of the reference units: shown, but too
    # noisy on a shared host to be metrics.
    rows += [(name, statistics.median(result["samples"][name]), "s")
             for name in ("solve_s", "reference_s")
             if name in result["samples"] and name not in result["metrics"]]
    for name, value, unit in rows:
        line = f"{name:40s} {value:.6g} {unit}"
        values = result["samples"].get(name)
        if values:
            q1, q3 = _quartiles(values)
            line += f"  (median of {len(values)}; quartiles {q1:.6g}, {q3:.6g})"
        print(line)
    print(f"{'fail_ratio':40s} {result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:.6g}")
    for reason in result["reasons"]:
        print(f"FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "darcyfem" / "__init__.py").is_file():
        print(f"error: no darcyfem sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import darcyfem
    if Path(darcyfem.__file__).resolve().parent != SRC / "darcyfem":
        print(f"error: imported darcyfem from {darcyfem.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    result = measure(workload, args.seed, args.seconds, trace,
                     warm_up=SMALL[args.workload])
    env = environment(ROOT, args.seed, workload.draw(args.seed))

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "env": env,
                                **result}, indent=1) + "\n")
    report(args.workload, args.seed, trace, env, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
