"""Tests of the benchmark itself, on tiny variants of the workloads.

Run from the root of the repository:  python3 -m pytest bench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

from reference import ReferenceSampler  # noqa: E402
from spans import TRACED, Span, Tracer, nesting_violations, resolve  # noqa: E402
from workloads import (  # noqa: E402
    SMALL,
    WORKLOADS,
    check,
    mass_row_defect,
    same_fingerprint,
)


def test_unconverged_solve_is_counted_as_failed():
    job = run.run_job(replace(SMALL["vortex_n112"], max_iter=1), seed=1)
    assert (job.attempted, job.failed) == (1, 1)
    assert any("not converged" in r for r in job.reasons)


def test_failed_run_is_not_reported_correct():
    result = run.measure(replace(SMALL["vortex_sweep"], max_iter=1), seed=1,
                         seconds=0.0, trace=False, setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_mass_row_check_catches_a_perturbed_velocity():
    w = SMALL["vortex_n112"]
    problem, mesh = w.setup(1)
    out = w.run(problem, mesh)
    res = out.records[0].result
    defect, allowed = mass_row_defect(problem, mesh, res)
    assert defect <= allowed
    assert check(w, problem, out).failed == 0
    res.u.values[0] += 1e-6
    verdict = check(w, problem, out)
    assert verdict.failed == 1 and "Bu - H" in verdict.reasons[0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_outputs(name):
    first = run.run_job(SMALL[name], seed=7)
    second = run.run_job(SMALL[name], seed=7)
    assert first.failed == 0 and not first.reasons
    assert same_fingerprint(first.fingerprint, second.fingerprint)


def test_reference_pauses_leave_results_unchanged():
    sampler = ReferenceSampler(period=0.005)
    plain = run.run_job(SMALL["corner_adapt"], seed=3)
    paused = run.run_job(SMALL["corner_adapt"], seed=3, sampler=sampler)
    assert paused.failed == 0 and not paused.reasons
    assert paused.fingerprint == plain.fingerprint
    assert paused.reference_s > 0 and paused.ratio > 0


def test_sampler_pauses_a_long_call_and_accounts_for_it():
    sampler = ReferenceSampler(period=0.02)
    with sampler.sampling() as pauses:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert len(pauses.units) >= 2 and len(pauses.spans) == len(pauses.units)
    assert 0 < pauses.paused_before(t1) < t1 - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_draws_data_but_keeps_the_mesh(name):
    w = WORKLOADS[name]
    assert w.draw(1) == w.draw(1) and w.draw(1) != w.draw(2)
    (_, mesh1), (_, mesh2) = w.setup(1), w.setup(2)
    assert mesh1.n_triangles == mesh2.n_triangles


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_job_nests_reports_every_layer_and_restores(name):
    originals = [resolve(owner, attr)[1] for _, owner, attr in TRACED]
    tracer = Tracer()
    job = run.run_job(SMALL[name], seed=1, tracer=tracer, job_id=0)
    assert not job.reasons
    assert set(job.layers) == set(run.PER_LAYER) - {"trace.overhead_s"}
    assert (job.layers["mesh.refine_calls"] > 0) == (name == "corner_adapt")
    assert job.layers["assembly.cg_iters"] > 0
    assert nesting_violations(tracer.job_spans(0)) == []
    assert [resolve(owner, attr)[1] for _, owner, attr in TRACED] == originals


def test_nesting_check_flags_children_longer_than_parent():
    spans = [Span(0, None, 0, "a", 0.0, 1.0), Span(1, 0, 0, "b", 0.0, 0.6),
             Span(2, 0, 0, "c", 0.5, 1.1)]
    assert len(nesting_violations(spans)) == 1


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_every_metric(trace):
    result = run.measure(SMALL["corner_adapt"], seed=1, seconds=0.0,
                         trace=trace, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vortex_n112",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
