"""Rewrite ``tests/golden/outputs.json``, the deterministic outputs that
``tests/test_golden.py`` recomputes and compares.

Run from the root of the repository, with one BLAS thread:

    OMP_NUM_THREADS=1 PYTHONPATH=src python tests/golden/write_outputs.py

A change whose outputs move rewrites the file in the same commit and says
which entries moved and why.  The file holds:

* ``tables``: each alpha of the four N = 60 sweep tables of
  ``tests/conftest.py``: outer iterations, converged, status, V-cycle
  builds, CG iterations and the relative error;
* ``workloads``: the seed-1 fingerprint of each ``bench/workloads.py``
  workload: outer steps, CG iterations, final triangles, refine calls and
  eta_D;
* ``uniform_study``: the CLI uniform study at N = 4 (beta = 10,
  alpha = 10), whose multigrid hierarchy has a single level: each level's
  manifest figures and its ``study.csv`` values;
* ``cli``: four more CLI runs.  ``solve`` at N = 4, alpha = 2.3: the
  ``trace.csv`` rows and the column sums of ``indicators.csv``.  ``sweep``
  at N = 4 over alphas 0.5, 2.3 and 5: the ``sweep.csv`` rows.
  ``problem_file``: a uniform study at N = 4 of ``PROBLEM_FILE``, an
  L-shape with variable K^-1, given ``exact_u`` and ``exact_p`` but not
  ``exact_grad_p``, so that its true error reads the finite-difference
  gradient: the ``study.csv`` rows.  ``constant_k_file``: ``solve`` at
  N = 4 (beta = 10, alpha = 10) of ``CONSTANT_K_FILE``, whose K^-1 entries
  name neither x nor y, so that it runs the constant K^-1 path: the
  ``trace.csv`` rows;
* ``versions``: the numpy and scipy versions the file was written with.

Integers are compared exactly and floats to ``REL_TOL`` relative.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "outputs.json"
TESTS = GOLDEN.parent.parent
BENCH = TESTS.parent / "bench"
REL_TOL = 1e-10
UNIFORM_STUDY = ("uniform-study", "--Ns", "4", "--beta", "10",
                 "--alpha", "10")
PROBLEM_FILE = {
    "name": "variable-k",
    "domain": "l-shape",
    "k_inverse": [["2 + sin(pi*x)*sin(pi*y)", "0.2*x"],
                  ["0.2*x", "3 + sin(pi*x)*sin(pi*y)"]],
    "f": ["where(y <= 1, -2, 0)", "x*y"],
    "exact_u": ["y*(2-y)", "x*(2-x)"],
    "exact_p": "x*y - 1",
}
CONSTANT_K_FILE = {
    "name": "constant-k",
    "k_inverse": [["2", "0.5"], ["0.5", "1"]],
    "f": ["sin(pi*y)", "cos(pi*x)"],
}
CLI_RUNS = {
    "solve": ("solve", "--N", "4", "--alpha", "2.3"),
    "sweep": ("sweep", "--N", "4", "--alphas", "0.5,2.3,5"),
    "problem_file": ("uniform-study", "--Ns", "4", "--beta", "5"),
    "constant_k_file": ("solve", "--N", "4", "--beta", "10",
                        "--alpha", "10"),
}
# The problem file of each run that reads one.
PROBLEM_FILES = {"problem_file": PROBLEM_FILE,
                 "constant_k_file": CONSTANT_K_FILE}
# CSV columns written as integers; every other column is a float.
INT_COLUMNS = {"iter", "nbr_cg_iters", "element", "nbr", "converged",
               "level", "vertices", "triangles"}


def versions() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def table_entries(rows) -> list[dict]:
    """The deterministic fields of a sweep's rows."""
    return [{"alpha": r.alpha, "iterations": r.iterations,
             "converged": r.converged, "status": r.status,
             "vcycle_builds": r.vcycle_builds, "cg_total": r.cg_total,
             "err": r.err} for r in rows]


def workload_entries() -> dict:
    """The seed-1 fingerprint of every benchmark workload."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    out = {}
    for name, workload in WORKLOADS.items():
        problem, mesh = workload.setup(1)
        fp = workload.run(problem, mesh).fingerprint()
        out[name] = [int(v) for v in fp[:-1]] + [float(fp[-1])]
    return out


def uniform_study_entries(out_dir: Path) -> list[dict]:
    """Per level of the CLI uniform study: its manifest figures and its
    ``study.csv`` values."""
    from darcyfem.cli import main
    if main([*UNIFORM_STUDY, "--out", str(out_dir)]) != 0:
        raise RuntimeError("the uniform study did not exit 0")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    names, rows = csv_rows(out_dir / "study.csv")
    levels = []
    for level, row in zip(manifest["levels"], rows):
        entry = {k: level[k] for k in ("triangles", "iterations", "cg_total",
                                       "vcycle_builds", "status")}
        entry.update(zip(names, row))
        levels.append(entry)
    return levels


def csv_rows(path: Path) -> tuple[list[str], list[list]]:
    """The header and the typed rows of a CSV file the CLI wrote."""
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    return names, [[int(text) if key in INT_COLUMNS else float(text)
                    for key, text in zip(names, line.split(","))]
                   for line in lines]


def cli_entries(out_dir: Path) -> dict:
    """The CSV values of the runs in ``CLI_RUNS``."""
    from darcyfem.cli import main
    for name, argv in CLI_RUNS.items():
        extra = ()
        if name in PROBLEM_FILES:
            spec = out_dir / f"{name}.json"
            spec.write_text(json.dumps(PROBLEM_FILES[name]))
            extra = ("--problem", str(spec))
        if main([*argv, *extra, "--out", str(out_dir / name)]) != 0:
            raise RuntimeError(f"the CLI run {name!r} did not exit 0")
    _, indicators = csv_rows(out_dir / "solve" / "indicators.csv")
    return {"solve": {"trace": csv_rows(out_dir / "solve" / "trace.csv")[1],
                      "indicator_sums": [math.fsum(column) for column
                                         in list(zip(*indicators))[1:]]},
            "sweep": csv_rows(out_dir / "sweep" / "sweep.csv")[1],
            "problem_file": csv_rows(out_dir / "problem_file"
                                     / "study.csv")[1],
            "constant_k_file": csv_rows(out_dir / "constant_k_file"
                                        / "trace.csv")[1]}


def outputs(tables: dict, out_dir: Path) -> dict:
    """Every entry of the golden file, the four tables' rows given by name
    in ``tables``; the CLI runs write into subdirectories of ``out_dir``."""
    return {"versions": versions(),
            "tables": {name: table_entries(rows)
                       for name, rows in tables.items()},
            "workloads": workload_entries(),
            "uniform_study": uniform_study_entries(out_dir / "uniform"),
            "cli": cli_entries(out_dir)}


def differences(want, got, path="") -> list[str]:
    """Where ``got`` departs from ``want``: integers and strings exactly,
    floats to ``REL_TOL`` relative (nan equals nan)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want
                for d in differences(want[k], got[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: {len(want)} entries recorded, {len(got)} now"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = (math.isnan(want) and math.isnan(got)) \
            or math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{path}: recorded {want!r}, now {got!r}"]


def main() -> None:
    sys.path.insert(0, str(TESTS))
    from conftest import TABLES, _timed_sweep
    tables = {name: _timed_sweep(*args)[0] for name, args in TABLES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        doc = outputs(tables, Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
