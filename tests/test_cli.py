import json
import os
import subprocess
import sys

import numpy as np
import pytest

from darcyfem import problems
from darcyfem.cli import main, merge_config, build_parser
from darcyfem.mesh import save_mesh
from darcyfem.spaces import load_p0, load_p1


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def test_solve_writes_expected_outputs(tmp_path, capsys):
    code, out = _run(tmp_path, "solve", "--problem", "gaussian-vortex",
                     "--N", "4", "--alpha", "2.3")
    assert code == 0
    for name in ("trace.csv", "indicators.csv", "velocity.p0field",
                 "pressure.p1field", "mesh.svg", "velocity.svg",
                 "pressure.svg", "manifest.json"):
        assert (out / name).exists(), name
    assert "converged=True" in capsys.readouterr().out


def test_trace_and_indicator_headers(tmp_path):
    code, out = _run(tmp_path, "solve", "--N", "3")
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,err_L,eta_L,eta_D,nbr_cg_iters"
    first = trace[1].split(",")
    assert first[0] == "1" and len(first) == 5
    ind = (out / "indicators.csv").read_text().splitlines()
    assert ind[0] == "element,eta_L,eta_D1,eta_D2,osc_f,osc_b,osc_g"
    # one data row per triangle of the N=3 structured mesh
    assert len(ind) == 1 + 2 * 3 * 3


def test_solve_fields_load_back(tmp_path):
    code, out = _run(tmp_path, "solve", "--N", "4", "--alpha", "2.3")
    assert code == 0
    problem = problems.gaussian_vortex()
    mesh = problems.initial_mesh(problem, 4)
    u = load_p0((out / "velocity.p0field").read_text(), mesh)
    p = load_p1((out / "pressure.p1field").read_text(), mesh)
    assert u.values.shape == (mesh.n_triangles, 2)
    assert np.isfinite(u.values).all()
    assert abs(p.values @ np.full(mesh.n_vertices, 1.0 / mesh.n_vertices)) < 1.0


def test_sweep_csv_schema_and_best_line(tmp_path, capsys):
    code, out = _run(tmp_path, "sweep", "--N", "4",
                     "--alphas", "0.5,2.3,5", "--tol", "1e-4")
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,nbr,converged,err,log10_err"
    assert len(lines) == 4
    alphas = [float(l.split(",")[0]) for l in lines[1:]]
    assert alphas == [0.5, 2.3, 5.0]
    assert all(l.split(",")[2] == "1" for l in lines[1:])
    assert "best alpha=" in capsys.readouterr().out


def test_sweep_rerun_is_byte_identical(tmp_path):
    argv = ("sweep", "--N", "4", "--alphas", "1,2.3", "--threads", "1")
    _, out1 = _run(tmp_path / "a", *argv)
    _, out2 = _run(tmp_path / "b", *argv)
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_solve_rerun_is_byte_identical(tmp_path):
    argv = ("solve", "--N", "4", "--alpha", "2.3")
    _, out1 = _run(tmp_path / "a", *argv)
    _, out2 = _run(tmp_path / "b", *argv)
    for name in ("trace.csv", "indicators.csv", "velocity.p0field",
                 "pressure.p1field", "velocity.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_uniform_study_schema(tmp_path):
    code, out = _run(tmp_path, "uniform-study", "--Ns", "3,6",
                     "--alpha", "2.3", "--guess", "darcy")
    assert code == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == "level,vertices,triangles,eta_L,eta_D,err,EI,E_tot"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "16"   # (3+1)^2 vertices
    assert lines[2].split(",")[1] == "49"


def test_adapt_writes_levels(tmp_path, capsys):
    code, out = _run(tmp_path, "adapt", "--N", "4", "--levels", "3",
                     "--alpha", "2.3", "--beta", "1")
    assert code == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert len(lines) == 4
    assert (out / "mesh_level00.svg").exists()
    assert (out / "mesh_level02.svg").exists()
    assert "final_vertices=" in capsys.readouterr().out


def test_diagnostics_json(tmp_path, capsys):
    code, out = _run(tmp_path, "diagnostics", "--N", "4")
    assert code == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    for key in ("alpha_star", "alpha_cubic", "gamma1", "gamma2",
                "k_min", "k_max", "lifting_l3"):
        assert key in doc, key
    assert doc["alpha_star"] > 0
    assert "alpha_star=" in capsys.readouterr().out


def test_manifest_contents(tmp_path):
    _, out = _run(tmp_path, "solve", "--N", "3")
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["n"] == 3
    assert doc["config"]["command"] == "solve"
    assert set(doc["versions"]) == {"python", "numpy", "scipy", "darcyfem"}
    assert doc["outputs"] == sorted(doc["outputs"])
    assert "manifest.json" in doc["outputs"]
    assert "solve" in doc["timings_s"]


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 99.0, "N": 3, "tol": 1e-4}))
    code, out = _run(tmp_path, "solve", "--config", str(cfg),
                     "--alpha", "2.3")
    assert code == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["alpha"] == 2.3       # flag wins
    assert doc["config"]["n"] == 3             # file default survives
    assert doc["config"]["tol"] == 1e-4


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for key in ("alhpa", "seed"):
        cfg.write_text(json.dumps({key: 1}))
        code, _ = _run(tmp_path, "solve", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code, _ = _run(tmp_path, "solve", "--config", str(cfg))
    assert code == 2


def test_unknown_problem_exits_2(tmp_path, capsys):
    code, _ = _run(tmp_path, "solve", "--problem", "no-such-problem")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_without_alphas_exits_2(tmp_path):
    code, _ = _run(tmp_path, "sweep", "--N", "4")
    assert code == 2


def test_mesh_and_n_conflict_exits_2(tmp_path):
    mesh_file = tmp_path / "m.mesh"
    mesh_file.write_text(save_mesh(problems.initial_mesh(
        problems.trivial_zero(), 2)))
    code, _ = _run(tmp_path, "solve", "--N", "4", "--mesh", str(mesh_file))
    assert code == 2


def test_mesh_file_input(tmp_path):
    problem = problems.gaussian_vortex()
    mesh_file = tmp_path / "m.mesh"
    mesh_file.write_text(save_mesh(problems.initial_mesh(problem, 3)))
    code, out = _run(tmp_path, "solve", "--mesh", str(mesh_file),
                     "--alpha", "2.3")
    assert code == 0
    lines = (out / "indicators.csv").read_text().splitlines()
    assert len(lines) == 1 + 18


def test_incompatible_data_exits_3_with_error_file(tmp_path, capsys):
    spec = tmp_path / "prob.json"
    spec.write_text(json.dumps({"name": "leaky", "b": "1", "g": "0"}))
    code, out = _run(tmp_path, "solve", "--problem", str(spec))
    assert code == 3
    text = (out / "error.txt").read_text()
    assert "CompatibilityError" in text
    assert "numerical failure" in capsys.readouterr().err


def test_nonconverged_solve_exits_4_and_writes_outputs(tmp_path, capsys):
    # beta = 1000 with alpha = 0.1 settles into a period-2 cycle.
    code, out = _run(tmp_path, "solve", "--beta", "1000", "--alpha", "0.1",
                     "--N", "10", "--max-iter", "200")
    assert code == 4
    assert "converged=False iterations=200" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 200


def test_nonconverged_last_adapt_level_exits_4(tmp_path):
    # Level 0 does not converge in two steps, so it is the last level.
    code, out = _run(tmp_path, "adapt", "--problem", "reentrant-corner",
                     "--N", "4", "--levels", "2", "--max-iter", "2")
    assert code == 4
    assert len((out / "study.csv").read_text().splitlines()) == 1 + 1


def test_bad_n_exits_2(tmp_path):
    code, _ = _run(tmp_path, "solve", "--N", "0")
    assert code == 2


def test_merge_config_normalizes_keys(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"gamma-tilde": 0.5, "max-iter": 9}))
    args = build_parser().parse_args(["solve", "--config", str(cfg_file)])
    cfg = merge_config(args)
    assert cfg["gamma_tilde"] == 0.5
    assert cfg["max_iter"] == 9
    assert cfg["command"] == "solve"


def test_module_entry_point_reports_version():
    res = subprocess.run([sys.executable, "-m", "darcyfem.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip()


def test_out_env_var_fallback(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("DARCYFEM_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    code = main(["solve", "--N", "3"])
    assert code == 0
    assert (target / "manifest.json").exists()
