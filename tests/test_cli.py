import json
import os
import subprocess
import sys

import numpy as np
import pytest

import darcyfem
from darcyfem import nonlinear_solver, problems
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
    argv = ("sweep", "--N", "4", "--alphas", "1,2.3")
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


def test_solve_manifest_has_phase_totals(tmp_path):
    code, out = _run(tmp_path, "solve", "--N", "4", "--alpha", "2.3")
    assert code == 0
    phases = json.loads((out / "manifest.json").read_text())["phases_s"]
    assert set(phases) == {"t_assemble", "t_solve", "t_recover",
                           "t_indicators"}
    assert all(v >= 0.0 for v in phases.values())
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,err_L,eta_L,eta_D,nbr_cg_iters"
    builds = json.loads((out / "manifest.json").read_text())["vcycle_builds"]
    assert 1 <= builds <= len(trace) - 1


def test_solve_reports_its_status(tmp_path, capsys):
    code, out = _run(tmp_path, "solve", "--beta", "10", "--alpha", "10",
                     "--N", "4")
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith("status=converged")
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "converged"


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
    assert manifest["status"] == "max_iter"
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 200


def test_nonconverged_last_adapt_level_exits_4(tmp_path):
    # Level 0 does not converge in two steps, so it is the last level.
    code, out = _run(tmp_path, "adapt", "--problem", "reentrant-corner",
                     "--N", "4", "--levels", "2", "--max-iter", "2")
    assert code == 4
    assert len((out / "study.csv").read_text().splitlines()) == 1 + 1


_STUDIES = {
    "adapt": ("adapt", "--problem", "reentrant-corner", "--N", "4",
              "--levels", "2"),
    # 35 outer steps at N = 4 and 37 at N = 16
    "uniform-study": ("uniform-study", "--Ns", "4,16", "--beta", "10",
                      "--alpha", "10"),
}


@pytest.mark.parametrize("command", sorted(_STUDIES))
def test_study_manifest_has_status_and_levels(tmp_path, monkeypatch,
                                              command):
    (tmp_path / "projected").mkdir()
    code, out = _run(tmp_path / "projected", *_STUDIES[command])
    assert code == 0
    projected = json.loads((out / "manifest.json").read_text())
    # The levels below are checked on the study whose steps start CG from
    # p_n, so that each step takes at least one CG iteration.
    monkeypatch.setattr(nonlinear_solver, "PROJECTION_DEPTH", 0)
    code, out = _run(tmp_path, *_STUDIES[command])
    assert code == 0
    doc = json.loads((out / "manifest.json").read_text())
    rows = [line.split(",")
            for line in (out / "study.csv").read_text().splitlines()[1:]]
    assert doc["status"] == "converged"
    assert len(doc["levels"]) == len(rows) == 2
    for level, row in zip(doc["levels"], rows):
        assert set(level) == {"triangles", "iterations", "cg_total",
                              "vcycle_builds", "status", "phases_s"}
        assert level["triangles"] == int(row[2])
        assert 1 <= level["iterations"] <= level["cg_total"]
        # the Darcy start builds one too
        assert 1 <= level["vcycle_builds"] <= level["iterations"] + 1
        assert level["status"] == "converged"
        assert set(level["phases_s"]) == {"t_assemble", "t_solve",
                                          "t_recover", "t_indicators",
                                          "setup"}
        assert all(v >= 0.0 for v in level["phases_s"].values())
        assert level["phases_s"]["setup"] > 0.0
    assert sum(level["cg_total"] for level in doc["levels"]) \
        > sum(level["iterations"] for level in doc["levels"])
    # The projected CG start keeps every level's steps and mesh and cuts the
    # study's CG work (a level of a few steps may keep its count).
    assert len(projected["levels"]) == len(doc["levels"])
    for level, plain in zip(projected["levels"], doc["levels"]):
        assert level["status"] == plain["status"]
        assert level["triangles"] == plain["triangles"]
        assert level["iterations"] == plain["iterations"]
        assert level["cg_total"] <= plain["cg_total"]
    assert sum(level["cg_total"] for level in projected["levels"]) \
        < sum(level["cg_total"] for level in doc["levels"])


@pytest.mark.parametrize("command", sorted(_STUDIES))
def test_study_rerun_is_byte_identical(tmp_path, command):
    """The per-level timings go to the manifest only, not to study.csv."""
    first = _run(tmp_path / "a", *_STUDIES[command])[1]
    second = _run(tmp_path / "b", *_STUDIES[command])[1]
    assert (first / "study.csv").read_bytes() \
        == (second / "study.csv").read_bytes()


@pytest.mark.parametrize("command, max_iter, statuses", [
    ("adapt", "2", ["max_iter"]),       # the loop stops at level 0
    ("uniform-study", "36", ["converged", "max_iter"]),
], ids=["adapt", "uniform-study"])
def test_study_manifest_status_on_max_iter(tmp_path, command, max_iter,
                                           statuses):
    code, out = _run(tmp_path, *_STUDIES[command], "--max-iter", max_iter)
    assert code == (4 if command == "adapt" else 0)
    doc = json.loads((out / "manifest.json").read_text())
    assert [level["status"] for level in doc["levels"]] == statuses
    assert doc["levels"][-1]["iterations"] == int(max_iter)
    assert doc["status"] == "max_iter"


def test_bad_n_exits_2(tmp_path):
    code, _ = _run(tmp_path, "solve", "--N", "0")
    assert code == 2


# Problem specs that exit 2, in a problem file or inline in a config file.
_MALFORMED_SPECS = {
    "mu-text": {"mu": "abc"},
    "rho-list": {"rho": [1.0]},
    "beta-text": {"beta": "abc"},
    "k-inverse-number": {"k_inverse": 5},
    "k-inverse-one-row": {"k_inverse": [["1", "0"]]},
    "unknown-key": {"exact_grad": ["0", "0"]},
}


@pytest.mark.parametrize("argv, file_cfg", [
    (["solve"], {"alpha": "x"}),
    (["adapt"], {"levels": "many"}),
    (["solve"], {"max_iter": 2.5}),
    (["solve"], {"guess": "random"}),
    (["solve", "--max-iter", "0"], None),
    (["solve", "--alpha", "-1"], None),
    (["solve", "--tol", "0"], None),
    (["solve", "--beta", "-1"], None),
    (["adapt", "--theta", "2"], None),
    (["adapt", "--levels", "0"], None),
    (["uniform-study", "--Ns", "4,6.5"], None),
    (["sweep", "--alphas", "1,-2"], None),
    (["sweep", "--alphas", "1,inf"], None),
    (["adapt", "--problem", "reentrant-corner", "--beta", "nan"], None),
    (["solve", "--problem", "trivial-zero", "--beta", "-1"], None),
    (["solve"], {"problem": {"rho": "inf"}}),
    (["solve", "--problem"], [1, 2]),
    (["solve"], b"\xff\xfe{}"),
    (["solve", "--problem"], b"\xff\xfe{}"),
    *[(["solve", "--problem"], spec) for spec in _MALFORMED_SPECS.values()],
    *[(["solve"], {"problem": spec}) for spec in _MALFORMED_SPECS.values()],
], ids=["alpha-key", "levels-key", "max-iter-key", "guess-key", "max-iter",
        "alpha", "tol", "beta", "theta", "levels", "ns", "alphas-negative",
        "alphas-inf", "beta-nan-corner", "beta-trivial-zero",
        "problem-rho-inf", "problem-file-list", "config-not-utf8",
        "problem-file-not-utf8",
        *[f"problem-file-{name}" for name in _MALFORMED_SPECS],
        *[f"problem-inline-{name}" for name in _MALFORMED_SPECS]])
def test_malformed_settings_exit_2_before_running(tmp_path, capsys, argv,
                                                  file_cfg):
    """A setting of the wrong type or out of range is a configuration
    error: exit 2 with one error line, nothing run and no manifest.  When
    ``argv`` ends in ``--problem``, ``file_cfg`` is written as the problem
    file; otherwise it is the ``--config`` file.  Bytes are written as
    they are, anything else as JSON."""
    if file_cfg is not None:
        cfg_file = tmp_path / "c.json"
        if isinstance(file_cfg, bytes):
            cfg_file.write_bytes(file_cfg)
        else:
            cfg_file.write_text(json.dumps(file_cfg))
        argv = [*argv, str(cfg_file)] if argv[-1] == "--problem" \
            else [*argv, "--config", str(cfg_file)]
    code, out = _run(tmp_path, *argv, "--N", "3")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_mesh_file_not_utf8_exits_2(tmp_path, capsys):
    mesh_file = tmp_path / "m.mesh"
    mesh_file.write_bytes(b"\xff\xfe" + save_mesh(
        problems.initial_mesh(problems.trivial_zero(), 2)).encode())
    code, out = _run(tmp_path, "solve", "--mesh", str(mesh_file))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read mesh") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["diagnostics", "solve"])
def test_non_finite_k_inverse_exits_2(tmp_path, capsys, command):
    """K^-1 = sqrt(x - 0.5) is nan on half of the square: a configuration
    error, with one error line naming K^-1 and no output but the
    directory."""
    spec = tmp_path / "prob.json"
    spec.write_text(json.dumps(
        {"k_inverse": [["sqrt(x - 0.5)", "0"], ["0", "1"]]}))
    code, out = _run(tmp_path, command, "--problem", str(spec), "--N", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "K^-1" in err
    assert list(out.iterdir()) == []


def test_inline_problem_honours_beta_as_a_problem_file_does(tmp_path):
    """``--beta`` sets the beta of a spec that has none, inline or in a
    file alike, and a spec's own beta wins over it in both forms."""
    def diagnostics(spec, *argv):
        found = []
        for form in ("file", "inline"):
            target = tmp_path / f"{form}.json"
            target.write_text(json.dumps(
                spec if form == "file" else {"problem": spec}))
            option = "--problem" if form == "file" else "--config"
            code, out = _run(tmp_path / form, "diagnostics", "--N", "4",
                             option, str(target), *argv)
            assert code == 0
            found.append((out / "diagnostics.json").read_text())
        assert found[0] == found[1]
        return json.loads(found[0])["alpha_star"]

    spec = {"f": ["1", "0"]}
    assert diagnostics(spec, "--beta", "5") \
        == diagnostics({**spec, "beta": 5.0}) \
        != diagnostics(spec)
    assert diagnostics({**spec, "beta": 2.0}, "--beta", "5") \
        == diagnostics({**spec, "beta": 2.0})


def test_merge_config_normalizes_keys(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"gamma-tilde": 0.5, "max-iter": 9}))
    args = build_parser().parse_args(["solve", "--config", str(cfg_file)])
    cfg = merge_config(args)
    assert cfg["gamma_tilde"] == 0.5
    assert cfg["max_iter"] == 9
    assert cfg["command"] == "solve"


def test_problem_spec_config_key_exits_2(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"problem_spec": {"domain": "l-shape"}}))
    code, out = _run(tmp_path, "solve", "--N", "3", "--config", str(cfg_file))
    assert code == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("how", ["flag", "key"])
def test_threads_option_exits_2(tmp_path, how):
    """Sweeps run serially; neither ``--threads`` nor a ``threads`` config
    key is an option any more."""
    argv = ["sweep", "--N", "3", "--alphas", "1"]
    if how == "flag":
        argv += ["--threads", "2"]
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, *argv)
        code = exc.value.code
    else:
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"threads": 2}))
        code, _ = _run(tmp_path, *argv, "--config", str(cfg_file))
    assert code == 2
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_sweep_manifest_lists_a_status_per_alpha(tmp_path, monkeypatch):
    """One ``runs`` entry per alpha, in order, with the solve's status, or
    ``linear_solver_error`` when its pressure solve raised."""
    from darcyfem import nonlinear_solver
    from darcyfem.assembly import LinearSolverError
    real = nonlinear_solver.solve

    def solve(mesh, problem, config, **kw):
        if config.alpha == 5.0:
            raise LinearSolverError("injected", [1.0])
        return real(mesh, problem, config, **kw)

    monkeypatch.setattr(nonlinear_solver, "solve", solve)
    code, out = _run(tmp_path, "sweep", "--N", "4", "--alphas", "2.3,5,0.01",
                     "--max-iter", "20")
    assert code == 0
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [{k: r[k] for k in ("alpha", "status")} for r in runs] \
        == [{"alpha": 2.3, "status": "converged"},
            {"alpha": 5.0, "status": "linear_solver_error"},
            {"alpha": 0.01, "status": "max_iter"}]
    # Phase timings of each solve plus its true error; none for the alpha
    # whose pressure solve raised.
    phases = {"t_assemble", "t_solve", "t_recover", "t_indicators",
              "true_error"}
    for r in (runs[0], runs[2]):
        assert set(r["phases_s"]) == phases
        assert all(v >= 0.0 for v in r["phases_s"].values())
    assert runs[0]["phases_s"]["true_error"] > 0.0
    assert runs[1]["phases_s"] == {}
    assert runs[1]["vcycle_builds"] is None
    for r in (runs[0], runs[2]):
        assert r["vcycle_builds"] >= 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,nbr,converged,err,log10_err"
    assert [l.split(",")[2] for l in lines[1:]] == ["1", "0", "0"]


@pytest.mark.parametrize("guess, fail_on, step",
                         [("zero", 3, 3), ("darcy", 1, 0), ("darcy", 4, 3)])
def test_sweep_nbr_is_the_step_whose_pressure_solve_raised(
        tmp_path, monkeypatch, guess, fail_on, step):
    """The real solve fails on its ``fail_on``-th pressure solve, which
    belongs to ``step`` (0 for the Darcy start, one solve per step before
    the last); ``nbr`` reports that step, and the next alpha runs as
    usual."""
    from darcyfem import nonlinear_solver
    from darcyfem.assembly import Assembler, LinearSolverError
    real = Assembler.solve_pressure
    calls = []

    def failing(self, system, **kw):
        calls.append(kw.get("forcing", 0.0))
        if len(calls) == fail_on:
            raise LinearSolverError("injected", [1.0])
        return real(self, system, **kw)

    monkeypatch.setattr(Assembler, "solve_pressure", failing)
    code, out = _run(tmp_path, "sweep", "--N", "4", "--alphas", "2.3,2.3",
                     "--guess", guess, "--max-iter", "20")
    assert code == 0
    # one inexact solve per step up to the failure, after the Darcy start's
    expected = [nonlinear_solver.CG_FORCING] * fail_on
    if guess == "darcy":
        expected[0] = 0.0
    assert calls[:fail_on] == expected
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["linear_solver_error", "converged"]
    rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()]
    assert rows[1][1:3] == [str(step), "0"]
    assert int(rows[2][1]) > fail_on and rows[2][2] == "1"


def test_adapt_manifest_records_the_run_modes_it_used(tmp_path):
    code, out = _run(tmp_path, *_STUDIES["adapt"])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["guess"] == "darcy"
    assert config["stopping"] == "indicator-balance"
    code, out = _run(tmp_path / "solve", "solve", "--N", "3")
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["guess"] == "zero"
    assert config["stopping"] == "fixed-tol"


@pytest.mark.parametrize("request_", [
    ("--guess", "zero"), ("--stopping", "fixed-tol"),
    {"guess": "zero"}, {"stopping": "fixed_tol"},
], ids=["guess-flag", "stopping-flag", "guess-key", "stopping-key"])
def test_adapt_rejects_other_run_modes(tmp_path, request_):
    argv = ["adapt", "--N", "3", "--levels", "2"]
    if isinstance(request_, dict):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(request_))
        argv += ["--config", str(cfg_file)]
    else:
        argv += list(request_)
    code, out = _run(tmp_path, *argv)
    assert code == 2
    assert not (out / "study.csv").exists()


def test_adapt_accepts_its_own_run_modes():
    for argv in (["--guess", "darcy"], ["--stopping", "indicator-balance"]):
        args = build_parser().parse_args(["adapt", *argv])
        cfg = merge_config(args)
        assert (cfg["guess"], cfg["stopping"]) \
            == ("darcy", "indicator-balance")


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(darcyfem.__file__))))
    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        pytest.skip("darcyfem is not run from a source checkout")
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "darcyfem"
    assert project["version"] == darcyfem.__version__
    assert project["scripts"]["darcyfem"] == "darcyfem.cli:main"


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
