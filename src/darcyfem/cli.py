"""Command-line driver.

Five subcommands cover the study workflows: ``solve`` (one mesh, one alpha),
``sweep`` (iteration counts over an alpha list), ``uniform-study`` (error
decay on structured meshes), ``adapt`` (solve-estimate-mark-refine loop) and
``diagnostics`` (the alpha bounds computable from the data).

Every run writes ``manifest.json`` echoing the merged configuration plus
library versions, so a single-threaded rerun from the manifest reproduces
the CSV outputs byte for byte.  The manifests of ``solve``, ``adapt`` and
``uniform-study`` also carry the run status (the last level's, for the
studies), those of the studies the triangles, outer iterations, CG
iterations, status and phase timings of every level, and that of ``sweep``
the status and phase timings of every alpha (``runs``).  Timings stay out
of the CSV files, so that reruns write the same bytes.  Exit codes: 0
success, 2 configuration error, 3 numerical failure (details land in
``error.txt``), 4 the nonlinear iteration of ``solve``, or of the last
``adapt`` level, did not converge (all outputs are still written).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import __version__
from . import problems
from .adaptivity import AdaptConfig, adaptive_loop, uniform_study
from .assembly import CompatibilityError, LinearSolverError
from .mesh import MeshConformityError, MeshFormatError, load_mesh
from .nonlinear_solver import (SolverConfig, alpha_diagnostics, alpha_sweep,
                               phase_totals, solve)
from .render import render_mesh_svg
from .spaces import dump_p0, dump_p1


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def _real(value, what: str) -> float:
    """A setting that must be a number: an int or a float (not a bool), or a
    string holding one."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, not {value!r}")


def _integer(value, what: str) -> int:
    """A setting that must be an integer: an int (not a bool), or a string
    holding one.  A float is refused, so that 6.5 does not run as 6."""
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{what} must be an integer, not {value!r}")


def _list(value, what: str, convert) -> list:
    """A comma-separated string or a JSON list of settings, each converted
    by ``convert``."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list):
        raise ConfigError(f"bad {what} list: {value!r}")
    vals = [convert(v, what) for v in items
            if not (isinstance(v, str) and not v.strip())]
    if not vals:
        raise ConfigError(f"empty {what} list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="darcyfem",
        description="Adaptive finite elements for Darcy-Forchheimer flow.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults; flags win")
    common.add_argument("--problem", help="builtin name or JSON problem file")
    common.add_argument("--beta", type=float)
    common.add_argument("--N", type=int, dest="n",
                        help="structured subdivisions for the initial mesh")
    common.add_argument("--mesh", help="mesh file (alternative to --N)")
    common.add_argument("--alpha", type=float)
    common.add_argument("--tol", type=float)
    common.add_argument("--gamma-tilde", type=float, dest="gamma_tilde")
    common.add_argument("--max-iter", type=int, dest="max_iter")
    common.add_argument("--guess", choices=("zero", "darcy"))
    common.add_argument("--stopping",
                        choices=("fixed-tol", "indicator-balance"))
    common.add_argument("--out", help="output directory "
                        "(default $DARCYFEM_OUT or ./darcyfem-out)")

    sub.add_parser("solve", parents=[common],
                   help="single solve; fields, trace and indicators")
    sp = sub.add_parser("sweep", parents=[common],
                        help="iteration counts over an alpha list")
    sp.add_argument("--alphas", help="comma-separated alpha values")
    up = sub.add_parser("uniform-study", parents=[common],
                        help="error decay on structured meshes")
    up.add_argument("--Ns", dest="ns", help="comma-separated subdivisions")
    ap = sub.add_parser("adapt", parents=[common],
                        help="adaptive refinement loop")
    ap.add_argument("--levels", type=int)
    ap.add_argument("--theta", type=float)
    ap.add_argument("--marker", choices=("doerfler", "max"))
    sub.add_parser("diagnostics", parents=[common],
                   help="alpha bounds computable from the problem data")
    return top


# -- configuration merging --------------------------------------------------

_DEFAULTS = {
    "problem": "gaussian-vortex",
    "beta": None,
    "n": 10,
    "mesh": None,
    "alpha": SolverConfig.alpha,
    "tol": SolverConfig.tol,
    "gamma_tilde": SolverConfig.gamma_tilde,
    "max_iter": SolverConfig.max_iter,
    "guess": None,
    "stopping": None,
    "out": None,
    "alphas": None,
    "ns": None,
    "levels": 7,
    "theta": AdaptConfig.theta,
    "marker": AdaptConfig.marker,
}


def merge_config(args: argparse.Namespace) -> dict:
    """File defaults under flag overrides; flags always win."""
    cfg = dict(_DEFAULTS)
    if args.config:
        file_cfg = _read_json(args.config, "config")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in file_cfg.items():
            k = key.replace("-", "_").lower()
            if k not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[k] = val
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    # adapt always runs from the Darcy start to the indicator balance.
    fixed = args.command == "adapt"
    for key, default, mode in (("guess", "zero", "darcy"),
                               ("stopping", "fixed-tol", "indicator-balance")):
        asked = cfg[key]
        if fixed and asked and str(asked).replace("_", "-") != mode:
            raise ConfigError(f"adapt always runs with {key} {mode!r}, "
                              f"not {asked!r}")
        cfg[key] = mode if fixed else asked or default
    if getattr(args, "n", None) is not None and \
            getattr(args, "mesh", None) is not None:
        raise ConfigError("give exactly one mesh source: --N or --mesh")
    cfg["command"] = args.command
    return cfg


@dataclass(frozen=True)
class _Settings:
    """The numeric settings of a merged configuration, converted and checked
    before anything runs or is written; ``alphas`` and ``ns`` are None when
    not given."""

    solver: SolverConfig
    adapt: AdaptConfig
    levels: int
    n: int
    beta: float | None
    alphas: list[float] | None
    ns: list[int] | None


def _settings(cfg: dict) -> _Settings:
    """Build the solver and marking configs and check every numeric setting
    of ``cfg``.  A value of the wrong type or out of range, including one
    that a config's own check refuses, is a ConfigError."""
    try:
        solver = SolverConfig(
            alpha=_real(cfg["alpha"], "alpha"),
            tol=_real(cfg["tol"], "tol"),
            gamma_tilde=_real(cfg["gamma_tilde"], "gamma_tilde"),
            max_iter=_integer(cfg["max_iter"], "max_iter"),
            initial_guess=cfg["guess"],
            stopping=str(cfg["stopping"]).replace("-", "_"),
        )
        adapt = AdaptConfig(theta=_real(cfg["theta"], "theta"),
                            marker=cfg["marker"])
        alphas = _list(cfg["alphas"], "alpha", _real) if cfg["alphas"] \
            else None
        for a in alphas or ():
            replace(solver, alpha=a)        # SolverConfig checks each alpha
        levels = _integer(cfg["levels"], "levels")
        n = _integer(cfg["n"], "N")
        ns = _list(cfg["ns"], "N", _integer) if cfg["ns"] else None
        beta = None if cfg["beta"] is None else _real(cfg["beta"], "beta")
        if levels < 1:
            raise ValueError(f"levels must be at least 1, not {levels}")
        if min([n, *(ns or ())]) < 1:
            raise ValueError("N must be positive")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return _Settings(solver=solver, adapt=adapt, levels=levels, n=n,
                     beta=beta, alphas=alphas, ns=ns)


def _resolve_problem(cfg, run: _Settings):
    """A builtin name, a problem file or an inline spec; ``--beta`` sets
    the beta of a builtin, and of a spec that gives none."""
    spec = cfg["problem"]
    beta = {} if run.beta is None else {"beta": run.beta}
    if isinstance(spec, str) and spec in problems.BUILTIN_PROBLEMS:
        return problems.BUILTIN_PROBLEMS[spec](**beta)
    if isinstance(spec, str) and os.path.exists(spec):
        spec = _read_json(spec, "problem file")
    elif not isinstance(spec, dict):
        raise ConfigError(f"unknown problem {spec!r} "
                          f"(builtins: {', '.join(problems.BUILTIN_PROBLEMS)})")
    return problems.problem_from_config(
        {**beta, **spec} if isinstance(spec, dict) else spec)


def _resolve_mesh(cfg, run: _Settings, problem):
    if cfg["mesh"]:
        try:
            with open(cfg["mesh"]) as fh:
                return load_mesh(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read mesh {cfg['mesh']}: {exc}")
    return problems.initial_mesh(problem, run.n)


def _out_dir(cfg):
    out = cfg["out"] or os.environ.get("DARCYFEM_OUT") or "darcyfem-out"
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {out!r} not writable: {exc}")
    return out


def _rounded(phases: dict) -> dict:
    return {k: round(v, 6) for k, v in phases.items()}


class _Outputs:
    """Writes the files of one run into the directory ``path`` and lists
    them in the run's manifest."""

    def __init__(self, path: str):
        self.path = path
        self.written: list[str] = []

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.path, name), "w") as fh:
            fh.write(text)
        self.written.append(name)

    def csv(self, name: str, header, rows) -> None:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        self.write(name, "\n".join(lines) + "\n")

    def manifest(self, cfg, timings, **extra) -> None:
        """``manifest.json``: the configuration, library versions, timings,
        the files written so far and the command's own ``extra`` keys."""
        self.write("manifest.json", _json({
            "config": {k: v for k, v in cfg.items() if v is not None},
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "darcyfem": __version__,
            },
            "timings_s": {k: round(v, 3) for k, v in timings.items()},
            "outputs": sorted([*self.written, "manifest.json"]),
            **extra}))


# -- subcommands -------------------------------------------------------------

def _cmd_solve(cfg, run, problem, out):
    mesh = _resolve_mesh(cfg, run, problem)
    t0 = time.perf_counter()
    result = solve(mesh, problem, run.solver)
    t_solve = time.perf_counter() - t0

    out.csv("trace.csv", ("iter", "err_L", "eta_L", "eta_D", "nbr_cg_iters"),
            [(r.iteration, r.err_l, r.eta_l, r.eta_d, r.cg_iters)
             for r in result.trace])
    ind = result.indicators
    out.csv("indicators.csv",
            ("element", "eta_L", "eta_D1", "eta_D2", "osc_f", "osc_b", "osc_g"),
            [(k, ind.eta_l[k], ind.eta_d1[k], ind.eta_d2[k],
              ind.osc_f[k], ind.osc_b[k], ind.osc_g[k])
             for k in range(mesh.n_triangles)])
    out.write("velocity.p0field", dump_p0(result.u))
    out.write("pressure.p1field", dump_p1(result.p))
    out.write("mesh.svg", render_mesh_svg(mesh, title="mesh"))
    out.write("velocity.svg",
              render_mesh_svg(mesh, result.u.magnitudes(), title="|u|"))
    out.write("pressure.svg", render_mesh_svg(
        mesh, result.p.values[mesh.tris].mean(axis=1), title="p"))
    out.manifest(cfg, {"solve": t_solve}, status=result.status,
                 phases_s=_rounded(phase_totals(result.trace)),
                 vcycle_builds=result.vcycle_builds)
    print(f"converged={result.converged} iterations={result.iterations} "
          f"err_L={result.err_l:.3e} status={result.status}")
    return 0 if result.converged else 4


def _cmd_sweep(cfg, run, problem, out):
    if run.alphas is None:
        raise ConfigError("sweep needs --alphas")
    mesh = _resolve_mesh(cfg, run, problem)
    t0 = time.perf_counter()
    rows = alpha_sweep(mesh, problem, run.alphas, run.solver)
    t_sweep = time.perf_counter() - t0
    out.csv("sweep.csv", ("alpha", "nbr", "converged", "err", "log10_err"),
            [(r.alpha, r.iterations, r.converged, r.err, r.log10_err)
             for r in rows])
    out.manifest(cfg, {"sweep": t_sweep},
                 runs=[{"alpha": r.alpha, "status": r.status,
                        "vcycle_builds": r.vcycle_builds,
                        "phases_s": _rounded(r.phases_s)} for r in rows])
    best = min((r for r in rows if r.converged),
               key=lambda r: r.iterations, default=None)
    if best is not None:
        print(f"best alpha={best.alpha:g} nbr={best.iterations}")
    return 0


def _write_study(out, cfg, timings, states):
    """``study.csv`` and the manifest of a multi-level study: the last
    level's status and, per level, its triangles, outer iterations, CG
    iterations, V-cycle builds, status and ``phases_s``, the phase totals
    of its steps plus the ``setup`` time of its Assembler (with its
    multigrid hierarchy) and IndicatorContext."""
    out.csv("study.csv", ("level", "vertices", "triangles", "eta_L", "eta_D",
                          "err", "EI", "E_tot"),
            [(r.level, r.vertices, r.triangles, r.eta_l, r.eta_d, r.err,
              r.ei, r.e_tot) for r in (s.record for s in states)])
    levels = [{"triangles": s.mesh.n_triangles,
               "iterations": s.result.iterations,
               "cg_total": s.result.cg_total,
               "vcycle_builds": s.result.vcycle_builds,
               "status": s.result.status,
               "phases_s": _rounded({**phase_totals(s.result.trace),
                                     "setup": s.setup_s})} for s in states]
    out.manifest(cfg, timings, status=states[-1].result.status,
                 levels=levels)


def _cmd_uniform(cfg, run, problem, out):
    if run.ns is None:
        raise ConfigError("uniform-study needs --Ns")
    t0 = time.perf_counter()
    states = uniform_study(problem, run.ns, run.solver)
    _write_study(out, cfg, {"study": time.perf_counter() - t0}, states)
    return 0


def _cmd_adapt(cfg, run, problem, out):
    mesh = _resolve_mesh(cfg, run, problem)
    t0 = time.perf_counter()
    states = adaptive_loop(problem, levels=run.levels, solver=run.solver,
                           adapt=run.adapt, mesh=mesh)
    t_run = time.perf_counter() - t0
    for s in states:
        out.write(f"mesh_level{s.record.level:02d}.svg",
                  render_mesh_svg(s.mesh, title=f"level {s.record.level}"))
    _write_study(out, cfg, {"adapt": t_run}, states)
    last = states[-1].record
    print(f"levels={len(states)} final_vertices={last.vertices} "
          f"final_eta_D={last.eta_d:.3e}")
    return 0 if last.converged else 4


def _cmd_diagnostics(cfg, run, problem, out):
    mesh = _resolve_mesh(cfg, run, problem)
    t0 = time.perf_counter()
    diag = alpha_diagnostics(mesh, problem)
    t_run = time.perf_counter() - t0
    out.write("diagnostics.json", _json(diag.as_dict()))
    out.manifest(cfg, {"diagnostics": t_run})
    print(f"alpha_star={diag.alpha_star:.6g} "
          f"alpha_cubic={diag.alpha_cubic:.6g}")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "uniform-study": _cmd_uniform,
    "adapt": _cmd_adapt,
    "diagnostics": _cmd_diagnostics,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        run = _settings(cfg)
        problem = _resolve_problem(cfg, run)
        out = _Outputs(_out_dir(cfg))
    except (ConfigError, problems.ProblemConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            return _DISPATCH[args.command](cfg, run, problem, out)
        except (ConfigError, problems.ProblemConfigError,
                MeshFormatError, MeshConformityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (LinearSolverError, CompatibilityError,
                FloatingPointError) as exc:
            lines = [f"{type(exc).__name__}: {exc}"]
            hist = getattr(exc, "residual_history", None)
            if hist is not None:
                lines += ["residual history:", *(f"  {r:.17g}" for r in hist)]
            out.write("error.txt", "\n".join(lines) + "\n")
            print(f"numerical failure: {exc} (details in "
                  f"{os.path.join(out.path, 'error.txt')})", file=sys.stderr)
            return 3
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
