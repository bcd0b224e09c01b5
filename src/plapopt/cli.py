"""Command-line interface.

Subcommands: ``mesh``, ``solve``, ``optimize``, ``derivative``, ``suite``.
Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 acceptance failure. Outputs are written atomically; JSON reports carry
a config echo, the mesh file hash, the tool version and the seed, and CSV
numbers use a fixed 17-significant-digit format so reruns are
byte-identical.

The environment variable PLAPOPT_OUT supplies the default output
directory for subcommands that take ``--out``.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .acceptance import run_criteria
from .fileio import (
    file_sha256,
    read_load,
    read_mesh,
    write_csv,
    write_json,
    write_load,
    write_mesh,
)
from .geometry import build_disk_mesh, build_square_mesh, validate_mesh
from .optimizer import OptimizeConfig, maximize_over_rearrangements
from .perturbation import derivative_report, tangent_field
from .solver import SolveConfig, SolverError, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ACCEPTANCE = 4


class ConfigError(ValueError):
    pass


def parse_config(path, flags):
    """Load a JSON config file that overrides a subcommand's ``flags``
    (its argparse destinations with their parsed values).

    Unknown keys are rejected and each value takes the type of its flag's
    value; then the values meet the same checks as flag values (p range,
    existing paths).
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise ConfigError(
            f"{path}: unknown config keys {unknown}; allowed: {sorted(flags)}"
        )
    for key, value in cfg.items():
        kind = type(flags[key])
        if flags[key] is not None and not isinstance(value, kind):
            try:
                cfg[key] = kind(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{path}: {key} must be a {kind.__name__}, got {value!r}"
                ) from None
    return cfg


def _default_out(value, fallback):
    if value is not None:
        return value
    env = os.environ.get("PLAPOPT_OUT")
    return os.path.join(env, fallback) if env else fallback


def _existing(path, key):
    if not os.path.exists(path):
        raise ConfigError(f"{key} path {path!r} does not exist")
    return path


def _load_mesh(path):
    mesh = read_mesh(_existing(path, "mesh"))
    report = validate_mesh(mesh)
    if not report.ok:
        raise ConfigError(f"mesh {path!r} is invalid: {report.violations[0]}")
    return mesh


def _provenance(args, mesh_path=None, seed=None):
    prov = {
        "tool_version": __version__,
        "config_echo": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": seed,
    }
    if mesh_path:
        prov["mesh_sha256"] = file_sha256(mesh_path)
    return prov


def cmd_mesh(args):
    out = _default_out(args.out, "mesh.txt")
    if args.shape == "disk":
        n_radial = args.n_radial or max(2, round(args.n / 6.4))
        mesh = build_disk_mesh(args.radius, args.n, n_radial)
    elif args.shape == "square":
        mesh = build_square_mesh(args.side, args.n)
    else:
        raise ConfigError(f"unknown shape {args.shape!r}")
    report = validate_mesh(mesh)
    if not report.ok:
        raise RuntimeError(f"generated mesh failed validation: {report.violations}")
    write_mesh(out, mesh)
    print(f"wrote {out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, {mesh.n_boundary_cells} boundary cells")
    return EXIT_OK


def cmd_solve(args):
    config = SolveConfig(p=args.p, eps_final=args.eps_final)
    mesh = _load_mesh(args.mesh)
    f = read_load(_existing(args.load, "load"), mesh)
    out = _default_out(args.out, "solve.json")
    state, rep = solve(mesh, f, config)
    payload = {
        "J": rep.J,
        "I": rep.I,
        "duality_gap": rep.duality_gap,
        "converged": rep.converged,
        "final_residual": rep.final_residual,
        "iterations_per_stage": rep.iterations_per_stage,
        "eps_stages": rep.eps_stages,
        "stage_exits": rep.stage_exits,
        "factorizations": rep.factorizations,
        "cg_iterations": rep.cg_iterations,
        "boundary_trace_min": float(state.boundary_trace.min()),
        "boundary_trace_max": float(state.boundary_trace.max()),
        **_provenance(args, args.mesh),
    }
    write_json(out, payload)
    print(f"wrote {out}: J={rep.J:.9g} gap={rep.duality_gap:.3g}")
    if not rep.converged:
        print("solver did not converge", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_optimize(args):
    config = OptimizeConfig(
        solver=SolveConfig(p=args.p),
        n_restarts=args.restarts,
        seed=args.seed,
        max_outer_iters=args.max_iters,
    )
    mesh = _load_mesh(args.mesh)
    f0 = read_load(_existing(args.load0, "load0"), mesh)
    out_dir = _default_out(args.out, "optimize-out")
    os.makedirs(out_dir, exist_ok=True)
    fhat, uhat, hist = maximize_over_rearrangements(mesh, f0, config)
    write_load(os.path.join(out_dir, "fhat.txt"), fhat)
    write_csv(
        os.path.join(out_dir, "history.csv"),
        ["restart", "iter", "J", "duality_gap", "defect", "changed"],
        [
            (r.restart, r.iteration, float(r.J), float(r.duality_gap),
             float(r.defect), int(r.changed))
            for r in hist.records
        ],
    )
    best = max(res[1] for res in hist.restart_results)
    summary = {
        "J_best": best,
        "restarts": [
            {"restart": r, "J": J, "fixed_point": fp}
            for r, J, fp in hist.restart_results
        ],
        "n_iterations": len(hist.records),
        **_provenance(args, args.mesh, seed=args.seed),
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"wrote {out_dir}: J_best={best:.9g}")
    return EXIT_OK


def cmd_derivative(args):
    config = SolveConfig(p=args.p)
    mesh = _load_mesh(args.mesh)
    f = read_load(_existing(args.load, "load"), mesh)
    out = _default_out(args.out, "derivative.json")
    field = tangent_field(args.field, mesh.total_boundary_length)
    rep = derivative_report(mesh, f, field, config, t=args.t)
    payload = {
        "estimates": rep.values,
        "discrepancies": rep.discrepancies,
        "max_discrepancy": rep.max_discrepancy,
        "t": rep.t,
        "p": rep.p,
        "field": rep.field_name,
        "n_boundary_cells": rep.n_boundary_cells,
        **_provenance(args, args.mesh),
    }
    write_json(out, payload)
    stem, _ = os.path.splitext(out)
    write_csv(
        stem + "-agreement.csv",
        ["estimate_a", "estimate_b", "value_a", "value_b", "rel_discrepancy"],
        [
            (a, b, rep.values[a], rep.values[b], rep.discrepancies[f"{a}-{b}"])
            for i, a in enumerate(rep.values)
            for b in list(rep.values)[i + 1:]
        ],
    )
    print(f"wrote {out}: max discrepancy {rep.max_discrepancy:.3e}")
    return EXIT_OK


def cmd_suite(args):
    if args.kind != "acceptance":
        raise ConfigError(f"unknown suite {args.kind!r}; available: acceptance")
    numbers = set(args.criteria) if args.criteria else None
    results = run_criteria(numbers)
    out = _default_out(args.out, "acceptance.json")
    write_json(out, {
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "elapsed_s": r.elapsed,
             "details": _jsonable(r.details)}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        **_provenance(args),
    })
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_ACCEPTANCE


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def build_parser():
    ap = argparse.ArgumentParser(
        prog="plapopt",
        description="p-Laplacian Neumann solver, boundary-load rearrangement "
                    "optimizer, and load-perturbation derivative checks",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mesh", help="generate a disk or square mesh")
    m.add_argument("--shape", choices=["disk", "square"], default="disk")
    m.add_argument("--n", type=int, default=64,
                   help="boundary points (disk) or cells per side (square)")
    m.add_argument("--n-radial", dest="n_radial", type=int, default=None)
    m.add_argument("--radius", type=float, default=1.0)
    m.add_argument("--side", type=float, default=1.0)
    m.add_argument("--out", default=None)
    m.add_argument("--config", default=None)
    m.set_defaults(func=cmd_mesh)

    s = sub.add_parser("solve", help="solve the Neumann problem for a load")
    s.add_argument("--mesh", required=True)
    s.add_argument("--load", required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--eps-final", dest="eps_final", type=float, default=1e-8)
    s.add_argument("--out", default=None)
    s.add_argument("--config", default=None)
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("optimize", help="maximize J over rearrangements of a load")
    o.add_argument("--mesh", required=True)
    o.add_argument("--load0", required=True)
    o.add_argument("--p", type=float, required=True)
    o.add_argument("--restarts", type=int, default=1)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--max-iters", dest="max_iters", type=int, default=50)
    o.add_argument("--out", default=None)
    o.add_argument("--config", default=None)
    o.set_defaults(func=cmd_optimize)

    d = sub.add_parser("derivative", help="four estimates of dJ/dt under a "
                                          "tangential boundary flow")
    d.add_argument("--mesh", required=True)
    d.add_argument("--load", required=True)
    d.add_argument("--p", type=float, required=True)
    d.add_argument("--field", required=True,
                   help="constant | sin:k | cos:k | bump:center,width")
    d.add_argument("--t", type=float, default=1e-3)
    d.add_argument("--out", default=None)
    d.add_argument("--config", default=None)
    d.set_defaults(func=cmd_derivative)

    a = sub.add_parser("suite", help="run a named verification suite")
    a.add_argument("kind", nargs="?", default="acceptance")
    a.add_argument("--criteria", type=int, nargs="*", default=None,
                   help="criterion numbers to run (default: all)")
    a.add_argument("--out", default=None)
    a.add_argument("--config", default=None)
    a.set_defaults(func=cmd_suite)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config-error code
        return exc.code
    try:
        if args.config:
            flags = {k: v for k, v in vars(args).items()
                     if k not in ("command", "func", "config")}
            vars(args).update(parse_config(args.config, flags))
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
