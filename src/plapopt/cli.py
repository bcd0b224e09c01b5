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
from .geometry import build_disk_mesh, build_square_mesh, unequal_cell
from .optimizer import OptimizeConfig, maximize_over_rearrangements
from .perturbation import derivative_report, tangent_field
from .solver import SolveConfig, SolverError, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ACCEPTANCE = 4


class ConfigError(ValueError):
    pass


def parse_config(path, actions):
    """Load a JSON config file that overrides a subcommand's flags (their
    argparse actions by destination).

    Unknown keys are rejected and each value is converted by its flag's
    ``type`` (``str`` if none), item by item where the flag takes a list,
    and must be one of the flag's ``choices`` if it has any; then the
    values meet the same checks as flag values (p range, existing paths).
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
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise ConfigError(
            f"{path}: unknown config keys {unknown}; allowed: {sorted(actions)}"
        )
    for key, value in cfg.items():
        kind = actions[key].type or str
        many = actions[key].nargs not in (None, "?")
        items = value if many and isinstance(value, list) else [value]
        try:
            # a str flag takes only strings; int and float refuse "True", "None"
            if many != isinstance(value, list) or (
                    kind is str and not all(isinstance(v, str) for v in items)):
                raise TypeError
            items = [kind(str(v)) for v in items]
        except (TypeError, ValueError):
            name = kind.__name__
            what = f"a list of {name}" if many else ("an int" if kind is int else f"a {name}")
            raise ConfigError(f"{path}: {key} must be {what}, got {value!r}") from None
        choices = actions[key].choices
        bad = [v for v in items if choices is not None and v not in choices]
        if bad:
            raise ConfigError(f"{path}: {key} must be one of {list(choices)}, got {bad[0]!r}")
        cfg[key] = items if many else items[0]
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


def _read_problem(args, load_key):
    """The mesh ``args.mesh``, valid and with equal cells, and the load
    that ``args.<load_key>`` names on it."""
    mesh = read_mesh(_existing(args.mesh, "mesh"))
    unequal = unequal_cell(mesh)
    if unequal:
        raise ConfigError(f"mesh {args.mesh!r} is invalid: {unequal}")
    return mesh, read_load(_existing(getattr(args, load_key), load_key), mesh)


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
        n_radial = (max(2, round(args.n / 6.4)) if args.n_radial is None
                    else args.n_radial)
        mesh = build_disk_mesh(args.radius, args.n, n_radial)
    else:
        mesh = build_square_mesh(args.side, args.n)
    write_mesh(out, mesh)
    print(f"wrote {out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, {mesh.n_boundary_cells} boundary cells")
    return EXIT_OK


def cmd_solve(args):
    config = SolveConfig(p=args.p)
    mesh, f = _read_problem(args, "load")
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
    mesh, f0 = _read_problem(args, "load0")
    out_dir = _default_out(args.out, "optimize-out")
    os.makedirs(out_dir, exist_ok=True)
    fhat, uhat, hist = maximize_over_rearrangements(mesh, f0, config)
    write_load(os.path.join(out_dir, "fhat.txt"), fhat)
    write_csv(
        os.path.join(out_dir, "history.csv"),
        ["restart", "iter", "J", "I", "duality_gap", "defect", "changed",
         "tight", "newton_steps", "factorizations"],
        [
            (r.restart, r.iteration, float(r.J), float(r.I), float(r.duality_gap),
             float(r.defect), int(r.changed), int(r.tight), r.newton_steps,
             r.factorizations)
            for r in hist.records
        ],
    )
    best = max(res[1] for res in hist.restart_results)
    returned = hist.restart_results[hist.returned_restart]
    summary = {
        "J_best": best,
        # the restart fhat.txt comes from, and its J
        "returned": {"restart": returned[0], "J": returned[1]},
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
    mesh, f = _read_problem(args, "load")
    out = _default_out(args.out, "derivative.json")
    field = tangent_field(args.field, mesh.total_boundary_length)
    rep = derivative_report(mesh, f, field, config, t=args.t)
    discrepancies = rep.discrepancies
    payload = {
        "estimates": rep.values,
        "discrepancies": discrepancies,
        "max_discrepancy": rep.max_discrepancy,
        "t": args.t,
        "p": config.p,
        "field": field.name,
        "n_boundary_cells": mesh.n_boundary_cells,
        **_provenance(args, args.mesh),
    }
    write_json(out, payload)
    rows = []
    for pair, rel in discrepancies.items():
        a, b = pair.split("-")
        rows.append((a, b, rep.values[a], rep.values[b], rel))
    stem, _ = os.path.splitext(out)
    write_csv(
        stem + "-agreement.csv",
        ["estimate_a", "estimate_b", "value_a", "value_b", "rel_discrepancy"],
        rows,
    )
    print(f"wrote {out}: max discrepancy {rep.max_discrepancy:.3e}")
    return EXIT_OK


def cmd_suite(args):
    numbers = set(args.criteria) if args.criteria else None
    results = run_criteria(numbers)
    out = _default_out(args.out, "acceptance.json")
    write_json(out, {
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "elapsed_s": r.elapsed,
             "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        **_provenance(args),
    })
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_ACCEPTANCE


def build_parser():
    ap = argparse.ArgumentParser(
        prog="plapopt",
        description="p-Laplacian Neumann solver, boundary-load rearrangement "
                    "optimizer, and load-perturbation derivative checks",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    # flags shared by every subcommand, and by those that solve on a mesh
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--mesh", required=True)
    problem.add_argument("--p", type=float, required=True)

    def command(name, func, summary, *parents):
        cmd = sub.add_parser(name, help=summary, parents=[*parents, common])
        cmd.set_defaults(func=func)
        return cmd

    m = command("mesh", cmd_mesh, "generate a disk or square mesh")
    m.add_argument("--shape", choices=["disk", "square"], default="disk")
    m.add_argument("--n", type=int, default=64,
                   help="boundary points (disk) or cells per side (square)")
    m.add_argument("--n-radial", dest="n_radial", type=int, default=None)
    m.add_argument("--radius", type=float, default=1.0)
    m.add_argument("--side", type=float, default=1.0)

    s = command("solve", cmd_solve, "solve the Neumann problem for a load", problem)
    s.add_argument("--load", required=True)

    o = command("optimize", cmd_optimize, "maximize J over rearrangements of a load",
                problem)
    o.add_argument("--load0", required=True)
    o.add_argument("--restarts", type=int, default=1)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--max-iters", dest="max_iters", type=int, default=50)

    d = command("derivative", cmd_derivative, "four estimates of dJ/dt under a "
                                              "tangential boundary flow", problem)
    d.add_argument("--load", required=True)
    d.add_argument("--field", required=True,
                   help="constant | sin:k | cos:k | bump:center,width")
    d.add_argument("--t", type=float, default=1e-3)

    a = command("suite", cmd_suite, "run a named verification suite")
    a.add_argument("kind", nargs="?", default="acceptance", choices=["acceptance"])
    a.add_argument("--criteria", type=int, nargs="*", default=None,
                   help="criterion numbers to run (default: all)")
    ap.commands = sub.choices  # subcommand name -> its parser
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
            actions = {a.dest: a for a in ap.commands[args.command]._actions
                       if a.dest not in ("help", "config")}
            vars(args).update(parse_config(args.config, actions))
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError; unreadable or unwritable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
