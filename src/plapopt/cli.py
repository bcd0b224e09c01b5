"""Command-line interface.

Subcommands: ``mesh``, ``solve``, ``optimize``, ``derivative``, ``suite``.
Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 acceptance failure. ``solve`` writes its report, then exits 3 when the
solve did not converge or its duality gap exceeds 1e-6 (1 + |J|).
Outputs are written atomically; JSON reports carry a config echo, the
mesh file hash, the tool version and the seed, and CSV numbers use a
fixed 17-significant-digit format so reruns are byte-identical.
"""

import argparse
import os
import sys

from . import __version__
from .acceptance import GAP_RTOL, gap_over_tol, run_criteria
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


def _existing(path, key):
    if not os.path.exists(path):
        raise ValueError(f"{key} path {path!r} does not exist")
    return path


def _read_problem(args, load_key):
    """The mesh ``args.mesh``, valid and with equal cells, and the load
    that ``args.<load_key>`` names on it."""
    mesh = read_mesh(_existing(args.mesh, "mesh"))
    unequal = unequal_cell(mesh)
    if unequal:
        raise ValueError(f"mesh {args.mesh!r} is invalid: {unequal}")
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
    if args.shape == "disk":
        n_radial = (max(2, round(args.n / 6.4)) if args.n_radial is None
                    else args.n_radial)
        mesh = build_disk_mesh(args.radius, args.n, n_radial)
    else:
        mesh = build_square_mesh(args.side, args.n)
    write_mesh(args.out, mesh)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_triangles} triangles, {mesh.n_boundary_cells} boundary cells")
    return EXIT_OK


def cmd_solve(args):
    config = SolveConfig(p=args.p)
    mesh, f = _read_problem(args, "load")
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
    write_json(args.out, payload)
    print(f"wrote {args.out}: J={rep.J:.9g} gap={rep.duality_gap:.3g}")
    rep.require_converged("solve")
    if gap_over_tol(rep) > 1.0:
        raise SolverError(f"duality gap {rep.duality_gap:.3g} exceeds {GAP_RTOL:g} (1 + |J|)"
                          f" = {GAP_RTOL * (1.0 + abs(rep.J)):.3g}")
    return EXIT_OK


def cmd_optimize(args):
    config = OptimizeConfig(
        solver=SolveConfig(p=args.p),
        n_restarts=args.restarts,
        seed=args.seed,
        max_outer_iters=args.max_iters,
    )
    mesh, f0 = _read_problem(args, "load0")
    os.makedirs(args.out, exist_ok=True)
    fhat, uhat, hist = maximize_over_rearrangements(mesh, f0, config)
    write_load(os.path.join(args.out, "fhat.txt"), fhat)
    write_csv(
        os.path.join(args.out, "history.csv"),
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
    write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"wrote {args.out}: J_best={best:.9g}")
    return EXIT_OK


def cmd_derivative(args):
    config = SolveConfig(p=args.p)
    mesh, f = _read_problem(args, "load")
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
    write_json(args.out, payload)
    rows = []
    for pair, rel in discrepancies.items():
        a, b = pair.split("-")
        rows.append((a, b, rep.values[a], rep.values[b], rel))
    stem, _ = os.path.splitext(args.out)
    write_csv(
        stem + "-agreement.csv",
        ["estimate_a", "estimate_b", "value_a", "value_b", "rel_discrepancy"],
        rows,
    )
    print(f"wrote {args.out}: max discrepancy {rep.max_discrepancy:.3e}")
    return EXIT_OK


def cmd_suite(args):
    numbers = set(args.criteria) if args.criteria else None
    results = run_criteria(numbers)
    write_json(args.out, {
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
    # flags shared by the subcommands that solve on a mesh
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--mesh", required=True)
    problem.add_argument("--p", type=float, required=True)

    def command(name, func, summary, out, *parents):
        cmd = sub.add_parser(name, help=summary, parents=list(parents))
        cmd.add_argument("--out", default=out, help="output path (default: %(default)s)")
        cmd.set_defaults(func=func)
        return cmd

    m = command("mesh", cmd_mesh, "generate a disk or square mesh", "mesh.txt")
    m.add_argument("--shape", choices=["disk", "square"], default="disk")
    m.add_argument("--n", type=int, default=64,
                   help="boundary points (disk) or cells per side (square)")
    m.add_argument("--n-radial", dest="n_radial", type=int, default=None)
    m.add_argument("--radius", type=float, default=1.0)
    m.add_argument("--side", type=float, default=1.0)

    s = command("solve", cmd_solve, "solve the Neumann problem for a load",
                "solve.json", problem)
    s.add_argument("--load", required=True)

    o = command("optimize", cmd_optimize, "maximize J over rearrangements of a load",
                "optimize-out", problem)
    o.add_argument("--load0", required=True)
    o.add_argument("--restarts", type=int, default=1)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--max-iters", dest="max_iters", type=int, default=50)

    d = command("derivative", cmd_derivative, "four estimates of dJ/dt under a "
                "tangential boundary flow", "derivative.json", problem)
    d.add_argument("--load", required=True)
    d.add_argument("--field", required=True,
                   help="constant | sin:k | cos:k | bump:center,width")
    d.add_argument("--t", type=float, default=1e-3)

    a = command("suite", cmd_suite, "run a named verification suite", "acceptance.json")
    a.add_argument("kind", nargs="?", default="acceptance", choices=["acceptance"])
    a.add_argument("--criteria", type=int, nargs="*", default=None,
                   help="criterion numbers to run (default: all)")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config-error code
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad inputs; unreadable or unwritable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
