"""One-shot profile of plapopt; regenerates the Baseline section of the
roadmap. It is not one of the benchmark's gated workloads.

    python3 perfbench/baseline.py

Takes several minutes on a 2-core machine. Prints four tables and writes
them, with the environment, to ``perfbench/results/baseline.json``:

* cold ``solve`` time on the 64x10, 128x20, 256x40 and 512x80 disks at
  p in {1.5, 2, 3} with the acceptance step load (best of 3; one run on
  512x80);
* per-layer cost at 41k vertices (512x80 disk): ``P1Space`` build, energy,
  residual, Hessian assembly and ``spsolve`` (median of 5);
* the wall time of each acceptance criterion from ``run_criteria``;
* derivative reports that fail their four-way agreement check at the
  commit the benchmark was defined on (the 32-per-side square, and one
  step-load level order on the disk), so that they stay visible.
"""

import json
import os
import statistics
import sys
import time

import env

MESHES = ((64, 10), (128, 20), (256, 40), (512, 80))
PS = (1.5, 2.0, 3.0)


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def solve_table(plapopt):
    rows = []
    for n, m in MESHES:
        mesh = plapopt.build_disk_mesh(1.0, n, m)
        f = plapopt.step_load(mesh, plapopt.acceptance.STEP_LEVELS)
        for p in PS:
            cfg = plapopt.SolveConfig(p=p)
            times, (_, rep) = _timed(lambda: plapopt.solve(mesh, f, cfg), 1 if n >= 512 else 3)
            rows.append({"mesh": f"{n}x{m}", "vertices": mesh.n_vertices, "p": p,
                         "best_s": min(times), "newton": sum(rep.iterations_per_stage),
                         "first_stage_newton": rep.iterations_per_stage[0],
                         "converged": rep.converged})
            print(f"solve {n}x{m} ({mesh.n_vertices} vertices) p={p:g}: "
                  f"{min(times):.3f} s, {rows[-1]['newton']} Newton steps", flush=True)
    return rows


def layer_table(plapopt):
    from scipy.sparse.linalg import spsolve

    from plapopt.fem import P1Space

    mesh = plapopt.build_disk_mesh(1.0, 512, 80)
    f = plapopt.step_load(mesh, plapopt.acceptance.STEP_LEVELS)
    u = plapopt.solve(mesh, f, plapopt.SolveConfig(p=2.0))[0].nodal_values
    space = P1Space(mesh)
    b = space.load_vector(f.cell_values)
    p, eps = 3.0, 1e-8
    H = space.hessian(u, p, eps)
    r = space.residual(u, b, p, eps)
    layers = {
        "P1Space build": lambda: P1Space(mesh),
        "energy": lambda: space.energy(u, b, p, eps),
        "residual": lambda: space.residual(u, b, p, eps),
        "Hessian assembly": lambda: space.hessian(u, p, eps),
        "spsolve (default ordering)": lambda: spsolve(H, -r),
    }
    rows = []
    for name, fn in layers.items():
        times, _ = _timed(fn, 5)
        rows.append({"layer": name, "median_s": statistics.median(times)})
        print(f"layer at {mesh.n_vertices} vertices, {name}: "
              f"{1e3 * rows[-1]['median_s']:.1f} ms", flush=True)
    return rows


def criteria_table(plapopt):
    rows = []
    for res in plapopt.acceptance.run_criteria(echo=None):
        rows.append({"criterion": res.number, "name": res.name,
                     "passed": res.passed, "elapsed_s": res.elapsed})
        print(res.line(), flush=True)
    return rows


def failing_derivatives(plapopt):
    """Derivative reports that fail the four-way check at the parent
    commit, kept out of the gated workloads and reported here: the
    volume route on the square, and a step-load level order on the disk
    whose I'(0) under the bump is near zero."""
    import warnings

    square = plapopt.build_square_mesh(1.0, 32)
    disk = plapopt.build_disk_mesh(1.0, 128, 20)
    L = disk.total_boundary_length
    cases = [
        ("square 32/side", square, plapopt.acceptance.STEP_LEVELS, "sin:1", 2.0),
        ("square 32/side", square, plapopt.acceptance.STEP_LEVELS, "cos:2", 2.0),
        ("disk 128x20", disk, (-0.5, 0.0, 1.0, 0.25), f"bump:{0.3 * L},{0.4 * L}", 1.5),
    ]
    rows = []
    for where, mesh, levels, spec, p in cases:
        f = plapopt.step_load(mesh, levels)
        field = plapopt.tangent_field(spec, mesh.total_boundary_length)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = plapopt.derivative_report(mesh, f, field, plapopt.SolveConfig(p=p))
        ok = rep.max_discrepancy <= 1e-2
        rows.append({"mesh": where, "levels": list(levels), "field": field.name, "p": p,
                     "values": rep.values, "max_discrepancy": rep.max_discrepancy,
                     "passed": ok})
        print(f"derivative, {where}, levels {tuple(levels)}, {field.name}, p={p:g}: "
              f"{'PASS' if ok else 'FAIL'} (max discrepancy {rep.max_discrepancy:.3g}; "
              + ", ".join(f"{k} {v:.4g}" for k, v in rep.values.items()) + ")", flush=True)
    return rows


def main():
    env.limit_blas_threads()
    try:
        plapopt = env.import_plapopt()
        import plapopt.acceptance  # noqa: F401
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = {"env": env.environment()}
    for key, fn in (("solve", solve_table), ("layers_41k", layer_table),
                    ("criteria", criteria_table),
                    ("failing_derivatives", failing_derivatives)):
        out[key] = fn(plapopt)
    os.makedirs(env.RESULTS, exist_ok=True)
    path = os.path.join(env.RESULTS, "baseline.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
