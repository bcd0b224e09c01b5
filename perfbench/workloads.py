"""The benchmark's workloads: seeded inputs, the ops run on them, and the
check of each op's output.

An op is the unit call of a workload; its ``call`` is what gets timed and
its ``check`` runs afterwards, untimed. The task list of a workload is a
fixed list of ops built from the seed. Checks use the bounds of the
acceptance battery (``plapopt.acceptance``), unloosened:

* a solve converges with duality gap <= 1e-6 (1 + |J|)  (criterion 1);
* an optimization ascends monotonically within 1e-5 (1 + |J|) (criterion 5),
  ends on a permutation of f0, and has comonotonicity defect 0 at every
  restart that reached a fixed point (criterion 6);
* a derivative report has four-way max discrepancy <= 1e-2 (criterion 7).

plapopt is always reached through its module attributes (``solver.solve``
and so on) at call time, so the tracer's wrappers see every call.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from plapopt import geometry, optimizer, perturbation, rearrangement, solver
from plapopt.acceptance import STEP_LEVELS

PS = (1.5, 2.0, 3.0)
GAP_TOL = 1e-6
ASCENT_TOL = 1e-5
DISCREPANCY_TOL = 1e-2
SHAPE_SEED = 20240601  # the seed of acceptance criterion 1's random loads
RESTART_SEED = 11  # the seed of the criterion 5/6 optimization battery


@dataclass
class Op:
    label: str
    p: float
    load: np.ndarray  # the cell values plapopt receives
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (ok, detail, values)


def p_name(p):
    return f"p_{p:g}"


def _solve_op(mesh, f, p, label):
    cfg = solver.SolveConfig(p=p)

    def call():
        return solver.solve(mesh, f, cfg)

    def check(result):
        _, rep = result
        tol = GAP_TOL * (1.0 + abs(rep.J))
        ok = bool(rep.converged and rep.duality_gap <= tol)
        return ok, f"converged={rep.converged} gap={rep.duality_gap:.3g} tol={tol:.3g}", (rep.J,)

    return Op(label, p, np.asarray(f.cell_values), call, check)


def _stratified_loads(mesh, rng, k, pool=512):
    """k ``random_step_load`` draws spread evenly over |mean load|.

    Cold p < 2 solves of near-zero-mean loads take several times the
    Newton steps of the rest (up to the 60-step cap in the first stage),
    so k plain draws would give a different share of hard loads each
    time. Drawing a pool, ordering it by |mean| and taking the loads at
    evenly spaced ranks keeps hard and easy loads in their natural
    proportion."""
    draws = [rearrangement.random_step_load(mesh, rng) for _ in range(pool)]
    order = np.argsort([abs(f.cell_values.mean()) for f in draws], kind="stable")
    return [draws[order[int((i + 0.5) * pool / k)]] for i in range(k)]


def _rotated(mesh, f, rng):
    """f turned along the boundary loop by a random number of cells. The
    disk mesh is built ring by ring, so the turn maps it onto itself and
    the Newton work stays the same. (A reflection does not: it flips the
    diagonals of the ring quadrilaterals, and a reflected load took 35
    instead of 48 Newton steps on one of the cold-solve shapes.)"""
    return rearrangement.LoadField.from_values(
        mesh, np.roll(f.cell_values, rng.integers(mesh.n_boundary_cells)))


def cold_solve(seed, tiny=False):
    """One cold solve (u = 0) per op on the 128x20 disk, for four load
    shapes and p in PS: about 7 s a pass, so a run repeats every op.

    The load shapes are drawn once with the duality criterion's own seed;
    the run seed rotates each shape (``_rotated``). That
    changes every load while keeping its Newton work, so the spread
    between seeds is the machine's, not the loads'."""
    n, m, k = (32, 5, 2) if tiny else (128, 20, 4)
    mesh = geometry.build_disk_mesh(1.0, n, m)
    shapes = _stratified_loads(mesh, np.random.default_rng(SHAPE_SEED), k)
    rng = np.random.default_rng(seed)
    ops = []
    for i, shape in enumerate(shapes):
        f = _rotated(mesh, shape, rng)
        ops += [_solve_op(mesh, f, p, f"load{i} p={p:g}") for p in PS]
    return ops


def _optimize_op(mesh, name, f0, p, seed, restarts):
    cfg = optimizer.OptimizeConfig(
        solver=solver.SolveConfig(p=p), n_restarts=restarts, seed=seed,
        max_outer_iters=80,
    )

    def call():
        return optimizer.maximize_over_rearrangements(mesh, f0, cfg)

    def check(result):
        fhat, _, hist = result
        problems = []
        for r, _, fixed in hist.restart_results:
            recs = hist.per_restart(r)
            for a, b in zip(recs, recs[1:]):
                if b.J < a.J - ASCENT_TOL * (1.0 + abs(a.J)):
                    problems.append(f"restart {r}: J fell {a.J:.9g} -> {b.J:.9g}")
            if fixed and recs[-1].defect != 0.0:
                problems.append(f"restart {r}: fixed point with defect {recs[-1].defect}")
        for rec in hist.records:
            if rec.duality_gap > GAP_TOL * (1.0 + abs(rec.J)):
                problems.append(f"restart {rec.restart} it {rec.iteration}: gap {rec.duality_gap:.3g}")
        if not np.array_equal(np.sort(fhat.cell_values), np.sort(f0.cell_values)):
            problems.append("result is not a rearrangement of f0")
        detail = "; ".join(problems) or f"{len(hist.records)} solves"
        return not problems, detail, tuple(rec.J for rec in hist.records)

    return Op(f"{name} p={p:g}", p, np.asarray(f0.cell_values), call, check)


def optimize(seed, tiny=False):
    """One ``maximize_over_rearrangements`` per op on the 64x10 disk (the
    criterion 5/6 mesh): binary(16) and 3-level loads, p in PS, 5
    restarts.

    The restart permutations come from the criterion 5/6 battery's seed
    and the run seed rotates f0. The number of best-response
    steps a restart takes varies a lot with its permutation; fixing the
    permutations keeps each seed's work the same while f0 still differs."""
    n, m, ones, restarts = (16, 3, 4, 2) if tiny else (64, 10, 16, 5)
    mesh = geometry.build_disk_mesh(1.0, n, m)
    rng = np.random.default_rng(seed)
    ops = []
    for name, f0 in (("binary", rearrangement.binary_load(mesh, ones, start=5)),
                     ("3level", rearrangement.step_load(mesh, [0.0, 0.5, 1.0]))):
        f0 = _rotated(mesh, f0, rng)
        ops += [_optimize_op(mesh, name, f0, p, RESTART_SEED, restarts) for p in PS]
    return ops


def _turned(field, shift):
    """``field`` moved along the boundary by ``shift`` (arclength)."""
    speed, prime = field.speed, field.speed_prime
    return replace(field, speed=lambda s: speed(np.asarray(s, dtype=float) - shift),
                   speed_prime=lambda s: prime(np.asarray(s, dtype=float) - shift))


def _derivative_op(mesh, f, field, p):
    cfg = solver.SolveConfig(p=p)

    def call():
        return perturbation.derivative_report(mesh, f, field, cfg, t=1e-3)

    def check(rep):
        d = rep.max_discrepancy
        vals = rep.values
        detail = f"max discrepancy {d:.3g} " + " ".join(f"{k}={v:.6g}" for k, v in vals.items())
        return bool(d <= DISCREPANCY_TOL), detail, tuple(vals.values())

    return Op(f"{field.name} p={p:g}", p, np.asarray(f.cell_values), call, check)


def derivative(seed, tiny=False):
    """One ``derivative_report`` per op on the 128x20 disk (the criterion 7
    mesh) for p in PS and the fields sin:1, cos:2 and a bump, on the
    criterion 7 step load.

    The seed turns the load and the fields together by a number of
    boundary cells (see ``_rotated``): the same problem up to the mesh's
    symmetry, so the work and the derivatives stay. Other changes moved
    the work: jittering the arcs by +-5 % changed the Newton steps of an
    op by up to 15 %, and some level orders put a load jump where u0 is
    near zero under the bump, where I'(0) is near zero and the relative
    four-way check fails (see the baseline profile). The 32-per-side
    square is not an op here either: its volume route is off by about
    100x, so its ops fail their check. The baseline profile
    (``baseline.py``) reports both as failed."""
    mesh = geometry.build_disk_mesh(1.0, 128, 20)
    L, n = mesh.total_boundary_length, mesh.n_boundary_cells
    turn = int(np.random.default_rng(seed).integers(n))
    f = rearrangement.step_load(mesh, STEP_LEVELS)
    f = rearrangement.LoadField.from_values(mesh, np.roll(f.cell_values, turn))
    specs = ("cos:2",) if tiny else ("sin:1", "cos:2", f"bump:{0.3 * L},{0.4 * L}")
    fields = [_turned(perturbation.tangent_field(spec, L), turn * L / n) for spec in specs]
    return [_derivative_op(mesh, f, field, p) for field in fields for p in PS]


def enumerate_(seed, tiny=False):
    """One solve per op on the 8-cell disk for every other distinct
    permutation of a 4/2/2 value multiset (210 of the 420 that criterion 6
    enumerates) at each p in PS, where per-call overhead dominates. Half
    the permutations keep a pass near 4.4 s, so a run repeats every op.

    The seed draws each level within +-1/12 of 1/6, 1/2 and 5/6, so the
    levels stay apart and every seed solves 210 distinct loads of about
    the same Newton work."""
    mesh = geometry.build_disk_mesh(1.0, 8, 2)
    rng = np.random.default_rng(seed)
    levels = (np.arange(3) + 0.5 + rng.uniform(-0.25, 0.25, size=3)) / 3.0
    values = np.repeat(levels, (4, 2, 2))
    perms = sorted(set(itertools.permutations(values)))
    perms = perms[::42] if tiny else perms[::2]
    loads = [rearrangement.LoadField.from_values(mesh, np.array(v)) for v in perms]
    return [_solve_op(mesh, f, p, f"perm{i} p={p:g}")
            for i, f in enumerate(loads) for p in PS]


WORKLOADS = {
    "cold-solve": cold_solve,
    "optimize": optimize,
    "derivative": derivative,
    "enumerate": enumerate_,
}

# Seconds one pass over each task list took on the 2-core machine the
# benchmark was defined on. They fix how many passes a traced run makes
# for a given --seconds, so that both sides of a comparison trace the
# same ops.
PASS_S = {"cold-solve": 7.0, "optimize": 9.3, "derivative": 16.6, "enumerate": 4.4}
