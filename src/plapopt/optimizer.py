"""Best-response fixed-point iteration maximizing J over a rearrangement
class, as alternating ascent on I(u, f).

J(f) is the maximum over u of I(u; f), and I is linear in f through the
boundary integral of f u. Each step solves the state problem for the
current load f_k, approximately, and replaces the load with the
rearrangement comonotone to the resulting boundary trace. That
rearrangement maximizes the pairing sum L(f) = sum_c f_c trace_c (the
boundary integral of f u_k over the common cell arclength), so it
maximizes I(u_k; .) over the class exactly, and the next state solve,
warm from u_k, raises I in u. So the iteration is block-coordinate ascent
on I over (u, f) (Grippo & Sciandrone, "On the convergence of the block
nonlinear Gauss-Seidel method under convex constraints", Oper. Res.
Lett. 26, 2000), and its chain

    J(f_{k+1}) >= I(u_k; f_{k+1}) >= I(u_k; f_k)

holds for any u_k, converged or not. So only the state that ends a
restart needs a converged solve. Every intermediate iterate is solved to
the residual norm INNER_TOL, and where a loose iterate would end its
restart and has not met NEWTON_TOL, the optimizer solves again, warm
from that state, to NEWTON_TOL, and decides the best response, the stop
and the comonotonicity defect again from the tight trace. A p = 2 solve
starts at its exact solution and takes no step, so it is always tight
and never solved again.
``IterationRecord.I`` is the lower bound I(u_k; f_k), and
``IterationRecord.tight`` says whether the record's state met
NEWTON_TOL. On the benchmark's optimize task list (64x10 disk, binary and
3-level loads, 5 restarts) one pass went from 278 to 243 Newton steps at
p = 3, and from 590 to 516 at p = 1.5 (600 before the solver ran its
ladder from u = 0 after a missed warm stage), with the same returned
loads and J within 1.3e-12 (1 + |J|).

The iteration halts at a permutation fixed point (an exactly comonotone
load), on stalled J improvement, on a cycle, or at the iteration cap.
Random restarts guard against non-global fixed points; all restarts are
reported and the best iterate wins, judged by the J of each restart's
last record, which is tight. A later restart replaces the best only if
its J is higher by more than J_TOL (1 + |J|), so ties go to the earliest
restart: on a symmetric domain restarts reach rotated copies of one
fixed point whose J differ only by solver rounding, and rounding must not
pick the returned load. ``OptimizeHistory.returned_restart`` names the
restart whose load is returned. The ``J_best`` of the CLI's
``summary.json`` stays the maximum J over restarts, within that
tolerance of the returned load's J, which the summary gives beside it.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import unequal_cell
from .rearrangement import LoadField, best_response, comonotonicity_defect
from .solver import NEWTON_TOL, SolveConfig, solve

__all__ = [
    "OptimizeConfig",
    "IterationRecord",
    "OptimizeHistory",
    "maximize_over_rearrangements",
]

# A restart stops when J changes by less than J_TOL (1 + |J|) between
# iterates, and a later restart must beat the best by more than that.
J_TOL = 1e-9

# The residual norm at which an intermediate iterate's state solve stops
# (see the module docstring). On the benchmark's optimize task list the
# worst record gap was 5.5e-8 (1 + |J|) at 1e-6 and 5.0e-7 at 1e-5, half
# the 1e-6 (1 + |J|) that the benchmark checks.
INNER_TOL = 1e-6


@dataclass(frozen=True)
class OptimizeConfig:
    solver: SolveConfig
    max_outer_iters: int = 50
    n_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")


@dataclass
class IterationRecord:
    restart: int
    iteration: int
    # b.u_k of the record's state u_k: J(f_k) on a tight record, and on a
    # loose one that of a loosely solved state, which can exceed J(f_k)
    # (32x5 disk: 4.7373528115 against a tight 4.7373524106)
    J: float
    # I(u_k; f_k): a certified lower bound on J(f_k) for any u_k,
    # converged or not
    I: float
    defect: float
    changed: bool
    # whether the state met NEWTON_TOL; the last record of every restart
    # does, an intermediate one met INNER_TOL
    tight: bool
    # summed over the eps stages of the record's solves: the loose one
    # and, where the restart ends, its tight re-solve
    newton_steps: int
    factorizations: int

    @property
    def duality_gap(self):
        return abs(self.J - self.I)


@dataclass
class OptimizeHistory:
    records: list = field(default_factory=list)
    # the restart whose load and state maximize_over_rearrangements returned
    returned_restart: int = 0

    def per_restart(self, r):
        return [rec for rec in self.records if rec.restart == r]

    @property
    def restart_results(self):
        """(restart, J, fixed_point) of every restart, from its last record,
        which is tight: a restart ends at a fixed point exactly when its
        last best response left the load unchanged."""
        last = {rec.restart: rec for rec in self.records}
        return [(r, rec.J, not rec.changed) for r, rec in last.items()]


def maximize_over_rearrangements(mesh, f0: LoadField, config: OptimizeConfig):
    """Maximize J over all rearrangements of f0.

    Returns (best load, its state, history). Every iterate is a
    permutation of f0's values; the terminal iterate of each restart is
    comonotone with its own trace whenever the restart reached a fixed
    point. Raises ValueError, before any solve, on a mesh whose boundary
    cells are unequal (there a permutation of cell values is no
    rearrangement), and SolverError if a state solve fails.
    """
    unequal = unequal_cell(mesh)
    if unequal:
        raise ValueError(f"rearrangements need equal boundary cells: {unequal}")
    rng = np.random.default_rng(config.seed)
    history = OptimizeHistory()

    best = None  # (J, f, state, restart)
    for restart in range(config.n_restarts):
        if restart == 0:
            f = f0
        else:
            f = LoadField(rng.permutation(np.sort(f0.cell_values)))
        f, state = _run_single(mesh, f, config, restart, history)
        J = history.records[-1].J
        if best is None or J - best[0] > J_TOL * (1.0 + abs(J)):
            best = (J, f, state, restart)
    history.returned_restart = best[3]
    return best[1], best[2], history


def _run_single(mesh, f, config, restart, history):
    seen = {tuple(f.cell_values)}
    u_prev = None
    J_prev = None
    for it in range(config.max_outer_iters):
        # a loose state solve, warm from the last iterate's state; where
        # it would end the restart, one more warm solve to NEWTON_TOL, whose
        # trace decides the best response and the stop again (so the loop
        # below runs at most twice: that solve's state is tight)
        state, report = solve(mesh, f, config.solver, u_init=u_prev, tol=INNER_TOL)
        steps = factorizations = 0
        while True:
            report.require_converged(f"state solve at restart {restart}, iteration {it}")
            steps += sum(report.iterations_per_stage)
            factorizations += report.factorizations
            tight = report.final_residual <= NEWTON_TOL
            J = report.J
            f_next = best_response(f, state.boundary_trace)
            changed = not np.array_equal(f_next.cell_values, f.cell_values)
            key = tuple(f_next.cell_values)
            stop = (
                not changed  # exact fixed point
                or (J_prev is not None and abs(J - J_prev) < J_TOL * (1.0 + abs(J)))
                or key in seen  # cycle without improvement
                or it == config.max_outer_iters - 1  # iteration cap
            )
            if tight or not stop:
                break
            state, report = solve(mesh, f, config.solver, u_init=state, tol=NEWTON_TOL)
        history.records.append(
            IterationRecord(
                restart=restart,
                iteration=it,
                J=J,
                I=report.I,
                defect=comonotonicity_defect(f, state.boundary_trace),
                changed=changed,
                tight=tight,
                newton_steps=steps,
                factorizations=factorizations,
            )
        )
        if stop:
            return f, state
        seen.add(key)
        u_prev = state  # the next solve starts here, with this state's factor
        J_prev = J
        f = f_next

