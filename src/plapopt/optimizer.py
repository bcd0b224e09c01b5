"""Best-response fixed-point iteration maximizing J over a rearrangement
class.

Each step solves the state problem for the current load and replaces the
load with the rearrangement comonotone to the resulting boundary trace.
That rearrangement maximizes the pairing sum L(f) = sum_c f_c trace_c
(the boundary integral of f u over the common cell arclength), which
forces J(f_{k+1}) >= J(f_k) up to solver tolerance:

    J(f_{k+1}) >= I(u_k; f_{k+1}) >= I(u_k; f_k) = J(f_k).

The iteration halts at a permutation fixed point (an exactly comonotone
load), on stalled J improvement, or at the iteration cap. Random restarts
guard against non-global fixed points; all restarts are reported and the
best iterate wins. A later restart replaces the best only if its J is
higher by more than J_TOL (1 + |J|), so ties go to the earliest restart:
on a symmetric domain restarts reach rotated copies of one fixed point
whose J differ only by solver rounding, and rounding must not pick the
returned load. ``OptimizeHistory.returned_restart`` names the restart
whose load is returned. The ``J_best`` of the CLI's ``summary.json`` stays
the maximum J over restarts, within that tolerance of the returned load's
J, which the summary gives beside it.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import unequal_cell
from .rearrangement import LoadField, best_response, comonotonicity_defect
from .solver import SolveConfig, SolverError, solve

__all__ = [
    "OptimizeConfig",
    "IterationRecord",
    "OptimizeHistory",
    "maximize_over_rearrangements",
]

# A restart stops when J changes by less than J_TOL (1 + |J|) between
# iterates, and a later restart must beat the best by more than that.
J_TOL = 1e-9


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
    J: float
    duality_gap: float
    defect: float
    changed: bool
    newton_steps: int  # summed over the solve's eps stages
    factorizations: int


@dataclass
class OptimizeHistory:
    records: list = field(default_factory=list)
    # the restart whose load and state maximize_over_rearrangements returned
    returned_restart: int = 0

    def per_restart(self, r):
        return [rec for rec in self.records if rec.restart == r]

    @property
    def restart_results(self):
        """(restart, J, fixed_point) of every restart, from its last record:
        a restart ends at a fixed point exactly when its last best response
        left the load unchanged."""
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
        state, report = solve(mesh, f, config.solver, u_init=u_prev)
        if not report.converged:
            raise SolverError(
                f"state solve failed at restart {restart}, iteration {it}: "
                f"residual {report.final_residual:.3e}"
            )
        u_prev = state  # the next solve starts here, with this state's factor
        J = report.J
        trace = state.boundary_trace
        f_next = best_response(f, trace)
        changed = not np.array_equal(f_next.cell_values, f.cell_values)
        history.records.append(
            IterationRecord(
                restart=restart,
                iteration=it,
                J=J,
                duality_gap=report.duality_gap,
                defect=comonotonicity_defect(f, trace),
                changed=changed,
                newton_steps=sum(report.iterations_per_stage),
                factorizations=report.factorizations,
            )
        )
        result = (f, state)
        if not changed:
            return result  # exact fixed point
        if J_prev is not None and abs(J - J_prev) < J_TOL * (1.0 + abs(J)):
            return result
        key = tuple(f_next.cell_values)
        if key in seen:
            return result  # cycle without improvement
        seen.add(key)
        J_prev = J
        f = f_next
    return result  # iteration cap

