"""Best-response fixed-point iteration maximizing J over a rearrangement
class.

Each step solves the state problem for the current load and replaces the
load with the rearrangement comonotone to the resulting boundary trace.
That rearrangement maximizes the linear functional L(f) = sum f c trace_c
w_c, which forces J(f_{k+1}) >= J(f_k) up to solver tolerance:

    J(f_{k+1}) >= I(u_k; f_{k+1}) >= I(u_k; f_k) = J(f_k).

The iteration halts at a permutation fixed point (an exactly comonotone
load), on stalled J improvement, or at the iteration cap. Random restarts
guard against non-global fixed points; all restarts are reported and the
best iterate wins.
"""

from dataclasses import dataclass, field

import numpy as np

from .rearrangement import (
    LoadField,
    RearrangementClass,
    best_response,
    comonotonicity_defect,
)
from .solver import SolveConfig, SolverError, solve

__all__ = [
    "OptimizeConfig",
    "IterationRecord",
    "OptimizeHistory",
    "maximize_over_rearrangements",
]

# A restart stops when J changes by less than J_TOL (1 + |J|) between
# iterates.
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


@dataclass
class OptimizeHistory:
    records: list = field(default_factory=list)
    restart_results: list = field(default_factory=list)  # (restart, J, fixed_point)

    def per_restart(self, r):
        return [rec for rec in self.records if rec.restart == r]


def maximize_over_rearrangements(mesh, f0: LoadField, config: OptimizeConfig):
    """Maximize J over all rearrangements of f0.

    Returns (best load, its state, history). Every iterate is a
    permutation of f0's values; the terminal iterate of each restart is
    comonotone with its own trace whenever the restart reached a fixed
    point. Raises SolverError context via the inner solve if a state
    solve fails.
    """
    rclass = RearrangementClass.from_load(f0)
    rng = np.random.default_rng(config.seed)
    history = OptimizeHistory()

    best = None  # (J, f, state)
    for restart in range(config.n_restarts):
        if restart == 0:
            f = f0
        else:
            values = rng.permutation(rclass.sorted_values)
            f = LoadField(values, f0.weights)
        f, state, J, fixed = _run_single(mesh, f, rclass, config, restart, history)
        history.restart_results.append((restart, J, fixed))
        if best is None or J > best[0]:
            best = (J, f, state)
    return best[1], best[2], history


def _run_single(mesh, f, rclass, config, restart, history):
    seen = {tuple(f.cell_values)}
    u_prev = None
    J_prev = None
    result = None
    for it in range(config.max_outer_iters):
        state, report = solve(mesh, f, config.solver, u_init=u_prev)
        if not report.converged:
            raise SolverError(
                f"state solve failed at restart {restart}, iteration {it}: "
                f"residual {report.final_residual:.3e}"
            )
        u_prev = state.nodal_values
        J = report.J
        trace = state.boundary_trace
        f_next = best_response(rclass, trace)
        changed = not np.array_equal(f_next.cell_values, f.cell_values)
        history.records.append(
            IterationRecord(
                restart=restart,
                iteration=it,
                J=J,
                duality_gap=report.duality_gap,
                defect=comonotonicity_defect(f, trace),
                changed=changed,
            )
        )
        result = (f, state, J)
        if not changed:
            return f, state, J, True  # exact fixed point
        if J_prev is not None and abs(J - J_prev) < J_TOL * (1.0 + abs(J)):
            return f, state, J, False
        key = tuple(f_next.cell_values)
        if key in seen:
            return f, state, J, False  # cycle without improvement
        seen.add(key)
        J_prev = J
        f = f_next
    return (*result, False)

