"""Regularized p-Laplacian Neumann solver by energy minimization.

The boundary value problem

    -div((|grad u|^2 + eps^2)^{(p-2)/2} grad u) + |u|^{p-2} u = 0  in the domain,
    (|grad u|^2 + eps^2)^{(p-2)/2} du/dnu = f                      on the boundary,

is the Euler-Lagrange equation of

    E_eps(u) = (1/p) int (|grad u|^2 + eps^2)^{p/2} + |u|^p dx - int_bdry f u ds,

which is minimized with damped Newton iterations inside a geometric
continuation loop driving eps from eps_initial to eps_final with warm
starts. The limit eps -> 0 recovers the p-Laplacian problem.

The boundary functional J(f) = int f u_f ds equals, at the solution, the
supremum of

    I(u) = (1/(p-1)) { p int f u ds - int |grad u|^p + |u|^p dx },

so |J - I(u_f)| (the duality gap) is a solver-quality diagnostic.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import spsolve

from .fem import P1Space
from .rearrangement import LoadField

__all__ = [
    "SolveConfig",
    "StateField",
    "SolveReport",
    "SolverError",
    "energy",
    "residual",
    "solve",
    "functional_J",
    "functional_I",
]

P_MIN, P_MAX = 1.1, 10.0


class SolverError(RuntimeError):
    """Newton continuation failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SolveConfig:
    """Continuation and Newton parameters.

    p is clamped to [1.1, 10]; outside that range the Hessian conditioning
    makes the plain Newton scheme unreliable at this scale.
    """

    p: float
    eps_initial: float = 1e-1
    eps_final: float = 1e-8
    eps_factor: float = 0.1
    newton_tol: float = 1e-10
    max_newton_iters: int = 60
    line_search_shrink: float = 0.5
    armijo: float = 1e-4

    def __post_init__(self):
        if not P_MIN <= self.p <= P_MAX:
            raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {self.p}")
        if not 0.0 < self.eps_final <= self.eps_initial:
            raise ValueError("need 0 < eps_final <= eps_initial")
        if not 0.0 < self.eps_factor < 1.0:
            raise ValueError("need 0 < eps_factor < 1")
        if self.newton_tol <= 0 or self.max_newton_iters < 1:
            raise ValueError("invalid Newton parameters")
        if not 0.0 < self.line_search_shrink < 1.0:
            raise ValueError("need 0 < line_search_shrink < 1")


@dataclass(frozen=True)
class StateField:
    """Nodal solution coefficients plus the per-cell boundary trace."""

    nodal_values: np.ndarray
    boundary_trace: np.ndarray
    p: float
    epsilon: float

    def __post_init__(self):
        for name in ("nodal_values", "boundary_trace"):
            a = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_nodal(cls, mesh, u, p, epsilon):
        space = P1Space.of(mesh)
        return cls(np.asarray(u, dtype=float), space.trace_average(u), p, epsilon)


@dataclass
class SolveReport:
    converged: bool
    final_residual: float
    iterations_per_stage: list
    eps_stages: list
    energy_history: list = field(repr=False)  # one descent list per stage
    gradient_fallbacks: int = 0
    J: float = 0.0
    I: float = 0.0
    duality_gap: float = 0.0


def _nodal(u):
    return u.nodal_values if isinstance(u, StateField) else np.asarray(u, dtype=float)


def _check_sizes(mesh, u=None, f=None):
    if u is not None and _nodal(u).size != mesh.n_vertices:
        raise ValueError(
            f"state has {_nodal(u).size} values, mesh has {mesh.n_vertices} vertices"
        )
    if f is not None and f.n_cells != mesh.n_boundary_cells:
        raise ValueError(
            f"load has {f.n_cells} cells, mesh has {mesh.n_boundary_cells}"
        )


def energy(mesh, u, f: LoadField, p, eps):
    """E_eps(u) as defined in the module docstring."""
    _check_sizes(mesh, u, f)
    space = P1Space.of(mesh)
    return space.energy(_nodal(u), space.load_vector(f.cell_values), p, eps)


def residual(mesh, u, f: LoadField, p, eps):
    """Nodal gradient of E_eps; zero at the discrete solution."""
    _check_sizes(mesh, u, f)
    space = P1Space.of(mesh)
    return space.residual(_nodal(u), space.load_vector(f.cell_values), p, eps)


def _newton_stage(space, u, b, p, eps, cfg, energies):
    """Damped Newton at fixed eps.

    Returns (u, iterations, fallbacks, residual_norm)."""
    fallbacks = 0
    r = space.residual(u, b, p, eps)
    rnorm = np.linalg.norm(r)
    E = space.energy(u, b, p, eps)
    energies.append(E)
    for it in range(cfg.max_newton_iters):
        if rnorm <= cfg.newton_tol:
            return u, it, fallbacks, rnorm
        H = space.hessian(u, p, eps)
        with np.errstate(all="ignore"):
            d = spsolve(H, -r, permc_spec="MMD_AT_PLUS_A")
        slope = float(r @ d)
        if not np.all(np.isfinite(d)) or slope >= 0.0:
            d = -r  # singular or non-descent direction: steepest descent
            slope = -float(rnorm * rnorm)
            fallbacks += 1
        alpha = 1.0
        # rounding slack: near the minimum the true energy decrease falls
        # below float resolution while the step is still productive
        slack = 1e-14 * (1.0 + abs(E))
        for _ in range(80):
            u_try = u + alpha * d
            E_try = space.energy(u_try, b, p, eps)
            if np.isfinite(E_try) and E_try <= E + cfg.armijo * alpha * slope + slack:
                break
            alpha *= cfg.line_search_shrink
        else:
            # Energy cannot decrease along d within machine steps.
            return u, it + 1, fallbacks, rnorm
        u, E = u_try, E_try
        energies.append(E)
        r = space.residual(u, b, p, eps)
        rnorm = np.linalg.norm(r)
    return u, cfg.max_newton_iters, fallbacks, rnorm


def _continuation(space, b, cfg, u_init=None):
    u = np.zeros(space.n) if u_init is None else np.array(u_init, dtype=float)
    eps_list, iters, history = [], [], []
    fallbacks = 0
    eps = cfg.eps_initial
    while True:
        energies = []
        u, it, fb, rnorm = _newton_stage(space, u, b, cfg.p, eps, cfg, energies)
        eps_list.append(eps)
        iters.append(it)
        history.append(energies)
        fallbacks += fb
        if eps <= cfg.eps_final:
            break
        eps = max(eps * cfg.eps_factor, cfg.eps_final)
    return u, eps_list, iters, history, fallbacks, rnorm


def solve(mesh, f: LoadField, config: SolveConfig, u_init=None):
    """Solve the Neumann problem with load f.

    Returns (StateField, SolveReport). The report carries the functionals
    J and I and their gap; ``converged`` means the residual norm at
    eps_final dropped below newton_tol. On non-convergence the partial
    state is still returned.
    """
    _check_sizes(mesh, f=f)
    space = P1Space.of(mesh)
    b = space.load_vector(f.cell_values)
    u, eps_list, iters, history, fallbacks, rnorm = _continuation(
        space, b, config, u_init
    )
    state = StateField(u, space.trace_average(u), config.p, config.eps_final)
    J = functional_J(mesh, f, state)
    I = functional_I(mesh, state, f, config.p)
    report = SolveReport(
        converged=bool(rnorm <= config.newton_tol),
        final_residual=float(rnorm),
        iterations_per_stage=iters,
        eps_stages=eps_list,
        energy_history=history,
        gradient_fallbacks=fallbacks,
        J=J,
        I=I,
        duality_gap=abs(J - I),
    )
    return state, report


def functional_J(mesh, f: LoadField, u):
    """Boundary functional J = sum_c f_c * trace_c * w_c."""
    _check_sizes(mesh, u, f)
    trace = (
        u.boundary_trace
        if isinstance(u, StateField)
        else P1Space.of(mesh).trace_average(_nodal(u))
    )
    return float(np.sum(f.cell_values * trace * f.weights))


def functional_I(mesh, u, f: LoadField, p):
    """Dual energy I(u); equals J(f) at the solution (zero duality gap).

    The volume term is evaluated unregularized (eps = 0) regardless of the
    eps used to compute u.
    """
    _check_sizes(mesh, u, f)
    space = P1Space.of(mesh)
    grad_term, mass_term = space.integrate_lp(_nodal(u), p)
    J = functional_J(mesh, f, u)
    return (p * J - grad_term - mass_term) / (p - 1.0)
