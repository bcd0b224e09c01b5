"""Regularized p-Laplacian Neumann solver by energy minimization.

The boundary value problem

    -div((|grad u|^2 + eps^2)^{(p-2)/2} grad u) + (u^2 + eps^2)^{(p-2)/2} u = 0
                                                           in the domain,
    (|grad u|^2 + eps^2)^{(p-2)/2} du/dnu = f             on the boundary,

is the Euler-Lagrange equation of

    E_eps(u) = (1/p) int (|grad u|^2 + eps^2)^{p/2} + (u^2 + eps^2)^{p/2} dx
               - int_bdry f u ds,

which is minimized with damped Newton iterations inside a geometric
continuation loop driving eps from EPS_INITIAL to eps_final by factors of
EPS_FACTOR with warm starts. eps regularizes both terms alike, so the
energy is smooth and its Hessian exact and SPD for every eps > 0. The
limit eps -> 0 recovers the p-Laplacian problem.

Each Newton step is inexact. A sparse LU factorization costs 20 to 30
triangular solves with a kept factor, and a Hessian changes little from
one step to the next, so a solve keeps one LU factor of a Hessian for
the whole call, across all its eps stages. CG preconditioned by that
factor solves each Newton system H d = -r to a relative tolerance eta
chosen by Eisenstat-Walker forcing terms (choice 2: eta shrinks with the
square of the residual reduction, so the last steps stay quadratic; see
Eisenstat & Walker, "Choosing the forcing terms in an inexact Newton
method", SIAM J. Sci. Comput. 17, 1996). When CG misses eta within
CG_MAX_ITERS iterations, the current Hessian is factored afresh and
solved directly. Below PCG_MIN_VERTICES a factorization is as cheap as a
few CG iterations, and every step is a direct ``spsolve``. The stop test,
the line search and the steepest-descent fallback are the same on both
paths.

The boundary functional J(f) = int f u_f ds equals, at the solution, the
supremum of

    I(u) = (1/(p-1)) { p int f u ds - int |grad u|^p + |u|^p dx },

so |J - I(u_f)| (the duality gap) is a solver-quality diagnostic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu, spsolve

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

# Backtracking line search: a step must decrease the energy by ARMIJO
# times its predicted first-order decrease; each rejection scales the
# step by LINE_SEARCH_SHRINK.
ARMIJO = 1e-4
LINE_SEARCH_SHRINK = 0.5

# Continuation: eps starts at EPS_INITIAL and shrinks by EPS_FACTOR per
# stage down to SolveConfig.eps_final. Each stage runs Newton until the
# residual norm is at most NEWTON_TOL, for at most MAX_NEWTON_ITERS steps.
EPS_INITIAL = 1e-1
EPS_FACTOR = 0.1
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 60

# Newton systems (see ``_NewtonSystems``): below PCG_MIN_VERTICES every
# step is a direct ``spsolve``. From there on, CG preconditioned by a kept
# factor solves each step to the forcing term eta (at most ETA_MAX) and
# refactors when CG_MAX_ITERS iterations do not reach it. Measured on
# cold disk solves at p = 1.5 and 3, CG took 1.00-1.06x the direct time
# at 49 vertices, 0.95-1.01x at 61, 0.84-0.93x at 81 and 0.62-0.64x at
# 2561.
PCG_MIN_VERTICES = 64
ETA_MAX = 0.1
CG_MAX_ITERS = 10


class SolverError(RuntimeError):
    """Newton continuation failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SolveConfig:
    """The exponent p and the regularization eps_final of the last stage.

    p is clamped to [1.1, 10]; outside that range the Hessian conditioning
    makes the plain Newton scheme unreliable at this scale.
    """

    p: float
    eps_final: float = 1e-8

    def __post_init__(self):
        if not P_MIN <= self.p <= P_MAX:
            raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {self.p}")
        if not 0.0 < self.eps_final <= EPS_INITIAL:
            raise ValueError(f"need 0 < eps_final <= {EPS_INITIAL}")


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
    # why each stage stopped: "converged", "cap" (MAX_NEWTON_ITERS reached)
    # or "stall" (the line search found no acceptable step)
    stage_exits: list
    gradient_fallbacks: int = 0
    # sparse LU factorizations and CG iterations, summed over the stages;
    # on the direct path every Newton step is one factorization
    factorizations: int = 0
    cg_iterations: int = 0
    J: float = 0.0
    I: float = 0.0
    duality_gap: float = 0.0


def _nodal(u):
    return u.nodal_values if isinstance(u, StateField) else np.asarray(u, dtype=float)


def _check_state(mesh, u):
    if _nodal(u).size != mesh.n_vertices:
        raise ValueError(
            f"state has {_nodal(u).size} values, mesh has {mesh.n_vertices} vertices"
        )


def _load_vector(mesh, f):
    """Nodal load vector b of f, so that int f u ds = b.u for P1 fields u.

    f is a ``LoadField`` (cellwise constant) or any function of arclength
    that ``P1Space.load_vector_from_function`` integrates exactly, such as
    a load transported by a boundary flow."""
    space = P1Space.of(mesh)
    if isinstance(f, LoadField):
        if f.n_cells != mesh.n_boundary_cells:
            raise ValueError(
                f"load has {f.n_cells} cells, mesh has {mesh.n_boundary_cells}"
            )
        return space.load_vector(f.cell_values)
    return space.load_vector_from_function(f, mesh.chart())


def _dual_I(space, u, J, p):
    grad_term, mass_term = space.integrate_lp(u, p)
    return (p * J - grad_term - mass_term) / (p - 1.0)


def energy(mesh, u, f, p, eps):
    """E_eps(u) as defined in the module docstring."""
    _check_state(mesh, u)
    return P1Space.of(mesh).energy(_nodal(u), _load_vector(mesh, f), p, eps)


def residual(mesh, u, f, p, eps):
    """Nodal gradient of E_eps; zero at the discrete solution."""
    _check_state(mesh, u)
    return P1Space.of(mesh).residual(_nodal(u), _load_vector(mesh, f), p, eps)


def _pcg(H, rhs, lu, rtol):
    """CG on H x = rhs from x = 0, preconditioned by the LU factor ``lu``.

    Returns (x, iterations) once the residual norm is at most rtol times
    ||rhs||, or (None, CG_MAX_ITERS) if CG_MAX_ITERS iterations do not get
    there (non-finite values never do)."""
    x = np.zeros_like(rhs)
    res = rhs.copy()
    tol = rtol * np.linalg.norm(rhs)
    d = rz_old = None
    for k in range(CG_MAX_ITERS):
        z = lu.solve(res)
        rz = res @ z
        d = z if d is None else z + (rz / rz_old) * d
        Hd = H @ d
        alpha = rz / (d @ Hd)
        x += alpha * d
        res -= alpha * Hd
        if np.linalg.norm(res) <= tol:
            return x, k + 1
        rz_old = rz
    return None, CG_MAX_ITERS


class _NewtonSystems:
    """Solves the Newton systems H d = rhs of one ``solve`` call, as the
    module docstring describes, and counts the factorizations and CG
    iterations that took."""

    def __init__(self, n):
        self.direct = n < PCG_MIN_VERTICES
        self.lu = None
        self.factorizations = 0
        self.cg_iterations = 0

    def solve(self, H, rhs, rtol):
        if self.direct:
            self.factorizations += 1
            return spsolve(H, rhs, permc_spec="MMD_AT_PLUS_A")
        if self.lu is not None:
            x, its = _pcg(H, rhs, self.lu, rtol)
            self.cg_iterations += its
            if x is not None:
                return x
        self.factorizations += 1
        try:
            self.lu = splu(H, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:  # exactly singular: no direction, as spsolve
            self.lu = None
            return np.full_like(rhs, np.nan)
        return self.lu.solve(rhs)


def _newton_stage(space, u, b, p, eps, systems):
    """Damped inexact Newton at fixed eps; ``systems`` solves each step
    to the forcing term's tolerance.

    Returns (u, iterations, fallbacks, residual_norm, reason), where
    reason is "converged", "cap" or "stall" (see ``SolveReport.stage_exits``)."""
    fallbacks = 0
    r = space.residual(u, b, p, eps)
    rnorm = np.linalg.norm(r)
    E = space.energy(u, b, p, eps)
    eta = ETA_MAX
    for it in range(MAX_NEWTON_ITERS):
        if rnorm <= NEWTON_TOL:
            return u, it, fallbacks, rnorm, "converged"
        H = space.hessian(u, p, eps)
        with np.errstate(all="ignore"):
            d = systems.solve(H, -r, eta)
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
            if np.isfinite(E_try) and E_try <= E + ARMIJO * alpha * slope + slack:
                break
            alpha *= LINE_SEARCH_SHRINK
        else:
            # Energy cannot decrease along d within machine steps.
            return u, it + 1, fallbacks, rnorm, "stall"
        u, E = u_try, E_try
        r = space.residual(u, b, p, eps)
        rnorm, rnorm_old = np.linalg.norm(r), rnorm
        # Eisenstat-Walker choice 2 (gamma 0.9, alpha 2). Its safeguard
        # max(eta, 0.9 eta_old^2) applies only while 0.9 eta_old^2 > 0.1,
        # which ETA_MAX = 0.1 rules out.
        eta = min(ETA_MAX, 0.9 * (rnorm / rnorm_old) ** 2)
    reason = "converged" if rnorm <= NEWTON_TOL else "cap"
    return u, MAX_NEWTON_ITERS, fallbacks, rnorm, reason


def solve(mesh, f, config: SolveConfig, u_init=None):
    """Solve the Neumann problem with load f.

    f is a ``LoadField`` or a transported load (see ``_load_vector``);
    its load vector is built once per solve.

    Returns (StateField, SolveReport). The report carries the functionals
    J and I and their gap; ``converged`` means the residual norm at
    eps_final dropped below NEWTON_TOL. On non-convergence the partial
    state is still returned.
    """
    space = P1Space.of(mesh)
    b = _load_vector(mesh, f)
    u = np.zeros(space.n) if u_init is None else np.array(u_init, dtype=float)
    systems = _NewtonSystems(space.n)
    eps_list, iters, exits = [], [], []
    fallbacks = 0
    eps = EPS_INITIAL
    while True:
        u, it, fb, rnorm, reason = _newton_stage(space, u, b, config.p, eps, systems)
        eps_list.append(eps)
        iters.append(it)
        exits.append(reason)
        fallbacks += fb
        if eps <= config.eps_final:
            break
        eps = max(eps * EPS_FACTOR, config.eps_final)
    state = StateField(u, space.trace_average(u), config.p, config.eps_final)
    J = float(b @ u)
    I = _dual_I(space, u, J, config.p)
    report = SolveReport(
        converged=bool(rnorm <= NEWTON_TOL),
        final_residual=float(rnorm),
        iterations_per_stage=iters,
        eps_stages=eps_list,
        stage_exits=exits,
        gradient_fallbacks=fallbacks,
        factorizations=systems.factorizations,
        cg_iterations=systems.cg_iterations,
        J=J,
        I=I,
        duality_gap=abs(J - I),
    )
    return state, report


def functional_J(mesh, f, u):
    """Boundary functional J = int f u ds = b.u (b: the load vector of f)."""
    _check_state(mesh, u)
    return float(_load_vector(mesh, f) @ _nodal(u))


def functional_I(mesh, u, f, p):
    """Dual energy I(u); equals J(f) at the solution (zero duality gap).

    The volume term is evaluated unregularized (eps = 0) regardless of the
    eps used to compute u.
    """
    return _dual_I(P1Space.of(mesh), _nodal(u), functional_J(mesh, f, u), p)
