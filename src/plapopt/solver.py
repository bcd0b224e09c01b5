"""Regularized p-Laplacian Neumann solver by energy minimization.

The boundary value problem

    -div((|grad u|^2 + eps^2)^{(p-2)/2} grad u) + (u^2 + eps^2)^{(p-2)/2} u = 0
                                                           in the domain,
    (|grad u|^2 + eps^2)^{(p-2)/2} du/dnu = f             on the boundary,

is the Euler-Lagrange equation of

    E_eps(u) = (1/p) int (|grad u|^2 + eps^2)^{p/2} + (u^2 + eps^2)^{p/2} dx
               - int_bdry f u ds,

which is minimized with damped Newton iterations inside a continuation
loop down the rungs of EPS_STAGES (0.1 down to 1e-8 by decades), each
stage starting from the last. At p = 2 the residual does not depend on
eps, so there the ladder is its last rung alone. Every
p = 2 solve starts at the p = 2 solution, and every cold solve above
p = 2 on its ray (see below); either needs the ladder only if that start
misses. Only the stage at the last rung runs to the solve's tolerance,
NEWTON_TOL unless the caller passes another (the optimizer's
intermediate iterates do; see ``optimizer``). An intermediate stage
serves only as the start of the next, whose smaller eps raises the residual
again by orders of magnitude, so it ends once its residual norm is
STAGE_REDUCTION times the norm it started from: enough to start the next
stage inside its Newton region, as in inexact path-following (Deuflhard,
*Newton Methods for Nonlinear Problems*, Springer 2004). eps regularizes
both terms alike, so the energy is smooth and its Hessian exact and SPD
for every eps > 0. The limit eps -> 0 recovers the p-Laplacian problem.

The path down the ladder adapts to the contraction each stage measured,
as in Deuflhard's adaptive continuation (ch. 5): a stage that converged
with its residual norm at most STAGE_REDUCTION^2 times its starting norm
beat its target tenfold, and the next stage skips a rung (eps falls by
100, not 10). The first stage runs at 0.1 and the last at 1e-8, always.
Newton steps on the direct path (below PCG_MIN_VERTICES) are exact: over
210 cold p = 1.5 solves of the 17-vertex disk the median intermediate
stage contracted its residual by 7e-3, 56 % of them skipped, and the
solves took 1506 Newton steps instead of 1842, with J unchanged within
2e-12 (1 + |J|). A CG step stops at its forcing term (eta <= 0.1): on
the 2561-vertex disk the median was 0.06 and 3 of 26 stages skipped.
Skipping after every one-step stage instead made the CG path factor the
Hessians of large meshes and slowed it. A stage of the ladder that
stalls ends the solve: the rungs after it, from the same iterate, would
stall too.

A warm start (a given ``u_init``, typically the state of a nearby
load) skips the continuation: its first stage runs directly at the last
rung and leaves as soon as Newton stops contracting the residual (see
WARM_WINDOW), the usual local-convergence monitor (Deuflhard, ch. 3).
Only if that stage misses does the ladder run, and then as in a cold
solve: from u = 0, on a cold solve's factor, not from ``u_init``. A far
start thus costs its few warm steps plus one cold solve. Criterion 1's
step load at p = 1.5 (64x10 disk), warm-started from the state of ten
times that load, took 97 Newton steps when the ladder reran from
``u_init`` (60 of them capped at eps = 0.1) and takes 16 this way; a
cold solve takes 13.

A cold solve above p = 2, and every solve at p = 2, is such a warm start
from the ray of the p = 2 solution u2 = (K + M)^{-1} b, one triangular
solve with the kept factor below. The eps = 0 problem is
(p-1)-homogeneous: along s u2 its energy is (s^p / p) A - s b.u2,
A = int |grad u2|^p + |u2|^p, least at s* = (b.u2 / A)^{1/(p-1)}, and
the solve starts at s* u2. At p = 2, A = b.u2 and s* = 1: the start is
the exact discrete solution, whatever ``u_init`` was, and the stage ends
before any Newton step unless rounding keeps the residual above the
tolerance (criterion 1's step load times 1e6 does). If the stage misses, the ladder runs from
u = 0 on the kept factor, exactly as a cold solve without the ray start;
so it does at once for a zero load (b.u2 = 0) or one whose s* u2
overflows. Over 420 cold solves (17- and 641-vertex disks, p from 2.2
to 10, three load scales, ten loads) the ray start took 3719 Newton
steps where the ladder alone took 4773, J agreeing to 4e-11 (1 + |J|);
66 of its stages, all at p >= 6, missed, each costing 3 to 6 steps.
Below p = 2 the ladder stays: there
(|grad u|^2 + eps^2)^{(p-2)/2} blows up where grad u -> 0, and a ray
start missed on most of the optimizer's cold p = 1.5 solves.

Each Newton step is inexact. A sparse LU factorization costs 20 to 30
triangular solves with a kept factor, and a Hessian changes little from
one step to the next, so a solve keeps one LU factor of a Hessian across
all its eps stages and returns it with its state. The factor it starts
with costs the solve nothing. A cold solve starts at u = 0, where the
Hessian is eps^{p-2} (K + M) for every load and p (K the stiffness, M
the quadrature mass matrix), and CG is blind to a scalar factor, so it
begins with the LU of K + M that the space keeps for its mesh
(``P1Space.stiffness_mass_factor``); so does every ray stage, and the
ladder after any missed warm or ray stage. Another warm start from a
``StateField`` at the same p begins with that state's factor, and any
other warm start factors its first Hessian. CG preconditioned by the
kept factor solves each Newton system H d = -r to a relative tolerance
eta chosen by Eisenstat-Walker forcing
terms (choice 2: eta shrinks with the square of the residual reduction,
so the last steps stay quadratic; see Eisenstat & Walker, "Choosing the
forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 17,
1996). When CG misses eta within CG_MAX_ITERS iterations, the current
Hessian is factored afresh, solved directly and kept in place of the old
factor. Below PCG_MIN_VERTICES a factorization is as cheap as a few CG
iterations, and every step of a solve that holds no factor (every solve
there) is a direct ``spsolve``. There the space holds its gradient and quadrature
operators dense (see ``fem``), but the Hessian
stays CSC and the step stays ``spsolve``: a dense Hessian solved by
``np.linalg.solve`` would be cheaper still at that size, but the
benchmark (``perfbench``) traces the direct path through
``solver.spsolve``. The stop test and the line search are the same on
both paths; a direction that is not a finite descent direction (a
singular system gives NaN on either path) ends the stage as "stall".

Every field a solve meets, the start of a stage or a line-search trial
u + alpha d, is evaluated once from its nodal values
(``P1Space.evaluate``). An accepted trial's evaluation and energy are
those of the next iterate, whose residual, Hessian and stop test share
them, so the residual that stops a stage and
``SolveReport.final_residual`` are those of the state returned. I is
evaluated afresh at eps = 0.

The boundary functional J(f) = int f u_f ds equals, at the solution, the
supremum of

    I(u) = (1/(p-1)) { p int f u ds - int |grad u|^p + |u|^p dx },

so |J - I(u_f)| (the duality gap) is a solver-quality diagnostic.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import MatrixRankWarning, splu, spsolve

from .fem import PCG_MIN_VERTICES, P1Space
from .rearrangement import LoadField

__all__ = [
    "SolveConfig",
    "StateField",
    "SolveReport",
    "SolverError",
    "solve",
]

P_MIN, P_MAX = 1.1, 10.0

# Backtracking line search: a step must decrease the energy by ARMIJO
# times its predicted first-order decrease; each rejection scales the
# step by LINE_SEARCH_SHRINK.
ARMIJO = 1e-4
LINE_SEARCH_SHRINK = 0.5

# Continuation: a cold solve runs stages down the rungs of EPS_STAGES,
# from the first to the last (at p = 2 only the last, since there the
# residual does not depend on eps; at and above p = 2 only if the ray
# stage misses), for at most MAX_NEWTON_ITERS Newton steps per stage. A
# stage that converged with its residual norm at most STAGE_REDUCTION^2
# times its starting norm skips the next rung, and a stage that stalls is
# the last (see the module docstring). The stage at
# the last rung runs until the residual norm is at most NEWTON_TOL (the
# default of ``solve``'s tol); every earlier stage only until it is at
# most STAGE_REDUCTION times the norm the stage started from (or tol, if
# that is larger), since the
# next eps moves the residual far above that anyway. On criterion 1's
# step load (64x10 disk) that takes a cold solve from 67/34/23 to
# 42/19/13 Newton steps at p = 1.1/1.3/1.5, with J unchanged to rounding.
EPS_STAGES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
NEWTON_TOL = 1e-10
STAGE_REDUCTION = 0.1
MAX_NEWTON_ITERS = 60

# Warm starts: the first stage runs at EPS_STAGES[-1] and leaves for the
# ladder ("slow") once, after k >= WARM_WINDOW Newton steps, its residual
# norm is above WARM_CONTRACTION times the norm WARM_WINDOW steps earlier.
# On the optimizer's p = 1.5 warm solves (64x10 disk, 5 restarts) 20 of
# 38 warm stages miss: after one step that contracts by 0.55-0.89 they
# stall near 1e-1 with per-step ratios of 0.9-1.1. Leaving there instead
# of after a 12-step budget took those solves from 752 to 600 Newton
# steps, with p = 2 and 3 unchanged; a window of 2 with 0.5 cost p = 5
# more steps (1033 -> 1109 over a sweep of disks, loads and restarts).
WARM_WINDOW, WARM_CONTRACTION = 3, 0.75

# Newton systems (see ``_NewtonSystems``): below PCG_MIN_VERTICES (defined
# in ``fem``, which holds a small mesh's operators dense) every step of a
# solve that holds no factor is a direct ``spsolve``. Otherwise CG
# preconditioned by a kept factor solves each step to the forcing term eta
# (at most ETA_MAX) and refactors when CG_MAX_ITERS iterations do not
# reach it.
ETA_MAX = 0.1
CG_MAX_ITERS = 10


class SolverError(RuntimeError):
    """Newton continuation failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SolveConfig:
    """The exponent p, the one setting of a solve.

    A p outside [1.1, 10] raises ValueError: beyond that range the Hessian
    conditioning makes the plain Newton scheme unreliable at this scale.
    """

    p: float

    def __post_init__(self):
        if not P_MIN <= self.p <= P_MAX:
            raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {self.p}")


@dataclass(frozen=True)
class StateField:
    """Nodal solution coefficients plus the per-cell boundary trace.

    ``factor`` is the LU factor of a Hessian that the solve producing this
    state kept (None on the direct path); a warm start from this state at
    the same p preconditions its first Newton steps with it. It plays no
    part in comparisons."""

    nodal_values: np.ndarray
    boundary_trace: np.ndarray
    p: float
    factor: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("nodal_values", "boundary_trace"):
            # a copy, so the caller's array stays writeable
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass
class SolveReport:
    final_residual: float
    iterations_per_stage: list
    eps_stages: list
    # why each stage stopped: "converged" (the solve's tol at the last rung of
    # EPS_STAGES, the reduction by STAGE_REDUCTION at an earlier one),
    # "cap" (MAX_NEWTON_ITERS steps taken), "stall" (no finite descent
    # direction, or the line search found no acceptable step; the attempted
    # step counts) or, for a warm start's first stage only, "slow"
    # (Newton stopped contracting the residual; see WARM_WINDOW). A warm
    # start whose stage at the last rung missed lists that stage first,
    # then the ladder, run from u = 0; so does a solve whose ray stage,
    # which is such a warm stage, missed. The ladder's rungs fall strictly
    # from the first of EPS_STAGES to the last, unless a stage of it
    # stalls: that stage is the last.
    stage_exits: list
    # always 0: Newton has no fallback; kept while perfbench reads it
    gradient_fallbacks: int = 0
    # sparse LU factorizations and CG iterations, summed over the stages;
    # on the direct path (below PCG_MIN_VERTICES) every Newton step is one
    # factorization. A p = 2 solve starts at its solution and takes no
    # Newton step, so it counts neither. A factor the solve starts with is
    # not counted: neither the mesh's K + M factor, built once per mesh,
    # nor one handed over by a warm start's state
    factorizations: int = 0
    cg_iterations: int = 0
    J: float = 0.0
    I: float = 0.0

    @property
    def duality_gap(self):
        return abs(self.J - self.I)

    @property
    def converged(self):
        """The last stage, at the last rung unless it stalled, met the
        ``tol`` that ``solve`` was given (NEWTON_TOL by default)."""
        return self.stage_exits[-1] == "converged"

    def require_converged(self, what):
        """Raise SolverError naming ``what`` (the solve's role) unless the
        solve converged."""
        if not self.converged:
            raise SolverError(f"{what} stalled at residual {self.final_residual:.3e}")


def _load_vector(mesh, f):
    """Nodal load vector b of f, so that int f u ds = b.u for P1 fields u.

    f is a ``LoadField`` (cellwise constant) or a step function of
    arclength with ``breaks`` and ``values``, such as a load transported
    by a boundary flow, which ``load_vector_from_function`` integrates."""
    space = P1Space.of(mesh)
    if isinstance(f, LoadField):
        if f.n_cells != mesh.n_boundary_cells:
            raise ValueError(
                f"load has {f.n_cells} cells, mesh has {mesh.n_boundary_cells}"
            )
        return space.load_vector(f.cell_values)
    return space.load_vector_from_function(f.breaks, f.values)


def _dual_I(space, u, J, p):
    """I(u) given J = b.u."""
    grad_term, mass_term = space.integrate_lp(u, p)
    return (p * J - grad_term - mass_term) / (p - 1.0)


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

    def __init__(self, n, lu=None):
        self.small = n < PCG_MIN_VERTICES
        self.lu = lu
        self.factorizations = 0
        self.cg_iterations = 0

    def solve(self, H, rhs, rtol):
        if self.lu is None and self.small:
            self.factorizations += 1
            with warnings.catch_warnings():
                # exactly singular: NaN, no direction, as from splu below
                warnings.simplefilter("ignore", MatrixRankWarning)
                return spsolve(H, rhs, permc_spec="MMD_AT_PLUS_A")
        if self.lu is not None:
            x, its = _pcg(H, rhs, self.lu, rtol)
            self.cg_iterations += its
            if x is not None:
                return x
        self.factorizations += 1
        try:
            self.lu = splu(H, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:  # exactly singular: no direction
            self.lu = None
            return np.full_like(rhs, np.nan)
        return self.lu.solve(rhs)


# A non-finite value (an overflowing trial, a singular system) ends in a
# rejected trial or a "stall", which the report states; no warning.
@np.errstate(all="ignore")
def _newton_stage(space, u, b, p, eps, systems, final, warm, tol):
    """Damped inexact Newton at fixed eps for at most MAX_NEWTON_ITERS
    steps, from u; ``systems`` solves each step to the forcing term's
    tolerance. A ``final`` stage stops at the residual norm ``tol``, any
    other at its reduction target (see STAGE_REDUCTION); a non-finite
    starting residual has no reduction target, so such a stage too aims
    at ``tol``. A ``warm`` stage also stops once it no longer contracts
    the residual (see WARM_WINDOW).

    Returns (u, iterations, start_norm, residual_norm, reason), where
    start_norm is the residual norm at the starting u and reason is
    "converged", "cap", "stall" or "slow" (see
    ``SolveReport.stage_exits``)."""
    at = space.evaluate(u, p, eps)
    E = space.energy(u, b, p, eps, at)
    r = space.residual(u, b, p, eps, at)
    rnorm = np.linalg.norm(r)
    rnorms = [rnorm]
    if not final and np.isfinite(rnorm):
        tol = max(tol, STAGE_REDUCTION * rnorm)
    eta = ETA_MAX
    for it in range(MAX_NEWTON_ITERS):
        if rnorm <= tol:
            return u, it, rnorms[0], rnorm, "converged"
        if (warm and it >= WARM_WINDOW
                and rnorm > WARM_CONTRACTION * rnorms[it - WARM_WINDOW]):
            return u, it, rnorms[0], rnorm, "slow"
        H = space.hessian(u, p, eps, at)
        d = systems.solve(H, -r, eta)
        slope = float(r @ d)  # non-finite whenever d is
        if not np.isfinite(slope) or slope >= 0.0:
            # no finite descent direction: no step
            return u, it + 1, rnorms[0], rnorm, "stall"
        alpha = 1.0
        # rounding slack: near the minimum the true energy decrease falls
        # below float resolution while the step is still productive
        slack = 1e-14 * (1.0 + abs(E))
        for _ in range(80):
            u_try = u + alpha * d
            at_try = space.evaluate(u_try, p, eps)
            E_try = space.energy(u_try, b, p, eps, at_try)
            if np.isfinite(E_try) and E_try <= E + ARMIJO * alpha * slope + slack:
                break
            alpha *= LINE_SEARCH_SHRINK
        else:
            # Energy cannot decrease along d within machine steps.
            return u, it + 1, rnorms[0], rnorm, "stall"
        u, at, E = u_try, at_try, E_try
        r = space.residual(u, b, p, eps, at)
        rnorm = np.linalg.norm(r)
        rnorms.append(rnorm)
        # Eisenstat-Walker choice 2 (gamma 0.9, alpha 2). Its safeguard
        # max(eta, 0.9 eta_old^2) applies only while 0.9 eta_old^2 > 0.1,
        # which ETA_MAX = 0.1 rules out.
        eta = min(ETA_MAX, 0.9 * (rnorm / rnorms[-2]) ** 2)
    reason = "converged" if rnorm <= tol else "cap"
    return u, MAX_NEWTON_ITERS, rnorms[0], rnorm, reason


def solve(mesh, f, config: SolveConfig, u_init=None, *, tol=NEWTON_TOL):
    """Solve the Neumann problem with load f.

    f is a ``LoadField`` or a transported load (see ``_load_vector``);
    its load vector is built once per solve.

    Without ``u_init`` the solve starts from u = 0, with the mesh's K + M
    factor, and runs stages down the rungs of EPS_STAGES from the first to
    the last, skipping the rung after a stage that beat its reduction
    target tenfold (at p = 2 the last rung only); a stage that stalls ends
    the solve. ``u_init``, a ``StateField``, makes it a warm start: one
    stage at EPS_STAGES[-1], which leaves as "slow" once its residual
    norm is above WARM_CONTRACTION times the norm WARM_WINDOW Newton
    steps earlier; a state solved at the same p hands over its kept
    factor. Above p = 2 a solve without ``u_init``,
    and at p = 2 every solve, is such a warm start, with a cold solve's
    factor, from the p = 2 solution scaled to its least energy (at p = 2
    the solution itself), or none for a zero or overflowing load (see the
    module docstring). A warm or ray stage that misses is listed
    first, and the ladder then runs as in a cold solve: from u = 0, on
    the mesh's K + M factor (none below PCG_MIN_VERTICES). So a missed
    start costs its own steps plus one cold solve.

    The stage at the last rung stops once the residual norm is at most
    ``tol``; the optimizer passes a looser one for its intermediate
    iterates (see ``optimizer``).

    Returns (StateField, SolveReport). The state carries the factor this
    solve kept; the report carries the functionals J and I and their gap.
    ``converged`` means the last stage met the ``tol`` it was given. On
    non-convergence the partial state is still returned.
    """
    space = P1Space.of(mesh)
    b = _load_vector(mesh, f)
    p = config.p
    # the factor a cold solve starts with: below PCG_MIN_VERTICES a cold
    # solve takes the direct path, which keeps no factor
    cold_factor = space.stiffness_mass_factor() if space.n >= PCG_MIN_VERTICES else None
    start_factor = cold_factor
    u_warm = None
    if u_init is not None:
        u_warm = u_init.nodal_values
        if u_warm.size != mesh.n_vertices:
            raise ValueError(
                f"state has {u_warm.size} values, mesh has {mesh.n_vertices} vertices"
            )
        start_factor = u_init.factor if u_init.p == p else None
    if p == 2.0 or (p > 2.0 and u_warm is None):
        # the ray start: u2 = (K + M)^{-1} b scaled by s, where the eps = 0
        # energy (s^p / p) A - s b.u2 is least (s = 1 at p = 2, where u2
        # solves the problem); none for a zero load or one whose scaled u2
        # overflows
        u_warm, start_factor = None, cold_factor
        u2 = space.stiffness_mass_factor().solve(b)
        with np.errstate(all="ignore"):
            bu = b @ u2
            if bu > 0.0:
                A = np.sum(space.integrate_lp(u2, p))
                u_ray = (bu / A) ** (1.0 / (p - 1.0)) * u2
                if np.all(np.isfinite(u_ray)):
                    u_warm = u_ray
    systems = _NewtonSystems(space.n, start_factor)
    # (eps, iterations, starting residual norm, residual norm, exit) per stage
    stages = []

    def stage(u, eps, warm=False):
        final = eps == EPS_STAGES[-1]
        u, *run = _newton_stage(space, u, b, p, eps, systems, final, warm, tol)
        stages.append((eps, *run))
        return u

    if u_warm is not None:
        u = stage(u_warm, EPS_STAGES[-1], warm=True)
    if u_warm is None or stages[-1][-1] != "converged":
        systems.lu = cold_factor
        u = np.zeros(space.n)
        last = len(EPS_STAGES) - 1
        rung = last if p == 2.0 else 0
        while True:
            u = stage(u, EPS_STAGES[rung])
            _, _, start_norm, rnorm, exit_ = stages[-1]
            if rung == last or exit_ == "stall":
                break
            # a stage that beat its reduction target tenfold skips a rung
            # (so does one that starts and ends at a zero residual)
            overshot = exit_ == "converged" and rnorm <= STAGE_REDUCTION ** 2 * start_norm
            rung = min(last, rung + (2 if overshot else 1))
    eps_list, iters, _, rnorms, exits = (list(c) for c in zip(*stages))
    state = StateField(u, space.trace_average(u), p, systems.lu)
    J = float(b @ u)
    I = _dual_I(space, u, J, p)
    report = SolveReport(
        final_residual=float(rnorms[-1]),
        iterations_per_stage=iters,
        eps_stages=eps_list,
        stage_exits=exits,
        factorizations=systems.factorizations,
        cg_iterations=systems.cg_iterations,
        J=J,
        I=I,
    )
    return state, report

