"""P1 finite element kernels on DomainMesh triangulations.

Everything here works on raw nodal arrays; the solver module wraps these
kernels behind the load/state field types. Volume quadrature uses the
3-point degree-2 rule (barycentric permutations of (2/3, 1/6, 1/6)),
boundary quadrature uses 2-point Gauss per cell. Gradients of P1 fields
are constant per triangle.

A space is built once per mesh (``P1Space.of``) and kept on the mesh.
It holds two fixed operators: G (2 n_t x n) maps nodal values to the
gradient on every triangle (``gradient``), Q (3 n_t x n) to the values
at every quadrature point. The residual applies their transposes G^T and
Q^T as two products, not as one product by the transpose of the stacked
[G; Q]: that adds the two terms in another order, and the rounding was
enough to move a p = 1.1 solve at load scale 1e3 across NEWTON_TOL.
Below PCG_MIN_VERTICES vertices the operators are dense arrays, because
there a sparse product costs mostly call overhead (G u on the 17-vertex
disk: 1.3 us dense, 3.8 us CSR, single-threaded BLAS); from there on
they are CSR. An ``Evaluation`` of a field u at (p, eps) holds G u and
Q u, s = |grad u|^2 + eps^2, m = u^2 + eps^2 and one power of each,
s^{p/2} and m^{p/2}; energy, residual and Hessian all derive their
coefficients from it. Every field the solver meets, a line-search trial
or the start of a stage, is evaluated once from its nodal values, and an
accepted trial's evaluation serves the next Newton step.

The sparsity pattern of the Hessian is fixed by the mesh, so the space
precomputes it in compressed-column form together with the map that
scatters every local element entry (held as a (9, n_t) array) into its
slot; each Newton step then only computes the entry values and sums
them with one ``bincount``. The space keeps two factors of matrices
summed into the same pattern, each built on first use: the interior
block of the stiffness matrix K, which ``harmonic_extension`` solves
with, and K + M, K plus the quadrature mass matrix M
(``stiffness_mass_factor``). K + M is the Hessian at u = 0 up to the
scalar eps^{p-2}, so the solver preconditions the first Newton steps of
every cold solve with the factor. At p = 2 the Hessian is K + M for
every u, so (K + M)^{-1} b, one triangular solve with the factor, is the
exact discrete solution: every p = 2 solve starts there, and every cold
solve above p = 2 on its ray (see ``solver``).
The Hessian is symmetric positive definite with a symmetric pattern, so
the solver orders its sparse LU (the direct solve of a small system, or
the factor it keeps for a whole solve as CG's preconditioner) by minimum
degree on A^T + A (``MMD_AT_PLUS_A``) rather than by COLAMD, which
orders A^T A and gives more fill for such matrices (Davis, *Direct
Methods for Sparse Linear Systems*, SIAM 2006, ch. 7).
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

# Barycentric coordinates and weights of the degree-2 triangle rule.
TRI_QP = np.array([
    [2 / 3, 1 / 6, 1 / 6],
    [1 / 6, 2 / 3, 1 / 6],
    [1 / 6, 1 / 6, 2 / 3],
])
TRI_QW = np.array([1 / 3, 1 / 3, 1 / 3])

# 2-point Gauss nodes on [0, 1].
EDGE_QP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_QW = np.array([0.5, 0.5])

# A mesh of fewer than PCG_MIN_VERTICES vertices is small: its space holds
# G and Q dense (see the module docstring), and the solver solves each of
# its Newton systems directly, since there a factorization costs no more
# than a few CG iterations. Measured on cold disk solves at p = 1.5 and 3,
# CG took 1.00-1.06x the direct time at 49 vertices, 0.95-1.01x at 61,
# 0.84-0.93x at 81 and 0.62-0.64x at 2561.
PCG_MIN_VERTICES = 64


class Evaluation:
    """A nodal field u evaluated at one (p, eps): its images under the
    space's operators and the powers that energy, residual and Hessian
    share.

    ``grad`` (2, n_t) is G u, the gradient on every triangle; ``uq``
    (3, n_t) is Q u, the value at every quadrature point. With
    s = |grad u|^2 + eps^2 and m = u^2 + eps^2 it holds ``sp`` = s^{p/2}
    and ``mp`` = m^{p/2}, one power per field."""

    __slots__ = ("grad", "uq", "s", "m", "sp", "mp")

    def __init__(self, grad, uq, p, eps):
        e2 = eps * eps
        self.grad, self.uq = grad, uq
        self.s = grad[0] * grad[0] + grad[1] * grad[1] + e2
        self.m = uq * uq + e2
        self.sp = self.s ** (p / 2.0)
        self.mp = self.m ** (p / 2.0)


class P1Space:
    """Precomputed assembly data for P1 elements on a fixed mesh.

    Build it through ``P1Space.of(mesh)``, which keeps one space per mesh.
    """

    def __init__(self, mesh):
        tri = mesh.triangles
        n_t = tri.shape[0]
        # The space keeps the mesh's arrays, not the mesh: the mesh holds
        # its cached space (see ``of``), and no reference cycle must keep
        # either alive past the other.
        self.n = mesh.n_vertices
        self.boundary_weights = mesh.boundary_weights
        self.cell_starts = mesh.cell_starts
        p = mesh.vertices[tri]  # (n_t, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.areas = 0.5 * det  # positive for CCW triangles
        # hat[d, i, t] = d/dx_d of the hat function of local vertex i.
        hat = np.empty((2, 3, n_t))
        hat[0, 1] = d2[:, 1] / det
        hat[1, 1] = -d2[:, 0] / det
        hat[0, 2] = -d1[:, 1] / det
        hat[1, 2] = d1[:, 0] / det
        hat[:, 0] = -hat[:, 1] - hat[:, 2]
        self._hat = hat
        self.qweights = TRI_QW[:, None] * self.areas[None, :]  # (3, n_t)

        # G: row d n_t + t is component d of the gradient on triangle t;
        # Q: row q n_t + t is the value at quadrature point q of triangle
        # t. Every row holds three entries, in the columns of the
        # triangle's vertices.
        def operator(values):
            A = sparse.csr_matrix(
                (values.ravel(), np.tile(tri.ravel(), len(values)).astype(np.intc),
                 np.arange(0, values.size + 1, 3, dtype=np.intc)),
                shape=(values.size // 3, self.n),
            )
            return A.toarray() if self.n < PCG_MIN_VERTICES else A

        self.G = operator(hat.transpose(0, 2, 1))
        self.Q = operator(np.repeat(TRI_QP[:, None, :], n_t, axis=1))
        self._Gt, self._Qt = self.G.T, self.Q.T

        # Local Hessian entry 3i+j of triangle t, stored at [3i+j, t],
        # couples tri[t, i] (row) and tri[t, j] (column); the pattern is
        # fixed by the mesh.
        self._gg = np.einsum("dit,djt->ijt", hat, hat).reshape(9, n_t)
        self._qq = (TRI_QP[:, :, None] * TRI_QP[:, None, :]).reshape(3, 9).T
        rows = np.repeat(tri, 3, axis=1).T.ravel().astype(np.int64)
        cols = np.tile(tri, (1, 3)).T.ravel().astype(np.int64)
        # Sorting by col*n + row gives CSC order; the inverse index maps
        # every local entry to its slot in the CSC data array.
        keys, self._csc_map = np.unique(cols * self.n + rows, return_inverse=True)
        self._csc_indices = (keys % self.n).astype(np.intc)
        self._csc_indptr = np.searchsorted(
            keys, np.arange(self.n + 1, dtype=np.int64) * self.n
        ).astype(np.intc)

        loop = mesh.boundary_loop
        self.edge_a = loop
        self.edge_b = np.roll(loop, -1)
        self._harmonic = None  # see ``harmonic_extension``
        self._stiffness_mass_lu = None  # see ``stiffness_mass_factor``

    @classmethod
    def of(cls, mesh):
        """The space of ``mesh``, built on first use and kept on the mesh
        (so it lives exactly as long as the mesh does)."""
        space = mesh.__dict__.get("_p1space")
        if space is None:
            space = cls(mesh)
            object.__setattr__(mesh, "_p1space", space)
        return space

    def gradient(self, u):
        """G u, the gradient of the nodal field u on every triangle;
        (2, n_t), and (2, n_t, k) for the k columns of a u of shape (n, k)."""
        return (self.G @ u).reshape((2, -1) + np.shape(u)[1:])

    def evaluate(self, u, p, eps):
        """The ``Evaluation`` of the nodal field u at (p, eps)."""
        return Evaluation(self.gradient(u), (self.Q @ u).reshape(3, -1), p, eps)

    def integrate_lp(self, u, p, eps=0.0, at=None):
        """(integral of (|grad u|^2 + eps^2)^{p/2}, integral of
        (u^2 + eps^2)^{p/2}) over the domain; eps = 0 gives the integrals
        of |grad u|^p and |u|^p. ``at`` is u's evaluation at (p, eps),
        if the caller has it."""
        if at is None:
            at = self.evaluate(u, p, eps)
        return float(self.areas @ at.sp), float(np.vdot(self.qweights, at.mp))

    def energy(self, u, b, p, eps, at=None):
        """(1/p) int (|grad u|^2 + eps^2)^{p/2} + (u^2 + eps^2)^{p/2} dx - b.u

        ``at``, here and in ``residual`` and ``hessian``, is u's
        ``Evaluation`` at (p, eps); without it u is evaluated afresh."""
        grad_term, mass_term = self.integrate_lp(u, p, eps, at)
        return (grad_term + mass_term) / p - float(b @ u)

    def residual(self, u, b, p, eps, at=None):
        """Gradient of ``energy`` with respect to the nodal values:
        G^T (areas s^{(p-2)/2} grad u) + Q^T (weights m^{(p-2)/2} u) - b,
        for eps > 0 (every rung of the solver's EPS_STAGES), so s, m > 0."""
        if at is None:
            at = self.evaluate(u, p, eps)
        flux = (self.areas * (at.sp / at.s)) * at.grad
        mass = self.qweights * (at.mp / at.m) * at.uq
        return self._Gt @ flux.ravel() + self._Qt @ mass.ravel() - b

    def hessian(self, u, p, eps, at=None):
        """Sparse Hessian of ``energy`` for eps > 0; exact, and SPD for
        1 < p."""
        if at is None:
            at = self.evaluate(u, p, eps)
        c1 = self.areas * (at.sp / at.s)
        c2 = (p - 2.0) * (c1 / at.s)
        bg = self._hat[0] * at.grad[0] + self._hat[1] * at.grad[1]  # (3, n_t)
        # m^{(p-4)/2} ((p-1) u^2 + eps^2), the derivative of the
        # residual's mass term u m^{(p-2)/2}
        cq = (at.mp / at.m) / at.m
        w = self.qweights * cq * ((p - 1.0) * at.uq * at.uq + eps * eps)
        # local = qq w + c1 gg + c2 (bg bg^T), summed in that order; one
        # (9, n_t) buffer holds each of the last two terms in turn
        local = self._qq @ w
        term = np.multiply(c1, self._gg)
        local += term
        np.multiply(bg[:, None], bg[None, :], out=term.reshape(3, 3, -1))
        term *= c2
        local += term
        return self._assemble(local)

    def _assemble(self, local):
        """Sum the (9, n_t) local element matrices into the fixed CSC
        pattern."""
        data = np.bincount(
            self._csc_map, weights=local.ravel(), minlength=self._csc_indices.size
        )
        return sparse.csc_matrix(
            (data, self._csc_indices, self._csc_indptr), shape=(self.n, self.n)
        )

    def harmonic_extension(self, boundary_values):
        """Discrete harmonic P1 field with the given boundary values.

        ``boundary_values`` holds one row per boundary loop vertex (in
        loop order) and any number of columns; the result holds one row
        per vertex. Interior rows solve K_II x_I = -K_IB x_B with the P1
        stiffness matrix K, so linear fields are reproduced exactly. The
        interior block is factored on first use and kept on the space.
        """
        if self._harmonic is None:
            K = self._assemble(self.areas * self._gg)
            interior = np.setdiff1d(np.arange(self.n), self.edge_a)
            K_I = K[interior]
            lu = splu(K_I[:, interior], permc_spec="MMD_AT_PLUS_A")
            self._harmonic = (interior, K_I[:, self.edge_a], lu)
        interior, K_IB, lu = self._harmonic
        xb = np.asarray(boundary_values, dtype=float)
        x = np.empty((self.n,) + xb.shape[1:])
        x[self.edge_a] = xb
        x[interior] = lu.solve(-(K_IB @ xb))
        return x

    def stiffness_mass_factor(self):
        """The sparse LU factor of K + M, the P1 stiffness matrix plus the
        quadrature mass matrix, factored on first use and kept on the
        space. At u = 0 the Hessian is eps^{p-2} (K + M) for every p and
        eps, and at p = 2 it is K + M for every u."""
        if self._stiffness_mass_lu is None:
            KM = self._assemble(self.areas * self._gg + self._qq @ self.qweights)
            self._stiffness_mass_lu = splu(KM, permc_spec="MMD_AT_PLUS_A")
        return self._stiffness_mass_lu

    def load_vector(self, cell_values):
        """Nodal load vector of a cellwise-constant boundary flux."""
        contrib = 0.5 * np.asarray(cell_values) * self.boundary_weights
        return np.bincount(
            np.concatenate([self.edge_a, self.edge_b]),
            weights=np.concatenate([contrib, contrib]),
            minlength=self.n,
        )

    def load_vector_from_function(self, breaks, values):
        """Exact nodal load vector of the periodic boundary step function
        that is ``values[i]`` on [breaks[i], breaks[i+1]) for ascending
        ``breaks`` in [0, L], L = ``cell_starts[-1]``, the last piece
        wrapping round. The cells cover [0, L] exactly, so each piece of
        the common refinement of breaks and cell starts lies in one cell
        and adds its integrals against the two hats of that cell."""
        starts = self.cell_starts
        cuts = np.union1d(starts, breaks)
        lo, hi = cuts[:-1], cuts[1:]
        c = np.searchsorted(starts, lo, side="right") - 1
        # index -1 is the last piece, which wraps round to the first break
        val = values[np.searchsorted(breaks, 0.5 * (lo + hi), side="right") - 1]
        s0, s1 = starts[c], starts[c + 1]
        scale = 0.5 * val / self.boundary_weights[c]
        # the hat of edge_a falls 1 -> 0 over [s0, s1]; edge_b rises
        acc_a = scale * ((s1 - lo) ** 2 - (s1 - hi) ** 2)
        acc_b = scale * ((hi - s0) ** 2 - (lo - s0) ** 2)
        return np.bincount(
            np.concatenate([self.edge_a[c], self.edge_b[c]]),
            weights=np.concatenate([acc_a, acc_b]),
            minlength=self.n,
        )

    def trace_average(self, u):
        """Per-cell average of u over each boundary cell; (n_b,)."""
        return 0.5 * (u[self.edge_a] + u[self.edge_b])

    def boundary_gauss_points(self):
        """Arclength positions of the 2-point Gauss nodes of every cell;
        (n_b, 2)."""
        w = self.boundary_weights
        return self.cell_starts[:-1, None] + w[:, None] * EDGE_QP[None, :]

    def boundary_integral(self, g):
        """Boundary integral of a function given by its values g (n_b, 2)
        at the Gauss nodes of every cell (2-point Gauss rule)."""
        return float(np.sum(g * EDGE_QW[None, :] * self.boundary_weights[:, None]))

    def trace_at_gauss(self, u):
        """u at the boundary Gauss nodes; (n_b, 2)."""
        ua = u[self.edge_a][:, None]
        ub = u[self.edge_b][:, None]
        return ua * (1.0 - EDGE_QP)[None, :] + ub * EDGE_QP[None, :]
