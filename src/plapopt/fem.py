"""P1 finite element kernels on DomainMesh triangulations.

Everything here works on raw nodal arrays; the solver module wraps these
kernels behind the load/state field types. Volume quadrature uses the
3-point degree-2 rule (barycentric permutations of (2/3, 1/6, 1/6)),
boundary quadrature uses 2-point Gauss per cell. Gradients of P1 fields
are constant per triangle.

A space is built once per mesh (``P1Space.of``) and kept on the mesh.
The sparsity pattern of the Hessian is fixed by the mesh, so the space
precomputes it in compressed-column form together with the map that
scatters every local element entry into its slot; each Newton step then
only computes the entry values and sums them with one ``bincount``.
The stiffness matrix of ``harmonic_extension`` is summed into the same
pattern.
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


def _power(s, e):
    """s**e where s > 0 and 0 where s = 0, for s >= 0.

    s = |grad u|^2 + eps^2 or u^2 + eps^2 is 0 only where eps = 0 and the
    gradient or the value vanishes. The residual multiplies s**e by that
    vanishing factor, so 0 is the correct limit even where e < 0.
    The masked power is slower than the plain one, so it serves only
    arrays that contain a zero; with eps > 0 none do."""
    if s.min() > 0.0:
        return s ** e
    return np.power(s, e, out=np.zeros_like(s), where=s > 0.0)


class P1Space:
    """Precomputed assembly data for P1 elements on a fixed mesh.

    Build it through ``P1Space.of(mesh)``, which keeps one space per mesh.
    """

    def __init__(self, mesh):
        tri = mesh.triangles
        # The space keeps the mesh's arrays, not the mesh: the mesh holds
        # its cached space (see ``of``), and no reference cycle must keep
        # either alive past the other.
        self.triangles = tri
        self.n = mesh.n_vertices
        self.boundary_weights = mesh.boundary_weights
        self.cell_starts = mesh.cell_starts
        p = mesh.vertices[tri]  # (n_t, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.areas = 0.5 * det  # positive for CCW triangles
        # grads[t, i, :] = gradient of the hat function of local vertex i.
        g = np.empty((tri.shape[0], 3, 2))
        g[:, 1, 0] = d2[:, 1] / det
        g[:, 1, 1] = -d2[:, 0] / det
        g[:, 2, 0] = -d1[:, 1] / det
        g[:, 2, 1] = d1[:, 0] / det
        g[:, 0] = -g[:, 1] - g[:, 2]
        self.grads = g
        self.qweights = self.areas[:, None] * TRI_QW[None, :]

        # Local Hessian entry 3i+j of triangle t couples tri[t, i] (row)
        # and tri[t, j] (column); the pattern is fixed by the mesh.
        self._gg = np.einsum("tid,tjd->tij", g, g).reshape(-1, 9)
        self._qq = (TRI_QP[:, :, None] * TRI_QP[:, None, :]).reshape(3, 9)
        rows = np.repeat(tri, 3, axis=1).ravel().astype(np.int64)
        cols = np.tile(tri, (1, 3)).ravel().astype(np.int64)
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
        """Per-triangle constant gradient of the nodal field u; (n_t, 2)."""
        return np.einsum("ti,tid->td", u[self.triangles], self.grads)

    def values_at_qp(self, u):
        """u at the volume quadrature points; (n_t, 3)."""
        return u[self.triangles] @ TRI_QP.T

    def integrate_lp(self, u, p, eps=0.0):
        """(integral of (|grad u|^2 + eps^2)^{p/2}, integral of
        (u^2 + eps^2)^{p/2}) over the domain; eps = 0 gives the integrals
        of |grad u|^p and |u|^p."""
        e2 = eps * eps
        g = self.gradient(u)
        g2 = np.einsum("td,td->t", g, g)
        grad_term = float(self.areas @ (g2 + e2) ** (p / 2.0))
        uq = self.values_at_qp(u)
        mass_term = float(np.sum(self.qweights * (uq * uq + e2) ** (p / 2.0)))
        return grad_term, mass_term

    def energy(self, u, b, p, eps):
        """(1/p) int (|grad u|^2 + eps^2)^{p/2} + (u^2 + eps^2)^{p/2} dx - b.u"""
        grad_term, mass_term = self.integrate_lp(u, p, eps)
        return (grad_term + mass_term) / p - float(b @ u)

    def residual(self, u, b, p, eps):
        """Gradient of ``energy`` with respect to the nodal values."""
        e2 = eps * eps
        g = self.gradient(u)
        coef = _power(np.einsum("td,td->t", g, g) + e2, (p - 2.0) / 2.0)
        # (n_t, 3): d/du_i of the gradient part on each triangle
        flux = np.einsum("t,tid,td->ti", self.areas * coef, self.grads, g)
        uq = self.values_at_qp(u)
        mass = self.qweights * uq * _power(uq * uq + e2, (p - 2.0) / 2.0)
        local = flux + mass @ TRI_QP
        r = np.bincount(
            self.triangles.ravel(), weights=local.ravel(), minlength=self.n
        )
        return r - b

    def hessian(self, u, p, eps):
        """Sparse Hessian of ``energy``; exact, and SPD for 1 < p and
        eps > 0."""
        e2 = eps * eps
        g = self.gradient(u)
        s = np.einsum("td,td->t", g, g) + e2
        c1 = self.areas * _power(s, (p - 2.0) / 2.0)
        c2 = self.areas * (p - 2.0) * _power(s, (p - 4.0) / 2.0)
        bg = np.einsum("tid,td->ti", self.grads, g)  # (n_t, 3)
        bgbg = (bg[:, :, None] * bg[:, None, :]).reshape(-1, 9)
        uq = self.values_at_qp(u)
        u2 = uq * uq
        # (u^2 + eps^2)^{(p-4)/2} ((p-1) u^2 + eps^2), the derivative of the
        # residual's mass term u (u^2 + eps^2)^{(p-2)/2}
        w = self.qweights * _power(u2 + e2, (p - 4.0) / 2.0) * ((p - 1.0) * u2 + e2)
        local = c1[:, None] * self._gg + c2[:, None] * bgbg + w @ self._qq
        return self._assemble(local)

    def _assemble(self, local):
        """Sum the (n_t, 9) local element matrices into the fixed CSC
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
            K = self._assemble(self.areas[:, None] * self._gg)
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

    def trace_at_gauss(self, u):
        """u at the boundary Gauss nodes; (n_b, 2)."""
        ua = u[self.edge_a][:, None]
        ub = u[self.edge_b][:, None]
        return ua * (1.0 - EDGE_QP)[None, :] + ub * EDGE_QP[None, :]
