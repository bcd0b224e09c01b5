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
The Hessian is symmetric positive definite with a symmetric pattern, so
the solver orders its sparse LU by minimum degree on A^T + A
(``MMD_AT_PLUS_A``) rather than by COLAMD, which orders A^T A and gives
more fill for such matrices (Davis, *Direct Methods for Sparse Linear
Systems*, SIAM 2006, ch. 7).
"""

import numpy as np
from scipy import sparse

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
        self.qpoints = np.einsum("qi,tid->tqd", TRI_QP, p)  # (n_t, 3, 2)
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

    def integrate_lp(self, u, p):
        """(integral of |grad u|^p, integral of |u|^p) over the domain."""
        g = self.gradient(u)
        g2 = np.einsum("td,td->t", g, g)
        grad_term = float(self.areas @ g2 ** (p / 2.0))
        uq = self.values_at_qp(u)
        mass_term = float(np.sum(self.qweights * np.abs(uq) ** p))
        return grad_term, mass_term

    def energy(self, u, b, p, eps):
        """(1/p) int (|grad u|^2 + eps^2)^{p/2} + |u|^p dx - b.u"""
        g = self.gradient(u)
        g2 = np.einsum("td,td->t", g, g)
        grad_term = float(self.areas @ (g2 + eps * eps) ** (p / 2.0))
        uq = self.values_at_qp(u)
        mass_term = float(np.sum(self.qweights * np.abs(uq) ** p))
        return (grad_term + mass_term) / p - float(b @ u)

    def residual(self, u, b, p, eps):
        """Gradient of ``energy`` with respect to the nodal values."""
        g = self.gradient(u)
        g2 = np.einsum("td,td->t", g, g)
        s = g2 + eps * eps
        # coef * g -> |g|^{p-1} -> 0 where s = 0, so the zero branch is the
        # correct limit even for p < 2 where the bare power diverges
        with np.errstate(divide="ignore"):
            coef = np.where(s > 0.0, s ** ((p - 2.0) / 2.0), 0.0)
        # (n_t, 3): d/du_i of the gradient part on each triangle
        flux = np.einsum("t,tid,td->ti", self.areas * coef, self.grads, g)
        uq = self.values_at_qp(u)
        # |u|^{p-2} u written as sign(u)|u|^{p-1}, finite at u = 0 for p > 1
        mass = np.sign(uq) * np.abs(uq) ** (p - 1.0) * self.qweights
        local = flux + mass @ TRI_QP
        r = np.bincount(
            self.triangles.ravel(), weights=local.ravel(), minlength=self.n
        )
        return r - b

    def hessian(self, u, p, eps, mass_floor_frac=1e-2):
        """Sparse Hessian of ``energy``; SPD for 1 < p and eps > 0.

        The mass coefficient (p-1)|u|^{p-2} is evaluated with |u| floored
        at max(eps, mass_floor_frac * rms(u)): the exact coefficient blows
        up at u = 0 for p < 2 (stalling Newton with tiny damped steps near
        zero crossings) and vanishes there for p > 2 (making the matrix
        singular at the zero start). The energy and residual are
        untouched, so only the Newton direction is affected; the line
        search on the exact energy keeps the iteration globally
        convergent.
        """
        g = self.gradient(u)
        g2 = np.einsum("td,td->t", g, g)
        s = g2 + eps * eps
        with np.errstate(divide="ignore"):
            c1 = self.areas * np.where(s > 0.0, s ** ((p - 2.0) / 2.0), 0.0)
            c2 = self.areas * (p - 2.0) * np.where(
                s > 0.0, s ** ((p - 4.0) / 2.0), 0.0
            )
        bg = np.einsum("tid,td->ti", self.grads, g)  # (n_t, 3)
        bgbg = (bg[:, :, None] * bg[:, None, :]).reshape(-1, 9)
        uq = self.values_at_qp(u)
        floor = max(eps, mass_floor_frac * float(np.sqrt(np.mean(uq * uq))))
        mc = (uq * uq + floor * floor) ** ((p - 2.0) / 2.0)
        w = (p - 1.0) * self.qweights * mc  # (n_t, 3)
        local = c1[:, None] * self._gg + c2[:, None] * bgbg + w @ self._qq
        data = np.bincount(
            self._csc_map, weights=local.ravel(), minlength=self._csc_indices.size
        )
        return sparse.csc_matrix(
            (data, self._csc_indices, self._csc_indptr), shape=(self.n, self.n)
        )

    def load_vector(self, cell_values):
        """Nodal load vector of a cellwise-constant boundary flux."""
        contrib = 0.5 * np.asarray(cell_values) * self.boundary_weights
        return np.bincount(
            np.concatenate([self.edge_a, self.edge_b]),
            weights=np.concatenate([contrib, contrib]),
            minlength=self.n,
        )

    def load_vector_from_function(self, fun, chart):
        """Nodal load vector of a boundary flux given as a function of
        arclength, integrated exactly cell by cell.

        ``fun`` must expose ``piecewise_on(a, b)`` yielding
        (left, right, value) subintervals of [a, b] on which it is
        constant; step functions transported by a boundary flow do.
        """
        w = self.boundary_weights
        starts = chart.cell_starts
        b = np.zeros(self.n)
        for c in range(self.edge_a.size):
            s0, s1 = starts[c], starts[c + 1]
            acc_a = acc_b = 0.0
            for lo, hi, val in fun.piecewise_on(s0, s1):
                # hat of edge_a falls 1 -> 0 over [s0, s1]; edge_b rises.
                acc_a += val * ((s1 - lo) ** 2 - (s1 - hi) ** 2)
                acc_b += val * ((hi - s0) ** 2 - (lo - s0) ** 2)
            b[self.edge_a[c]] += 0.5 * acc_a / w[c]
            b[self.edge_b[c]] += 0.5 * acc_b / w[c]
        return b

    def trace_average(self, u):
        """Per-cell average of u over each boundary cell; (n_b,)."""
        return 0.5 * (u[self.edge_a] + u[self.edge_b])

    def boundary_gauss_points(self, chart):
        """Arclength positions of the 2-point Gauss nodes of every cell;
        (n_b, 2)."""
        starts = chart.cell_starts
        w = self.boundary_weights
        return starts[:-1, None] + w[:, None] * EDGE_QP[None, :]

    def trace_at_gauss(self, u):
        """u at the boundary Gauss nodes; (n_b, 2)."""
        ua = u[self.edge_a][:, None]
        ub = u[self.edge_b][:, None]
        return ua * (1.0 - EDGE_QP)[None, :] + ub * EDGE_QP[None, :]
