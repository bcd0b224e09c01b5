"""Boundary loads, their rearrangement class, and the comonotone best
response.

On equal-arclength boundary cells, two piecewise-constant loads are
rearrangements of each other exactly when their cell values are
permutations of each other. The best response to a boundary trace sorts
the stored values onto the cells in trace order, which maximizes the
pairing sum by the rearrangement inequality.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LoadField",
    "RearrangementClass",
    "distribution",
    "same_class",
    "best_response",
    "linear_functional_L",
    "comonotonicity_defect",
    "step_load",
    "binary_load",
    "random_step_load",
]

TIE_TOL = 1e-12


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LoadField:
    """Piecewise-constant boundary load: one value per boundary cell.

    weights are the cell arclengths (equal by the mesh contract).
    """

    cell_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cell_values", _freeze(self.cell_values))
        object.__setattr__(self, "weights", _freeze(self.weights))
        if self.cell_values.shape != self.weights.shape:
            raise ValueError("cell_values and weights must have equal length")
        if not np.all(np.isfinite(self.cell_values)):
            raise ValueError("load values must be finite")

    @property
    def n_cells(self):
        return self.cell_values.size

    @classmethod
    def from_values(cls, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.size != mesh.n_boundary_cells:
            raise ValueError(
                f"expected {mesh.n_boundary_cells} cell values, got {values.size}"
            )
        return cls(values, mesh.boundary_weights)

    @classmethod
    def constant(cls, mesh, value):
        return cls.from_values(mesh, np.full(mesh.n_boundary_cells, float(value)))


@dataclass(frozen=True)
class RearrangementClass:
    """Sorted value multiset of a reference load on equal-weight cells."""

    sorted_values: np.ndarray
    common_weight: float

    def __post_init__(self):
        object.__setattr__(self, "sorted_values", _freeze(self.sorted_values))

    @property
    def size(self):
        return self.sorted_values.size

    @classmethod
    def from_load(cls, f: LoadField):
        w = f.weights
        if w.size and not np.allclose(w, w[0], rtol=1e-12, atol=0.0):
            raise ValueError("rearrangement class requires equal cell weights")
        return cls(np.sort(f.cell_values), float(w[0]))


def distribution(f: LoadField):
    """Ascending sort of the cell values (the discrete distribution)."""
    return np.sort(f.cell_values)


def same_class(f: LoadField, g: LoadField, tol=0.0):
    """True iff f and g are rearrangements of each other within tol."""
    if f.n_cells != g.n_cells:
        raise ValueError("loads live on different meshes")
    return bool(np.all(np.abs(distribution(f) - distribution(g)) <= tol))


def best_response(rclass: RearrangementClass, trace):
    """The class member maximizing sum_c f_c * trace_c * w_c.

    Cells are ranked by trace value (ties broken by cell index, stable)
    and receive the class values in the same ascending order. The result
    is comonotone with the trace by construction.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.size != rclass.size:
        raise ValueError(
            f"trace length {trace.size} != class size {rclass.size}"
        )
    order = np.argsort(trace, kind="stable")
    values = np.empty(rclass.size)
    values[order] = rclass.sorted_values
    return LoadField(values, np.full(rclass.size, rclass.common_weight))


def linear_functional_L(f: LoadField, trace):
    """sum_c f_c * trace_c * w_c (same quadrature as the J functional)."""
    trace = np.asarray(trace, dtype=float)
    if trace.size != f.n_cells:
        raise ValueError("trace length does not match load")
    return float(np.sum(f.cell_values * trace * f.weights))


def comonotonicity_defect(f: LoadField, trace):
    """Fraction of cell pairs ordered oppositely by load and trace.

    Zero iff some nondecreasing map sends trace values to load values
    (up to ties within TIE_TOL). Pairs counted: trace_i < trace_j - TIE_TOL
    while f_i > f_j + TIE_TOL, over all n(n-1)/2 pairs.
    """
    trace = np.asarray(trace, dtype=float)
    vals = f.cell_values
    n = vals.size
    if trace.size != n:
        raise ValueError("trace length does not match load")
    t_less = trace[:, None] < trace[None, :] - TIE_TOL
    f_more = vals[:, None] > vals[None, :] + TIE_TOL
    bad = int(np.count_nonzero(t_less & f_more))
    return bad / (n * (n - 1) / 2)


def step_load(mesh, levels, proportions=None):
    """Piecewise-constant load taking each level on a contiguous arc.

    proportions (summing to 1) give the arc fractions; equal by default.
    Cell counts are rounded, the last block absorbs the remainder.
    """
    n = mesh.n_boundary_cells
    levels = np.asarray(levels, dtype=float)
    k = levels.size
    if proportions is None:
        proportions = np.full(k, 1.0 / k)
    proportions = np.asarray(proportions, dtype=float)
    counts = np.floor(proportions / proportions.sum() * n).astype(int)
    counts[-1] = n - counts[:-1].sum()
    if np.any(counts <= 0):
        raise ValueError("step load needs at least one cell per level")
    values = np.repeat(levels, counts)
    return LoadField.from_values(mesh, values)


def binary_load(mesh, n_ones, start=0):
    """Indicator of a contiguous block of n_ones cells starting at ``start``."""
    n = mesh.n_boundary_cells
    if not 0 < n_ones < n:
        raise ValueError(f"n_ones must be in (0, {n}), got {n_ones}")
    values = np.zeros(n)
    idx = (start + np.arange(n_ones)) % n
    values[idx] = 1.0
    return LoadField.from_values(mesh, values)


def random_step_load(mesh, rng, n_levels=3, low=-1.0, high=1.0):
    """Random step load: n_levels random values on random contiguous arcs."""
    n = mesh.n_boundary_cells
    levels = rng.uniform(low, high, size=n_levels)
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_levels - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    values = np.empty(n)
    for i in range(n_levels):
        values[bounds[i]:bounds[i + 1]] = levels[i]
    shift = int(rng.integers(n))
    return LoadField.from_values(mesh, np.roll(values, shift))
