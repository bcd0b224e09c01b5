"""Boundary loads as cell values, and the comonotone best response.

A load is one value per boundary cell; the mesh holds the cells and their
arclengths. On equal-arclength cells (``geometry.unequal_cell`` states
the rule), two piecewise-constant loads are rearrangements of each other
exactly when their cell values are permutations of each other. The best
response to a boundary trace sorts a load's values onto the cells in
trace order, which maximizes the pairing sum by the rearrangement
inequality.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LoadField",
    "best_response",
    "comonotonicity_defect",
    "step_load",
    "binary_load",
    "random_step_load",
]

TIE_TOL = 1e-12


@dataclass(frozen=True)
class LoadField:
    """Piecewise-constant boundary load: one value per boundary cell."""

    cell_values: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array stays writeable
        values = np.array(self.cell_values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"cell values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("load values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "cell_values", values)

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
        return cls(values)

    @classmethod
    def constant(cls, mesh, value):
        return cls.from_values(mesh, np.full(mesh.n_boundary_cells, float(value)))


def best_response(f: LoadField, trace):
    """The rearrangement of f maximizing the pairing sum
    sum_c f_c * trace_c.

    Cells are ranked by trace value (ties broken by cell index, stable)
    and receive f's values in the same ascending order. The result is
    comonotone with the trace by construction.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.size != f.n_cells:
        raise ValueError(f"trace length {trace.size} != load size {f.n_cells}")
    values = np.empty(f.n_cells)
    values[np.argsort(trace, kind="stable")] = np.sort(f.cell_values)
    return LoadField(values)


def comonotonicity_defect(f: LoadField, trace):
    """Fraction of cell pairs ordered oppositely by load and trace.

    Zero iff some nondecreasing map sends trace values to load values
    (up to ties within TIE_TOL). Pairs counted: trace_i < trace_j - TIE_TOL
    while f_i > f_j + TIE_TOL, over all n(n-1)/2 pairs; a load of fewer
    than two cells has no pairs and defect 0.0.
    """
    trace = np.asarray(trace, dtype=float)
    vals = f.cell_values
    n = vals.size
    if trace.size != n:
        raise ValueError("trace length does not match load")
    if n < 2:
        return 0.0
    t_less = trace[:, None] < trace[None, :] - TIE_TOL
    f_more = vals[:, None] > vals[None, :] + TIE_TOL
    bad = int(np.count_nonzero(t_less & f_more))
    return bad / (n * (n - 1) / 2)


def step_load(mesh, levels):
    """Piecewise-constant load taking each level on a contiguous arc of
    equal share: n // k of the n cells per level, the last block absorbing
    the remainder.
    """
    n = mesh.n_boundary_cells
    levels = np.asarray(levels, dtype=float)
    k = levels.size
    if k == 0:
        raise ValueError("step load needs at least one level")
    if n < k:
        raise ValueError("step load needs at least one cell per level")
    counts = np.full(k, n // k)
    counts[-1] += n % k
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


def random_step_load(mesh, rng):
    """Random step load: 3 values uniform on [-1, 1) on random contiguous
    arcs, rotated by a random shift."""
    n = mesh.n_boundary_cells
    levels = rng.uniform(-1.0, 1.0, size=3)
    cuts = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    values = np.empty(n)
    for i in range(3):
        values[bounds[i]:bounds[i + 1]] = levels[i]
    shift = int(rng.integers(n))
    return LoadField.from_values(mesh, np.roll(values, shift))
