"""Uniform space-time grids and the fields living on them.

A Field stores one real value per (time level, space node).  Values are
node-centered cell averages: node x_j represents the cell
[x_j - dx/2, x_j + dx/2], and the field is implicitly zero outside the box
[-R, R].  Cell-average semantics keep masses exact under the kernel smoothing
operators, and restriction from a finite-volume reference, whose sub-cells
tile the cells, is a plain mean and so lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import trapezoid_weights


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-R, R] x [0, T] cut into n_slabs equal slabs.

    n_x is the node count, n_t the number of time intervals
    (levels = n_t + 1).  n_slabs must divide n_t, so slab boundaries land on
    time levels.
    """

    R: float
    n_x: int
    n_t: int
    T: float
    n_slabs: int = 1

    def __post_init__(self):
        if self.n_x < 2:
            raise ValueError("n_x must be at least 2")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if self.n_slabs < 1:
            raise ValueError("n_slabs must be at least 1")
        if not (self.R > 0 and self.T > 0):
            raise ValueError("R and T must be positive")
        if self.n_t % self.n_slabs != 0:
            raise ValueError(
                f"slab count N={self.n_slabs} must divide the time level count n_t={self.n_t}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.R / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def tau(self) -> float:
        return self.T / self.n_slabs

    @property
    def levels_per_slab(self) -> int:
        return self.n_t // self.n_slabs

    def x_nodes(self) -> np.ndarray:
        return np.linspace(-self.R, self.R, self.n_x)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)

    def time_index(self, t: float) -> int:
        """Index of the exact time level t; rejects off-level times."""
        k = t / self.dt
        if not np.isfinite(k):
            raise ValueError(f"t={t} outside [0, T]")
        if abs(k - round(k)) > 1e-8:
            raise ValueError(f"t={t} is not a grid time level")
        k = round(k)
        if not 0 <= k <= self.n_t:
            raise ValueError(f"t={t} outside [0, T]")
        return k

    def nearest_node(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Nearest-node indices of an array of points; -1 marks points outside the box.

        out, an int64 array of x's shape, receives the indices (a new one when
        not given).  The positions are rounded in its memory viewed as float64,
        so no other array of x's size is made.
        """
        if out is None:
            out = np.empty(np.shape(x), np.int64)
        pos = out.view(np.float64)
        np.add(x, self.R, out=pos)
        pos /= self.dx
        np.rint(pos, out=pos)
        np.copyto(out, pos, casting="unsafe")  # element by element, in place
        out[out.view(np.uint64) >= self.n_x] = -1  # negative indices view as huge unsigned ones
        return out


@dataclass
class Field:
    """Real-valued function carried on a GridSpec as cell averages."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_t + 1, self.grid.n_x)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros((grid.n_t + 1, grid.n_x)))

    def mass(self, k: int) -> float:
        """Integral over the box at time level k (exact for cell averages)."""
        return float(self.values[k].sum() * self.grid.dx)

    def lookup(self, k: int, x: np.ndarray, out: np.ndarray | None = None,
               index: np.ndarray | None = None) -> np.ndarray:
        """Pointwise values at time level k and points x: nearest node, 0 outside.

        out (float64) receives the values and index (int64) the nodes, both of
        x's shape; either is made new when not given.
        """
        row = np.empty(self.grid.n_x + 1)  # the level's values behind one zero for outside
        row[0] = 0.0
        row[1:] = self.values[k]
        j = self.grid.nearest_node(x, out=index)
        j += 1
        return row.take(j, out=out, mode="clip")  # j is in range; "raise" would buffer out


def slab_l1(values: np.ndarray, dx: float, dt: float) -> float:
    """Trapezoid-in-time, exact-in-space L1 norm of a (levels, nodes) block."""
    per_time = np.abs(values).sum(axis=1) * dx
    if per_time.size == 1:
        return float(per_time[0] * dt)
    return float(np.dot(trapezoid_weights(per_time.size, dt), per_time))


def cell_means_from_cdf(cdf, grid: GridSpec) -> np.ndarray:
    """Exact cell averages of a density given its CDF."""
    edges = np.concatenate((grid.x_nodes() - 0.5 * grid.dx, [grid.R + 0.5 * grid.dx]))
    c = cdf(edges)
    return np.diff(c) / grid.dx
