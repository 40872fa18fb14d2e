"""Uniform space-time grids and the fields living on them.

A Field stores one real value per (time level, space node).  Values are
node-centered cell averages: node x_j represents the cell
[x_j - dx/2, x_j + dx/2], and the field is implicitly zero outside the box
[-R, R].  Cell-average semantics keep masses exact under the kernel smoothing
operators and make restriction from finite-volume references lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import trapezoid_weights


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-R, R] x [0, T] with a slab decomposition of [0, T].

    n_x is the node count, n_t the number of time intervals
    (levels = n_t + 1).  The slab width tau must satisfy N * tau = T for an
    integer N that divides n_t, so slab boundaries land on time levels.
    """

    R: float
    n_x: int
    n_t: int
    T: float
    tau: float

    def __post_init__(self):
        if self.n_x < 2:
            raise ValueError("n_x must be at least 2")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if not (self.R > 0 and self.T > 0 and self.tau > 0):
            raise ValueError("R, T and tau must be positive")
        N = self.T / self.tau
        if abs(N - round(N)) > 1e-9 * max(1.0, N):
            raise ValueError(f"slab width tau={self.tau} does not divide T={self.T}")
        if self.n_t % round(N) != 0:
            raise ValueError(
                f"slab count N={round(N)} must divide the time level count n_t={self.n_t}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.R / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def n_slabs(self) -> int:
        return round(self.T / self.tau)

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
        if abs(k - round(k)) > 1e-8:
            raise ValueError(f"t={t} is not a grid time level")
        k = round(k)
        if not 0 <= k <= self.n_t:
            raise ValueError(f"t={t} outside [0, T]")
        return k

    def nearest_node(self, x: np.ndarray) -> np.ndarray:
        """Nearest-node indices; -1 marks points outside the box."""
        j = np.rint((np.asarray(x) + self.R) / self.dx).astype(int)
        outside = (j < 0) | (j >= self.n_x)
        return np.where(outside, -1, j)


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

    def l1(self, k: int) -> float:
        return float(np.abs(self.values[k]).sum() * self.grid.dx)

    def sup(self) -> float:
        return float(np.abs(self.values).max())

    def slab_l1(self, k_lo: int = 0, k_hi: int | None = None) -> float:
        """Time-integrated spatial L1 norm over levels [k_lo, k_hi] (trapezoid in t)."""
        return slab_l1(self.values[k_lo : (self.grid.n_t if k_hi is None else k_hi) + 1],
                       self.grid.dx, self.grid.dt)

    def lookup(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Pointwise value lookup: left level in time, nearest node in space, 0 outside."""
        times = self.grid.times()
        k = np.searchsorted(times, np.asarray(t) + 1e-12 * self.grid.dt, side="right") - 1
        k = np.clip(k, 0, self.grid.n_t)
        j = self.grid.nearest_node(x)
        out = np.where(j >= 0, self.values[k, np.where(j >= 0, j, 0)], 0.0)
        return out


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
