"""Uniform-grid representation of C^1 functions on [0, T].

A function is stored as node samples of u together with node samples of
its derivative du.  The derivative is always carried explicitly; nothing
in this package differentiates numerically.  All quadrature is composite
trapezoid on the grid nodes, which is exact for affine integrands and
second order for smooth ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_N = 1001


@dataclass(frozen=True)
class Grid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_{n-1} = T."""

    T: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"grid length T must be positive and finite, got {self.T}")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"grid needs at least 2 nodes, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))
        nodes = np.linspace(0.0, self.T, self.n)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        """Node spacing T / (n - 1)."""
        return self.T / (self.n - 1)


def _as_samples(grid: Grid, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class GridFunction:
    """C^1 function on a grid: node values u and node derivative values du.

    Construction checks shape and finiteness only, not that du is the
    derivative of u.  The fixed-point maps build u as the trapezoid
    integral of du; the oracle samples both from its collocation solution.
    """

    grid: Grid
    u: np.ndarray
    du: np.ndarray

    def __post_init__(self) -> None:
        u = _as_samples(self.grid, self.u).copy()
        du = _as_samples(self.grid, self.du).copy()
        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(du)):
            raise ValueError("GridFunction samples must be finite")
        u.setflags(write=False)
        du.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "du", du)


def zero_function(grid: Grid) -> GridFunction:
    z = np.zeros(grid.n)
    return GridFunction(grid, z, z)


def cumulative_integral_from_0(grid: Grid, v: np.ndarray) -> np.ndarray:
    """w(t_i) = integral of v from 0 to t_i, composite trapezoid; w(0) = 0."""
    v = _as_samples(grid, v)
    steps = 0.5 * grid.h * (v[:-1] + v[1:])
    out = np.empty(grid.n)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


def cumulative_integral_to_T(grid: Grid, v: np.ndarray) -> np.ndarray:
    """w(t_i) = -(integral of v from t_i to T); w(T) = 0 exactly."""
    w = cumulative_integral_from_0(grid, v)
    return w - w[-1]


def integral(grid: Grid, v: np.ndarray) -> float:
    """Trapezoid integral of v over [0, T]."""
    v = _as_samples(grid, v)
    return float(0.5 * grid.h * (v[:-1] + v[1:]).sum())


def mean(grid: Grid, v: np.ndarray) -> float:
    """Integral average (1/T) * integral of v."""
    return integral(grid, v) / grid.T


def sup_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


def l1_norm(grid: Grid, v: np.ndarray) -> float:
    return integral(grid, np.abs(_as_samples(grid, v)))

