"""Spectral windows for the dyadic Littlewood-Paley calculus.

The wide window pair (phi_hat, psi_hat) realizes the smooth dyadic
partition sum_j psi_hat(4^{-j} xi)^2 = 1 on (0, inf); the narrow window is
a sharp one-block cutoff whose dilates tile the spectrum exactly, giving
orthogonal atoms across scales on the abelian model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "NarrowWindow",
    "build_window",
    "verify_partition",
    "coverage_interval",
]


def _smooth_step(t, sharpness: float):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-c/t) glue between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g0 = np.where(t > 0, np.exp(-sharpness / np.maximum(t, 1e-300)), 0.0)
        g1 = np.where(1 - t > 0, np.exp(-sharpness / np.maximum(1 - t, 1e-300)), 0.0)
    return g0 / (g0 + g1)


NARROW_SUPPORT = (0.25, 1.0)  # the narrow window's band in the spectral variable
EDGE_TOL = 1e-12              # relative distance within which a point is on a band edge


@dataclass(frozen=True)
class Window:
    """Smooth cutoff phi_hat (1 on [0,1/4], 0 beyond 4) and derived psi_hat."""

    sharpness: float

    def phi_hat(self, xi):
        xi = np.asarray(xi, dtype=float)
        pos = xi > 0
        # transition on the log scale over [1/4, 1]: this keeps the derived
        # psi_hat supported in [1/4, 4] and the |j - l| > 1 products exactly 0
        u = (np.log2(np.maximum(xi, 1e-300)) + 2.0) / 2.0
        out = np.where(pos, 1.0 - _smooth_step(u, self.sharpness), 1.0)
        return out

    def psi_hat(self, xi):
        xi = np.asarray(xi, dtype=float)
        diff = self.phi_hat(xi / 4.0) - self.phi_hat(xi)
        # clamp kills -1e-17 round-off so psi_hat stays real
        return np.sqrt(np.maximum(diff, 0.0))


@dataclass(frozen=True)
class NarrowWindow:
    """Sharp one-block window on [1/4, 1] in the spectral variable.

    On the frequency-modulus scale the support is [1/2, 1].  The value is 1
    strictly inside the band and exactly 1/sqrt(2) on the two edges, so the
    squared dilates still sum to 1 everywhere (each edge point is shared by
    exactly two scales with weight 1/2 each) while the trapezoidal edge
    weights make same-scale integer-lattice atoms exactly orthonormal on a
    dyadic frequency grid; residual cross-scale coupling is confined to the
    shared edge frequencies and is O(grid frequency step).
    """

    def psi_hat(self, xi):
        xi = np.asarray(xi, dtype=float)
        lo, hi = NARROW_SUPPORT
        inner = ((xi > lo) & (xi < hi)).astype(float)
        edge = (np.abs(xi - lo) <= EDGE_TOL * lo) | (np.abs(xi - hi) <= EDGE_TOL * hi)
        return np.where(edge, np.sqrt(0.5), inner)


def build_window(sharpness: float = 1.0) -> Window:
    if not 0 < sharpness < np.inf:
        raise ValueError(f"sharpness must be positive and finite, got {sharpness!r}")
    return Window(sharpness=float(sharpness))


def coverage_interval(J: int) -> tuple[float, float]:
    """Spectral interval on which the |j| <= J partial partition sum is exactly 1."""
    return (4.0 ** (-J), 4.0**J)


def verify_partition(w, J: int, grid) -> float:
    """Max deviation of sum_{|j|<=J} psi_hat(4^{-j} xi)^2 from 1 over the grid.

    Grid points outside the covered band are excluded with a warning; a grid
    with no point inside it checks nothing and raises ValueError.
    """
    grid = np.asarray(grid, dtype=float)
    lo, hi = coverage_interval(J)
    inside = (grid >= lo) & (grid <= hi)
    if not np.any(inside):
        raise ValueError(f"no grid point lies in the covered band [{lo:.3g}, {hi:.3g}]")
    if not np.all(inside):
        warnings.warn(
            f"{int(np.sum(~inside))} grid points outside covered band "
            f"[{lo:.3g}, {hi:.3g}] excluded from partition check"
        )
        grid = grid[inside]
    total = np.zeros_like(grid)
    for j in range(-J, J + 1):
        total += w.psi_hat(grid * 4.0 ** (-j)) ** 2
    return float(np.max(np.abs(total - 1.0)))
