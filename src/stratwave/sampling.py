"""Regular sampling sets, tiles, and the lattice-sum decay certificate.

Lattice members are integer coordinates, so that closure under the group
law and under dyadic dilations is exact: `lat_mul`, `lat_inv` and
`lat_dilate` compute on Python integers, exactly at any magnitude.  For
the Heisenberg preset the center coordinate decodes to an exact
half-integer multiple of beta^2, which keeps the group-law closure
drift-free.  Only the abelian and Heisenberg presets have a lattice law;
other groups are rejected with `DomainError`.  `decode`, `encode`, `points`
and the lattice law take (..., dim) batches under the same contract as the
`groups` operations.

A SamplingSet is its group and beta.  Decoding, the tile [0, s_1) x ... x
[0, s_dim) and the certificate read its `spacing` s (beta, and beta^2/2 on
the Heisenberg center); a JSON tile that is not this one is refused.

Coordinates stored as int64 arrays (coefficient fields, snapshot files)
are bounded by MAX_LATTICE_COORD = 2^53 in absolute value: `decode`
converts them to float64 exactly, and the sum or difference of two never
wraps.  Readers and `generate` refuse larger values.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import groups
from ._json import json_fields
from .groups import DomainError, GroupSpec

__all__ = [
    "AtomIndex",
    "MAX_LATTICE_COORD",
    "lattice_int64",
    "SamplingSet",
    "TilingReport",
    "preset_sampling_set",
    "lattice_coordinates",
    "verify_tiling",
    "column_decay_certificate",
    "sampling_to_json",
    "sampling_from_json",
]


MAX_LATTICE_COORD = 2**53


class AtomIndex(NamedTuple):
    """Wavelet index (dyadic scale, lattice position in integer coordinates)."""

    j: int
    gamma: tuple[int, ...]


@dataclass(frozen=True)
class SamplingSet:
    group: GroupSpec
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise DomainError(f"lattice spacing beta must be positive and finite, got {self.beta}")
        g = self.group
        d1 = g.strata_dims[0]
        if not ((g.kind == "abelian" and g.step == 1) or (
                g.kind == "heisenberg" and g.strata_dims == (d1, 1) and d1 % 2 == 0
                and np.array_equal(g.bracket, groups.heisenberg(d1 // 2).bracket))):
            raise DomainError(
                f"no lattice law for the {g.kind} group with strata {g.strata_dims}: "
                "sampling sets support the abelian and Heisenberg presets only")

    @property
    def spacing(self) -> np.ndarray:
        """Per-coordinate step of the decoded lattice: beta, and beta^2/2 on
        the Heisenberg center."""
        s = np.full(self.group.dim, float(self.beta))
        if self.group.kind == "heisenberg":
            s[-1] = s[-1] * s[-1] / 2.0
        return s

    @property
    def tile(self) -> tuple[tuple[float, float], ...]:
        """The fundamental box [0, s_1) x ... x [0, s_dim) of the spacings."""
        return tuple((0.0, s) for s in self.spacing.tolist())

    # -- integer-lattice arithmetic (exact) --------------------------------

    def lat_mul(self, a, b):
        """Lattice product of (..., dim) integer coordinates; a tuple for one point."""
        a, b = _exact(a), _exact(b)
        out = a + b
        if self.group.kind == "heisenberg":
            d = self.group.strata_dims[0] // 2
            out[..., -1] += np.sum(a[..., :d] * b[..., d:2 * d]
                                   - a[..., d:2 * d] * b[..., :d], axis=-1)
        return _lattice_out(out)

    def lat_inv(self, a):
        return _lattice_out(-_exact(a))

    def lat_dilate(self, a, j):
        """Apply the dyadic dilation delta_{2^j}, j >= 0 a scalar or one per row."""
        j = _exact(j)
        if np.any(j < 0):
            raise ValueError("integer lattice dilation requires j >= 0")
        factor = _exact(2 ** j)
        out = _exact(a) * factor[..., None]
        if self.group.kind == "heisenberg":
            out[..., -1] *= factor
        return _lattice_out(out)

    # -- decode / encode ----------------------------------------------------

    def decode(self, gamma) -> np.ndarray:
        """Lattice coordinates (..., dim) -> group elements (..., dim)."""
        # scalar products: broadcasting the (dim,) spacing row is several times slower
        gamma, s = np.asarray(gamma), self.spacing
        pt = s[0] * gamma.astype(float)
        if self.group.kind == "heisenberg":
            pt[..., -1] = gamma[..., -1] * s[-1]
        return pt

    def encode(self, point, tol: float = 1e-9):
        """Group elements (..., dim) -> int64 lattice coordinates, a tuple for
        one point; raises if off-lattice."""
        point = np.asarray(point, dtype=float)
        raw = point / self.spacing
        ints = np.rint(raw)
        if not np.all(np.abs(raw - ints) <= tol):
            raise ValueError(f"point {point} is not on the sampling lattice")
        return _lattice_out(ints.astype(np.int64))

    def points(self, j, gamma) -> np.ndarray:
        """Positions delta_{2^-j}(decode(gamma)) of (..., dim) lattice
        coordinates, j a scalar or one per row."""
        return groups.dilate(self.group, 2.0 ** (-np.asarray(j, dtype=float)), self.decode(gamma))


def lattice_int64(a) -> np.ndarray:
    """Integer coordinates as int64; DomainError beyond MAX_LATTICE_COORD."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iuO":
        raise ValueError(f"lattice coordinates must be integers, got {a.dtype}")
    if a.size and (a.max() > MAX_LATTICE_COORD or a.min() < -MAX_LATTICE_COORD):
        raise DomainError(f"lattice coordinate beyond the bound {MAX_LATTICE_COORD} = 2^53")
    return a.astype(np.int64)


def _exact(x) -> np.ndarray:
    """Integer coordinates as an array of Python ints, whose arithmetic is exact."""
    return np.array(np.asarray(x).tolist() if isinstance(x, np.ndarray) else x, dtype=object)


def _lattice_out(out: np.ndarray):
    return tuple(out.tolist()) if out.ndim == 1 else out


@dataclass(frozen=True)
class TilingReport:
    max_overlap_fraction: float
    uncovered_fraction: float
    n_samples: int


def preset_sampling_set(g: GroupSpec, density: float) -> SamplingSet:
    """Canonical lattice and tile for the preset groups.

    Abelian(d): (beta Z)^d with tile [0, beta)^d.  Heisenberg(d):
    {(beta a, beta b, beta^2 c / 2)} with tile [0,beta)^{2d} x [0, beta^2/2).
    Both are closed under the group law and under delta_2 exactly.
    """
    return SamplingSet(g, float(density))  # rejects other groups


def lattice_coordinates(gs: SamplingSet, j: int, box) -> np.ndarray:
    """All gamma in Gamma with 2^{-j} . gamma inside the half-open box, as a
    (P, dim) int64 array in lexicographic order."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != gs.group.dim:
        raise ValueError("box dimension mismatch")
    axes = []
    for (lo, hi), h in zip(box, gs.spacing * 2.0 ** (-j * groups.dilation_weights(gs.group))):
        if hi <= lo:
            return np.zeros((0, gs.group.dim), dtype=np.int64)
        axes.append(np.arange(int(np.ceil(lo / h - 1e-12)), int(np.ceil(hi / h - 1e-12)),
                              dtype=np.int64))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


_TILING_ROWS = 1 << 18  # candidate translates per verify_tiling batch


def _covering_counts(gs: SamplingSet, points: np.ndarray, tile) -> np.ndarray:
    """Per point of a (P, dim) batch, the number of translates gamma.W containing it."""
    g = gs.group
    spacing = gs.spacing
    pts = points[:, None, :]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=g.dim)))
    gammas = np.floor(points / spacing).astype(np.int64)[:, None, :] + offsets
    if g.kind == "heisenberg":
        # the group law shifts the needed center coordinate by the cross
        # term of the horizontal candidate, so anchor the center search per
        # horizontal candidate instead of globally
        gammas[..., -1] = 0
        rel_t = groups.multiply(g, groups.inverse(g, gs.decode(gammas)), pts)[..., -1]
        gammas[..., -1] = np.floor(rel_t / spacing[-1]).astype(np.int64) + offsets[:, -1]
    rel = groups.multiply(g, groups.inverse(g, gs.decode(gammas)), pts)
    lo, hi = np.array(tile, dtype=float).T
    return np.sum(np.all((lo <= rel) & (rel < hi), axis=-1), axis=-1)


def verify_tiling(gs: SamplingSet, test_box, grid_res: int = 8, tile=None) -> TilingReport:
    """Grid check that the tile translates cover the box without overlap.

    Report-only: each sample point should lie in exactly one translate.
    A custom tile may be passed to probe failure cases.  Points are checked
    in batches of at most _TILING_ROWS candidate translates.
    """
    if grid_res < 2:
        raise ValueError("grid_res must be >= 2")
    tile = gs.tile if tile is None else tuple(tuple(map(float, t)) for t in tile)
    # rationally independent per-axis offsets keep the sample points off the
    # tile boundaries, which the group law's cross terms would otherwise hit
    axes = []
    for k, (lo, hi) in enumerate(test_box):
        frac = 0.05 + 0.9 * (((k + 1) * np.sqrt(2.0) + np.sqrt(3.0)) % 1.0)
        axes.append(np.linspace(lo, hi, grid_res, endpoint=False)
                    + frac * (hi - lo) / grid_res)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    chunk = max(1, _TILING_ROWS // 3 ** gs.group.dim)
    counts = np.concatenate([_covering_counts(gs, pts[i:i + chunk], tile)
                             for i in range(0, len(pts), chunk)])
    n = len(pts)
    return TilingReport(
        max_overlap_fraction=int(np.sum(counts > 1)) / n,
        uncovered_fraction=int(np.sum(counts == 0)) / n,
        n_samples=n,
    )


@functools.cache
def _unit_ball_volume(kind: str, strata_dims: tuple) -> float:
    """Haar measure of the unit homogeneous ball of a group shape."""
    if kind == "abelian":
        d = sum(strata_dims)
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    # {(v, t) : (|v|^4 + 16 t^2)^(1/4) <= 1} = integral over |v| <= 1 of
    # 2 * sqrt(1 - |v|^4) / 4 dv, reduced to a radial quadrature
    k = strata_dims[0]
    sphere = 2 * math.pi ** (k / 2) / math.gamma(k / 2)
    r = np.linspace(0.0, 1.0, 20001)
    integrand = r ** (k - 1) * np.sqrt(np.clip(1.0 - r**4, 0.0, None)) / 2.0
    return sphere * float(np.trapezoid(integrand, r))


def _shell(center: np.ndarray, r: int) -> np.ndarray:
    """Integer points at sup-distance exactly r from center, shape (n, d).

    The shell is split by the first axis whose offset is +-r: earlier axes
    range over (-r, r), later ones over [-r, r].  That gives
    (2r+1)^d - (2r-1)^d points and builds nothing larger than the shell.
    """
    d = len(center)
    if r == 0:
        return center[None, :]
    inner, full, ends = np.arange(1 - r, r), np.arange(-r, r + 1), np.array([-r, r])
    parts = []
    for k in range(d):
        grid = np.meshgrid(*([inner] * k + [ends] + [full] * (d - k - 1)), indexing="ij")
        parts.append(np.stack([a.ravel() for a in grid], axis=-1))
    return center + np.concatenate(parts)


def column_decay_certificate(
    gs: SamplingSet,
    eta: int,
    j: int,
    n: int,
    x,
    rel_tail: float = 1e-10,
    max_shells: int = 2000,
    return_details: bool = False,
):
    """Certified value of 2^{eta Q} * sum_gamma 2^{-jQ} (1 + 2^eta |2^{-j}.gamma^{-1}.x|)^{-n}.

    Sums integer-lattice shells until a shell contributes less than rel_tail
    of the running total, then adds an integral-comparison tail estimate
    (1/|W|) * 2^{-eta Q} * kappa * Q * int_S R^{Q-1} (1+R)^{-n} dR with S the
    rescaled cut radius.  The result must stay bounded uniformly in (eta, j, x).
    """
    g = gs.group
    Q = g.Q
    if eta > j:
        raise ValueError("requires eta <= j")
    if n <= Q:
        warnings.warn(f"decay exponent n={n} <= Q={Q}: lattice sum may diverge")
    x = np.asarray(x, dtype=float)
    center = np.rint(x / gs.spacing).astype(np.int64)
    total = 0.0
    cut_dist = 0.0
    shells_used = 0
    for r in range(max_shells):
        rel = groups.multiply(g, groups.inverse(g, gs.decode(_shell(center, r))), x)
        dists = groups.hom_norm(g, groups.dilate(g, 2.0 ** (-j), rel))
        contrib = float(np.sum(2.0 ** (-j * Q) / (1.0 + 2.0**eta * dists) ** n))
        total += contrib
        shells_used = r + 1
        cut_dist = float(np.min(dists)) if r > 0 else 0.0
        if r > 2 and contrib < rel_tail * max(total, 1e-300):
            break

    # integral-comparison tail over {|z| >= cut_dist}, expressed after the
    # substitution w = 2^eta z; |W| is the tile volume
    tile_vol = math.prod(gs.spacing.tolist())
    kappa = _unit_ball_volume(g.kind, g.strata_dims)
    S = 2.0**eta * cut_dist
    R = np.geomspace(max(S, 1e-9), max(S, 1e-9) * 1e9, 4000)
    tail_integral = float(np.trapezoid(R ** (Q - 1) * (1.0 + R) ** (-n), R)) if n > Q else np.inf
    tail = (kappa * Q / tile_vol) * 2.0 ** (-eta * Q) * tail_integral

    value = (total + tail) * 2.0 ** (eta * Q)
    if return_details:
        return value, {
            "partial_sum": total * 2.0 ** (eta * Q),
            "tail_estimate": tail * 2.0 ** (eta * Q),
            "shells": shells_used,
            "cut_distance": cut_dist,
        }
    return value


def sampling_to_json(gs: SamplingSet) -> dict:
    return {
        "group": groups.group_to_json(gs.group),
        "beta": gs.beta,
        "tile": [list(t) for t in gs.tile],
    }


_SAMPLING_FIELDS = {"group": ("object",), "beta": ("number",), "tile": ("list of list of number",)}


def sampling_from_json(obj: dict) -> SamplingSet:
    """The sampling set of a JSON object; its tile must be the lattice's."""
    f = json_fields(obj, _SAMPLING_FIELDS, "sampling set")
    gs = SamplingSet(group=groups.group_from_json(f["group"]), beta=f["beta"])
    if f["tile"] != gs.tile:
        raise ValueError(f"the tile must be the lattice's {[list(t) for t in gs.tile]}, "
                         f"one (lo, hi) pair for each of {gs.group.dim} coordinates")
    return gs
