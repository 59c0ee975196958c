"""Regular sampling sets, tiles, and the lattice-sum decay certificate.

A step-1 group, or a step-2 group whose bracket B has integer entries, has
the lattice Gamma_beta = {(beta a, (beta^2/2) c)} of integer coordinates
(a, c), closed under the law (a, c).(a', c') = (a + a', c + c' + B(a, a'))
and under delta_2, which doubles a and quadruples c.  `lat_mul`, `lat_inv`
and `lat_dilate` compute on int64, whose arithmetic wraps modulo 2^64, and
are exact: every input and output coordinate lies strictly within +-2^62,
or DomainError is raised.  A product's cross term is `groups._cross`, the
bracket-row sum of `groups.multiply`; its single products may wrap, and the
same expression in float64, F, with err = 2 gamma_n sum |terms|, n = 2 d1 + 8
(Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
certifies the wrapped value when |F| + err < 2^62.  A dilation is refused
from its exponents, before it multiplies, unless |a| 2^(j w) < 2^62 for
every coordinate of weight w.  A bracket that is not integer, or has an
entry of 2^62 or more, is refused with `DomainError`.  `decode`, `encode`,
`points` and the lattice law take (..., dim) batches under the same
contract as the `groups` operations.

A SamplingSet is its group and beta.  Decoding, the tile [0, s_1) x ... x
[0, s_dim) and the certificate read its `spacing` s (beta on the first
stratum, beta^2/2 on the second); a JSON tile that is not this one is refused.

Coordinates stored as int64 arrays (coefficient fields, snapshot files)
are bounded by MAX_LATTICE_COORD = 2^53 in absolute value: `decode`
converts them to float64 exactly, and the sum or difference of two never
wraps.  Readers and `generate` refuse larger values.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import groups
from ._json import json_fields
from .groups import DomainError, GroupSpec

__all__ = [
    "AtomIndex",
    "MAX_ARRAY_BYTES",
    "MAX_LATTICE_COORD",
    "lattice_int64",
    "SamplingSet",
    "TilingReport",
    "preset_sampling_set",
    "lattice_coordinates",
    "lattice_ranges",
    "scale_ranges",
    "range_coordinates",
    "verify_tiling",
    "column_decay_certificate",
    "sampling_to_json",
    "sampling_from_json",
]


MAX_LATTICE_COORD = 2**53
_LAW_BOUND = 2**62  # the int64 lattice law's range, exclusive
# the one budget, 256 MiB, for large arrays: a scale's lattice here, and the
# kernel sets and refined FFT grids of `transform`
MAX_ARRAY_BYTES = 1 << 28


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
        object.__setattr__(self, "beta", float(self.beta))
        g, d1 = self.group, self.group.strata_dims[0]
        b = np.zeros((0, d1, d1)) if g.bracket is None else g.bracket
        if not (np.array_equal(b, np.rint(b)) and np.all(np.abs(b) < _LAW_BOUND)):
            raise DomainError(f"no lattice law for the group with strata {g.strata_dims}: "
                              "its bracket has non-integer entries or entries of 2^62 or more")
        # the bracket as int64, as float64 and in absolute value, the dilation
        # weights as int64, and the certificate's 2 gamma_n, unit roundoff u = 2^-53
        nu = (2 * d1 + 8) * 2.0**-53
        object.__setattr__(self, "_law", (
            b.astype(np.int64), b, np.abs(b), groups.dilation_weights(g).astype(np.int64),
            2.0 * nu / (1.0 - nu)))
        s = np.where(np.arange(g.dim) < d1, self.beta, self.beta * self.beta / 2.0)
        s.setflags(write=False)
        object.__setattr__(self, "_spacing", s)

    @property
    def spacing(self) -> np.ndarray:
        """Read-only per-coordinate step of the decoded lattice: beta on V1, beta^2/2 on V2."""
        return self._spacing

    @property
    def tile(self) -> tuple[tuple[float, float], ...]:
        """The fundamental box [0, s_1) x ... x [0, s_dim) of the spacings."""
        return tuple((0.0, s) for s in self.spacing.tolist())

    # -- integer-lattice arithmetic (int64, exact within +-2^62) -------------

    def lat_mul(self, a, b):
        """Lattice product of (..., dim) integer coordinates; a tuple for one point."""
        a, b = _law_int64(a), _law_int64(b)
        bracket, fbracket, abs_bracket, _, err = self._law
        fa, fb = a.astype(float), b.astype(float)
        out, f, terms = a + b, fa + fb, np.abs(fa) + np.abs(fb)
        if self.group.step == 2:
            d1 = self.group.strata_dims[0]
            out[..., d1:] += groups._cross(bracket, a[..., :d1], b[..., :d1])
            f[..., d1:] += groups._cross(fbracket, fa[..., :d1], fb[..., :d1])
            terms[..., d1:] += groups._cross(abs_bracket, abs(fa[..., :d1]), abs(fb[..., :d1]))
        if not (np.abs(f) + err * terms < _LAW_BOUND).all():
            raise DomainError("a lattice product leaves the range +-2^62 of the int64 law")
        return _lattice_out(out)

    def lat_inv(self, a):
        return _lattice_out(-_law_int64(a))

    def lat_dilate(self, a, j):
        """Apply the dyadic dilation delta_{2^j}, j >= 0 a scalar or one per row."""
        a, j = _law_int64(a), _law_int64(j)
        if np.any(j < 0):
            raise ValueError("integer lattice dilation requires j >= 0")
        # 2^min(j w, 62) is exact, and |a| < 2^(62 - j w) is |a| 2^(j w) < 2^62
        shift = np.minimum(j[..., None] * self._law[3], 62)
        lim = np.left_shift(1, 62 - shift)
        if not ((a < lim) & (a > -lim)).all():
            raise DomainError("a lattice dilation leaves the range +-2^62 of the int64 law")
        return _lattice_out(a * np.left_shift(1, shift))

    # -- decode / encode ----------------------------------------------------

    def decode(self, gamma) -> np.ndarray:
        """Lattice coordinates (..., dim) -> group elements (..., dim)."""
        # scalar products: broadcasting the (dim,) spacing row is several times slower
        gamma, s, d1 = np.asarray(gamma), self.spacing, self.group.strata_dims[0]
        pt = s[0] * gamma.astype(float)
        pt[..., d1:] = gamma[..., d1:] * s[-1]
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
    return _int64(a, MAX_LATTICE_COORD,
                  f"lattice coordinate beyond the bound {MAX_LATTICE_COORD} = 2^53")


def _law_int64(a) -> np.ndarray:
    """Integers as int64 for the lattice law; DomainError unless strictly within +-2^62."""
    return _int64(a, _LAW_BOUND - 1, "a lattice coordinate or scale lies outside the range "
                                     "+-2^62 of the int64 law")


def _int64(a, bound: int, refusal: str) -> np.ndarray:
    """Integers as int64 (Python ints beyond int64 arrive as an object array);
    ValueError for other numbers, DomainError(refusal) beyond +-bound."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iuO":
        raise ValueError(f"lattice coordinates must be integers, got {a.dtype}")
    if a.size and (a.max() > bound or a.min() < -bound):
        raise DomainError(refusal)
    return a.astype(np.int64, copy=False)


def _lattice_out(out: np.ndarray):
    return tuple(out.tolist()) if out.ndim == 1 else out


@dataclass(frozen=True)
class TilingReport:
    max_overlap_fraction: float
    uncovered_fraction: float
    n_samples: int


def preset_sampling_set(g: GroupSpec, density: float) -> SamplingSet:
    """`SamplingSet(g, density)`, a public alias that no module here calls."""
    return SamplingSet(g, density)


def lattice_coordinates(gs: SamplingSet, j: int, box) -> np.ndarray:
    """All gamma in Gamma with 2^{-j} . gamma inside the half-open box, as a
    (P, dim) int64 array in lexicographic order; DomainError, before any is
    built, when the P points would exceed MAX_ARRAY_BYTES."""
    return range_coordinates(lattice_ranges(gs, j, box))


def range_coordinates(ranges) -> np.ndarray:
    """The product of per-coordinate integer ranges [a, b) as a (P, dim)
    int64 array in lexicographic order."""
    axes = [np.arange(a, b, dtype=np.int64) for a, b in ranges]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_ranges(gs: SamplingSet, j: int, box) -> list[tuple[int, int]]:
    """The per-coordinate integer ranges [a, b) whose product is
    `lattice_coordinates(gs, j, box)`, with its checks and budget; builds
    nothing.  It is `scale_ranges` for the one scale j."""
    return scale_ranges(gs, [j], box)[0]


def scale_ranges(gs: SamplingSet, js, box) -> list[list[tuple[int, int]]]:
    """`lattice_ranges(gs, j, box)` for each scale j of js, from one array pass.

    The scales are checked finest (largest j) first, each for a non-finite
    step or point count and then for the budget, so the first refusal is the
    one that per-scale calls from the finest down would raise."""
    box = np.array([(float(lo), float(hi)) for lo, hi in box]).reshape(-1, 2)
    d = gs.group.dim
    if len(box) != d:
        raise ValueError("box dimension mismatch")
    if np.any(box[:, 1] <= box[:, 0]):
        return [[(0, 0)] * d for _ in js]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exps = -np.array(js, dtype=float)[:, None] * groups.dilation_weights(gs.group)
        steps = gs.spacing * 2.0 ** exps
        ends = np.ceil(box / steps[:, :, None] - 1e-12)
    finite = np.isfinite(steps).all(axis=1) & np.isfinite(ends).all(axis=(1, 2))
    out = [None] * len(js)
    # rows are read one scale at a time, so a refusal among many scales lists none of them
    for i in np.argsort(-np.asarray(js), kind="stable"):
        j = js[i]
        if not finite[i]:
            raise DomainError(f"the scale-{j} lattice in the box {box.tolist()} has no finite "
                              "float64 step or point count")
        out[i] = [(int(a), int(b)) for a, b in ends[i].tolist()]
        count = math.prod(max(b - a, 0) for a, b in out[i])
        if 8 * d * count > MAX_ARRAY_BYTES:
            raise DomainError(f"{count} lattice points at scale {j} need {8 * d * count} B, "
                              f"over the {MAX_ARRAY_BYTES} B budget")
    return out


_TILING_ROWS = 1 << 18  # candidate translates per verify_tiling batch


@functools.lru_cache(maxsize=16)
def _tiling_offsets(d: int) -> np.ndarray:
    """The read-only 3^d candidate offsets {-1, 0, 1}^d, in lexicographic order."""
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d)))
    offsets.setflags(write=False)
    return offsets


def _covering_counts(gs: SamplingSet, points: np.ndarray, tile) -> np.ndarray:
    """Per point of a (P, dim) batch, the number of translates gamma.W of the
    (dim, 2) tile W containing it."""
    g = gs.group
    spacing, d1 = gs.spacing, g.strata_dims[0]
    pts = points[:, None, :]
    offsets = _tiling_offsets(g.dim)
    gammas = np.floor(points / spacing).astype(np.int64)[:, None, :] + offsets
    # the group law shifts the needed second-stratum coordinates by the
    # cross term of the first-stratum candidate, so anchor them per
    # first-stratum candidate instead of globally
    gammas[..., d1:] = 0
    rel_t = groups.multiply(g, groups.inverse(g, gs.decode(gammas)), pts)[..., d1:]
    gammas[..., d1:] = np.floor(rel_t / spacing[d1:]).astype(np.int64) + offsets[:, d1:]
    rel = groups.multiply(g, groups.inverse(g, gs.decode(gammas)), pts)
    inside = ((tile[:, 0] <= rel) & (rel < tile[:, 1])).all(axis=-1)
    return inside.sum(axis=-1)


def _intervals(value, d: int, name: str) -> np.ndarray:
    """value as a (d, 2) float array of finite (lo, hi) intervals, one per
    coordinate of the group; ValueError otherwise."""
    box = np.array(value, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"{name} must be a list of (lo, hi) intervals, got shape {box.shape}")
    if len(box) != d:
        raise ValueError(f"{name} has {len(box)} intervals for the {d} coordinates of the group")
    if not np.isfinite(box).all():
        raise ValueError(f"{name} edges must be finite, got {box.tolist()}")
    return box


def verify_tiling(gs: SamplingSet, test_box, grid_res: int = 8, tile=None) -> TilingReport:
    """Grid check that the tile translates cover the box without overlap.

    Report-only: each sample point should lie in exactly one translate.
    A custom tile may be passed to probe failure cases.  The grid_res^dim
    sample points are `np.indices` of the grid, in C order, times the per-axis
    widths (hi - lo) / grid_res, plus lo, plus a per-axis offset of a fixed
    irrational fraction of the width: the bits of a meshgrid of shifted
    `np.linspace(lo, hi, grid_res, endpoint=False)` axes.  Points are checked
    in batches of at most _TILING_ROWS candidate translates, each coordinate
    against the half-open tile [lo, hi) in one comparison.  test_box and
    tile are each one finite (lo, hi) interval per coordinate and grid_res an
    integer >= 2, or ValueError is raised; the grid_res^dim sample points, as
    float64 coordinates, must fit MAX_ARRAY_BYTES, or DomainError is raised
    before any is built.
    """
    d = gs.group.dim
    if isinstance(grid_res, bool) or not isinstance(grid_res, (int, np.integer)):
        raise ValueError(f"grid_res must be an integer, got {grid_res!r}")
    if grid_res < 2:
        raise ValueError("grid_res must be >= 2")
    box = _intervals(test_box, d, "test_box")
    tile = _intervals(gs.tile if tile is None else tile, d, "tile")
    n = int(grid_res) ** d
    if 8 * d * n > MAX_ARRAY_BYTES:
        raise DomainError(f"{n} tiling sample points need {8 * d * n} B, "
                          f"over the {MAX_ARRAY_BYTES} B budget")
    # rationally independent per-axis offsets keep the sample points off the
    # tile boundaries, which the group law's cross terms would otherwise hit
    lo, length = box[:, 0], box[:, 1] - box[:, 0]
    frac = 0.05 + 0.9 * ((np.arange(1, d + 1) * np.sqrt(2.0) + np.sqrt(3.0)) % 1.0)
    # point i is i * width + lo + offset, coordinate by coordinate, in C order of i
    pts = (np.indices((grid_res,) * d).reshape(d, n).T * (length / grid_res) + lo
           + frac * length / grid_res)
    chunk = max(1, _TILING_ROWS // 3 ** d)
    counts = np.concatenate([_covering_counts(gs, pts[i:i + chunk], tile)
                             for i in range(0, n, chunk)])
    return TilingReport(
        max_overlap_fraction=int((counts > 1).sum()) / n,
        uncovered_fraction=int((counts == 0).sum()) / n,
        n_samples=n,
    )


@functools.cache
def _unit_ball_volume(strata_dims: tuple) -> float:
    """Haar measure of the unit homogeneous ball of a group shape."""
    k, d2 = (*strata_dims, 0)[:2]
    if d2 == 0:
        return math.pi ** (k / 2) / math.gamma(k / 2 + 1)
    # {(v, t) : (|v|^4 + 16 |t|^2)^(1/4) <= 1} = integral over |v| <= 1 of the V2 ball
    # volume omega (sqrt(1 - |v|^4) / 4)^d2, whose radial part is B(k/4, d2/2 + 1) / 4;
    # omega_1 is the literal 2.0, where pi^(1/2) / Gamma(3/2) rounds to 1.9999999999999998
    omega = 2.0 if d2 == 1 else math.pi ** (d2 / 2) / math.gamma(d2 / 2 + 1)
    sphere = 2 * math.pi ** (k / 2) / math.gamma(k / 2)
    radial = math.gamma(k / 4) * math.gamma(d2 / 2 + 1) / math.gamma(k / 4 + d2 / 2 + 1)
    return sphere * omega * radial / 4.0 ** (d2 + 1)


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


_SHELL_ROWS = 1 << 14  # lattice points per decay-certificate block
# the bytes charged to a shell past the block, in copies of its (points, dim)
# int64 coordinates, besides the 4 r entries of its axis ranges: building it
# and its group-law pass peak at about 4.7 copies with the ranges included
# (tracemalloc: 4.7 on R^2, 4.3 on R^3 and H^1, 4.0 on H^2)
_PASS_COPIES = 5


@functools.lru_cache(maxsize=16)
def _shell_block(d: int, rb: int) -> tuple[np.ndarray, tuple]:
    """Read-only offsets of the shells r < rb, the _shell(0, r) concatenated,
    and the rb + 1 shell bounds: shell r is rows bounds[r]:bounds[r + 1].
    The cache holds 16 blocks of at most 2^14 d 8 B each.
    """
    zero = np.zeros(d, dtype=np.int64)
    offsets = np.concatenate([_shell(zero, r) for r in range(rb)])
    offsets.setflags(write=False)
    return offsets, tuple(max(2 * s - 1, 0) ** d for s in range(rb + 1))


def _tail_integral(Q: int, n: float, S: float) -> float:
    """int_S^inf R^{Q-1} (1+R)^{-n} dR for real n > Q, by Q - 1 integrations by parts:
    (1+S)^{Q-n} sum_{i<Q} c_i t^{Q-1-i}, t = S/(1+S), c_i = (Q-1)!/(Q-1-i)! / prod_{l<=i}
    (n-1-l).  Its terms are positive, and the power underflows to 0 but never overflows."""
    t = S / (1.0 + S)
    c = acc = 1.0 / (n - 1)
    for i in range(1, Q):
        c *= (Q - i) / (n - 1 - i)
        acc = acc * t + c
    return (1.0 + S) ** (Q - n) * acc


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

    Sums integer-lattice shells until a shell contributes less than rel_tail of
    the running total, then adds the integral-comparison tail (1/|W|) 2^{-eta Q}
    kappa Q int_S^inf R^{Q-1} (1+R)^{-n} dR, S the rescaled cut radius, in the closed
    form of `_tail_integral`.  The result must stay bounded uniformly in (eta, j, x).

    One homogeneous-norm pass over the gamma^{-1}.x gives every distance:
    |2^{-j}.z| = 2^{-j} |z| exactly (see `groups.hom_norm`), so a term is
    2^{(eta - j) Q} (1 + 2^{eta - j} |z|)^{-n}, the tail's S is 2^{eta - j} times
    the least norm on the last shell summed, and the reported cut distance is
    2^{-j} times that norm (0 when only shell 0 is summed).  `value`,
    `partial_sum`, `tail_estimate` and `shells` depend on (eta, j) through
    j - eta only, bit for bit, and `cut_distance` scales by 2^{-j}.  Wherever
    2^{-jQ} and 2^{+-eta Q} are normal floats, every figure equals the one summed
    with those weights and the dilated distances, bit for bit.

    The shells r < r_b, r_b <= max_shells the largest radius whose cube of
    (2 r_b - 1)^dim points fits _SHELL_ROWS, are one group-law pass over offsets
    built once per (dim, r_b) and shared across calls, summed shell by shell
    from its slices; each later shell is its own pass.  The stopping rule and
    every sum are those of the shell-by-shell loop, bit for bit.  A later shell
    whose construction and pass would exceed MAX_ARRAY_BYTES (_PASS_COPIES copies
    of its (points, dim) int64 coordinates, and its axis ranges) raises
    DomainError first, and so do, before the first pass, a weight
    2^{(eta - j) Q} that is not a normal float64 and a 2^{-j} that is 0 or
    overflows; a cut distance that is 0 or not finite raises it after the sum.
    """
    g = gs.group
    Q, d = g.Q, g.dim
    if eta > j:
        raise ValueError("requires eta <= j")
    if isinstance(max_shells, bool) or not isinstance(max_shells, (int, np.integer)) \
            or max_shells < 1:
        raise ValueError(f"max_shells must be an integer >= 1, got {max_shells!r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"x must be one point of {d} coordinates, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {x}")
    if not math.isfinite(n):
        raise ValueError(f"the decay exponent n must be finite, got {n}")
    if not rel_tail >= 0:
        raise ValueError(f"rel_tail must be a number >= 0, got {rel_tail}")
    if n <= Q:
        warnings.warn(f"decay exponent n={n} <= Q={Q}: lattice sum may diverge")
    try:  # float exponents, so that NumPy integers neither wrap nor give inf
        h, gap = 2.0 ** -float(j), float(eta) - float(j)
    except OverflowError:
        h, gap = math.inf, -math.inf
    weight, shrink = 2.0 ** (gap * Q), 2.0**gap
    if not (weight >= sys.float_info.min and 0.0 < h < math.inf):
        raise DomainError(f"eta = {eta}, j = {j} leave float64: the weight 2^((eta - j) Q), "
                          f"Q = {Q}, must be a normal float and 2^(-j) positive and finite")
    center = np.rint(x / gs.spacing).astype(np.int64)

    def terms(gammas):
        norms = groups.hom_norm(g, groups.multiply(g, groups.inverse(g, gs.decode(gammas)), x))
        return weight / (1.0 + shrink * norms) ** n, norms

    def sums(shell_terms, norms):  # the shell's arrays are freed before the next is built
        return float(np.add.reduce(shell_terms)), float(np.minimum.reduce(norms))

    rb = 1
    while rb < max_shells and (2 * rb + 1) ** d <= _SHELL_ROWS:
        rb += 1
    offsets, bounds = _shell_block(d, rb)
    block_terms, block_norms = terms(center + offsets)
    total = 0.0
    for r in range(max_shells):
        if r < rb:
            contrib = float(np.add.reduce(block_terms[bounds[r]:bounds[r + 1]]))
        else:
            need = 8 * (_PASS_COPIES * d * ((2 * r + 1) ** d - (2 * r - 1) ** d) + 4 * r)
            if need > MAX_ARRAY_BYTES:
                raise DomainError(f"the radius-{r} lattice shell and its group-law pass need "
                                  f"{need} B, over the {MAX_ARRAY_BYTES} B budget")
            contrib, least = sums(*terms(_shell(center, r)))
        total += contrib
        if r > 2 and contrib < rel_tail * max(total, 1e-300):
            break
    shells_used = r + 1
    # the least norm on the last shell summed (0 at r = 0)
    if r < rb:
        least = float(np.minimum.reduce(block_norms[bounds[r]:bounds[r + 1]])) if r > 0 else 0.0
    cut_dist = h * least
    if r > 0 and not 0.0 < cut_dist < math.inf:
        raise DomainError(f"the cut distance 2^(-j) {least!r} is {cut_dist!r} at j = {j}, "
                          "not a positive float64")

    # integral-comparison tail over {|z| >= cut_dist}, expressed after the
    # substitution w = 2^eta z and times 2^{eta Q}, so S = 2^eta cut_dist = 2^{eta - j}
    # least; |W| is the tile volume
    tile_vol = math.prod(gs.spacing.tolist())
    kappa = _unit_ball_volume(g.strata_dims)
    tail = (kappa * Q / tile_vol) * (_tail_integral(Q, n, shrink * least) if n > Q else np.inf)

    value = total + tail
    if return_details:
        return value, {
            "partial_sum": total,
            "tail_estimate": tail,
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
