"""Function-level spectral calculus on the abelian model G = R^d.

Functions live on a large torus [-R, R)^d and the dyadic kernels act as
Fourier multipliers psi_hat(|nu|^2 / 4^j), with nu the frequency grid in
cycles per unit length.  Analysis samples Littlewood-Paley blocks at the
dilated lattice; synthesis accumulates atom transforms in frequency.

Both directions, and `dilate_grid`, evaluate the exact trigonometric sums
dnu^d sum_nu e^{2 pi i nu.x} F(nu) and sum_x e^{-2 pi i nu.x} v_x, which
are adjoints of each other, on one FFT path.  A point set is origin + step k
over integers k: a scale's lattice gamma with step beta 2^{-j}, or the grid
indices of `dilate_grid` with step h dx.  When m = step L / dx and
c = (origin + R) L / dx are exact integers for some L = 2^k (for
beta 2^{-j} Z^d, when beta N / (2R 2^j) is a dyadic rational), the points
sit on the L-fold refinement at nodes (k m + c) mod N L, exact in int64 for
|k| <= 2^53.  Sampling zero-pads the parity-signed spectrum into the
(N L)^d FFT layout, frequency n at index n mod N L so the Nyquist bin keeps
its place, runs one inverse FFT and gathers the nodes; spreading scatters
the values onto that grid, runs one forward FFT and crops back to the N^d
frequencies.  `_refinement` refuses with `DomainError` a set on no
refinement whose grid fits MAX_ARRAY_BYTES at 16 B a node (a density such
as 0.3); other points would need a chirp-z path (Rabiner-Schafer-Rader
1969) or a nonuniform FFT (Dutt-Rokhlin 1993).

Coefficient fields cross this module as arrays: `analyze` samples each
scale at its lattice points (`sampling.range_coordinates`, lexicographic)
and, the scales ascending, builds its field and the converted one without
a re-sort; `synthesize` reads each scale's run of the field's canonical
arrays.  `_scales` decides where each scale's lattice sits (ranges,
refinement, fold period) and refuses a scale before any point is built.
`verify_frame` alone decides what a verify-frame check shares and in which
order it refuses.  It builds each per-scale quantity once for the private
cores of the public functions: the scale geometry; one spectrum of f; each
scale's `_Placement`, which carries its refined-frequency index at L > 1
and is made by the analysis and handed, less the entries the sparsity floor
drops, to synthesis; and one stacked Littlewood-Paley block per scale, which
gives the continuous Besov norm (`_BlockNorms`) and, at L = 1, the samples.
Kernel multipliers and Littlewood-Paley blocks are built in stacks of
scales of at most _STACK_POINTS = 2^14 grid points, bit-identical to a
per-scale loop; a kernel set larger than MAX_ARRAY_BYTES is refused before
any is built.

`frame_reconstruct` inverts the frame operator S = sum_j 2^{-jQ} A_j^* A_j
exactly, fiber by fiber (Ron-Shen 1997 fiberization; Daubechies 1992,
ch. 3).  A scale folds when its torus-box lattice is the whole subgroup
m Z^d of its L-fold refinement, each node once (c = N L / 2 == 0 mod m, as
at every dyadic density; other densities, such as 0.375, are refused).
Its A_j^* A_j is (L / (dx m))^d psi_hat_j times the sum of psi_hat_j Y over
the aliases n + k M, M = N L / m: a multiplier when M >= N or when no two
aliases meet the support of psi_hat_j, as at verify-frame's default
density 0.25, whose step 2^{-j} / 4 samples the band alias-free.  Other
folds have dyadic periods, so S-hat is block-diagonal over nu mod P, P the
smallest of them: fibers of (N / P)^d frequencies, whose extreme
eigenvalues on the covered band are the frame bounds A and B.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .groups import DomainError, dilate  # noqa: F401 (perfbench's tracer test reads it)
from .sampling import MAX_ARRAY_BYTES, SamplingSet, range_coordinates, scale_ranges
from .coeffs import (SPARSE_FLOOR, CoefficientField, L1_ATOMS, NormParams, _floor_mask,
                     _power_of_two, discrete_besov_norm, lp_atoms, convert)

__all__ = [
    "GridFunction",
    "GridDescriptor",
    "KernelSet",
    "build_kernel_set",
    "grid_fft",
    "grid_ifft",
    "lp_block",
    "calderon_reconstruct",
    "analyze",
    "synthesize",
    "frame_reconstruct",
    "sobolev_norm",
    "lebesgue_norm",
    "besov_norm_continuous",
    "FrameCheck",
    "verify_frame",
    "dilate_grid",
]


class GridDescriptor(NamedTuple):
    dim: int
    N: int
    extent: float


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on the uniform grid of the torus [-R, R)^d."""

    dim: int
    extent: float
    samples: np.ndarray = field(compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be finite and positive, got {self.extent}")
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != self.dim or len(set(s.shape)) != 1:
            raise ValueError("samples must be a dim-dimensional cube")
        n = s.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError("grid size must be a power of two")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.N

    def descriptor(self) -> GridDescriptor:
        return GridDescriptor(self.dim, self.N, self.extent)

    def axis(self) -> np.ndarray:
        return -self.extent + self.spacing * np.arange(self.N)

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij")

    @classmethod
    def from_callable(cls, desc: GridDescriptor, fn: Callable) -> "GridFunction":
        blank = cls(desc.dim, desc.extent, np.zeros((desc.N,) * desc.dim, dtype=complex))
        vals = np.asarray(fn(*blank.mesh()), dtype=complex)
        return replace(blank, samples=vals)

    def freq_axis(self) -> np.ndarray:
        """Frequency grid in cycles per unit length (FFT layout)."""
        return np.fft.fftfreq(self.N, d=self.spacing)

    def lambda_grid(self) -> np.ndarray:
        """Spectral variable |nu|^2 on the FFT-layout frequency grid."""
        nu = self.freq_axis()
        grids = np.meshgrid(*([nu] * self.dim), indexing="ij")
        return sum(g * g for g in grids)


@functools.lru_cache(maxsize=16)
def _parity(dim: int, n: int) -> np.ndarray:
    """Per-frequency sign (-1)^(k_1+...+k_d) accounting for the grid origin at -R.

    With extent R = N*spacing/2 the phase e^{2 pi i nu R} of each axis reduces
    to (-1)^k exactly, so the continuous-transform convention costs only signs.
    Built once per (dim, n), read-only.
    """
    s = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    grids = np.meshgrid(*([s] * dim), indexing="ij")
    out = np.prod(grids, axis=0) if dim > 1 else grids[0]
    out.setflags(write=False)
    return out


def grid_fft(f: GridFunction) -> np.ndarray:
    """Continuous Fourier transform on the grid: F(nu) = int f(x) e^{-2 pi i nu x} dx."""
    return f.spacing**f.dim * np.fft.fftn(f.samples) * _parity(f.dim, f.N)


def grid_ifft(f: GridFunction, spectrum: np.ndarray) -> GridFunction:
    samples = np.fft.ifftn(spectrum * _parity(f.dim, f.N)) / f.spacing**f.dim
    return replace(f, samples=samples)


_STACK_POINTS = 1 << 14  # grid points per stacked pass over scales


def _stacks(n_scales: int, size: int) -> list[slice]:
    """Consecutive runs of at most max(1, _STACK_POINTS // size) of n_scales
    scales, each of `size` grid points, one stacked pass each."""
    per = max(1, _STACK_POINTS // size)
    return [slice(i, i + per) for i in range(0, n_scales, per)]


@dataclass(frozen=True)
class KernelSet:
    """Cached dyadic multipliers psi_hat(4^{-j} |nu|^2) on a fixed grid."""

    window: object
    j_range: tuple[int, int]
    desc: GridDescriptor
    multipliers: dict = field(compare=False)

    def multiplier(self, j: int) -> np.ndarray:
        if j not in self.multipliers:
            raise IndexError(f"scale j={j} outside cached range {self.j_range}")
        return self.multipliers[j]


def _js(ks: KernelSet) -> range:
    """The cached scales of ks, ascending."""
    return range(ks.j_range[0], ks.j_range[1] + 1)


def _dilation(j: int) -> float:
    """4^{-j}, the scale-j factor of the spectral variable; DomainError when
    it overflows (j <= -512).  An underflow to 0 is kept."""
    try:
        return 4.0 ** (-j)
    except OverflowError:
        raise DomainError(f"the dilation 4^(-j) of the spectral variable overflows float64 "
                          f"at scale j = {j}") from None


def _kernel_factors(desc: GridDescriptor, j_range: tuple[int, int]) -> tuple[range, np.ndarray]:
    """The scales of j_range and their dilations 4^{-j}, shaped to broadcast
    over the grid; builds no multiplier.  A range whose J N^d multipliers of
    8 B exceed MAX_ARRAY_BYTES is refused with DomainError first, then a scale
    whose dilation overflows."""
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max:
        raise ValueError("empty j_range")
    js = range(j_min, j_max + 1)
    need = 8 * len(js) * desc.N**desc.dim
    if need > MAX_ARRAY_BYTES:
        raise DomainError(f"{len(js)} scales of {desc.N}^{desc.dim}-point multipliers need "
                          f"{need} B, over the {MAX_ARRAY_BYTES} B budget")
    return js, np.array([_dilation(j) for j in js]).reshape((-1,) + (1,) * desc.dim)


def build_kernel_set(window, desc: GridDescriptor, j_range: tuple[int, int]) -> KernelSet:
    """psi_hat(4^{-j} |nu|^2) for every j of the range, window.psi_hat called
    once per stack of scales (at most _STACK_POINTS grid points) on the
    stacked spectral variables, so the window must act elementwise.  The
    checks of `_kernel_factors` run before the window is evaluated."""
    js, factors = _kernel_factors(desc, j_range)
    shape = (desc.N,) * desc.dim
    lam = GridFunction(desc.dim, desc.extent, np.zeros(shape, dtype=complex)).lambda_grid()
    mult = {}
    for run in _stacks(len(js), lam.size):
        stack = np.asarray(window.psi_hat(lam * factors[run]), dtype=float)
        mult.update(zip(js[run], stack))
    return KernelSet(window=window, j_range=(js[0], js[-1]), desc=desc, multipliers=mult)


def lp_block(f: GridFunction, ks: KernelSet, j: int) -> GridFunction:
    """Littlewood-Paley block f * psi_j^* as a diagonal frequency multiplier."""
    if f.descriptor() != ks.desc:
        raise ValueError("grid descriptor does not match the kernel cache")
    return grid_ifft(f, ks.multiplier(j) * grid_fft(f))


def calderon_reconstruct(f: GridFunction, ks: KernelSet) -> GridFunction:
    """Sum_j f * psi_j^* * psi_j over the cached range."""
    spec = grid_fft(f)
    total = np.zeros_like(spec)
    for j in _js(ks):
        total += ks.multiplier(j) ** 2 * spec
    return grid_ifft(f, total)


def _check_inputs(gs: SamplingSet, kernels: GridDescriptor, desc: GridDescriptor) -> None:
    if gs.group.step != 1 or gs.group.dim != desc.dim:
        raise ValueError("sampling set must be the matching abelian preset")
    if desc != kernels:
        raise ValueError("grid descriptor does not match the kernel cache")


class _Placement(NamedTuple):
    """Points as raveled indices into the (N L)^d grid of the L-fold refinement,
    and, when L > 1, the index of the grid frequencies in its FFT layout."""

    L: int
    at: np.ndarray
    freqs: tuple | None  # `_frequencies(desc, L)`, None at L = 1


def _refinement(desc: GridDescriptor, step: float, origin: float) -> tuple[int, int, int]:
    """(L, m, c) for the smallest refinement L = 2^k within the budget on which
    step L / dx and (origin + R) L / dx are exact integers m and c: the points
    origin + step k of integers k sit at its nodes (k m + c) mod N L.  As
    R / dx = N / 2, c is origin L / dx + N L / 2, exact for a dyadic origin.
    Points on no such refinement are refused with DomainError, naming the
    largest step dx 2^k at or below their own."""
    dx = 2.0 * desc.extent / desc.N
    L = 1
    while 16 * (desc.N * L) ** desc.dim <= MAX_ARRAY_BYTES:
        m, c = step * L / dx, origin * L / dx + desc.N * L // 2
        if m.is_integer() and c.is_integer():
            return L, int(m), int(c)
        L *= 2
    below = math.ldexp(dx, math.frexp(step / dx)[1] - 1)  # dx 2^k, up to rounding
    if below > step:
        below /= 2
    raise DomainError(f"points of step {float(step)!r} lie on no dyadic refinement of "
                      f"the {desc.N}^{desc.dim}-point grid within the {MAX_ARRAY_BYTES} B "
                      f"budget; the largest step dx*2^k at or below it is "
                      f"{below!r} (dx = {float(dx)!r})")


def _place(desc: GridDescriptor, ints: np.ndarray, geo: tuple[int, int, int]) -> _Placement:
    """(P, d) integers k at their nodes (k m + c) mod N L of the refinement (L, m, c)."""
    L, m, c = geo
    NL = desc.N * L
    nodes = (np.mod(ints, NL) * (m % NL) + c % NL) % NL
    return _Placement(L, np.ravel_multi_index(tuple(nodes.T), (NL,) * desc.dim),
                      _frequencies(desc, L) if L > 1 else None)


def _frequencies(desc: GridDescriptor, L: int):
    """Open mesh of the grid frequencies n (FFT layout, Nyquist at -N/2) in the
    (N L)-point FFT layout, i.e. n mod N L."""
    n = np.fft.ifftshift(np.arange(-(desc.N // 2), desc.N // 2))
    return np.ix_(*([np.mod(n, desc.N * L)] * desc.dim))


def _sample(desc: GridDescriptor, spectrum: np.ndarray, pl: _Placement) -> np.ndarray:
    """Trigonometric interpolation dnu^d sum_nu e^{2 pi i nu.x} spectrum(nu) at the points."""
    d = desc.dim
    signed = spectrum * _parity(d, desc.N)
    if pl.L > 1:
        padded = np.zeros((desc.N * pl.L,) * d, dtype=complex)
        padded[pl.freqs] = signed
        signed = padded
    return np.fft.ifftn(signed).ravel()[pl.at] * pl.L**d / (2.0 * desc.extent / desc.N) ** d


def _spread(desc: GridDescriptor, values: np.ndarray, pl: _Placement) -> np.ndarray:
    """Adjoint of _sample: sum_x e^{-2 pi i nu.x} v_x at every grid frequency nu."""
    d = desc.dim
    grid = np.zeros((desc.N * pl.L) ** d, dtype=complex)
    np.add.at(grid, pl.at, values)  # points that wrap onto one node add up
    spec = np.fft.fftn(grid.reshape((desc.N * pl.L,) * d))
    if pl.L > 1:
        spec = spec[pl.freqs]
    return spec * _parity(d, desc.N)


class _Scale(NamedTuple):
    j: int
    ranges: list  # per-axis integer ranges [a, b) of the torus-box lattice
    geo: tuple  # the refinement (L, m, c) its points sit on
    M: int  # the fold period N L / m, 0 when the scale does not fold


def _scales(js: range, gs: SamplingSet, desc: GridDescriptor,
            folding: bool = False) -> list[_Scale]:
    """Each scale's torus-box lattice ranges, refinement and fold period, with
    no point built: one `scale_ranges` pass checks every budget, the finest
    scale first, then, the coarsest first, a scale on no refinement (or,
    `folding`, one that does not fold) is refused.  The lattice is
    (m Z / N L Z)^d, each node once, exactly when c = N L / 2 == 0 mod m."""
    ranges = scale_ranges(gs, js, [(-desc.extent, desc.extent)] * desc.dim)
    scales = []
    for j, box in zip(js, ranges):
        L, m, c = geo = _refinement(desc, gs.beta * 2.0 ** -j, 0.0)
        if folding and c % m:
            raise DomainError(f"the scale-{j} lattice at density {gs.beta!r} does not fold (it "
                              f"is no subgroup of its refinement), so the frame operator has "
                              f"no fibers")
        scales.append(_Scale(j, box, geo, 0 if c % m else desc.N * L // m))
    return scales


def analyze(f: GridFunction, ks: KernelSet, gs: SamplingSet, p: float) -> CoefficientField:
    """Wavelet coefficients against L^p-normalized atoms.

    Samples each Littlewood-Paley block at the scale-j lattice points; the
    sampled values are the L1-convention inner products, then converted.
    """
    desc = f.descriptor()
    _check_inputs(gs, ks.desc, desc)
    scales = _scales(_js(ks), gs, desc)
    return _analyze(desc, grid_fft(f), ks, gs, p, scales)[0]


def _analyze(desc: GridDescriptor, spec: np.ndarray, ks: KernelSet, gs: SamplingSet, p: float,
             scales: list[_Scale], norms: _BlockNorms | None = None
             ) -> tuple[CoefficientField, dict]:
    """`analyze` of the function of spectrum spec, and the placement of its
    entries at each scale j.  With norms, every stack of scales' blocks also
    feeds norms and gives the samples of the scales at L = 1."""
    if not 1.0 < p < np.inf:
        raise DomainError("p must lie in (1, inf)")
    gammas = [range_coordinates(s.ranges) for s in scales]
    places = [_place(desc, gm, s.geo) for s, gm in zip(scales, gammas)]
    values = []
    for run in _stacks(len(scales), spec.size):
        values += _sample_run(desc, spec, ks, scales[run], places[run], norms)
    # scales ascend and each lattice is lexicographic, so the rows are canonical
    js = np.concatenate([np.full(len(gm), s.j, dtype=np.int64) for s, gm in zip(scales, gammas)])
    gammas, values = np.concatenate(gammas), np.concatenate(values)
    keep = _floor_mask(values, SPARSE_FLOOR)
    if keep is not None:  # the floor drops entries, and their points
        ends = np.cumsum([len(pl.at) for pl in places]).tolist()
        places = [pl._replace(at=pl.at[keep[end - len(pl.at):end]])
                  for pl, end in zip(places, ends)]
        js, gammas, values = js[keep], gammas[keep], values[keep]
    c1 = CoefficientField._canonical(gs, L1_ATOMS, js, gammas, values)
    return convert(c1, lp_atoms(p)), {s.j: pl for s, pl in zip(scales, places)}


def _sample_run(desc: GridDescriptor, spec: np.ndarray, ks: KernelSet, scales: list[_Scale],
                places: list[_Placement], norms: _BlockNorms | None) -> list[np.ndarray]:
    """The samples of a run of scales at their placements.  With norms, the
    run's stacked blocks feed norms and give the samples at L = 1; they are
    freed on return, so one run's blocks at most are alive."""
    mults = [ks.multiplier(s.j) for s in scales]
    blocks = None
    if norms is not None:
        stacked = np.stack(mults)
        blocks = _lp_blocks(desc, spec, stacked)
        norms.add(stacked, blocks)
    return [blocks[k].ravel()[pl.at] if blocks is not None and pl.L == 1
            else _sample(desc, mult * spec, pl) for k, (mult, pl) in enumerate(zip(mults, places))]


def synthesize(c: CoefficientField, ks: KernelSet, gs: SamplingSet,
               target: GridDescriptor) -> GridFunction:
    """Sum_lambda d_lambda psi_lambda rendered on the target grid; the adjoint
    of `analyze` at p = 2.  gs must be the field's sampling set."""
    if gs != c.sampling:
        raise ValueError("the field lives on another sampling set than gs")
    _check_inputs(gs, ks.desc, target)
    if c.normalization.kind != "Lp":
        raise ValueError("synthesize expects Lp-atom normalization")
    places = {j: _place(target, c.gammas[run], _refinement(target, gs.beta * 2.0 ** -j, 0.0))
              for j, run in c.scales()}
    return _synthesize(c, ks, target, places)


def _synthesize(c: CoefficientField, ks: KernelSet, target: GridDescriptor,
                places: dict) -> GridFunction:
    """`synthesize` with the placement places[j] of each scale j's entries."""
    p, Q = c.normalization.p, c.sampling.group.Q
    runs = c.scales()
    mults = [ks.multiplier(j) for j, _ in runs]
    spec = np.zeros((target.N,) * target.dim, dtype=complex)
    for (j, run), mult in zip(runs, mults):
        spec += (_power_of_two(j, Q, 1.0 / p - 1.0) * mult
                 * _spread(target, c.values[run], places[j]))
    blank = GridFunction(target.dim, target.extent, np.zeros_like(spec))
    return grid_ifft(blank, spec)


_ROUNDING = 1e-12  # an eigenvalue this small against its fiber's largest is rounding
_DC_TOL = 1e-12  # a mean this small against ||f-hat||_2 is rounding (`sobolev_norm`)
_LEAK_TOL = 1e-8  # uncovered energy this small against the total is not warned of


def _frame_symbol(ks: KernelSet, gs: SamplingSet, desc: GridDescriptor,
                  scales: list[_Scale]) -> tuple:
    """S-hat as (diagonal, folds, P) on scales that fold (`_scales(..., folding=True)`):
    S-hat Y is diagonal Y plus, per aliasing fold (outer, mult, M), outer times
    the sum of mult Y over the aliases n + k M (spreading keeps the refined grid
    on m Z^d; as c == 0 mod m, the parity signs cancel); P is the smallest M, N
    if none."""
    Q, d, N, dx = gs.group.Q, desc.dim, desc.N, 2.0 * desc.extent / desc.N
    diagonal, folds = np.zeros((N,) * d), []
    for s in scales:
        L, m, _ = s.geo
        mult = ks.multiplier(s.j)
        outer = 2.0 ** (-s.j * Q) * (L / (dx * m)) ** d * mult
        # a multiplier when no two aliases are nonzero: as many nonzeros as classes hit
        nonzero = mult.reshape((N // s.M, s.M) * d) != 0 if s.M < N else None
        if s.M >= N or np.count_nonzero(nonzero) == np.count_nonzero(
                np.logical_or.reduce(nonzero, axis=tuple(range(0, 2 * d, 2)))):
            diagonal = diagonal + outer * mult
        else:
            folds.append((outer, mult, s.M))
    return diagonal, folds, min((M for *_, M in folds), default=N)


def _fiber_matrices(symbol: tuple, desc: GridDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """idx (P^d, T), row r the raveled FFT-layout indices of the T = (N / P)^d
    frequencies n == r mod P, and S-hat on them (P^d, T, T): a fold of period
    M couples two that agree mod M.  Refused over MAX_ARRAY_BYTES first, counting
    what the build and `frame_reconstruct`'s solve hold at once: three arrays of
    the fibers' size (the fibers; a fold's term or the eigenvectors; the
    self-adjoint check's parts) and two masks of one byte an entry."""
    diagonal, folds, P = symbol
    N, d = desc.N, desc.dim
    idx = np.arange(N**d).reshape((N // P, P) * d).transpose(
        *range(1, 2 * d, 2), *range(0, 2 * d, 2)).reshape(P**d, -1)
    T = idx.shape[1]
    dtype = np.result_type(diagonal, *(outer for outer, _, _ in folds))
    need = (3 * dtype.itemsize + 2) * P**d * T * T
    if need > MAX_ARRAY_BYTES:
        raise DomainError(f"{P**d} frame operator fibers of {T}^2 entries and their solve "
                          f"need {need} B, over the {MAX_ARRAY_BYTES} B budget")
    fibers = np.zeros((P**d, T, T), dtype=dtype)
    fibers[:, range(T), range(T)] = diagonal.ravel()[idx]
    coords = np.unravel_index(idx, (N,) * d)
    term = np.empty_like(fibers)  # one fold's contribution at a time
    for outer, mult, M in folds:
        np.multiply(outer.ravel()[idx][:, :, None], mult.ravel()[idx][:, None, :], out=term)
        for c in coords:  # zero unless the two frequencies agree mod M on every axis
            term *= c[:, :, None] % M == c[:, None, :] % M
        fibers += term
    return idx, fibers


def frame_reconstruct(f: GridFunction, ks: KernelSet,
                      gs: SamplingSet) -> tuple[GridFunction, dict]:
    """Frame-operator correction of the analyze/synthesize round trip.

    g is the minimum-norm solution of S g = S f, S = synthesize . analyze
    for every p: each fiber of f-hat projected onto its range, with no
    division.  One-frequency fibers keep f-hat where S-hat > 0; larger ones
    take one batched `np.linalg.eigh`, whose eigenvalues at most _ROUNDING
    times their fiber's largest |eigenvalue| are rounding.  info holds
    "iterations" (0), "relative_residual" ||S g - S f|| / ||S f||, and the
    frame bounds "lower_bound" A and "upper_bound" B, the extreme
    eigenvalues of the fibers on the covered band sum_j psi_hat_j^2 > 0.5
    (0 if it is empty).  DomainError refuses, before any solve, a scale
    that does not fold, fibers over MAX_ARRAY_BYTES, and a symbol that is
    not finite, not self-adjoint or below -_ROUNDING times its fiber's
    largest eigenvalue.
    """
    desc = f.descriptor()
    _check_inputs(gs, ks.desc, desc)
    scales = _scales(_js(ks), gs, desc, folding=True)
    return _frame_reconstruct(f, grid_fft(f), ks, gs, scales)


def _frame_reconstruct(f: GridFunction, spec: np.ndarray, ks: KernelSet, gs: SamplingSet,
                       scales: list[_Scale]) -> tuple[GridFunction, dict]:
    """`frame_reconstruct` of f, of spectrum spec."""
    desc = f.descriptor()
    diagonal, folds, P = symbol = _frame_symbol(ks, gs, desc, scales)
    one = P == desc.N  # one frequency per fiber: S-hat is its own eigenvalue
    idx, fibers = (None, diagonal[..., None, None]) if one else _fiber_matrices(symbol, desc)
    if not np.all(np.isfinite(fibers)):
        raise DomainError("the frame operator's symbol is not finite")
    if np.iscomplexobj(fibers):
        re, im = fibers.real, fibers.imag  # |S - S^*| from the parts: no conjugate copy
        skew = np.max(np.hypot(re - re.swapaxes(-1, -2), im + im.swapaxes(-1, -2)))
        if skew > _ROUNDING * np.max(np.abs(fibers)):
            raise DomainError("the frame operator's symbol is not self-adjoint")
    lam, vec = (diagonal.real, None) if one else np.linalg.eigh(fibers)
    top = 0.0 if one else _ROUNDING * np.max(np.abs(lam), axis=1, keepdims=True)  # S-hat > 0
    if np.any(lam < -top):
        raise DomainError(f"the frame operator is not positive semidefinite: its symbol "
                          f"has the eigenvalue {float(lam.min())!r}")
    covered = np.square(np.abs(np.asarray([ks.multiplier(j) for j in _js(ks)]))).sum(0) > 0.5
    if one:  # S-hat (g - f) is exactly 0: g = f where S-hat > 0, and S-hat = 0 elsewhere
        g, residual, on = np.where(lam > 0, spec, 0.0), 0.0, lam[covered]
    else:
        x, covered = spec.ravel()[idx], covered.ravel()[idx]
        y = np.einsum("fts,fs->ft", vec, (lam > top) * np.einsum("fst,fs->ft", vec.conj(), x))
        s_f, s_g = (np.einsum("fts,fs->ft", fibers, v) for v in (x, y))
        residual = np.linalg.norm(s_g - s_f) / max(np.linalg.norm(s_f), 1e-300)
        # in place: uncovered rows and columns become a marker below lam (Cauchy interlacing)
        low, diag = -1.0 - 2.0 * np.max(np.abs(lam)), np.arange(idx.shape[1])
        fibers[~(covered[:, :, None] & covered[:, None, :])] = 0.0
        fibers[:, diag, diag] = np.where(covered, fibers[:, diag, diag], low)
        on = np.linalg.eigvalsh(fibers)
        on = on[on > low / 2]
        g = np.zeros_like(spec)
        g.flat[idx] = y
    lower, upper = (float(on.min()), float(on.max())) if on.size else (0.0, 0.0)
    return grid_ifft(f, g), {"iterations": 0, "relative_residual": float(residual),
                             "lower_bound": lower, "upper_bound": upper}


def sobolev_norm(f: GridFunction, s: float) -> float:
    """Homogeneous Sobolev norm via the multiplier |nu|^s; DC mode excluded."""
    spec = grid_fft(f)
    lam = f.lambda_grid()
    dc = tuple([0] * f.dim)
    l2 = np.sqrt(np.sum(np.abs(spec) ** 2)) + 1e-300
    if s < 0 and abs(spec[dc]) > _DC_TOL * l2:
        raise DomainError("nonzero mean with s < 0: singular zero mode")
    spec = spec.copy()
    spec[dc] = 0.0
    dnu = 1.0 / (2.0 * f.extent)
    weighted = np.abs(spec) ** 2 * np.where(lam > 0, lam**s, 0.0)
    return float(np.sqrt(np.sum(weighted) * dnu**f.dim))


def _check_p(p: float) -> None:
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p!r}")


def _lp_norms(rows: np.ndarray, p: float, cell: float) -> list[float]:
    """(sum |v|^p cell)^{1/p} of each row, the max at p = inf."""
    a = np.abs(rows)
    if p == np.inf:
        return a.max(axis=1).tolist()
    return [float((total * cell) ** (1.0 / p)) for total in np.sum(a**p, axis=1)]


def lebesgue_norm(f: GridFunction, p: float) -> float:
    _check_p(p)
    return _lp_norms(f.samples.reshape(1, -1), p, f.spacing**f.dim)[0]


def besov_norm_continuous(f: GridFunction, ks: KernelSet, s: float, p: float, q: float) -> float:
    """l^q over scales of 2^{js} ||f * psi_j^*||_{L^p} on the cached range.

    The blocks of a stack of scales (at most _STACK_POINTS grid points) come
    from one inverse FFT and their norms from one row-wise pass; the sums
    over j run scale by scale.  A NaN p, p < 1 or q outside [1, inf) raises
    DomainError."""
    _check_p(p)
    if not 1 <= q < np.inf:
        raise DomainError(f"q must lie in [1, inf), got {q!r}")
    desc, spec, js = f.descriptor(), grid_fft(f), _js(ks)
    norms = _BlockNorms(spec, p, f.spacing**f.dim)
    for run in _stacks(len(js), spec.size):
        mults = np.stack([ks.multiplier(j) for j in js[run]])
        norms.add(mults, _lp_blocks(desc, spec, mults))
    return norms.besov(js, s, q)


def _lp_blocks(desc: GridDescriptor, spec: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """The Littlewood-Paley blocks of the function of spectrum spec under the
    stacked multipliers mults, from one inverse FFT: row k is the grid
    samples that `_sample` gives at L = 1 under mults[k]."""
    d = desc.dim
    return (np.fft.ifftn(mults * spec * _parity(d, desc.N), axes=tuple(range(1, d + 1)))
            / (2.0 * desc.extent / desc.N) ** d)


class _BlockNorms:
    """The L^p norms of a spectrum's Littlewood-Paley blocks, fed stack by
    stack, and the |psi_hat_j|^2 they cover; `besov` gives the norm.  A
    block that is not finite is refused, and band leakage warned of, only
    by `besov`, so a caller can feed it before its own refusals."""

    def __init__(self, spec: np.ndarray, p: float, cell: float):
        self.spec, self.p, self.cell = spec, p, cell
        self.covered, self.norms = np.zeros(spec.shape), []  # norms: None once not finite

    def add(self, mults: np.ndarray, blocks: np.ndarray) -> None:
        if self.norms is None or not np.all(np.isfinite(blocks)):
            self.norms = None
            return
        self.norms += _lp_norms(blocks.reshape(len(mults), -1), self.p, self.cell)
        for power in np.abs(mults) ** 2:
            self.covered += power  # |psi_hat_j|^2, which is m * m for a real multiplier

    def besov(self, js: range, s: float, q: float) -> float:
        """l^q over the scales js fed so far of 2^{js} times their norms."""
        if self.norms is None:
            raise ValueError("samples must be finite")
        acc = 0.0
        for j, norm in zip(js, self.norms):
            acc += (2.0 ** (j * s) * norm) ** q
        energy = np.sum(np.abs(self.spec) ** 2)
        leaked = np.sum(np.abs(self.spec) ** 2 * np.clip(1.0 - self.covered, 0.0, 1.0))
        if energy > 0 and leaked > _LEAK_TOL * energy:
            warnings.warn(f"band leakage: relative residual energy {leaked / energy:.3e} "
                          "outside the cached scale range")
        return float(acc ** (1.0 / q))


class FrameCheck(NamedTuple):
    """`verify_frame`'s findings: the verify-frame report's figures under its
    keys, the number of coefficients, the frame bounds A and B, and the
    message that A <= _ROUNDING B, the operator singular on the band (or None)."""

    numbers: dict
    coefficients: int
    lower_bound: float
    upper_bound: float
    singular: str | None


def verify_frame(f: GridFunction, window, gs: SamplingSet, j_range: tuple[int, int],
                 p: float) -> FrameCheck:
    """The analyze/synthesize round trip of f at p on window's kernels over
    j_range, its frame-operator correction, and the continuous over discrete
    Besov norm at q = 2 and the critical s = Q (1/2 - 1/p).  After
    `frame_reconstruct`'s input checks, the kernel budget and each scale's
    lattice and fold are refused before any multiplier is built.  One
    spectrum of f, one placement and one run of blocks per scale feed
    analysis, synthesis, the frame solve and both norms; the continuous
    norm refuses and warns of leakage only after the frame solve."""
    desc = f.descriptor()
    _check_inputs(gs, desc, desc)
    js, _ = _kernel_factors(desc, j_range)
    scales = _scales(js, gs, desc, folding=True)
    ks = build_kernel_set(window, desc, j_range)
    spec, cell = grid_fft(f), f.spacing**f.dim
    norms = _BlockNorms(spec, 2.0, cell)
    c, places = _analyze(desc, spec, ks, gs, p, scales, norms)
    f_direct = _synthesize(c, ks, desc, places)
    f_rec, info = _frame_reconstruct(f, spec, ks, gs, scales)
    l2 = lebesgue_norm(f, 2.0)
    diffs = np.stack([f.samples - g.samples for g in (f_direct, f_rec)]).reshape(2, -1)
    errs = [e / l2 if l2 > 0 else None for e in _lp_norms(diffs, 2.0, cell)]  # None at f = 0
    s = gs.group.Q * (0.5 - 1.0 / p)
    cont, disc = norms.besov(js, s, 2.0), discrete_besov_norm(c, NormParams(s, 2.0, 2.0))
    lower, upper = info["lower_bound"], info["upper_bound"]
    singular = (f"at density {gs.beta} the frame operator is singular on the covered band: lower "
                f"frame bound {lower:.3e} <= {_ROUNDING:g} * upper frame bound {upper:.3e}"
                if lower <= _ROUNDING * upper else None)
    numbers = {"s_critical": s, "roundtrip_rel_error": errs[0],
               "corrected_rel_error": errs[1], "frame_iterations": info["iterations"],
               "frame_residual": info["relative_residual"],
               "besov_ratio_continuous_over_discrete": cont / disc if disc > 0 else None}
    return FrameCheck(numbers, len(c), lower, upper, singular)


def dilate_grid(f: GridFunction, h: float) -> GridFunction:
    """Resample the localized dilate f . delta_h on the same grid.

    Values are taken by trigonometric interpolation at the arguments h*x;
    arguments outside the principal period are mapped to 0 rather than
    wrapped, so a compressed bump keeps a single copy and the continuum
    scaling laws hold up to the boundary mass.  h must be a positive, finite,
    exact power of two, and its arguments are placed like any point set:
    an h whose refinement exceeds the budget is refused with DomainError.
    """
    if not (math.isfinite(h) and h > 0 and math.frexp(h)[0] == 0.5):
        raise DomainError(f"grid dilation supports a finite h = 2^k only, got {h!r}")
    ints = range_coordinates([(0, f.N)] * f.dim)
    x = -f.extent + f.spacing * ints
    inside = np.all(np.abs(x * h) < f.extent - 1e-12, axis=1)
    vals = np.zeros(len(x), dtype=complex)
    if np.any(inside):
        desc = f.descriptor()
        pl = _place(desc, ints[inside], _refinement(desc, h * f.spacing, -h * f.extent))
        vals[inside] = _sample(desc, grid_fft(f), pl)
    # boundary-mass diagnostic: the localized dilate ignores what f does
    # outside the principal period, which only matters if f carries mass there
    edge = np.any(np.abs(x) >= f.extent / 2.0, axis=1)
    total = np.sum(np.abs(f.samples) ** 2)
    outer = np.sum(np.abs(f.samples.ravel()[edge]) ** 2)
    if total > 0 and outer > 1e-8 * total:
        warnings.warn(f"dilation of a function with relative boundary energy "
                      f"{outer / total:.3e}: scaling laws degrade")
    return replace(f, samples=vals.reshape(f.samples.shape))
