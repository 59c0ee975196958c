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
c = (origin + R) L / dx are integers (L = 2^k; for beta 2^{-j} Z^d, when
beta N / (2R 2^j) is a dyadic rational), the points sit on the L-fold
refinement at nodes (k m + c) mod N L, exact in int64 for |k| <= 2^53.
Sampling zero-pads the parity-signed spectrum into the (N L)^d FFT layout,
frequency n at index n mod N L so the Nyquist bin keeps its place, runs
one inverse FFT and gathers the nodes; spreading scatters the values onto
that grid, runs one forward FFT and crops back to the N^d frequencies.
Only sets on no refinement within the budget build float positions, for
dense (points x N^d) phase matrices, once per call and scale; the matrices
of all the scales one call holds are refused with `DomainError` before any
is built when together they would exceed MAX_ARRAY_BYTES.  The general off-lattice
alternative would be a nonuniform FFT (Dutt-Rokhlin 1993).

Coefficient fields cross this module as arrays: `analyze` samples each
scale at its lattice points (`sampling.lattice_coordinates`, already in
canonical order) and `synthesize` reads each scale's run of the field's
canonical arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .groups import DomainError, dilate  # noqa: F401 (perfbench's tracer test reads it)
from .sampling import SamplingSet, lattice_coordinates
from .coeffs import SPARSE_FLOOR, CoefficientField, L1_ATOMS, lp_atoms, convert

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
    "dilate_grid",
]

# largest complex128 memory (16 B an entry) the exact sums may build: one
# refined FFT grid of (N L)^d nodes, or the dense phase matrices (points x
# N^d) of all the scales one call holds
MAX_ARRAY_BYTES = 1 << 28


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


def _parity(dim: int, n: int) -> np.ndarray:
    """Per-frequency sign (-1)^(k_1+...+k_d) accounting for the grid origin at -R.

    With extent R = N*spacing/2 the phase e^{2 pi i nu R} of each axis reduces
    to (-1)^k exactly, so the continuous-transform convention costs only signs.
    """
    s = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    grids = np.meshgrid(*([s] * dim), indexing="ij")
    return np.prod(grids, axis=0) if dim > 1 else grids[0]


def grid_fft(f: GridFunction) -> np.ndarray:
    """Continuous Fourier transform on the grid: F(nu) = int f(x) e^{-2 pi i nu x} dx."""
    return f.spacing**f.dim * np.fft.fftn(f.samples) * _parity(f.dim, f.N)


def grid_ifft(f: GridFunction, spectrum: np.ndarray) -> GridFunction:
    samples = np.fft.ifftn(spectrum * _parity(f.dim, f.N)) / f.spacing**f.dim
    return replace(f, samples=samples)


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


def build_kernel_set(window, desc: GridDescriptor, j_range: tuple[int, int]) -> KernelSet:
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max:
        raise ValueError("empty j_range")
    lam = GridFunction(desc.dim, desc.extent,
                       np.zeros((desc.N,) * desc.dim, dtype=complex)).lambda_grid()
    mult = {j: np.asarray(window.psi_hat(lam * 4.0 ** (-j)), dtype=float)
            for j in range(j_min, j_max + 1)}
    return KernelSet(window=window, j_range=(j_min, j_max), desc=desc, multipliers=mult)


def lp_block(f: GridFunction, ks: KernelSet, j: int) -> GridFunction:
    """Littlewood-Paley block f * psi_j^* as a diagonal frequency multiplier."""
    if f.descriptor() != ks.desc:
        raise ValueError("grid descriptor does not match the kernel cache")
    return grid_ifft(f, ks.multiplier(j) * grid_fft(f))


def calderon_reconstruct(f: GridFunction, ks: KernelSet) -> GridFunction:
    """Sum_j f * psi_j^* * psi_j over the cached range."""
    spec = grid_fft(f)
    total = np.zeros_like(spec)
    for j in range(ks.j_range[0], ks.j_range[1] + 1):
        total += ks.multiplier(j) ** 2 * spec
    return grid_ifft(f, total)


def _check_inputs(gs: SamplingSet, ks: KernelSet, desc: GridDescriptor) -> None:
    if gs.group.kind != "abelian" or gs.group.dim != desc.dim:
        raise ValueError("sampling set must be the matching abelian preset")
    if desc != ks.desc:
        raise ValueError("grid descriptor does not match the kernel cache")


class _Placement(NamedTuple):
    """Points as raveled indices into the (N L)^d grid of the L-fold
    refinement, or L = 0 and their dense (P, N^d) phase matrix."""

    L: int
    at: np.ndarray


def _refinement(desc: GridDescriptor, ints: np.ndarray, step: float,
                origin: float) -> Optional[_Placement]:
    """The smallest refinement L = 2^k within the budget on which step L / dx
    and (origin + R) L / dx are integers m and c, which holds the points
    origin + step * ints of (P, d) integers at the nodes (ints m + c) mod N L."""
    dx = 2.0 * desc.extent / desc.N
    L = 1
    while 16 * (desc.N * L) ** desc.dim <= MAX_ARRAY_BYTES:
        m, c = step * L / dx, (origin + desc.extent) * L / dx
        if abs(m - round(m)) < 1e-9 and abs(c - round(c)) < 1e-9:
            NL = desc.N * L
            nodes = (np.mod(ints, NL) * (round(m) % NL) + round(c) % NL) % NL
            return _Placement(L, np.ravel_multi_index(tuple(nodes.T), (NL,) * desc.dim))
        L *= 2
    return None


def _place(desc: GridDescriptor, point_sets: list) -> list[_Placement]:
    """Each point set (ints, step, origin) on its smallest refinement within the budget.

    Sets on no such refinement get the dense phase matrix of their positions,
    built here once; the matrices of all sets together are refused with
    DomainError, before any is built, when they would exceed MAX_ARRAY_BYTES.
    """
    placed = [_refinement(desc, *ps) for ps in point_sets]
    dense = sum(len(ints) for (ints, _, _), pl in zip(point_sets, placed) if pl is None)
    need = 16 * dense * desc.N**desc.dim
    if need > MAX_ARRAY_BYTES:
        raise DomainError(f"{dense} points on no dyadic refinement of the grid need "
                          f"{need} B of dense phases, over the {MAX_ARRAY_BYTES} B budget")
    return [pl if pl is not None else _Placement(0, _phases(desc, origin + step * ints))
            for (ints, step, origin), pl in zip(point_sets, placed)]


def _frequencies(desc: GridDescriptor, L: int):
    """Open mesh of the grid frequencies n (FFT layout, Nyquist at -N/2) in the
    (N L)-point FFT layout, i.e. n mod N L."""
    n = np.fft.ifftshift(np.arange(-(desc.N // 2), desc.N // 2))
    return np.ix_(*([np.mod(n, desc.N * L)] * desc.dim))


def _phases(desc: GridDescriptor, points: np.ndarray) -> np.ndarray:
    """Dense exp(2 pi i x.nu) for every point x and grid frequency nu, (P, N^d)."""
    nu = np.fft.fftfreq(desc.N, d=2.0 * desc.extent / desc.N)
    grids = np.meshgrid(*([nu] * desc.dim), indexing="ij")
    theta = points @ np.stack([g.ravel() for g in grids], axis=0)
    theta *= 2.0 * np.pi
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _sample(desc: GridDescriptor, spectrum: np.ndarray, pl: _Placement) -> np.ndarray:
    """Trigonometric interpolation dnu^d sum_nu e^{2 pi i nu.x} spectrum(nu) at the points."""
    d = desc.dim
    if pl.L == 0:
        return (1.0 / (2.0 * desc.extent)) ** d * (pl.at @ spectrum.ravel())
    signed = spectrum * _parity(d, desc.N)
    if pl.L > 1:
        padded = np.zeros((desc.N * pl.L,) * d, dtype=complex)
        padded[_frequencies(desc, pl.L)] = signed
        signed = padded
    return np.fft.ifftn(signed).ravel()[pl.at] * pl.L**d / (2.0 * desc.extent / desc.N) ** d


def _spread(desc: GridDescriptor, values: np.ndarray, pl: _Placement) -> np.ndarray:
    """Adjoint of _sample: sum_x e^{-2 pi i nu.x} v_x at every grid frequency nu."""
    d = desc.dim
    if pl.L == 0:
        return np.conj(pl.at.T @ np.conj(values)).reshape((desc.N,) * d)
    grid = np.zeros((desc.N * pl.L) ** d, dtype=complex)
    np.add.at(grid, pl.at, values)  # points that wrap onto one node add up
    spec = np.fft.fftn(grid.reshape((desc.N * pl.L,) * d))
    if pl.L > 1:
        spec = spec[_frequencies(desc, pl.L)]
    return spec * _parity(d, desc.N)


class _Scale(NamedTuple):
    sampling: SamplingSet
    j: int
    gammas: np.ndarray  # (P, dim) int64, lexicographic
    placement: _Placement

    @property
    def points(self) -> np.ndarray:
        return self.sampling.points(self.j, self.gammas)


def _scales(ks: KernelSet, gs: SamplingSet, desc: GridDescriptor) -> list[_Scale]:
    """Each cached scale's lattice points inside the torus box, placed on the grid."""
    box = [(-desc.extent, desc.extent)] * desc.dim
    lattices = [(j, lattice_coordinates(gs, j, box))
                for j in range(ks.j_range[0], ks.j_range[1] + 1)]
    placements = _place(desc, [(gm, gs.beta * 2.0 ** -j, 0.0) for j, gm in lattices])
    return [_Scale(gs, j, gm, pl) for (j, gm), pl in zip(lattices, placements)]


def analyze(f: GridFunction, ks: KernelSet, gs: SamplingSet, p: float) -> CoefficientField:
    """Wavelet coefficients against L^p-normalized atoms.

    Samples each Littlewood-Paley block at the scale-j lattice points; the
    sampled values are the L1-convention inner products, then converted.
    """
    desc = f.descriptor()
    _check_inputs(gs, ks, desc)
    if not 1.0 < p < np.inf:
        raise DomainError("p must lie in (1, inf)")
    scales = _scales(ks, gs, desc)
    spec = grid_fft(f)
    values = [_sample(desc, ks.multiplier(s.j) * spec, s.placement) for s in scales]
    js = np.concatenate([np.full(len(s.gammas), s.j) for s in scales])
    c1 = CoefficientField(gs, normalization=L1_ATOMS, floor=SPARSE_FLOOR, js=js,
                          gammas=np.concatenate([s.gammas for s in scales]),
                          values=np.concatenate(values))
    return convert(c1, lp_atoms(p))


def synthesize(c: CoefficientField, ks: KernelSet, gs: SamplingSet,
               target: GridDescriptor) -> GridFunction:
    """Sum_lambda d_lambda psi_lambda rendered on the target grid; the adjoint
    of `analyze` at p = 2.  gs must be the field's sampling set."""
    if gs != c.sampling:
        raise ValueError("the field lives on another sampling set than gs")
    _check_inputs(gs, ks, target)
    if c.normalization.kind != "Lp":
        raise ValueError("synthesize expects Lp-atom normalization")
    p = c.normalization.p
    Q = gs.group.Q
    runs = c.scales()
    mults = [ks.multiplier(j) for j, _ in runs]
    placements = _place(target, [(c.gammas[run], gs.beta * 2.0 ** -j, 0.0) for j, run in runs])
    spec = np.zeros((target.N,) * target.dim, dtype=complex)
    for (j, run), mult, pl in zip(runs, mults, placements):
        spec += 2.0 ** (j * Q * (1.0 / p - 1.0)) * mult * _spread(target, c.values[run], pl)
    blank = GridFunction(target.dim, target.extent, np.zeros_like(spec))
    return grid_ifft(blank, spec)


def frame_reconstruct(f: GridFunction, ks: KernelSet, gs: SamplingSet,
                      max_iter: int = 50, tol: float = 1e-6) -> tuple[GridFunction, dict]:
    """Frame-operator correction of the analyze/synthesize round trip.

    Solves S g = S f by conjugate gradients in grid space, so g approximates
    f from its frame coefficients alone.  S = sum_j 2^{-jQ} A_j^* A_j with
    A_j the scale-j sampling of the Littlewood-Paley block is
    synthesize . analyze for every p (the atom normalizations cancel, so S
    takes no p), applied on arrays with each scale's lattice built once,
    so S is linear and self-adjoint; it is positive at adequate density.
    info holds "iterations", "relative_residual" and "residuals", the
    relative residual before the first iteration and after each one.  A
    RuntimeWarning flags a stop at max_iter above tol; a search direction
    with <d, Sd> <= 0 or not finite (S not positive) raises DomainError.
    """
    desc = f.descriptor()
    _check_inputs(gs, ks, desc)
    Q = gs.group.Q
    scales = [(2.0 ** (-s.j * Q), ks.multiplier(s.j), s.placement)
              for s in _scales(ks, gs, desc)]

    def apply_s(x: np.ndarray) -> np.ndarray:
        spec = grid_fft(replace(f, samples=x))
        out = np.zeros_like(spec)
        for w, mult, pl in scales:
            out += w * mult * _spread(desc, _sample(desc, mult * spec, pl), pl)
        return grid_ifft(f, out).samples

    def inner(a, b):
        return complex(np.vdot(a, b)) * f.spacing**f.dim

    b = apply_s(f.samples)
    x = b.copy()
    r = b - apply_s(x)
    d = r.copy()
    rr = inner(r, r).real
    b_norm = np.sqrt(max(inner(b, b).real, 1e-300))
    iters = 0
    history = [float(np.sqrt(rr) / b_norm)]
    while iters < max_iter and not np.sqrt(rr) <= tol * b_norm:  # NaN enters, then raises
        sd = apply_s(d)
        curvature = inner(d, sd).real
        if not (np.isfinite(curvature) and curvature > 0):
            raise DomainError(f"frame CG breakdown at iteration {iters + 1}: "
                              f"<d, Sd> = {curvature!r} is not a positive finite number")
        alpha = rr / curvature
        x = x + alpha * d
        r = r - alpha * sd
        rr_new = inner(r, r).real
        d = r + (rr_new / rr) * d
        rr = rr_new
        iters += 1
        history.append(float(np.sqrt(rr) / b_norm))
    if np.sqrt(rr) > tol * b_norm:
        warnings.warn(f"frame CG stopped at max_iter={max_iter} with relative residual "
                      f"{history[-1]:.3e} above tol={tol:g}", RuntimeWarning)
    info = {"iterations": iters, "relative_residual": history[-1], "residuals": history}
    return replace(f, samples=x), info


def sobolev_norm(f: GridFunction, s: float, dc_tol: float = 1e-12) -> float:
    """Homogeneous Sobolev norm via the multiplier |nu|^s; DC mode excluded."""
    spec = grid_fft(f)
    lam = f.lambda_grid()
    dc = tuple([0] * f.dim)
    l2 = np.sqrt(np.sum(np.abs(spec) ** 2)) + 1e-300
    if s < 0 and abs(spec[dc]) > dc_tol * l2:
        raise DomainError("nonzero mean with s < 0: singular zero mode")
    spec = spec.copy()
    spec[dc] = 0.0
    dnu = 1.0 / (2.0 * f.extent)
    weighted = np.abs(spec) ** 2 * np.where(lam > 0, lam**s, 0.0)
    return float(np.sqrt(np.sum(weighted) * dnu**f.dim))


def lebesgue_norm(f: GridFunction, p: float) -> float:
    a = np.abs(f.samples)
    if p == np.inf:
        return float(np.max(a))
    if p < 1:
        raise DomainError("p must be >= 1")
    return float((np.sum(a**p) * f.spacing**f.dim) ** (1.0 / p))


def besov_norm_continuous(f: GridFunction, ks: KernelSet, s: float, p: float,
                          q: float, leak_tol: float = 1e-8) -> float:
    """l^q over scales of 2^{js} ||f * psi_j^*||_{L^p} on the cached range."""
    spec = grid_fft(f)
    covered = np.zeros(spec.shape)
    acc = 0.0
    for j in range(ks.j_range[0], ks.j_range[1] + 1):
        m = ks.multiplier(j)
        covered += m * m
        block = grid_ifft(f, m * spec)
        acc += (2.0 ** (j * s) * lebesgue_norm(block, p)) ** q
    energy = np.sum(np.abs(spec) ** 2)
    leaked = np.sum(np.abs(spec) ** 2 * np.clip(1.0 - covered, 0.0, 1.0))
    if energy > 0 and leaked > leak_tol * energy:
        warnings.warn(f"band leakage: relative residual energy {leaked / energy:.3e} "
                      "outside the cached scale range")
    return float(acc ** (1.0 / q))


def dilate_grid(f: GridFunction, h: float) -> GridFunction:
    """Resample the localized dilate f . delta_h on the same grid.

    Values are taken by trigonometric interpolation at the arguments h*x;
    arguments outside the principal period are mapped to 0 rather than
    wrapped, so a compressed bump keeps a single copy and the continuum
    scaling laws hold up to the boundary mass.  Requires h = 2^k.
    """
    k = np.log2(h)
    if abs(k - round(k)) > 1e-12:
        raise DomainError("grid dilation supports h = 2^k only")
    grids = np.meshgrid(*([np.arange(f.N)] * f.dim), indexing="ij")
    ints = np.stack([g.ravel() for g in grids], axis=1)
    x = -f.extent + f.spacing * ints
    inside = np.all(np.abs(x * h) < f.extent - 1e-12, axis=1)
    vals = np.zeros(len(x), dtype=complex)
    if np.any(inside):
        desc = f.descriptor()
        (pl,) = _place(desc, [(ints[inside], h * f.spacing, -h * f.extent)])
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
