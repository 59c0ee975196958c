"""Function-level spectral calculus on the abelian model G = R^d.

Functions live on a large torus [-R, R)^d and the dyadic kernels act as
Fourier multipliers psi_hat(|nu|^2 / 4^j), with nu the frequency grid in
cycles per unit length.  Analysis samples Littlewood-Paley blocks at the
dilated lattice; synthesis accumulates atom transforms in frequency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .groups import DomainError, GroupSpec, abelian, dilate
from .sampling import AtomIndex, SamplingSet, enumerate_indices
from .coeffs import CoefficientField, L1_ATOMS, lp_atoms, convert

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


def _lattice_points(gs: SamplingSet, j: int, f: GridFunction) -> tuple[list, np.ndarray]:
    """Atom indices at scale j inside the torus box and their decoded positions."""
    box = [(-f.extent, f.extent)] * f.dim
    idx = enumerate_indices(gs, j, box)
    gammas = np.array([i.gamma for i in idx], dtype=np.int64).reshape(len(idx), f.dim)
    return idx, dilate(gs.group, 2.0 ** (-j), gs.decode(gammas))


def _sample_spectrum(f: GridFunction, spectrum: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of the gridded spectrum at arbitrary points."""
    if points.size == 0:
        return np.zeros(0, dtype=complex)
    # fast path: points aligned with the sample grid
    rel = (points + f.extent) / f.spacing
    near = np.rint(rel)
    if np.max(np.abs(rel - near)) < 1e-9:
        vals = grid_ifft(f, spectrum).samples
        ints = np.mod(near.astype(int), f.N)
        return vals[tuple(ints.T)]
    nu = f.freq_axis()
    grids = np.meshgrid(*([nu] * f.dim), indexing="ij")
    nu_flat = np.stack([g.ravel() for g in grids], axis=1)  # (N^d, d)
    dnu = 1.0 / (2.0 * f.extent)
    phase = np.exp(2j * np.pi * (points @ nu_flat.T))  # (P, N^d)
    return dnu**f.dim * (phase @ spectrum.ravel())


def analyze(f: GridFunction, ks: KernelSet, gs: SamplingSet, p: float) -> CoefficientField:
    """Wavelet coefficients against L^p-normalized atoms.

    Samples each Littlewood-Paley block at the scale-j lattice points; the
    sampled values are the L1-convention inner products, then converted.
    """
    if gs.group.kind != "abelian" or gs.group.dim != f.dim:
        raise ValueError("sampling set must be the matching abelian preset")
    if not 1.0 < p < np.inf:
        raise DomainError("p must lie in (1, inf)")
    spec = grid_fft(f)
    items = []
    warned = False
    for j in range(ks.j_range[0], ks.j_range[1] + 1):
        idx, pts = _lattice_points(gs, j, f)
        if not idx:
            continue
        if not warned and np.any(np.abs(pts) > f.extent):
            warnings.warn("lattice points beyond the grid extent wrap periodically")
            warned = True
        vals = _sample_spectrum(f, ks.multiplier(j) * spec, pts)
        items.extend(zip(idx, vals))
    c1 = CoefficientField.build(gs.group, gs, items, L1_ATOMS)
    return convert(c1, lp_atoms(p))


def _atom_spectrum(desc: GridDescriptor, window, Q: float, idx: AtomIndex,
                   x_gamma: np.ndarray, p: float, lam: np.ndarray,
                   nu_flat: np.ndarray) -> np.ndarray:
    j = idx.j
    mult = window.psi_hat(lam * 4.0 ** (-j))
    phase = np.exp(-2j * np.pi * (nu_flat @ x_gamma)).reshape(lam.shape)
    return 2.0 ** (j * Q * (1.0 / p - 1.0)) * mult * phase


def synthesize(c: CoefficientField, ks: KernelSet, gs: SamplingSet,
               target: GridDescriptor) -> GridFunction:
    """Sum_lambda d_lambda psi_lambda rendered on the target grid."""
    if c.normalization.kind != "Lp":
        raise ValueError("synthesize expects Lp-atom normalization")
    p = c.normalization.p
    Q = gs.group.Q
    blank = GridFunction(target.dim, target.extent,
                         np.zeros((target.N,) * target.dim, dtype=complex))
    lam = blank.lambda_grid()
    nu = blank.freq_axis()
    grids = np.meshgrid(*([nu] * target.dim), indexing="ij")
    nu_flat = np.stack([g.ravel() for g in grids], axis=1)
    per_j: dict = {}
    for idx, val in c.entries.items():
        per_j.setdefault(idx.j, []).append((idx, val))
    spec = np.zeros(lam.shape, dtype=complex)
    for j, group in sorted(per_j.items()):
        pts = dilate(gs.group, 2.0 ** (-j), gs.decode([idx.gamma for idx, _ in group]))
        vals = np.array([v for _, v in group])
        phases = np.exp(-2j * np.pi * (nu_flat @ pts.T))  # (N^d, P)
        mult = np.asarray(ks.window.psi_hat(lam.ravel() * 4.0 ** (-j)), dtype=float)
        spec += (2.0 ** (j * Q * (1.0 / p - 1.0)) * mult * (phases @ vals)).reshape(lam.shape)
    return grid_ifft(blank, spec)


def frame_reconstruct(f: GridFunction, ks: KernelSet, gs: SamplingSet, p: float = 2.0,
                      max_iter: int = 50, tol: float = 1e-6) -> tuple[GridFunction, dict]:
    """Frame-operator correction of the analyze/synthesize round trip.

    Solves S g = S f with S = synthesize . analyze by conjugate gradients in
    grid space (S is self-adjoint and positive at adequate density), so g
    approximates f from its frame coefficients alone.
    """

    def apply_s(x: np.ndarray) -> np.ndarray:
        gf = replace(f, samples=x)
        return synthesize(analyze(gf, ks, gs, p), ks, gs, f.descriptor()).samples

    def inner(a, b):
        return complex(np.vdot(a, b)) * f.spacing**f.dim

    b = apply_s(f.samples)
    x = b.copy()
    r = b - apply_s(x)
    d = r.copy()
    rr = inner(r, r).real
    b_norm = np.sqrt(max(inner(b, b).real, 1e-300))
    iters = 0
    while iters < max_iter and np.sqrt(rr) > tol * b_norm:
        sd = apply_s(d)
        alpha = rr / inner(d, sd).real
        x = x + alpha * d
        r = r - alpha * sd
        rr_new = inner(r, r).real
        d = r + (rr_new / rr) * d
        rr = rr_new
        iters += 1
    info = {"iterations": iters, "relative_residual": float(np.sqrt(rr) / b_norm)}
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
    ax = f.axis()
    grids = np.meshgrid(*([ax] * f.dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) * h
    inside = np.all(np.abs(pts) < f.extent - 1e-12, axis=1)
    vals = np.zeros(pts.shape[0], dtype=complex)
    if np.any(inside):
        vals[inside] = _sample_spectrum(f, grid_fft(f), pts[inside])
    # boundary-mass diagnostic: the localized dilate ignores what f does
    # outside the principal period, which only matters if f carries mass there
    edge = np.any(np.abs(np.stack([g.ravel() for g in grids], axis=1))
                  >= f.extent / 2.0, axis=1)
    total = np.sum(np.abs(f.samples) ** 2)
    outer = np.sum(np.abs(f.samples.ravel()[edge]) ** 2)
    if total > 0 and outer > 1e-8 * total:
        warnings.warn(f"dilation of a function with relative boundary energy "
                      f"{outer / total:.3e}: scaling laws degrade")
    return replace(f, samples=vals.reshape(f.samples.shape))
