"""Grid transforms: Fourier conventions, blocks, frames, norms, dilation."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import stratwave as sw
from stratwave import transform
from stratwave.groups import DomainError
from stratwave.transform import grid_fft, grid_ifft
from conftest import gaussian_1d


def band_limited(n=256, extent=8.0, center=2.0, width=8.0) -> sw.GridFunction:
    """Function whose spectrum is a Gaussian ring at frequency modulus `center`."""
    blank = sw.GridFunction(1, extent, np.zeros(n, dtype=complex))
    nu = blank.freq_axis()
    spec = np.exp(-width * (np.abs(nu) - center) ** 2)
    return grid_ifft(blank, spec.astype(complex))


def rel_l2(a: sw.GridFunction, b: sw.GridFunction) -> float:
    diff = sw.GridFunction(a.dim, a.extent, a.samples - b.samples)
    return sw.lebesgue_norm(diff, 2.0) / sw.lebesgue_norm(a, 2.0)


# -- Fourier conventions -----------------------------------------------------

def test_gaussian_transform_oracle():
    # [DERIVED] exp(-pi x^2) is its own transform in the cycles convention
    f = gaussian_1d(n=256, extent=8.0, sigma=1.0)
    spec = grid_fft(f)
    expected = np.exp(-np.pi * f.freq_axis() ** 2)
    assert np.max(np.abs(spec - expected)) <= 1e-12


def test_shifted_gaussian_phase():
    # [DERIVED] translation by c multiplies the transform by e^{-2 pi i nu c}
    c = 1.5
    f = gaussian_1d(n=256, extent=8.0, sigma=1.0, center=c)
    nu = f.freq_axis()
    expected = np.exp(-np.pi * nu**2) * np.exp(-2j * np.pi * nu * c)
    assert np.max(np.abs(grid_fft(f) - expected)) <= 1e-12


def test_fft_ifft_roundtrip_and_parseval():
    rng = np.random.default_rng(7)
    f = sw.GridFunction(1, 8.0, rng.normal(size=256) + 1j * rng.normal(size=256))
    spec = grid_fft(f)
    back = grid_ifft(f, spec)
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-12
    dnu = 1.0 / (2.0 * f.extent)
    assert np.sum(np.abs(spec) ** 2) * dnu == pytest.approx(
        np.sum(np.abs(f.samples) ** 2) * f.spacing, rel=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        sw.GridFunction(1, 8.0, np.zeros(100, dtype=complex))  # not a power of 2
    with pytest.raises(ValueError):
        sw.GridFunction(2, 8.0, np.zeros(64, dtype=complex))  # wrong rank
    with pytest.raises(ValueError):
        sw.GridFunction(1, 8.0, np.full(64, np.nan))


# -- Littlewood-Paley blocks -------------------------------------------------

def test_block_annihilation_exact():
    rng = np.random.default_rng(3)
    f = sw.GridFunction(1, 16.0, rng.normal(size=1024) + 1j * rng.normal(size=1024))
    w = sw.build_window(1.0)
    ks = sw.build_kernel_set(w, f.descriptor(), (-6, 6))
    norm = sw.lebesgue_norm(f, 2.0)
    for j in range(-6, 7):
        for ell in range(-6, 7):
            if abs(j - ell) in (2, 3):
                g = sw.lp_block(sw.lp_block(f, ks, j), ks, ell)
                assert sw.lebesgue_norm(g, 2.0) <= 1e-12 * norm


def test_calderon_reconstruction():
    f = band_limited()
    w = sw.build_window(1.0)
    ks = sw.build_kernel_set(w, f.descriptor(), (-6, 6))
    assert rel_l2(f, sw.calderon_reconstruct(f, ks)) <= 1e-8


def test_kernel_cache_errors():
    f = gaussian_1d(n=64)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (0, 2))
    with pytest.raises(IndexError):
        ks.multiplier(5)
    with pytest.raises(ValueError):
        sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (3, 1))
    other = gaussian_1d(n=128)
    with pytest.raises(ValueError):
        sw.lp_block(other, ks, 0)


# -- analyze / synthesize ----------------------------------------------------

def test_single_atom_roundtrip_narrow():
    """Synthesizing one atom and re-analyzing returns a 1 at its own index,
    exact zeros at every other same-scale index, and only O(frequency step)
    leakage onto the adjacent scales' shared band edges."""
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    desc = sw.GridDescriptor(1, 128, 8.0)
    w = sw.build_narrow_window()
    ks = sw.build_kernel_set(w, desc, (0, 3))
    idx = sw.AtomIndex(1, (2,))
    c0 = sw.CoefficientField(sampling=gs, entries={idx: 1.0 + 0j},
                             normalization=sw.lp_atoms(2.0))
    f = sw.synthesize(c0, ks, gs, desc)
    c = sw.analyze(f, ks, gs, 2.0)
    assert abs(c.entries[idx] - 1.0) <= 1e-10
    for k, v in c.entries.items():
        if k.j == idx.j and k != idx:
            assert abs(v) <= 1e-12
        elif k.j != idx.j:
            assert abs(v) <= 0.1  # band-edge coupling, vanishing with the grid step


def test_atom_unit_norm_narrow():
    # an Lp(2)-normalized atom has unit L^2 norm
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    desc = sw.GridDescriptor(1, 256, 8.0)
    ks = sw.build_kernel_set(sw.build_narrow_window(), desc, (0, 3))
    for j, gamma in [(0, (0,)), (1, (3,)), (2, (-1,))]:
        c = sw.CoefficientField(sampling=gs,
                                entries={sw.AtomIndex(j, gamma): 1.0 + 0j},
                                normalization=sw.lp_atoms(2.0))
        f = sw.synthesize(c, ks, gs, desc)
        assert sw.lebesgue_norm(f, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_frame_reconstruct_narrow():
    f = band_limited(n=128, extent=8.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    ks = sw.build_kernel_set(sw.build_narrow_window(), f.descriptor(), (0, 4))
    rec, info = sw.frame_reconstruct(f, ks, gs)
    assert rel_l2(f, rec) <= 1e-6
    assert info["iterations"] <= 50
    assert info["relative_residual"] <= 1e-6


def test_frame_reconstruct_smooth_dense():
    f = band_limited(n=128, extent=8.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    rec, info = sw.frame_reconstruct(f, ks, gs)
    assert rel_l2(f, rec) <= 1e-3
    assert info["iterations"] <= 50


def test_analyze_validation():
    f = gaussian_1d(n=64)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (0, 2))
    gs_h = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    with pytest.raises(ValueError):
        sw.analyze(f, ks, gs_h, 2.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.raises(DomainError):
        sw.analyze(f, ks, gs, 1.0)


def test_synthesize_requires_lp_tag():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    desc = sw.GridDescriptor(1, 64, 8.0)
    ks = sw.build_kernel_set(sw.build_narrow_window(), desc, (0, 2))
    c = sw.CoefficientField(sampling=gs,
                            entries={sw.AtomIndex(0, (0,)): 1.0 + 0j},
                            normalization=sw.L1_ATOMS)
    with pytest.raises(ValueError):
        sw.synthesize(c, ks, gs, desc)


def test_synthesize_validation():
    # a Heisenberg sampling set on a 3-D grid, and a target grid other than
    # the kernel cache's, are both refused
    desc = sw.GridDescriptor(3, 8, 4.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (0, 1))
    gs_h = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    c = sw.CoefficientField(sampling=gs_h,
                            entries={sw.AtomIndex(0, (0, 0, 0)): 1.0 + 0j},
                            normalization=sw.lp_atoms(2.0))
    with pytest.raises(ValueError, match="matching abelian preset"):
        sw.synthesize(c, ks, gs_h, desc)
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    ks1 = sw.build_kernel_set(sw.build_window(1.0), sw.GridDescriptor(1, 64, 8.0), (0, 1))
    c1 = sw.CoefficientField(sampling=gs, entries={sw.AtomIndex(0, (0,)): 1.0 + 0j},
                             normalization=sw.lp_atoms(2.0))
    with pytest.raises(ValueError, match="kernel cache"):
        sw.synthesize(c1, ks1, gs, sw.GridDescriptor(1, 128, 8.0))


def test_synthesize_refuses_another_sampling_set():
    # at beta = 1/2 the atom gamma = 3 sits at x = 1.5; read at beta = 1/4
    # it would be drawn at x = 0.75
    desc = sw.GridDescriptor(1, 256, 8.0)
    ks = sw.build_kernel_set(sw.build_narrow_window(), desc, (0, 0))
    gs = sw.preset_sampling_set(sw.abelian(1), 0.5)
    c = sw.CoefficientField(gs, {sw.AtomIndex(0, (3,)): 1.0}, sw.lp_atoms(2.0))
    f = sw.synthesize(c, ks, gs, desc)
    assert f.axis()[np.argmax(np.abs(f.samples))] == 1.5
    with pytest.raises(ValueError, match="another sampling set"):
        sw.synthesize(c, ks, sw.preset_sampling_set(sw.abelian(1), 0.25), desc)



@pytest.mark.parametrize("window", [sw.build_window(1.0), sw.build_narrow_window()],
                         ids=["smooth", "narrow"])
def test_atom_at_the_lattice_bound_synthesizes_like_its_periodic_copy(window):
    # with beta = 0.25 on [-4, 4) the lattice period is 32: gamma = 2^53 - 1
    # is the copy of gamma = 31, which the float position 0.25 gamma rounds
    # away from its node
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    desc = sw.GridDescriptor(1, 256, 4.0)
    ks = sw.build_kernel_set(window, desc, (0, 0))
    far, near = 2**53 - 1, (2**53 - 1) % 32
    f_far, f_near = (sw.synthesize(sw.CoefficientField(gs, {sw.AtomIndex(0, (g,)): 1.0},
                                                       sw.lp_atoms(2.0)), ks, gs, desc).samples
                     for g in (far, near))
    assert np.linalg.norm(f_far - f_near) <= 1e-12 * np.linalg.norm(f_near)

# -- the exact FFT path --------------------------------------------------------

def _random_grid(rng, dim, n, extent) -> sw.GridFunction:
    shape = (n,) * dim
    return sw.GridFunction(dim, extent, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _frequency_points(f: sw.GridFunction) -> np.ndarray:
    grids = np.meshgrid(*([f.freq_axis()] * f.dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)  # (N^d, d)


def _dense_samples(f, spectrum, points):
    """Reference: dnu^d sum_nu e^{2 pi i nu.x} spectrum(nu) at each point x."""
    phase = np.exp(2j * np.pi * (points @ _frequency_points(f).T))
    return phase @ spectrum.ravel() / (2.0 * f.extent) ** f.dim


def _dense_spread(f, values, points):
    """Reference: sum_x e^{-2 pi i nu.x} v_x at each grid frequency nu."""
    phase = np.exp(-2j * np.pi * (_frequency_points(f) @ points.T))
    return (phase @ values).reshape(f.samples.shape)


# (dim, N, extent, density, j, L): the scale-j lattice sits on the L-fold
# refinement of the grid, or on none (L = 0, dense sums)
FFT_CASES = [
    (1, 64, 4.0, 0.125, 0, 1), (1, 64, 4.0, 0.125, 1, 2), (1, 64, 4.0, 0.125, 2, 4),
    (1, 64, 4.0, 0.3, 0, 0),
    (2, 16, 2.0, 0.125, -1, 1), (2, 16, 2.0, 0.125, 0, 2), (2, 16, 2.0, 0.125, 1, 4),
    (2, 16, 2.0, 0.3, 0, 0),
]
FFT_IDS = [f"{d}d-L{L}" for d, _, _, _, _, L in FFT_CASES]


def _single_scale(dim, n, extent, density, j, L):
    desc = sw.GridDescriptor(dim, n, extent)
    gs = sw.preset_sampling_set(sw.abelian(dim), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (j, j))
    (scale,) = transform._scales(ks, gs, desc)
    assert scale.placement.L == L
    return desc, gs, ks, scale


@pytest.mark.parametrize("dim, n, extent, density, j, L", FFT_CASES, ids=FFT_IDS)
def test_analyze_synthesize_adjoint(dim, n, extent, density, j, L):
    """<A x, c> = <x, A* c> per scale: at p = 2 synthesize is the adjoint of
    analyze, in the l2 coefficient and the dx^d-weighted grid inner products."""
    rng = np.random.default_rng(5)
    desc, gs, ks, _ = _single_scale(dim, n, extent, density, j, L)
    x = _random_grid(rng, dim, n, extent)
    ax = sw.analyze(x, ks, gs, 2.0)
    assert len(ax) > 0
    c = sw.CoefficientField(sampling=gs,
                            entries={k: complex(*rng.normal(size=2)) for k in ax.entries},
                            normalization=sw.lp_atoms(2.0))
    lhs = sum(np.conj(v) * c.entries[k] for k, v in ax.entries.items())
    rhs = np.vdot(x.samples, sw.synthesize(c, ks, gs, desc).samples) * x.spacing**dim
    assert abs(lhs - rhs) <= 1e-12 * ax.l2() * c.l2()


@pytest.mark.parametrize("dim, n, extent, density, j, L", FFT_CASES, ids=FFT_IDS)
def test_fft_path_matches_dense_sums(dim, n, extent, density, j, L):
    rng = np.random.default_rng(9)
    desc, gs, ks, scale = _single_scale(dim, n, extent, density, j, L)
    f = _random_grid(rng, dim, n, extent)
    mult = ks.multiplier(j)
    # analysis: L1-convention samples of the block at the lattice points
    c1 = sw.convert(sw.analyze(f, ks, gs, 2.0), sw.L1_ATOMS)
    indices = [sw.AtomIndex(j, tuple(g)) for g in scale.gammas.tolist()]
    got = np.array([c1.entries[k] for k in indices])
    want = _dense_samples(f, mult * grid_fft(f), scale.points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # synthesis: sum_lambda d_lambda 2^{jQ(1/p - 1)} psi_hat_j e^{-2 pi i nu.x_lambda};
    # the copies shifted by one period of the torus wrap onto the first atoms
    period = int(round(2.0 * extent / (density * 2.0 ** (-j))))
    idx = indices + [sw.AtomIndex(j, tuple(g + period for g in k.gamma))
                     for k in indices[:5]]
    points = density * 2.0 ** (-j) * np.array([k.gamma for k in idx], dtype=float)
    d = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    c = sw.CoefficientField(sampling=gs, entries=dict(zip(idx, d)),
                            normalization=sw.lp_atoms(2.0))
    spec = 2.0 ** (-j * dim / 2.0) * mult * _dense_spread(f, d, points)
    want = grid_ifft(f, spec).samples
    got = sw.synthesize(c, ks, gs, desc).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_dilate_grid_matches_dense_sums():
    # h = 1/2 and 1/4 put the arguments h x on the 2- and 4-fold refinements
    f = band_limited(n=128, extent=8.0, center=1.0, width=8.0)
    x = f.axis()[:, None]
    for h in (0.5, 0.25):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the band-limited tail reaches the boundary
            got = sw.dilate_grid(f, h).samples
        want = _dense_samples(f, grid_fft(f), h * x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_roundtrip_2d_fine_scales():
    """2-D N=64, beta=0.5, j in [-2, 3]: the finest scale's 65536 points
    would need 4.3 GB of dense phases; on the 4-fold refinement the round
    trip runs and keeps <synthesize(analyze f), f> = ||analyze f||^2."""
    desc = sw.GridDescriptor(2, 64, 8.0)
    f = sw.GridFunction.from_callable(desc, lambda x, y: np.exp(-np.pi * (x**2 + y**2)))
    gs = sw.preset_sampling_set(sw.abelian(2), 0.5)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (-2, 3))
    assert max(s.placement.L for s in transform._scales(ks, gs, desc)) == 4
    c = sw.analyze(f, ks, gs, 2.0)
    g = sw.synthesize(c, ks, gs, desc)
    energy = np.vdot(f.samples, g.samples) * f.spacing**2
    assert abs(energy - c.l2() ** 2) <= 1e-10 * c.l2() ** 2


def test_dense_budget_refused_up_front(monkeypatch):
    # beta = 0.3 lies on no dyadic refinement: 214 points x 1024 frequencies
    # need 3.5 MB of phases against a 1 MiB budget
    monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", 1 << 20)
    f = _random_grid(np.random.default_rng(2), 1, 1024, 8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.3)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (2, 2))
    # a 512^2 target is itself over budget, so even its grid points are refused
    desc2 = sw.GridDescriptor(2, 512, 8.0)
    ks2 = sw.build_kernel_set(sw.build_window(1.0), desc2, (0, 0))
    gs2 = sw.preset_sampling_set(sw.abelian(2), 0.5)
    c2 = sw.CoefficientField(sampling=gs2,
                             entries={sw.AtomIndex(0, (1, 2)): 1.0 + 0j},
                             normalization=sw.lp_atoms(2.0))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            sw.analyze(f, ks, gs, 2.0)
        with pytest.raises(DomainError, match="budget"):
            sw.synthesize(c2, ks2, gs2, desc2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_dense_phases_built_once_per_scale_and_call(monkeypatch):
    # density 0.3 puts several scales on no dyadic refinement of the grid
    f = band_limited(n=256, extent=4.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.3)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    dense = sum(s.placement.L == 0 for s in transform._scales(ks, gs, f.descriptor()))
    assert dense == 6
    builds = []
    phases = transform._phases
    monkeypatch.setattr(transform, "_phases", lambda *a: builds.append(1) or phases(*a))
    c = sw.analyze(f, ks, gs, 4.0)
    assert len(builds) == dense
    sw.synthesize(c, ks, gs, f.descriptor())
    assert len(builds) == dense + len(c.scales())  # the scales c holds
    _, info = sw.frame_reconstruct(f, ks, gs)
    assert info["iterations"] >= 2 and len(builds) == 2 * dense + len(c.scales())
    # at density 0.25 every scale sits on a refinement
    builds.clear()
    sw.analyze(f, ks, sw.preset_sampling_set(sw.abelian(1), 0.25), 4.0)
    assert builds == []


def test_dense_budget_counts_every_scale_of_a_call(monkeypatch):
    f = band_limited(n=256, extent=4.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.3)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    scales = transform._scales(ks, gs, f.descriptor())
    need = [16 * len(s.points) * f.N for s in scales if s.placement.L == 0]
    monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", sum(need) - 1)
    assert max(need) <= transform.MAX_ARRAY_BYTES
    with pytest.raises(DomainError, match="budget"):
        sw.analyze(f, ks, gs, 4.0)


def test_frame_reconstruct_warns_when_not_converged():
    f = band_limited(n=128, extent=8.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    with pytest.warns(RuntimeWarning, match="max_iter=1"):
        _, info = sw.frame_reconstruct(f, ks, gs, max_iter=1, tol=1e-14)
    assert info["iterations"] == 1 and len(info["residuals"]) == 2
    assert info["residuals"][-1] == info["relative_residual"] > 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, info = sw.frame_reconstruct(f, ks, gs)
    assert len(info["residuals"]) == info["iterations"] + 1
    assert info["residuals"][-1] == info["relative_residual"] <= 1e-6



@pytest.mark.parametrize("factor, error, message", [
    (1j, DomainError, "breakdown at iteration 1: <d, Sd> = -"),
    (np.nan, ValueError, "finite"),
], ids=["negative", "nan"])
def test_frame_reconstruct_raises_on_cg_breakdown(factor, error, message):
    # i * psi_hat enters S twice, so S = -S_true and <d, Sd> < 0 at the first
    # step; a NaN multiplier makes S f non-finite, which is refused too
    f = band_limited(n=128, extent=8.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    bad = dataclasses.replace(ks, multipliers={j: factor * m for j, m in ks.multipliers.items()})
    with pytest.raises(error, match=re.escape(message)):
        sw.frame_reconstruct(f, bad, gs)
    _, info = sw.frame_reconstruct(f, ks, gs)  # the unmodified set still converges
    assert info["relative_residual"] <= 1e-6

# -- norms and dilation ------------------------------------------------------

def test_lebesgue_norm_oracle():
    rng = np.random.default_rng(11)
    f = sw.GridFunction(1, 8.0, rng.normal(size=64) + 0j)
    for p in (1.0, 2.0, 4.0):
        oracle = (np.sum(np.abs(f.samples) ** p) * f.spacing) ** (1.0 / p)
        assert sw.lebesgue_norm(f, p) == pytest.approx(oracle, rel=1e-14)
    assert sw.lebesgue_norm(f, np.inf) == np.max(np.abs(f.samples))
    with pytest.raises(DomainError):
        sw.lebesgue_norm(f, 0.5)


def test_sobolev_norm_gaussian_oracle():
    # [DERIVED] for exp(-pi x^2): ||f||_{Hdot^{1/2}}^2 = int |nu| e^{-2 pi nu^2}
    # d nu = 1 / (2 pi).  The |nu| cusp at the origin limits the frequency
    # quadrature to O(dnu^2), so check convergence at that rate as the
    # frequency step halves (extent doubles at fixed spatial spacing).
    oracle = np.sqrt(1.0 / (2 * np.pi))
    errs = [abs(sw.sobolev_norm(gaussian_1d(n=n, extent=e, sigma=1.0), 0.5) - oracle)
            for n, e in [(512, 8.0), (1024, 16.0), (2048, 32.0)]]
    assert errs[-1] <= 5e-4 * oracle
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 <= coarse / fine <= 5.5


def test_sobolev_s0_matches_l2_for_zero_mean():
    desc = sw.GridDescriptor(1, 256, 8.0)
    f = sw.GridFunction.from_callable(desc, lambda x: x * np.exp(-np.pi * x**2))
    assert sw.sobolev_norm(f, 0.0) == pytest.approx(sw.lebesgue_norm(f, 2.0), rel=1e-10)


def test_sobolev_negative_s_singular_mode():
    f = gaussian_1d(n=128)  # nonzero mean
    with pytest.raises(DomainError):
        sw.sobolev_norm(f, -0.5)


def test_dilation_scaling_identities():
    # h^{Q/p} ||f o delta_h||_p = ||f||_p and the matching
    # homogeneous-Sobolev rule at the paired (s, p); the bump's spectrum
    # vanishes near zero frequency so the |nu|^{2s} cusp contributes nothing
    f = band_limited(n=512, extent=8.0, center=2.0, width=8.0)
    g = sw.abelian(1)
    s = 0.25
    p = sw.critical_exponent(g, s)  # p = 4
    for h in (2.0, 0.5):
        fh = sw.dilate_grid(f, h)
        lp_ratio = h ** (g.Q / p) * sw.lebesgue_norm(fh, p) / sw.lebesgue_norm(f, p)
        # with the critical pairing Q/p = Q/2 - s both norms share the prefactor
        hs_ratio = h ** (g.Q / p) * sw.sobolev_norm(fh, s) / sw.sobolev_norm(f, s)
        assert abs(lp_ratio - 1.0) <= 1e-10
        assert abs(hs_ratio - 1.0) <= 1e-10


def test_dilate_grid_validation_and_warning():
    f = gaussian_1d(n=128)
    with pytest.raises(DomainError):
        sw.dilate_grid(f, 3.0)
    flat = sw.GridFunction(1, 8.0, np.ones(128, dtype=complex))
    with pytest.warns(UserWarning, match="boundary"):
        sw.dilate_grid(flat, 2.0)


def test_besov_continuous_single_band():
    # a spectrum confined to one dyadic band reduces the Besov sum to a
    # single weighted L^p block norm
    f = band_limited(n=256, extent=8.0, center=1.4, width=60.0)  # lambda ~ 2
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-4, 6))
    s, p = 0.3, 2.0
    val = sw.besov_norm_continuous(f, ks, s, p, 2.0)
    brute = 0.0
    for j in range(-4, 7):
        brute += (2.0 ** (j * s) * sw.lebesgue_norm(sw.lp_block(f, ks, j), p)) ** 2
    assert val == pytest.approx(np.sqrt(brute), rel=1e-12)
