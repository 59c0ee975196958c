"""Grid transforms: Fourier conventions, blocks, frames, norms, dilation."""

import ast
import dataclasses
import functools
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from stratwave import io as sio
from stratwave import sampling, transform
from stratwave.groups import DomainError
from stratwave.transform import grid_fft, grid_ifft
from conftest import as_dict, field_of, gaussian_1d


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


@pytest.mark.parametrize("dim, n", [(1, 8), (2, 4), (3, 4)])
def test_parity_signs_are_built_once_and_read_only(dim, n):
    signs = transform._parity(dim, n)
    k = np.indices((n,) * dim).sum(axis=0)
    assert np.array_equal(signs, (-1.0) ** k)
    assert transform._parity(dim, n) is signs
    with pytest.raises(ValueError, match="read-only"):
        signs[(0,) * dim] = 2.0


def test_analyze_refuses_an_over_budget_scale_before_building_the_others(monkeypatch):
    # density 0.25 on N = 64, R = 2: scale j has 2^(j + 4) points, 8 B each
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2**10)
    f = _random_grid(np.random.default_rng(5), 1, 64, 2.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 7))
    built = []
    lattice = transform.range_coordinates
    monkeypatch.setattr(transform, "range_coordinates",
                        lambda ranges: built.append(ranges) or lattice(ranges))
    # the one range pass refuses scale 7 before any lattice is built
    with pytest.raises(DomainError, match="2048 lattice points at scale 7"):
        sw.analyze(f, ks, gs, 2.0)
    assert built == []
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2**11)
    sw.analyze(f, ks, gs, 2.0)
    assert [b - a for ((a, b),) in built] == [2 ** (j + 4) for j in range(-1, 8)]


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
    w = sw.NarrowWindow()
    ks = sw.build_kernel_set(w, desc, (0, 3))
    idx = sw.AtomIndex(1, (2,))
    c0 = field_of(gs, {idx: 1.0 + 0j}, sw.lp_atoms(2.0))
    f = sw.synthesize(c0, ks, gs, desc)
    c = as_dict(sw.analyze(f, ks, gs, 2.0))
    assert abs(c[idx] - 1.0) <= 1e-10
    for k, v in c.items():
        if k.j == idx.j and k != idx:
            assert abs(v) <= 1e-12
        elif k.j != idx.j:
            assert abs(v) <= 0.1  # band-edge coupling, vanishing with the grid step


def test_atom_unit_norm_narrow():
    # an Lp(2)-normalized atom has unit L^2 norm
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    desc = sw.GridDescriptor(1, 256, 8.0)
    ks = sw.build_kernel_set(sw.NarrowWindow(), desc, (0, 3))
    for j, gamma in [(0, (0,)), (1, (3,)), (2, (-1,))]:
        c = field_of(gs, {sw.AtomIndex(j, gamma): 1.0 + 0j}, sw.lp_atoms(2.0))
        f = sw.synthesize(c, ks, gs, desc)
        assert sw.lebesgue_norm(f, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_frame_reconstruct_narrow():
    f = band_limited(n=128, extent=8.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    ks = sw.build_kernel_set(sw.NarrowWindow(), f.descriptor(), (0, 4))
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
    ks = sw.build_kernel_set(sw.NarrowWindow(), desc, (0, 2))
    c = field_of(gs, {sw.AtomIndex(0, (0,)): 1.0 + 0j}, sw.L1_ATOMS)
    with pytest.raises(ValueError):
        sw.synthesize(c, ks, gs, desc)


def test_synthesize_validation():
    # a Heisenberg sampling set on a 3-D grid, and a target grid other than
    # the kernel cache's, are both refused
    desc = sw.GridDescriptor(3, 8, 4.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (0, 1))
    gs_h = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    c = field_of(gs_h, {sw.AtomIndex(0, (0, 0, 0)): 1.0 + 0j}, sw.lp_atoms(2.0))
    with pytest.raises(ValueError, match="matching abelian preset"):
        sw.synthesize(c, ks, gs_h, desc)
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    ks1 = sw.build_kernel_set(sw.build_window(1.0), sw.GridDescriptor(1, 64, 8.0), (0, 1))
    c1 = field_of(gs, {sw.AtomIndex(0, (0,)): 1.0 + 0j}, sw.lp_atoms(2.0))
    with pytest.raises(ValueError, match="kernel cache"):
        sw.synthesize(c1, ks1, gs, sw.GridDescriptor(1, 128, 8.0))


def test_synthesize_refuses_another_sampling_set():
    # at beta = 1/2 the atom gamma = 3 sits at x = 1.5; read at beta = 1/4
    # it would be drawn at x = 0.75
    desc = sw.GridDescriptor(1, 256, 8.0)
    ks = sw.build_kernel_set(sw.NarrowWindow(), desc, (0, 0))
    gs = sw.preset_sampling_set(sw.abelian(1), 0.5)
    c = field_of(gs, {sw.AtomIndex(0, (3,)): 1.0}, sw.lp_atoms(2.0))
    f = sw.synthesize(c, ks, gs, desc)
    assert f.axis()[np.argmax(np.abs(f.samples))] == 1.5
    with pytest.raises(ValueError, match="another sampling set"):
        sw.synthesize(c, ks, sw.preset_sampling_set(sw.abelian(1), 0.25), desc)



@pytest.mark.parametrize("window", [sw.build_window(1.0), sw.NarrowWindow()],
                         ids=["smooth", "narrow"])
def test_atom_at_the_lattice_bound_synthesizes_like_its_periodic_copy(window):
    # with beta = 0.25 on [-4, 4) the lattice period is 32: gamma = 2^53 - 1
    # is the copy of gamma = 31, which the float position 0.25 gamma rounds
    # away from its node
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    desc = sw.GridDescriptor(1, 256, 4.0)
    ks = sw.build_kernel_set(window, desc, (0, 0))
    far, near = 2**53 - 1, (2**53 - 1) % 32
    f_far, f_near = (sw.synthesize(field_of(gs, {sw.AtomIndex(0, (g,)): 1.0}, sw.lp_atoms(2.0)),
                                   ks, gs, desc).samples
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
# refinement of the grid
FFT_CASES = [
    (1, 64, 4.0, 0.125, 0, 1), (1, 64, 4.0, 0.125, 1, 2), (1, 64, 4.0, 0.125, 2, 4),
    (2, 16, 2.0, 0.125, -1, 1), (2, 16, 2.0, 0.125, 0, 2), (2, 16, 2.0, 0.125, 1, 4),
]
FFT_IDS = [f"{d}d-L{L}" for d, _, _, _, _, L in FFT_CASES]


def _single_scale(dim, n, extent, density, j, L):
    desc = sw.GridDescriptor(dim, n, extent)
    gs = sw.preset_sampling_set(sw.abelian(dim), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (j, j))
    (scale,) = transform._scales(transform._js(ks), gs, desc)
    assert scale.geo[0] == L
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
    c = field_of(gs, {k: complex(*rng.normal(size=2)) for k in as_dict(ax)}, sw.lp_atoms(2.0))
    cd = as_dict(c)
    lhs = sum(np.conj(v) * cd[k] for k, v in as_dict(ax).items())
    rhs = np.vdot(x.samples, sw.synthesize(c, ks, gs, desc).samples) * x.spacing**dim
    assert abs(lhs - rhs) <= 1e-12 * ax.l2() * c.l2()


@pytest.mark.parametrize("dim, n, extent, density, j, L", FFT_CASES, ids=FFT_IDS)
def test_fft_path_matches_dense_sums(dim, n, extent, density, j, L):
    rng = np.random.default_rng(9)
    desc, gs, ks, scale = _single_scale(dim, n, extent, density, j, L)
    f = _random_grid(rng, dim, n, extent)
    mult = ks.multiplier(j)
    # analysis: L1-convention samples of the block at the lattice points
    c1 = as_dict(sw.convert(sw.analyze(f, ks, gs, 2.0), sw.L1_ATOMS))
    gammas = sampling.range_coordinates(scale.ranges)
    indices = [sw.AtomIndex(j, tuple(g)) for g in gammas.tolist()]
    got = np.array([c1[k] for k in indices])
    want = _dense_samples(f, mult * grid_fft(f), gs.points(scale.j, gammas))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # synthesis: sum_lambda d_lambda 2^{jQ(1/p - 1)} psi_hat_j e^{-2 pi i nu.x_lambda};
    # the copies shifted by one period of the torus wrap onto the first atoms
    period = int(round(2.0 * extent / (density * 2.0 ** (-j))))
    idx = indices + [sw.AtomIndex(j, tuple(g + period for g in k.gamma))
                     for k in indices[:5]]
    points = density * 2.0 ** (-j) * np.array([k.gamma for k in idx], dtype=float)
    d = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    c = field_of(gs, dict(zip(idx, d)), sw.lp_atoms(2.0))
    spec = 2.0 ** (-j * dim / 2.0) * mult * _dense_spread(f, d, points)
    want = grid_ifft(f, spec).samples
    got = sw.synthesize(c, ks, gs, desc).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, n, extent", [(1, 64, 4.0), (2, 16, 2.0)], ids=["1d-L0", "2d-L0"])
def test_fft_path_refuses_points_on_no_refinement(monkeypatch, dim, n, extent):
    # density 0.3 at j = 0: step 0.3 on grids of dx = 0.125 and 0.25 lies on
    # no refinement; the largest dx 2^k at or below it is 0.25
    desc = sw.GridDescriptor(dim, n, extent)
    gs = sw.SamplingSet(sw.abelian(dim), 0.3)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (0, 0))
    f = _random_grid(np.random.default_rng(9), dim, n, extent)
    c = field_of(gs, {sw.AtomIndex(0, (1,) * dim): 1.0 + 0j}, sw.lp_atoms(2.0))
    for name in ("_sample", "_spread", "range_coordinates"):
        monkeypatch.setattr(transform, name, lambda *a: pytest.fail("built before the refusal"))
    message = (f"points of step 0.3 lie on no dyadic refinement of the {n}^{dim}-point grid "
               f"within the {transform.MAX_ARRAY_BYTES} B budget; the largest step dx*2^k "
               f"at or below it is 0.25 (dx = {2.0 * extent / n})")
    for call in (lambda: sw.analyze(f, ks, gs, 2.0), lambda: sw.synthesize(c, ks, gs, desc),
                 lambda: sw.frame_reconstruct(f, ks, gs)):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()


def test_a_near_dyadic_density_is_refused_not_rounded():
    # 0.25 + 1e-11 is no dyadic multiple of dx = 1/32 on any refinement
    # within the budget; a test for integers to within 1e-9 placed every
    # scale on the nodes of 0.25, about 1e-8 off the exact sums at j = 4
    f = band_limited(n=256, extent=4.0, center=2.0, width=8.0)
    gs = sw.SamplingSet(sw.abelian(1), 0.25 + 1e-11)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    message = f"points of step {gs.beta * 2.0!r} lie on no dyadic refinement"
    for call in (lambda: sw.analyze(f, ks, gs, 2.0), lambda: sw.frame_reconstruct(f, ks, gs)):
        with pytest.raises(DomainError, match=re.escape(message)) as err:
            call()
        assert "the largest step dx*2^k at or below it is 0.5 " in str(err.value)


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
    assert max(s.geo[0] for s in transform._scales(transform._js(ks), gs, desc)) == 4
    c = sw.analyze(f, ks, gs, 2.0)
    g = sw.synthesize(c, ks, gs, desc)
    energy = np.vdot(f.samples, g.samples) * f.spacing**2
    assert abs(energy - c.l2() ** 2) <= 1e-10 * c.l2() ** 2


def test_refinement_budget_refused_up_front(monkeypatch):
    # beta = 0.3 lies on no dyadic refinement: its 214 points are refused
    f = _random_grid(np.random.default_rng(2), 1, 1024, 8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.3)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (2, 2))
    # a 512^2 target is itself over budget, so even its grid points are
    # refused; its 2 MB kernel set is built before the budget is lowered
    desc2 = sw.GridDescriptor(2, 512, 8.0)
    ks2 = sw.build_kernel_set(sw.build_window(1.0), desc2, (0, 0))
    monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", 1 << 20)
    gs2 = sw.preset_sampling_set(sw.abelian(2), 0.5)
    c2 = field_of(gs2, {sw.AtomIndex(0, (1, 2)): 1.0 + 0j}, sw.lp_atoms(2.0))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="within the 1048576 B budget; the largest step "
                                              "dx\\*2\\^k at or below it is 0.0625 "):
            sw.analyze(f, ks, gs, 2.0)
        with pytest.raises(DomainError, match="no dyadic refinement of the 512\\^2-point grid"):
            sw.synthesize(c2, ks2, gs2, desc2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


@pytest.mark.parametrize("density, factor, message", [
    (0.25, 1j, "not positive semidefinite: its symbol has the eigenvalue -"),
    (0.5, 1j, "not positive semidefinite: its symbol has the eigenvalue -"),
    (0.25, np.nan, "the frame operator's symbol is not finite"),
    (0.25, np.exp(0.25j * np.pi), "the frame operator's symbol is not self-adjoint"),
], ids=["negative", "negative-fibers", "nan", "complex"])
def test_frame_reconstruct_refuses_an_indefinite_or_non_finite_symbol(density, factor, message):
    # i * psi_hat enters S-hat twice, so S-hat = -S-hat_true, negative on the
    # band, on one-frequency fibers at 0.25 and on aliasing ones at 0.5; a NaN
    # multiplier makes S-hat non-finite, and e^{i pi / 4} psi_hat makes it
    # i S-hat_true, which is not self-adjoint
    f = band_limited(n=128, extent=8.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    bad = dataclasses.replace(ks, multipliers={j: factor * m for j, m in ks.multipliers.items()})
    with pytest.raises(DomainError, match=re.escape(message)):
        sw.frame_reconstruct(f, bad, gs)
    _, info = sw.frame_reconstruct(f, ks, gs)  # the unmodified set is solved
    assert info["relative_residual"] <= 1e-12 and info["upper_bound"] > 0

# -- the frame operator on spectra ---------------------------------------------

# (dim, N, extent, density, j_range, each scale's refinement L and fold
# period M, alias folds): dyadic densities fold every scale, on refinements
# up to L = 4 in 2-D; at 0.25 the aliases miss each band, so every fold is a
# multiplier, and at the coarser 1.0 and 0.5 they overlap it (at 1.0 the
# period-128 fold of j = 4 is a multiplier); 0.375 places each scale on an
# offset coset (c != 0 mod m), which does not fold (M = 0), and so does the
# one point x = 0 of a scale whose step is the period 2R (m = N L,
# c = N L / 2): both are refused (folds None), naming the first such scale
SYMBOL_CASES = [
    (1, 256, 4.0, 0.25, (-1, 4), [(1, 16), (1, 32), (1, 64), (1, 128), (1, 256), (2, 512)], 0),
    (2, 64, 4.0, 0.25, (-1, 3), [(1, 16), (1, 32), (1, 64), (2, 128), (4, 256)], 0),
    (1, 256, 4.0, 1.0, (-1, 4), [(1, 4), (1, 8), (1, 16), (1, 32), (1, 64), (1, 128)], 5),
    (2, 64, 4.0, 0.5, (-1, 3), [(1, 8), (1, 16), (1, 32), (1, 64), (2, 128)], 3),
    (1, 64, 4.0, 0.375, (-1, 2), [(1, 0), (1, 0), (2, 0), (4, 0)], None),
    (1, 64, 4.0, 0.25, (-5, -3), [(1, 0), (1, 2), (1, 4)], None),
]
SYMBOL_IDS = ["1d-dyadic", "2d-dyadic", "1d-coarse", "2d-coarse", "1d-offset", "1d-one-point"]


def _symbol_case(dim, n, extent, density, j_range):
    desc = sw.GridDescriptor(dim, n, extent)
    gs = sw.preset_sampling_set(sw.abelian(dim), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, j_range)
    return desc, gs, ks


def _random_spectrum(rng, dim, n):
    shape = (n,) * dim
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _assert_refused_without_fibers(monkeypatch, desc, gs, ks, j_range, density):
    for name in ("_sample", "_spread", "range_coordinates"):
        monkeypatch.setattr(transform, name, lambda *a: pytest.fail("built before the refusal"))
    message = (f"the scale-{j_range[0]} lattice at density {density!r} does not fold "
               f"(it is no subgroup of its refinement), so the frame operator has no fibers")
    for call in (lambda: transform._scales(transform._js(ks), gs, desc, folding=True),
                 lambda: sw.frame_reconstruct(sw.GridFunction(
                     desc.dim, desc.extent, np.zeros((desc.N,) * desc.dim)), ks, gs)):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()


def _fibered_symbol(ks, gs, desc):
    """S-hat applied through its fiber matrices, and the number of folds that alias."""
    symbol = transform._frame_symbol(ks, gs, desc,
                                     transform._scales(transform._js(ks), gs, desc, folding=True))
    idx, fibers = transform._fiber_matrices(symbol, desc)

    def apply_s(y):
        out = np.zeros(y.size, dtype=complex)
        out[idx] = np.einsum("fts,fs->ft", fibers, y.ravel()[idx])
        return out.reshape(y.shape)

    return apply_s, len(symbol[1])


@pytest.mark.parametrize("dim, n, extent, density, j_range, geometry, folds", SYMBOL_CASES,
                         ids=SYMBOL_IDS)
def test_frame_symbol_equals_the_sample_spread_composite(monkeypatch, dim, n, extent, density,
                                                         j_range, geometry, folds):
    desc, gs, ks = _symbol_case(dim, n, extent, density, j_range)
    scales = transform._scales(transform._js(ks), gs, desc)
    assert [(s.geo[0], s.M) for s in scales] == geometry
    if folds is None:
        _assert_refused_without_fibers(monkeypatch, desc, gs, ks, j_range, density)
        return
    apply_s, aliasing = _fibered_symbol(ks, gs, desc)
    assert aliasing == folds
    y = _random_spectrum(np.random.default_rng(13), dim, n)
    got = apply_s(y)
    want = np.zeros_like(y)
    for s in scales:
        mult = ks.multiplier(s.j)
        pl = transform._place(desc, sampling.range_coordinates(s.ranges), s.geo)
        want += 2.0 ** (-s.j * dim) * mult * transform._spread(
            desc, transform._sample(desc, mult * y, pl), pl)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, n, extent, density, j_range, geometry, folds", SYMBOL_CASES,
                         ids=SYMBOL_IDS)
def test_frame_symbol_is_self_adjoint_and_positive(monkeypatch, dim, n, extent, density,
                                                   j_range, geometry, folds):
    desc, gs, ks = _symbol_case(dim, n, extent, density, j_range)
    if folds is None:
        _assert_refused_without_fibers(monkeypatch, desc, gs, ks, j_range, density)
        return
    apply_s, _ = _fibered_symbol(ks, gs, desc)
    rng = np.random.default_rng(17)
    for _ in range(3):
        x, y = _random_spectrum(rng, dim, n), _random_spectrum(rng, dim, n)
        sx, sy = apply_s(x), apply_s(y)
        scale = np.linalg.norm(x) * np.linalg.norm(sy)
        assert abs(np.vdot(x, sy) - np.vdot(sx, y)) <= 1e-13 * scale
        xsx = np.vdot(x, sx)
        assert xsx.real > 0 and abs(xsx.imag) <= 1e-13 * abs(xsx)


def test_frame_reconstruct_folds_dyadic_scales_without_sampling(monkeypatch):
    # at density 0.25 every scale folds: no lattice points, no refined FFTs,
    # and every fold is a multiplier, so every fiber is one frequency and no
    # eigh runs
    f = band_limited(n=256, extent=4.0, center=2.0, width=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    calls = []
    for module, name in ((transform, "_sample"), (transform, "_spread"),
                         (transform, "range_coordinates"), (np.linalg, "eigh"),
                         (np.linalg, "eigvalsh")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _n=name, _f=fn: calls.append(_n) or _f(*a))
    rec, info = sw.frame_reconstruct(f, ks, gs)
    assert calls == []
    assert info["iterations"] == 0 and info["relative_residual"] == 0.0
    assert rel_l2(f, rec) <= 1e-6


def test_frame_reconstruct_keeps_the_lattice_and_refinement_budgets(monkeypatch):
    # the folded scales build no lattice, yet the finest one's budget still refuses
    f = _random_grid(np.random.default_rng(5), 1, 64, 2.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 7))
    with monkeypatch.context() as m:
        m.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2**10)
        with pytest.raises(DomainError, match="2048 lattice points at scale 7"):
            sw.frame_reconstruct(f, ks, gs)
    # scale 7 folds on the 32-fold refinement, 16 * 2048 B; one byte less
    # leaves it on none, and it is refused too
    monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", 16 * 2048 - 1)
    with pytest.raises(DomainError, match=re.escape(
            "points of step 0.001953125 lie on no dyadic refinement of the 64^1-point grid "
            "within the 32767 B budget; the largest step dx*2^k at or below it is "
            "0.001953125 (dx = 0.0625)")):
        sw.frame_reconstruct(f, ks, gs)


# the fibered solve against a dense S-hat: 1-D N = 256 over j in [-1, 4] and
# 2-D N = 32 over j in [-1, 2], both on R = 4
FIBER_GRIDS = [(1, 256, 4.0, (-1, 4)), (2, 32, 4.0, (-1, 2))]


def _dense_symbol(desc, gs, ks):
    """S-hat on FFT-layout frequencies raveled, and the covered-band mask.

    Each scale's lattice is a product of one range per axis, so its
    sample/spread composite is the d-fold Kronecker power of the 1-D one,
    assembled column by column from `_sample` and `_spread` on the 1-D grid."""
    line = sw.GridDescriptor(1, desc.N, desc.extent)
    gs1 = sw.SamplingSet(sw.abelian(1), gs.beta)
    size = desc.N**desc.dim
    dense = np.zeros((size, size))
    for s in transform._scales(transform._js(ks), gs1, line):
        pl = transform._place(line, sampling.range_coordinates(s.ranges), s.geo)
        gram = np.stack([transform._spread(line, transform._sample(line, e, pl), pl)
                         for e in np.eye(desc.N, dtype=complex)], axis=1)
        assert np.max(np.abs(gram.imag)) <= 1e-12 * np.max(np.abs(gram))
        power = functools.reduce(np.kron, [gram.real] * desc.dim)
        mult = ks.multiplier(s.j).ravel()
        dense += 2.0 ** (-s.j * desc.dim) * mult[:, None] * power * mult[None, :]
    covered = sum(ks.multiplier(j) ** 2 for j in transform._js(ks)).ravel() > 0.5
    return dense, covered


@pytest.mark.parametrize("density", [0.125, 0.25, 0.5])
@pytest.mark.parametrize("dim, n, extent, j_range", FIBER_GRIDS, ids=["1d", "2d"])
def test_frame_bounds_equal_the_dense_eigenvalues_on_the_covered_band(dim, n, extent, j_range,
                                                                      density):
    desc, gs, ks = _symbol_case(dim, n, extent, density, j_range)
    dense, covered = _dense_symbol(desc, gs, ks)
    w = np.linalg.eigvalsh(dense[np.ix_(covered, covered)])
    f = _random_grid(np.random.default_rng(3), dim, n, extent)
    _, info = sw.frame_reconstruct(f, ks, gs)
    lower, upper = info["lower_bound"], info["upper_bound"]
    assert abs(lower - w[0]) <= 1e-12 * w[-1] and abs(upper - w[-1]) <= 1e-12 * w[-1]
    if (dim, density) == (1, 0.25):  # the alias-free bounds: (1 / beta) times the coverage
        assert (round(lower, 4), round(upper, 4)) == (2.6727, 4.0)
    assert (lower <= 1e-12 * upper) == (density == 0.5)  # 0.5 is no frame on the band


@pytest.mark.parametrize("density", [0.25, 0.5])
@pytest.mark.parametrize("dim, n, extent, j_range", FIBER_GRIDS, ids=["1d", "2d"])
def test_frame_reconstruct_solves_s_g_equals_s_f_in_the_range_of_each_fiber(dim, n, extent,
                                                                           j_range, density):
    # a random grid has spectrum outside the band and, at 0.5, along the
    # null directions of the aliasing fibers: g must drop exactly those
    desc, gs, ks = _symbol_case(dim, n, extent, density, j_range)
    f = _random_grid(np.random.default_rng(4), dim, n, extent)
    g, info = sw.frame_reconstruct(f, ks, gs)
    dense, _ = _dense_symbol(desc, gs, ks)
    f_hat, g_hat = grid_fft(f).ravel(), grid_fft(g).ravel()
    s_f = dense @ f_hat
    assert np.linalg.norm(dense @ g_hat - s_f) <= 1e-12 * np.linalg.norm(s_f)
    assert info["iterations"] == 0 and info["relative_residual"] <= 1e-12
    # the null space of S-hat is known only to rounding over the spectral gap
    # (Davis-Kahan): eps |S| / gap bounds the component g keeps along it
    lam, vec = np.linalg.eigh(dense)
    top = np.max(np.abs(lam))
    small = np.abs(lam) <= 1e-12 * top
    gap = np.min(np.abs(lam[~small]))
    assert small.any()
    kept = np.linalg.norm(vec[:, small].conj().T @ g_hat)
    assert kept <= 16 * np.finfo(float).eps * top / gap * np.linalg.norm(f_hat)


def test_frame_reconstruct_refuses_fibers_over_the_budget_before_building_them(monkeypatch):
    # 2-D N = 256 at density 1.0: the aliasing folds leave P = 4, so 16 fibers
    # of (256 / 4)^2 = 4096 frequencies, 16 * 4096^2 * 8 B = 2 GiB of entries,
    # held at once with two more arrays of their size and two byte masks
    desc = sw.GridDescriptor(2, 256, 4.0)
    gs = sw.SamplingSet(sw.abelian(2), 1.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (-1, 4))
    f = sw.GridFunction(2, 4.0, np.zeros((256, 256)))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=re.escape(
                f"16 frame operator fibers of 4096^2 entries and their solve need "
                f"{16 * 4096**2 * (3 * 8 + 2)} B, over the {transform.MAX_ARRAY_BYTES} B "
                "budget")):
            sw.frame_reconstruct(f, ks, gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24


@pytest.mark.parametrize("dim, n, factor", [(1, 1024, 1.0), (1, 1024, 1j), (2, 64, 1.0)],
                         ids=["1d", "1d-complex", "2d"])
def test_the_fiber_budget_counts_what_the_solve_holds_at_once(monkeypatch, dim, n, factor):
    # density 0.5 on R = 4 aliases into 8^d fibers of (n / 8)^d frequencies;
    # i psi_hat makes them complex, and S-hat is then refused as negative only
    # after its eigh.  At a budget of exactly the count the refusal names, the
    # whole solve stays within it; one byte less refuses before any fiber exists
    desc = sw.GridDescriptor(dim, n, 4.0)
    gs = sw.preset_sampling_set(sw.abelian(dim), 0.5)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (-1, 2 if dim == 2 else 4))
    ks = dataclasses.replace(ks, multipliers={j: factor * m for j, m in ks.multipliers.items()})
    f = _random_grid(np.random.default_rng(0), dim, n, 4.0)
    fiber_bytes = (16 if factor == 1j else 8) * 8**dim * (n // 8) ** (2 * dim)

    def solve(budget):
        """The refusal's message (None if solved) and the call's peak traced bytes."""
        monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", budget)
        tracemalloc.start()
        try:
            sw.frame_reconstruct(f, ks, gs)
            message = None
        except DomainError as exc:
            message = str(exc)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return message, peak

    message, _ = solve(fiber_bytes)  # the fibers alone fit, yet they are refused
    need = int(re.search(r"their solve need (\d+) B", message).group(1))
    assert need > fiber_bytes
    message, peak = solve(need)
    assert message is None or "not positive semidefinite" in message
    assert peak <= need
    message, peak = solve(need - 1)
    assert "their solve need" in message and peak < fiber_bytes // 4


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
    for h in (3.0, 0.0, -2.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="supports a finite h = 2\\^k only"):
            sw.dilate_grid(f, h)
    # 2^-20 on 256 points needs the 2^20-fold refinement, over the budget
    wide = gaussian_1d(n=256)
    for h in (2.0 ** -20, np.float64(2.0 ** -20)):
        with pytest.raises(DomainError, match=re.escape(
                "points of step 5.960464477539063e-08 lie on no dyadic refinement of the "
                "256^1-point grid")):
            sw.dilate_grid(wide, h)
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


# -- every scale in one pass ---------------------------------------------------

class _CountingWindow:
    """A window that counts its psi_hat calls and the points they evaluate."""

    def __init__(self, window):
        self.window, self.calls = window, []

    def psi_hat(self, xi):
        self.calls.append(np.size(xi))
        return self.window.psi_hat(xi)


# (-40, 150) on 256 points and (-2, 12) on 64^2 points each span several
# 2^14-point passes: 64 and 4 scales to a pass
@pytest.mark.parametrize("window", [sw.build_window(1.0), sw.build_window(0.37),
                                    sw.NarrowWindow()], ids=["smooth", "sharp", "narrow"])
@pytest.mark.parametrize("desc, j_range", [
    (sw.GridDescriptor(1, 256, 4.0), (-2, 5)),
    (sw.GridDescriptor(1, 256, 4.0), (-40, 150)),
    (sw.GridDescriptor(2, 64, 4.0), (-1, 3)),
    (sw.GridDescriptor(2, 64, 4.0), (-2, 12)),
])
def test_stacked_kernel_set_equals_the_per_scale_multipliers(window, desc, j_range):
    spy = _CountingWindow(window)
    ks = sw.build_kernel_set(spy, desc, j_range)
    lam = sw.GridFunction(desc.dim, desc.extent,
                          np.zeros((desc.N,) * desc.dim, dtype=complex)).lambda_grid()
    for j in range(j_range[0], j_range[1] + 1):
        want = np.asarray(window.psi_hat(lam * 4.0 ** (-j)), dtype=float)
        got = ks.multiplier(j)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # one psi_hat call per pass of at most 2^14 points
    size, n_scales = desc.N**desc.dim, j_range[1] - j_range[0] + 1
    per = max(1, transform._STACK_POINTS // size)
    assert spy.calls == [size * min(per, n_scales - i) for i in range(0, n_scales, per)]
    assert max(spy.calls) <= max(size, transform._STACK_POINTS)


def test_kernel_set_refuses_an_overflowing_dilation_before_evaluating_the_window():
    desc = sw.GridDescriptor(1, 64, 4.0)
    for j_range, j in (((-600, -590), -600), ((-512, 3), -512)):
        spy = _CountingWindow(sw.build_window(1.0))
        with pytest.raises(DomainError, match=re.escape(f"overflows float64 at scale j = {j}")):
            sw.build_kernel_set(spy, desc, j_range)
        assert spy.calls == []
    # 4^511 is finite and kept; 4^-538 underflows to 0 and is kept too
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lam * 4^511 overflows to inf
        ks = sw.build_kernel_set(sw.build_window(1.0), desc, (-511, -511))
    assert np.all(ks.multiplier(-511) == 0.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (538, 540))
    assert all(np.all(ks.multiplier(j) == 0.0) for j in (538, 539, 540))


def test_synthesize_refuses_an_overflowing_atom_weight():
    # 2^(-511 * 3 * (1/4 - 1)) = 2^1149.75 used to raise OverflowError
    gs = sw.preset_sampling_set(sw.abelian(3), 1.0)
    desc = sw.GridDescriptor(3, 4, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # lam * 4^511 overflows to inf
        ks = sw.build_kernel_set(sw.build_window(1.0), desc, (-511, -511))
    c = field_of(gs, {sw.AtomIndex(-511, (0, 0, 0)): 1.0 + 0j}, sw.lp_atoms(4.0))
    with pytest.raises(DomainError, match=re.escape(
            "the scale weight 2^(-511 * 3 * -0.75) overflows float64 at scale j = -511")):
        sw.synthesize(c, ks, gs, desc)
    # at p = 2 the weight 2^766.5 is finite
    assert sw.synthesize(c.take(slice(None), c.values, sw.lp_atoms(2.0)), ks, gs,
                         desc).samples.shape == (4, 4, 4)


def test_kernel_set_refuses_an_over_budget_range_before_evaluating_the_window(monkeypatch):
    desc = sw.GridDescriptor(2, 64, 4.0)  # 32 KiB of multipliers per scale
    monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", 8 * 32768)
    spy = _CountingWindow(sw.build_window(1.0))
    with pytest.raises(DomainError, match=re.escape(
            "9 scales of 64^2-point multipliers need 294912 B, over the 262144 B budget")):
        sw.build_kernel_set(spy, desc, (-4, 4))
    assert spy.calls == []
    # the refusal comes before the per-scale dilations: 10^12 scales are not listed
    with pytest.raises(DomainError, match="budget"):
        sw.build_kernel_set(spy, desc, (0, 10**12))
    assert spy.calls == []
    ks = sw.build_kernel_set(spy, desc, (-3, 4))  # 8 scales fit exactly
    assert len(ks.multipliers) == 8


def _besov_reference(f, ks, s, p, q):
    """The continuous Besov norm scale by scale: one block, one norm each."""
    spec = grid_fft(f)
    acc = 0.0
    for j in range(ks.j_range[0], ks.j_range[1] + 1):
        a = np.abs(grid_ifft(f, ks.multiplier(j) * spec).samples)
        norm = (float(np.max(a)) if p == np.inf
                else float((np.sum(a**p) * f.spacing**f.dim) ** (1.0 / p)))
        acc += (2.0 ** (j * s) * norm) ** q
    return float(acc ** (1.0 / q))


@pytest.mark.parametrize("dim, n, j_range", [(1, 256, (-2, 5)), (1, 256, (-60, 80)),
                                             (2, 64, (-1, 3)), (2, 64, (-3, 6))])
@pytest.mark.parametrize("p", [2.0, 4.0, np.inf])
@pytest.mark.parametrize("factor", [1.0, 0.6 - 0.8j], ids=["real", "complex"])
def test_besov_norm_continuous_equals_the_per_scale_reference(dim, n, j_range, p, factor):
    f = _random_grid(np.random.default_rng(dim * n), dim, n, 4.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), j_range)
    ks = dataclasses.replace(ks, multipliers={j: factor * m for j, m in ks.multipliers.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # band leakage of the random grid
        for s, q in ((0.3, 2.0), (-0.5, 1.0), (0.25, 3.0)):
            got = sw.besov_norm_continuous(f, ks, s, p, q)
            assert got.hex() == _besov_reference(f, ks, s, p, q).hex()


def test_besov_norm_continuous_stacks_at_most_the_pass_budget(monkeypatch):
    f = _random_grid(np.random.default_rng(2), 2, 64, 4.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-3, 6))
    batches = []
    ifftn = np.fft.ifftn
    monkeypatch.setattr(transform.np.fft, "ifftn",
                        lambda a, axes=None: batches.append(a.shape) or ifftn(a, axes=axes))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sw.besov_norm_continuous(f, ks, 0.3, 2.0, 2.0)
    assert batches == [(4, 64, 64), (4, 64, 64), (2, 64, 64)]


@pytest.mark.parametrize("p", [np.nan, 0.5, 0.0, -1.0, -np.inf])
def test_norms_refuse_a_bad_p_before_any_fft(monkeypatch, p):
    f = _random_grid(np.random.default_rng(4), 1, 64, 4.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 3))
    monkeypatch.setattr(transform, "grid_fft", lambda *a: pytest.fail("FFT before the check"))
    with pytest.raises(DomainError, match="p must be >= 1"):
        sw.lebesgue_norm(f, p)
    with pytest.raises(DomainError, match="p must be >= 1"):
        sw.besov_norm_continuous(f, ks, 0.0, p, 2.0)


@pytest.mark.parametrize("q", [0.0, -1.0, 0.5, np.inf, np.nan])
def test_besov_norm_continuous_refuses_a_bad_q_before_any_fft(monkeypatch, q):
    f = _random_grid(np.random.default_rng(4), 1, 64, 4.0)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 3))
    monkeypatch.setattr(transform, "grid_fft", lambda *a: pytest.fail("FFT before the check"))
    with pytest.raises(DomainError, match=re.escape("q must lie in [1, inf)")):
        sw.besov_norm_continuous(f, ks, 0.0, 2.0, q)


def test_lebesgue_norm_keeps_p_infinity_and_matches_the_flat_sum():
    f = _random_grid(np.random.default_rng(6), 2, 32, 4.0)
    a = np.abs(f.samples)
    assert sw.lebesgue_norm(f, np.inf) == float(np.max(a))
    for p in (1.0, 2.0, 3.5):
        want = float((np.sum(a**p) * f.spacing**2) ** (1.0 / p))
        assert sw.lebesgue_norm(f, p).hex() == want.hex()


@pytest.mark.parametrize("density", [0.25, 0.375])
def test_analyze_and_frame_reconstruct_make_one_range_pass_each(monkeypatch, density):
    # at 0.375 no scale folds: frame_reconstruct refuses after its one pass
    f = band_limited(n=256, extent=4.0, center=2.0, width=8.0)
    gs = sw.SamplingSet(sw.abelian(1), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    passes = []
    ranges = transform.scale_ranges
    monkeypatch.setattr(transform, "scale_ranges",
                        lambda gs, js, box: passes.append(list(js)) or ranges(gs, js, box))
    monkeypatch.setattr(sampling, "lattice_ranges", lambda *a: pytest.fail("per-scale ranges"))
    sw.analyze(f, ks, gs, 2.0)
    if density == 0.375:
        with pytest.raises(DomainError, match="the scale--1 lattice at density 0.375 does not "
                                              "fold"):
            sw.frame_reconstruct(f, ks, gs)
    else:
        sw.frame_reconstruct(f, ks, gs)
    assert passes == [list(range(-1, 5))] * 2


def _analyze_per_scale(f, ks, gs, p, scales):
    """Analysis scale by scale: each lattice placed and sampled on its own,
    and the floor applied by the field."""
    desc, spec = f.descriptor(), grid_fft(f)
    gammas = [sampling.range_coordinates(s.ranges) for s in scales]
    values = [transform._sample(desc, ks.multiplier(s.j) * spec,
                                transform._place(desc, gm, s.geo))
              for s, gm in zip(scales, gammas)]
    js = np.concatenate([np.full(len(gm), s.j, dtype=np.int64) for s, gm in zip(scales, gammas)])
    c1 = sw.CoefficientField._canonical(gs, sw.L1_ATOMS, js, np.concatenate(gammas),
                                        np.concatenate(values), floor=sw.coeffs.SPARSE_FLOOR)
    return sw.convert(c1, sw.lp_atoms(p))


def _synthesize_per_scale(c, ks, desc, scales):
    """Synthesis that places each scale's kept entries anew."""
    geos = {s.j: s.geo for s in scales}
    spec = np.zeros((desc.N,) * desc.dim, dtype=complex)
    for j, run in c.scales():
        pl = transform._place(desc, c.gammas[run], geos[j])
        spec += (sw.coeffs._power_of_two(j, c.sampling.group.Q, 1.0 / c.normalization.p - 1.0)
                 * ks.multiplier(j) * transform._spread(desc, c.values[run], pl))
    return grid_ifft(sw.GridFunction(desc.dim, desc.extent, np.zeros_like(spec)), spec)


def _hex(c):
    return c.js.tobytes(), c.gammas.tobytes(), c.values.tobytes(), c.normalization


@settings(max_examples=30, deadline=None)
@given(k=st.integers(3, 31), mirror=st.booleans(), phase=st.floats(0.0, 6.0),
       density=st.sampled_from([0.125, 0.25, 0.5]), p=st.sampled_from([2.0, 4.0]),
       stack=st.sampled_from([64, 128, 1 << 14]))
def test_shared_placements_and_blocks_keep_analysis_and_synthesis_hex_identical(
        k, mirror, phase, density, p, stack):
    # a tone of frequency k / 8 is zero at the scales whose band misses it, and
    # with its mirror -k / 8 a cosine, near zero at some lattice points: the
    # floor drops whole scales and points within one.  The placements and
    # blocks shared with the norm give the field and the synthesis of the
    # scale-by-scale path bit for bit, at every stack size (one to all of the
    # 4 scales a run)
    desc = sw.GridDescriptor(1, 64, 4.0)
    f = sw.GridFunction.from_callable(desc, lambda t: np.exp(1j * phase) * (
        np.cos(np.pi * k * t / 4.0) if mirror else np.exp(1j * np.pi * k * t / 4.0)))
    gs = sw.SamplingSet(sw.abelian(1), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, (-1, 2))
    scales = transform._scales(transform._js(ks), gs, desc, folding=True)
    want = _analyze_per_scale(f, ks, gs, p, scales)
    assert len(want) < sum(len(sampling.range_coordinates(s.ranges)) for s in scales)
    spec = grid_fft(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "_STACK_POINTS", stack)
        norms = transform._BlockNorms(spec, 2.0, f.spacing)
        got, places = transform._analyze(desc, spec, ks, gs, p, scales, norms)
    assert _hex(got) == _hex(want) == _hex(sw.analyze(f, ks, gs, p))
    g = transform._synthesize(got, ks, desc, places).samples.tobytes()
    assert g == _synthesize_per_scale(want, ks, desc, scales).samples.tobytes()
    assert g == sw.synthesize(got, ks, gs, desc).samples.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # band leakage of the tones
        assert norms.besov(transform._js(ks), 0.25, 2.0).hex() == sw.besov_norm_continuous(
            f, ks, 0.25, 2.0, 2.0).hex()


# -- verify_frame, the one plan of verify-frame --------------------------------

DATA = Path(__file__).parent / "data"
FRAME_CASES = json.loads((DATA / "golden_frame_cases.json").read_text())


def _band_check(density):
    f = sio.read_grid(DATA / "golden_frame_band.grid")
    gs = sw.SamplingSet(sw.abelian(1), density)
    return f, gs, sw.verify_frame(f, sw.build_window(1.0), gs, (-1, 4), 4.0)


def test_verify_frame_gives_the_golden_report_numbers_and_the_public_counts():
    # the report's numbers hex-equal to the golden verify-frame report at the
    # default density; the coefficient count and the frame bounds are those of
    # the public analyze and frame_reconstruct
    f, gs, check = _band_check(0.25)
    golden = json.loads((DATA / "golden_frame_band_025.json").read_text())
    assert set(golden) - set(check.numbers) == {"command", "inputs", "density", "p", "j_range"}

    def hexed(v):
        return v.hex() if isinstance(v, float) else v
    assert {k: hexed(v) for k, v in check.numbers.items()} == {
        k: hexed(golden[k]) for k in check.numbers}
    assert check.singular is None
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 4))
    info = sw.frame_reconstruct(f, ks, gs)[1]
    assert check.coefficients == len(sw.analyze(f, ks, gs, 4.0))
    assert (check.lower_bound, check.upper_bound) == (info["lower_bound"], info["upper_bound"])


def test_verify_frame_reports_a_singular_frame_in_the_golden_words():
    check = _band_check(0.5)[2]
    assert f"validation error: {check.singular}\n" == FRAME_CASES["band_05"]["stderr"]
    assert check.lower_bound <= 1e-12 * check.upper_bound


def test_verify_frame_refuses_a_scale_that_does_not_fold_before_any_multiplier_or_fft(
        monkeypatch):
    for name in ("build_kernel_set", "grid_fft"):
        monkeypatch.setattr(transform, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(DomainError, match=r"the scale--1 lattice at density 0\.375 does not "
                                          r"fold \(it is no subgroup of its refinement\)"):
        _band_check(0.375)


def test_no_module_but_transform_reaches_a_private_transform_name():
    # the package's other modules use transform through its public names only
    # (verify_frame for verify-frame), so its plan cannot be rebuilt elsewhere
    for path in sorted(Path(transform.__file__).parent.glob("*.py")):
        if path.name == "transform.py":
            continue
        tree, aliases, found = ast.parse(path.read_text()), {"transform"}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                if node.module in ("transform", "stratwave.transform"):
                    found += [n for n in names if n.startswith("_")]
                if node.module in (None, "stratwave"):
                    aliases |= {a.asname or a.name for a in node.names if a.name == "transform"}
            elif isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names
                            if a.name == "stratwave.transform" and a.asname}
        found += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases
                  and node.attr.startswith("_")]
        assert found == [], f"{path.name} reaches transform's private {found}"
