"""Lattices: exact integer arithmetic, tiling, enumeration, decay sums."""

import itertools
import math
import tracemalloc
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import custom_3_2, free_3_2, integer_step_2_groups
from stratwave import sampling
from stratwave.sampling import (
    _shell,
    _shell_block,
    _tail_integral,
    column_decay_certificate,
    sampling_from_json,
    sampling_to_json,
)

lat_int = st.integers(-50, 50)


def lattices():
    return [
        sw.preset_sampling_set(sw.abelian(1), 1.0),
        sw.preset_sampling_set(sw.abelian(2), 0.5),
        sw.preset_sampling_set(sw.heisenberg(1), 1.0),
        sw.preset_sampling_set(sw.heisenberg(1), 0.5),
    ]


@pytest.mark.parametrize("gs", lattices(), ids=lambda gs: f"{gs.group.kind}{gs.group.dim}b{gs.beta}")
class TestLatticeArithmetic:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_lat_mul_matches_group_law(self, gs, data):
        dim = gs.group.dim
        a = tuple(data.draw(st.lists(lat_int, min_size=dim, max_size=dim)))
        b = tuple(data.draw(st.lists(lat_int, min_size=dim, max_size=dim)))
        left = gs.decode(gs.lat_mul(a, b))
        right = sw.multiply(gs.group, gs.decode(a), gs.decode(b))
        assert np.max(np.abs(left - right)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lat_inv(self, gs, data):
        dim = gs.group.dim
        a = tuple(data.draw(st.lists(lat_int, min_size=dim, max_size=dim)))
        assert gs.lat_mul(a, gs.lat_inv(a)) == (0,) * dim
        assert np.allclose(gs.decode(gs.lat_inv(a)),
                           sw.inverse(gs.group, gs.decode(a)), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), j=st.integers(0, 6))
    def test_lat_dilate_matches_group_dilation(self, gs, data, j):
        dim = gs.group.dim
        a = tuple(data.draw(st.lists(lat_int, min_size=dim, max_size=dim)))
        left = gs.decode(gs.lat_dilate(a, j))
        right = sw.dilate(gs.group, 2.0**j, gs.decode(a))
        assert np.max(np.abs(left - right)) <= 1e-9 * max(1.0, np.max(np.abs(right)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_encode_decode_roundtrip(self, gs, data):
        dim = gs.group.dim
        a = tuple(data.draw(st.lists(lat_int, min_size=dim, max_size=dim)))
        assert gs.encode(gs.decode(a)) == a

    def test_negative_dilation_rejected(self, gs):
        with pytest.raises(ValueError):
            gs.lat_dilate((0,) * gs.group.dim, -1)


def test_encode_off_lattice_raises():
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.raises(ValueError):
        gs.encode(np.array([0.5]))


def test_enumerate_indices_counts():
    # [DERIVED] (beta Z) n [0, 1) at beta = 0.5 has 2 points; after a
    # dilation by 2^{-1} the spacing halves so the count doubles
    gs = sw.preset_sampling_set(sw.abelian(1), 0.5)
    assert len(sw.lattice_coordinates(gs, 0, [(0.0, 1.0)])) == 2
    assert len(sw.lattice_coordinates(gs, 1, [(0.0, 1.0)])) == 4
    assert sw.lattice_coordinates(gs, 0, [(0.0, 0.0)]).shape == (0, 1)


def test_enumerate_indices_heisenberg_count():
    # [DERIVED] at beta = 1 the decoded spacings are (1, 1, 1/2), so the
    # unit cube holds 1 * 1 * 2 points at scale 0
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    assert len(sw.lattice_coordinates(gs, 0, [(0.0, 1.0)] * 3)) == 2


def test_enumeration_is_lexicographic():
    gs = sw.preset_sampling_set(sw.abelian(2), 1.0)
    gammas = sw.lattice_coordinates(gs, 0, [(0.0, 2.0)] * 2).tolist()
    assert gammas == sorted(gammas)



@pytest.mark.parametrize("gs", [sw.preset_sampling_set(sw.abelian(2), 0.3),
                                sw.preset_sampling_set(sw.heisenberg(1), 0.3)],
                         ids=["abelian2", "heisenberg1"])
def test_points_batch_matches_dilate_of_decode_row_by_row(gs):
    rng = np.random.default_rng(3)
    gammas = rng.integers(-2**40, 2**40, size=(4, 5, gs.group.dim))
    js = rng.integers(-3, 4, size=(4, 5))
    got = gs.points(js, gammas)
    for k in np.ndindex(js.shape):
        want = sw.dilate(gs.group, 2.0 ** -int(js[k]), gs.decode(tuple(gammas[k].tolist())))
        assert np.array_equal(got[k], want)
    # one scale for the whole batch
    assert np.array_equal(gs.points(2, gammas), gs.points(np.full(js.shape, 2), gammas))


def test_spacing_and_tile_derive_from_beta():
    gs = sw.SamplingSet(sw.heisenberg(1), 0.5)
    assert gs.spacing.tolist() == [0.5, 0.5, 0.125]
    assert gs.tile == ((0.0, 0.5), (0.0, 0.5), (0.0, 0.125))
    assert gs == sw.preset_sampling_set(sw.heisenberg(1), 0.5)
    assert sw.preset_sampling_set(sw.abelian(2), 0.5).tile == ((0.0, 0.5), (0.0, 0.5))

@pytest.mark.parametrize("gs", lattices(), ids=lambda gs: f"{gs.group.kind}{gs.group.dim}b{gs.beta}")
def test_tiling_exact(gs):
    box = [(-1.5, 1.5)] * gs.group.dim
    rep = sw.verify_tiling(gs, box, grid_res=6)
    assert rep.max_overlap_fraction == 0.0
    assert rep.uncovered_fraction == 0.0


def test_tiling_detects_bad_tile():
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    too_wide = ((0.0, 2.0),)
    rep = sw.verify_tiling(gs, [(-1.5, 1.5)], grid_res=8, tile=too_wide)
    assert rep.max_overlap_fraction > 0.0
    too_narrow = ((0.0, 0.5),)
    rep = sw.verify_tiling(gs, [(-1.5, 1.5)], grid_res=8, tile=too_narrow)
    assert rep.uncovered_fraction > 0.0


def _meshgrid_samples(box, grid_res: int) -> np.ndarray:
    """verify_tiling's sample points as a meshgrid of per-axis linspace rows."""
    axes = []
    for k, (lo, hi) in enumerate(box):
        frac = 0.05 + 0.9 * (((k + 1) * np.sqrt(2.0) + np.sqrt(3.0)) % 1.0)
        axes.append(np.linspace(lo, hi, grid_res, endpoint=False) + frac * (hi - lo) / grid_res)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_tiling_samples_are_the_meshgrid_of_the_axes(monkeypatch, d):
    g = {3: sw.heisenberg(1), 5: sw.heisenberg(2)}.get(d, sw.abelian(d))
    gs = sw.SamplingSet(g, 0.5)
    seen = []
    monkeypatch.setattr(sampling, "_covering_counts",
                        lambda gs, pts, tile: seen.append(pts) or np.ones(len(pts), int))
    rng = np.random.default_rng([25, d])
    for grid_res in range(2, 9):
        lo = rng.uniform(-5.0, 5.0, size=d)
        box = np.stack([lo, lo + rng.uniform(0.1, 7.0, size=d)], axis=1).tolist()
        seen.clear()
        assert sw.verify_tiling(gs, box, grid_res=grid_res).n_samples == grid_res**d
        assert np.concatenate(seen).tobytes() == _meshgrid_samples(box, grid_res).tobytes()


def test_tiling_counts_a_point_on_a_tile_edge_once():
    # R^1: the tile [x0 - 1, x0) with x0 a sample point holds x0 - 1, the
    # translate by 1 holds x0 on its lower edge, and the translate by 0 holds
    # it on its excluded upper edge; the other samples sit 0.375 k away
    gs = sw.SamplingSet(sw.abelian(1), 1.0)
    box = [(-1.5, 1.5)]
    x0 = next(x for x in _meshgrid_samples(box, 8)[:, 0] if 0.5 <= x < 1.5)
    rep = sw.verify_tiling(gs, box, grid_res=8, tile=[(x0 - 1.0, x0)])
    assert (rep.max_overlap_fraction, rep.uncovered_fraction) == (0.0, 0.0)
    # the closed tile [x0 - 1, x0] holds x0 twice
    rep = sw.verify_tiling(gs, box, grid_res=8, tile=[(x0 - 1.0, np.nextafter(x0, 2.0))])
    assert (rep.max_overlap_fraction, rep.uncovered_fraction) == (1 / 8, 0.0)


B3 = [(-1.0, 1.0)] * 3


@pytest.mark.parametrize("box, grid_res, tile, error, message", [
    ([(-1.0, 1.0)] * 2, 4, None, ValueError, "2 intervals for the 3 coordinates"),
    ([(-1.0, 1.0)] * 4, 4, None, ValueError, "4 intervals for the 3 coordinates"),
    ([(-1.0, 1.0), (0.0, np.inf), (0.0, 1.0)], 4, None, ValueError, "finite"),
    ([(-1.0, 1.0), (np.nan, 1.0), (0.0, 1.0)], 4, None, ValueError, "finite"),
    ([(-1.0, 1.0, 2.0)] * 3, 4, None, ValueError, "list of \\(lo, hi\\) intervals"),
    (B3, 4.5, None, ValueError, "grid_res must be an integer, got 4.5"),
    (B3, True, None, ValueError, "grid_res must be an integer"),
    (B3, 1, None, ValueError, "grid_res must be >= 2"),
    (B3, 2**40, None, sw.DomainError, "over the 268435456 B budget"),
    (B3, 600, None, sw.DomainError, "216000000 tiling sample points need 5184000000 B"),
    # a custom tile is checked like the box: a NaN edge read as uncovered
    # everywhere, and two intervals died in NumPy broadcasting
    (B3, 3, [(0.0, np.nan), (0.0, 1.0), (0.0, 0.5)], ValueError, "tile edges must be finite"),
    (B3, 3, [(0.0, 1.0)] * 2, ValueError, "tile has 2 intervals for the 3 coordinates"),
    (B3, 3, [(0.0, 1.0, 2.0)] * 3, ValueError, "tile must be a list of \\(lo, hi\\) intervals"),
], ids=["too-few", "too-many", "infinite", "nan", "triples", "fractional", "bool", "one",
        "2^40", "600", "tile-nan", "tile-two-intervals", "tile-triples"])
def test_verify_tiling_refuses_bad_input(monkeypatch, box, grid_res, tile, error, message):
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    monkeypatch.setattr(np, "indices", None)  # a refusal builds no sample point
    with pytest.raises(error, match=message):
        sw.verify_tiling(gs, box, grid_res=grid_res, tile=tile)


def test_verify_tiling_sample_points_fit_the_budget(monkeypatch):
    # 6^2 points of 2 float64 coordinates: 576 B fit, 575 B do not
    gs = sw.preset_sampling_set(sw.abelian(2), 1.0)
    box = [(-1.5, 1.5)] * 2
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2 * 36)
    assert sw.verify_tiling(gs, box, grid_res=6).n_samples == 36
    assert sw.verify_tiling(gs, box, grid_res=np.int64(6)).n_samples == 36
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2 * 36 - 1)
    with pytest.raises(sw.DomainError, match="36 tiling sample points need 576 B, "
                                             "over the 575 B budget"):
        sw.verify_tiling(gs, box, grid_res=6)


def test_decay_certificate_abelian_oracle():
    # [DERIVED] at eta = j = 0, x = 0, n = 2 on (Z, +):
    # sum_gamma (1 + |gamma|)^{-2} = 1 + 2 (pi^2/6 - 1) = pi^2/3 - 1
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    oracle = np.pi**2 / 3.0 - 1.0
    value, details = column_decay_certificate(gs, 0, 0, 2, np.zeros(1),
                                              return_details=True)
    # the shell sum truncates with a ~1/cut_distance tail that the integral
    # estimate recovers, so only the total tracks the oracle closely
    assert details["partial_sum"] <= oracle
    assert oracle - details["partial_sum"] <= 2e-3
    assert value == pytest.approx(oracle, rel=2e-3)


def _tail_oracle(Q, n, S):
    """int_S^inf R^{Q-1} (1+R)^{-n} dR for integer n > Q as an exact Fraction:
    with u = 1 + R it is sum_k C(Q-1, k) (-1)^{Q-1-k} U^{k+1-n} / (n-1-k), U = 1 + S."""
    U = 1 + Fraction(S)
    return sum(Fraction(math.comb(Q - 1, k) * (-1) ** (Q - 1 - k), n - 1 - k) * U ** (k + 1 - n)
               for k in range(Q))


@pytest.mark.parametrize("Q, n", [(Q, n) for Q in (1, 2, 3, 4, 6, 7)
                                  for n in (Q + 1, Q + 2, 16, 24, 40)])
def test_tail_integral_is_exact(Q, n):
    for S in (0.0, 1e-9, 1e-3, 0.5, 1.0, 7.5, 1e3, 1e6):
        exact = _tail_oracle(Q, n, S)
        assert abs(Fraction(_tail_integral(Q, n, S)) - exact) <= Fraction(1e-13) * exact, S


@pytest.mark.parametrize("S", [0.0, 1e-3, 0.5, 7.5, 1e6])
def test_tail_integral_closed_forms_at_non_integer_n(S):
    u = 1.0 + S
    # Q = 1: int (1+R)^{-3/2} = 2 u^{-1/2}; Q = 2: int (u-1) u^{-5/2} = 2 u^{-1/2} - (2/3) u^{-3/2}
    assert _tail_integral(1, 1.5, S) == pytest.approx(2.0 * u**-0.5, rel=1e-14, abs=0)
    assert _tail_integral(2, 2.5, S) == pytest.approx(2.0 * u**-0.5 - 2.0 / 3.0 * u**-1.5,
                                                      rel=1e-14, abs=0)


@pytest.mark.parametrize("Q, n", [(1, 2), (4, 16), (7, 8)])
def test_tail_integral_underflows_instead_of_overflowing(Q, n):
    tail = _tail_integral(Q, n, 1e300)
    assert math.isfinite(tail) and tail >= 0.0


# [DERIVED] sum over Z of (1 + |gamma|)^{-n} = 1 + 2 (zeta(n) - 1)
ABELIAN_SUMS = {2: np.pi**2 / 3.0 - 1.0, 3: 2.0 * 1.2020569031595942 - 1.0,
                4: np.pi**4 / 45.0 - 1.0}


@pytest.mark.parametrize("n", sorted(ABELIAN_SUMS))
@pytest.mark.parametrize("max_shells", [1, 2, 3, 5, 50])
def test_decay_certificate_bounds_the_lattice_sum(n, max_shells):
    # the tail bounds what the shells leave out, however few they are
    gs = sw.SamplingSet(sw.abelian(1), 1.0)
    value = column_decay_certificate(gs, 0, 0, n, np.zeros(1), rel_tail=0.0,
                                     max_shells=max_shells)
    assert value >= ABELIAN_SUMS[n]


def test_cached_shell_geometry_and_spacing_are_read_only():
    offsets, bounds = _shell_block(2, 3)
    with pytest.raises(ValueError):
        offsets[0, 0] = 7
    assert isinstance(bounds, tuple)
    with pytest.raises(ValueError):
        sw.SamplingSet(sw.heisenberg(1), 1.0).spacing[0] = 2.0


@pytest.mark.parametrize("d", [1, 3, 5])
def test_cached_tiling_candidates_are_read_only(d):
    offsets = sampling._tiling_offsets(d)
    assert offsets is sampling._tiling_offsets(d)
    assert np.array_equal(offsets, list(itertools.product((-1, 0, 1), repeat=d)))
    with pytest.raises(ValueError):
        offsets[0, 0] = 7


@pytest.mark.parametrize("gs, x", [
    (sw.SamplingSet(sw.heisenberg(1), 1.0), [0.3, -0.2, 0.1]),
    (sw.SamplingSet(sw.abelian(2), 0.5), [0.2, -0.1]),
    (sw.SamplingSet(custom_3_2(), 0.75), [0.3, -0.2, 0.5, 0.1, -0.2]),
], ids=["H1", "R2", "custom3+2"])
def test_decay_certificate_is_the_same_with_a_cold_or_warm_block_cache(gs, x):
    args = (gs, 1, 1, 24, np.asarray(x))
    kw = dict(rel_tail=1e-8, max_shells=6, return_details=True)
    _shell_block.cache_clear()
    cold = column_decay_certificate(*args, **kw)
    warm = column_decay_certificate(*args, **kw)
    assert _shell_block.cache_info().hits >= 1
    hexes = [[v.hex() if isinstance(v, float) else v for v in (c[0], *c[1].values())]
             for c in (cold, warm)]
    assert hexes[0] == hexes[1]


def test_decay_certificate_uniformity():
    # the certified value must stay bounded uniformly over (eta, j, x);
    # a large decay exponent keeps the shell sums short, since the central
    # direction of the rescaled lattice only separates like sqrt(radius)
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    n = 16  # > Q = 4
    values = []
    for eta, j in [(0, 0), (0, 1), (1, 2), (2, 2)]:
        for x in (np.zeros(3), np.array([0.3, -0.2, 0.1])):
            values.append(column_decay_certificate(gs, eta, j, n, x,
                                                   rel_tail=1e-8, max_shells=60))
    assert all(np.isfinite(values))
    assert max(values) <= 50.0 * min(values) + 50.0


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_shell_is_the_cube_boundary(d):
    center = np.arange(d) - 1
    for r in range(5):
        shell = _shell(center, r)
        assert len(shell) == (2 * r + 1) ** d - max(2 * r - 1, 0) ** d
        assert len({tuple(p) for p in shell}) == len(shell)
        assert np.all(np.max(np.abs(shell - center), axis=1) == r)


def _brute_force_sums(gs, eta, j, n, x, shells):
    """(partial sum, cut distance) over the full cube of radius shells - 1,
    one point at a time, with the bracket law and Koranyi gauge written out."""
    b, g = gs.beta, gs.group
    d1, B = g.strata_dims[0], ([] if g.bracket is None else g.bracket.tolist())
    s2 = b * b / 2.0  # the second-stratum spacing
    center = [round(v / b) for v in x[:d1]] + [round(v / s2) for v in x[d1:]]
    Q, r, h = g.Q, shells - 1, 2.0 ** (-j)
    total, cut = 0.0, np.inf
    for off in itertools.product(range(-r, r + 1), repeat=g.dim):
        gam = [c + o for c, o in zip(center, off)]
        p = [b * v for v in gam[:d1]] + [s2 * v for v in gam[d1:]]
        # p^{-1} x = x - p - [p, x]/2 in exponential coordinates
        rel = [xi - pi for xi, pi in zip(x, p)]
        for k, Bk in enumerate(B):
            rel[d1 + k] -= sum(Bk[i][l] * p[i] * x[l]
                               for i in range(d1) for l in range(d1)) / 2.0
        v1 = sum((h * v) ** 2 for v in rel[:d1])
        v2 = sum((h * h * v) ** 2 for v in rel[d1:])
        dist = (v1 * v1 + 16.0 * v2) ** 0.25 if B else np.sqrt(v1)
        total += 2.0 ** (-j * Q) / (1.0 + 2.0**eta * dist) ** n
        if max(abs(o) for o in off) == r:
            cut = min(cut, dist)
    return total * 2.0 ** (eta * Q), cut


@pytest.mark.parametrize("gs, eta, j, n, x, shells", [
    (sw.preset_sampling_set(sw.heisenberg(1), 1.0), 1, 2, 16, [0.3, -0.2, 0.1], 7),
    (sw.preset_sampling_set(sw.heisenberg(1), 0.5), 0, 0, 16, [0.1, 0.4, 0.05], 7),
    (sw.preset_sampling_set(sw.abelian(2), 0.5), 0, 0, 6, [0.2, -0.1], 7),
    (sw.preset_sampling_set(sw.abelian(2), 1.0), 1, 1, 8, [0.7, 0.3], 7),
    (sw.SamplingSet(custom_3_2(), 0.75), 1, 1, 24, [0.3, -0.2, 0.5, 0.1, -0.2], 3),
], ids=["H1-eta1-j2", "H1-b0.5", "R2-b0.5", "R2-eta1-j1", "custom3+2-eta1-j1"])
def test_decay_certificate_matches_brute_force(gs, eta, j, n, x, shells):
    # shell-by-shell sums equal a full-cube recomputation over the same points
    value, det = column_decay_certificate(gs, eta, j, n, np.asarray(x), rel_tail=0.0,
                                          max_shells=shells, return_details=True)
    assert det["shells"] == shells
    partial, cut = _brute_force_sums(gs, eta, j, n, x, det["shells"])
    assert det["partial_sum"] == pytest.approx(partial, rel=1e-12, abs=0)
    assert det["cut_distance"] == pytest.approx(cut, rel=1e-12, abs=0)
    assert value >= det["partial_sum"]


# lattices of groups other than the presets: every integer bracket has one
CUSTOM_LATTICES = {
    "custom3+2": sw.SamplingSet(custom_3_2(), 1.0),
    # 4+1 with [e0, e1] = [e2, e3] = f: not the H^2 preset, whose bracket
    # pairs e0 with e2 and e1 with e3
    "custom4+1": sw.SamplingSet(sw.GroupSpec(strata_dims=(4, 1), kind="custom", bracket=np.array(
        [[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]], dtype=float)), 0.5),
    "custom-abelian": sw.SamplingSet(sw.GroupSpec(strata_dims=(2,), kind="custom"), 0.5),
    "free3+2": sw.SamplingSet(free_3_2(), 0.75),
}


def _assert_exact_law(gs, a, b, j):
    """decode commutes with the group law, inversion and dilation, bit for bit."""
    g = gs.group
    assert np.array_equal(gs.decode(gs.lat_mul(a, b)),
                          sw.multiply(g, gs.decode(a), gs.decode(b)))
    assert np.array_equal(gs.decode(gs.lat_inv(a)), sw.inverse(g, gs.decode(a)))
    assert np.array_equal(gs.decode(gs.lat_dilate(a, j)),
                          sw.dilate(g, 2.0 ** np.asarray(j, dtype=float), gs.decode(a)))


@pytest.mark.parametrize("name", sorted(CUSTOM_LATTICES))
def test_lattice_law_is_exact(name):
    # 1000 random pairs, and one scale per pair
    gs = CUSTOM_LATTICES[name]
    rng = np.random.default_rng(12)
    a, b = rng.integers(-1000, 1001, size=(2, 1000, gs.group.dim))
    _assert_exact_law(gs, a, b, rng.integers(0, 7, size=1000))
    assert gs.encode(gs.decode(a)).tolist() == a.tolist()


@settings(max_examples=60, deadline=None)
@given(g=integer_step_2_groups(), beta=st.sampled_from([1.0, 0.5, 0.75]), data=st.data())
def test_lattice_law_is_exact_on_integer_brackets(g, beta, data):
    gs = sw.SamplingSet(g, beta)
    a, b = (tuple(data.draw(st.lists(lat_int, min_size=g.dim, max_size=g.dim)))
            for _ in range(2))
    _assert_exact_law(gs, a, b, data.draw(st.integers(0, 6)))
    assert gs.lat_mul(a, gs.lat_inv(a)) == (0,) * g.dim


@pytest.mark.parametrize("name, grid_res", [("custom3+2", 4), ("free3+2", 3)])
def test_tiling_exact_on_custom_groups(name, grid_res):
    gs = CUSTOM_LATTICES[name]
    rep = sw.verify_tiling(gs, [(-3.0, 3.0)] * gs.group.dim, grid_res=grid_res)
    assert (rep.max_overlap_fraction, rep.uncovered_fraction) == (0.0, 0.0)


@pytest.mark.parametrize("entry", [0.5, 1e-9, np.sqrt(2.0)], ids=["half", "tiny", "irrational"])
def test_sampling_set_rejects_groups_without_a_lattice_law(entry):
    b = np.zeros((1, 2, 2))
    b[0, 0, 1], b[0, 1, 0] = entry, -entry
    g = sw.GroupSpec(strata_dims=(2, 1), kind="custom", bracket=b)
    with pytest.raises(sw.DomainError, match="no lattice law"):
        sw.SamplingSet(group=g, beta=1.0)
    with pytest.raises(sw.DomainError, match="no lattice law"):
        sw.preset_sampling_set(g, 1.0)


def test_decay_certificate_divergence_warning():
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.warns(UserWarning, match="diverge"):
        column_decay_certificate(gs, 0, 0, 1, np.zeros(1), max_shells=5)


def test_decay_certificate_domain():
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.raises(ValueError):
        column_decay_certificate(gs, 3, 1, 4, np.zeros(1))
    # n = nan used to return nan with an inf tail; rel_tail = nan never stopped
    for n in (np.nan, np.inf):
        with pytest.raises(ValueError, match="decay exponent n must be finite"):
            column_decay_certificate(gs, 0, 0, n, np.zeros(1))
    for rel_tail in (np.nan, -1e-10):
        with pytest.raises(ValueError, match="rel_tail must be a number >= 0"):
            column_decay_certificate(gs, 0, 0, 4, np.zeros(1), rel_tail=rel_tail)
    assert column_decay_certificate(gs, 0, 0, 4, np.zeros(1), rel_tail=0.0, max_shells=50) > 0


@pytest.mark.parametrize("eta, j", [(-400, 0)], ids=["2^(-eta Q)"])
def test_decay_certificate_refuses_overflowing_weights_before_the_block_pass(monkeypatch,
                                                                            eta, j):
    # on H^1 (Q = 4) the one weight 2^((eta - j) Q) = 2^-1600 is 0 in float64
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    built = []
    monkeypatch.setattr(sampling, "_shell_block",
                        lambda d, rb: built.append(rb) or _shell_block(d, rb))
    with pytest.raises(sw.DomainError, match=f"eta = {eta}, j = {j} leave float64"):
        column_decay_certificate(gs, eta, j, 16, np.zeros(3))
    assert built == []
    # 2^(4 * 255) = 2^1020 is finite
    assert math.isfinite(column_decay_certificate(gs, 255, 255, 16, np.zeros(3), max_shells=4))


@pytest.mark.parametrize("eta, j, message", [
    (-114, 0, r"eta = -114, j = 0 leave float64: the weight 2\^\(\(eta - j\) Q\), Q = 9"),
    (1075, 1075, "eta = 1075, j = 1075 leave float64"),
    (-1100, -1100, "eta = -1100, j = -1100 leave float64"),
    (-10**400, 0, "eta = -1000.*, j = 0 leave float64"),
], ids=["subnormal-weight", "2^-j-underflows", "2^-j-overflows", "huge-int"])
def test_decay_certificate_refuses_a_scale_outside_float64_before_the_block_pass(
        monkeypatch, eta, j, message):
    # on N_{3,2} (Q = 9) the weight 2^((eta - j) Q) is 2^-1026 at a gap of 114, a
    # subnormal, and 2^-1017 at a gap of 113
    gs = sw.SamplingSet(free_3_2(), 1.0)
    assert math.isfinite(column_decay_certificate(gs, -113, 0, 16, np.zeros(6), max_shells=2))
    built = []
    monkeypatch.setattr(sampling, "_shell_block",
                        lambda d, rb: built.append(rb) or _shell_block(d, rb))
    with pytest.raises(sw.DomainError, match=message):
        column_decay_certificate(gs, eta, j, 16, np.zeros(6))
    assert built == []


@pytest.mark.parametrize("beta, eta, j, least, error", [
    (0.5, 1074, 1074, 0.3, "is 0.0 at j = 1074"),
    (8.0, -1023, -1023, 7.7, "is inf at j = -1023"),
], ids=["underflows", "overflows"])
def test_decay_certificate_refuses_a_cut_distance_outside_float64(beta, eta, j, least, error):
    # R^1 at x = 0.3: the second shell's least distance is 0.3 at beta = 1/2 (the
    # center is 1/2, the shell 0 and 1) and 7.7 at beta = 8 (the shell -8 and 8);
    # 2^-1074 * 0.3 rounds to 0 and 2^1023 * 7.7 overflows, while every term is
    # the one at eta = j = 0
    gs, x = sw.SamplingSet(sw.abelian(1), beta), np.array([0.3])
    _, det = column_decay_certificate(gs, 0, 0, 16, x, max_shells=2, return_details=True)
    assert det["cut_distance"] == pytest.approx(least, rel=1e-15)
    with pytest.raises(sw.DomainError, match=error):
        column_decay_certificate(gs, eta, j, 16, x, max_shells=2)


INVARIANCE_GROUPS = {"R1": sw.abelian(1), "R2": sw.abelian(2), "H1": sw.heisenberg(1),
                     "H2": sw.heisenberg(2), "custom3+2": custom_3_2(), "N3,2": free_3_2()}


def _certificate_details(gs, eta, j, n, x, rel_tail, max_shells) -> dict:
    value, det = column_decay_certificate(gs, eta, j, n, np.asarray(x, dtype=float),
                                          rel_tail=rel_tail, max_shells=max_shells,
                                          return_details=True)
    return dict(det, value=value)


def _assert_shifted(base: dict, shifted: dict, k: int) -> None:
    """shifted is base with (eta, j) moved by k: the same bits, cut_distance times 2^-k."""
    for key in ("value", "partial_sum", "tail_estimate"):
        assert shifted[key].hex() == base[key].hex(), key
    assert shifted["shells"] == base["shells"]
    assert shifted["cut_distance"] == base["cut_distance"] * 2.0**-k


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(INVARIANCE_GROUPS)), beta=st.sampled_from([1.0, 0.5, 0.75]),
       eta=st.integers(-3, 3), gap=st.integers(0, 3), k=st.integers(-600, 600),
       n_extra=st.integers(1, 20), stop=st.sampled_from([(0.0, 3), (1e-8, 4), (0.5, 4)]),
       data=st.data())
def test_decay_certificate_depends_on_j_minus_eta_only(name, beta, eta, gap, k, n_extra, stop,
                                                       data):
    # the certificate of delta_{2^k} applied to both scales: 2^{(eta - j) Q} and
    # 2^{eta - j} are unchanged, and the cut distance is 2^{-j} times the same norm
    gs = sw.SamplingSet(INVARIANCE_GROUPS[name], beta)
    x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=gs.group.dim,
                                    max_size=gs.group.dim)))
    n = gs.group.Q + n_extra
    base = _certificate_details(gs, eta, eta + gap, n, x, *stop)
    _assert_shifted(base, _certificate_details(gs, eta + k, eta + gap + k, n, x, *stop), k)


@pytest.mark.parametrize("eta, j, k", [(600, 600, 600), (-400, -300, -400),
                                       (np.int64(-400), np.int64(-300), -400),
                                       (255, 255, 255), (-600, -600, -600)],
                         ids=["600,600", "-400,-300", "numpy-ints", "255,255", "-600,-600"])
def test_decay_certificate_is_the_shifted_one_at_large_scales(eta, j, k):
    # on H^1 (Q = 4): 2^(4 * 600) and 2^(-4 * 400) used to be refused as
    # overflows, and at eta = j = 255 the weights 2^-1020 gave subnormal terms
    # (value 0.000525316 against 0.000525176 at eta = j = 0)
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    for x in (np.zeros(3), np.array([0.3, 0.2, 0.1])):
        base = _certificate_details(gs, eta - k, j - k, 16, x, 1e-10, 5)
        _assert_shifted(base, _certificate_details(gs, eta, j, 16, x, 1e-10, 5), k)


@pytest.mark.parametrize("name, x", [("R1", [0.3]), ("H1", [0.3, 0.2, 0.1])])
def test_decay_certificate_at_eta_equal_j_is_the_one_at_zero(name, x):
    # on R^1 the dilated norms used to underflow: eta = j = 537 gave 2 and
    # eta = j = 600 gave 9.13, against 0.0152354 at eta = j = 0
    gs = sw.SamplingSet(INVARIANCE_GROUPS[name], 1.0)
    base = _certificate_details(gs, 0, 0, 16, x, 1e-10, 5)
    if name == "R1":
        assert base["value"] == pytest.approx(0.01523544367, rel=1e-9)
    for k in range(-1000, 1001, 37):
        _assert_shifted(base, _certificate_details(gs, k, k, 16, x, 1e-10, 5), k)


@pytest.mark.parametrize("max_shells, passes", [(15, 3), (13, 1), (4, 1)])
def test_decay_certificate_reads_its_distances_off_one_norm_pass(monkeypatch, max_shells,
                                                                 passes):
    # H^1's block holds the shells r < 13; rel_tail = 0 sums every shell, so 15
    # shells are the block and two later shells
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    calls = {"dilate": 0, "multiply": 0, "hom_norm": 0}
    for name in calls:
        original = getattr(sw.groups, name)
        monkeypatch.setattr(sw.groups, name,
                            lambda *a, _f=original, _n=name: calls.__setitem__(_n, calls[_n] + 1)
                            or _f(*a))
    _, det = column_decay_certificate(gs, 1, 2, 16, np.array([0.3, -0.2, 0.1]), rel_tail=0.0,
                                      max_shells=max_shells, return_details=True)
    assert det["shells"] == max_shells
    assert calls == {"dilate": 0, "multiply": passes, "hom_norm": passes}


@pytest.mark.parametrize("max_shells", [0, -3, 2.5, True, "6"])
def test_decay_certificate_refuses_a_bad_shell_cap(max_shells):
    # max_shells = 0 used to return the tail estimate alone, 0.00178 against a sum near 1
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    with pytest.raises(ValueError, match="max_shells must be an integer >= 1"):
        column_decay_certificate(gs, 0, 0, 16, np.zeros(3), max_shells=max_shells)
    assert column_decay_certificate(gs, 0, 0, 16, np.zeros(3), max_shells=np.int64(1)) > 0


@pytest.mark.parametrize("x, message", [
    ([0.1, np.nan, 0.0], "finite"),
    ([0.1, 0.2, np.inf], "finite"),
    ([0.1, 0.2], "3 coordinates"),
    ([[0.1, 0.2, 0.3]], "3 coordinates"),
    (0.5, "3 coordinates"),
], ids=["nan", "inf", "two-entries", "row", "scalar"])
def test_decay_certificate_refuses_a_bad_point(x, message):
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    with pytest.raises(ValueError, match=message):
        column_decay_certificate(gs, 0, 0, 16, x)


def test_decay_certificate_refuses_a_shell_over_the_budget(monkeypatch):
    # an abelian(2) shell of radius r holds 8r points of 16 B; with its pass
    # (5 copies) and axis ranges (4r entries) it needs 8 (5 * 16 r + 4 r) =
    # 672 r B: a 3360 B budget takes r = 5 and refuses r = 6 before building it
    gs = sw.preset_sampling_set(sw.abelian(2), 1.0)
    monkeypatch.setattr(sampling, "_SHELL_ROWS", 1)
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 3360)
    sampling._shell_block(2, 1)  # cached first, so that the spy sees the shells past it
    built = []
    monkeypatch.setattr(sampling, "_shell", lambda c, r: built.append(r) or _shell(c, r))
    args = (gs, 0, 0, 6, np.zeros(2))
    assert column_decay_certificate(*args, rel_tail=0.0, max_shells=6) > 0
    assert built == [1, 2, 3, 4, 5]
    built.clear()
    with pytest.raises(sw.DomainError, match="radius-6 lattice shell and its group-law pass "
                                             "need 4032 B"):
        column_decay_certificate(*args, rel_tail=0.0, max_shells=7)
    assert built == [1, 2, 3, 4, 5]
    # a certificate that stops before the shell never meets the budget
    assert column_decay_certificate(*args, rel_tail=0.5, max_shells=2000) > 0


def test_decay_certificate_budget_covers_the_group_law_pass(monkeypatch):
    # an abelian(3) shell of radius r holds 24 r^2 + 2 points of 24 B: at
    # r = 60, 2.07 MB of coordinates, whose construction and pass peak well
    # above that, within the bytes the budget charges for the shell
    gs = sw.preset_sampling_set(sw.abelian(3), 1.0)
    monkeypatch.setattr(sampling, "_SHELL_ROWS", 1)
    r, points = 60, 24 * 60**2 + 2
    args = (gs, 0, 0, 6, np.zeros(3))
    tracemalloc.start()
    try:
        column_decay_certificate(*args, rel_tail=0.0, max_shells=r + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * 24 * points < peak <= 8 * (sampling._PASS_COPIES * 3 * points + 4 * r)
    # a budget of those coordinates alone refuses the pass of a smaller
    # shell, 2880 r'^2 + 32 r' + 240 B > 2073648 B from r' = 27, before
    # building it
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 24 * points)
    built = []
    monkeypatch.setattr(sampling, "_shell", lambda c, r: built.append(r) or _shell(c, r))
    with pytest.raises(sw.DomainError, match="radius-27 lattice shell and its group-law pass "
                                             "need 2100624 B"):
        column_decay_certificate(*args, rel_tail=0.0, max_shells=r + 1)
    assert built == list(range(1, 27))


@pytest.mark.parametrize("d, rbs", [(1, [1, 2, 7, 40]), (2, [1, 2, 5, 9]), (3, [1, 2, 4, 6]),
                                    (5, [1, 2, 3])])
def test_shell_block_is_the_concatenated_shells(d, rbs):
    zero = np.zeros(d, dtype=np.int64)
    for rb in rbs:
        offsets, bounds = _shell_block(d, rb)
        shells = [_shell(zero, r) for r in range(rb)]
        assert np.array_equal(offsets, np.concatenate(shells))
        assert list(bounds) == [0] + np.cumsum([len(s) for s in shells]).tolist()


def _shell_by_shell(gs, eta, j, n, x, rel_tail, max_shells):
    """(partial sum, cut distance, shells) of the certificate's stopping rule,
    one `_shell` pass at a time."""
    g, Q = gs.group, gs.group.Q
    center = np.rint(x / gs.spacing).astype(np.int64)
    total, cut, used = 0.0, 0.0, 0
    for r in range(max_shells):
        rel = sw.multiply(g, sw.inverse(g, gs.decode(_shell(center, r))), x)
        dists = sw.hom_norm(g, sw.dilate(g, 2.0 ** (-j), rel))
        contrib = float(np.sum(2.0 ** (-j * Q) / (1.0 + 2.0**eta * dists) ** n))
        total += contrib
        used = r + 1
        cut = float(np.min(dists)) if r > 0 else 0.0
        if r > 2 and contrib < rel_tail * max(total, 1e-300):
            break
    return total * 2.0 ** (eta * Q), cut, used


@pytest.mark.parametrize("gs, eta, j, n, x", [
    (sw.preset_sampling_set(sw.abelian(1), 1.0), 0, 0, 3, [0.37]),
    (sw.preset_sampling_set(sw.abelian(2), 0.5), 1, 2, 6, [0.2, -0.1]),
    (sw.preset_sampling_set(sw.heisenberg(1), 1.0), 1, 2, 16, [0.3, -0.2, 0.1]),
    (sw.preset_sampling_set(sw.heisenberg(2), 1.0), 0, 1, 16, [0.3, -0.2, 0.1, 0.25, 0.05]),
], ids=["R1", "R2", "H1", "H2"])
@pytest.mark.parametrize("rel_tail, max_shells, shells", [
    (0.5, 2000, 4),  # the rule stops at r = 3, inside the block
    (0.0, 4, 4),     # max_shells ends the block early
    (0.0, 7, 7),     # shells 5 and 6 are single passes
], ids=["stop", "cap-inside", "cap-beyond"])
def test_shell_block_certificate_equals_the_shell_by_shell_loop(monkeypatch, gs, eta, j, n, x,
                                                                 rel_tail, max_shells, shells):
    x = np.asarray(x)
    args = (gs, eta, j, n, x, rel_tail, max_shells)
    # a block of radius 4 (r_b = 5) instead of one near 2^14 points
    monkeypatch.setattr(sampling, "_SHELL_ROWS", 9 ** gs.group.dim)
    value, det = column_decay_certificate(*args, return_details=True)
    assert det["shells"] == shells
    partial, cut, used = _shell_by_shell(*args)
    assert (det["partial_sum"].hex(), det["cut_distance"].hex(), det["shells"]) == (
        partial.hex(), cut.hex(), used)
    # a one-point block is the shell-by-shell path for every r >= 1
    monkeypatch.setattr(sampling, "_SHELL_ROWS", 1)
    value1, det1 = column_decay_certificate(*args, return_details=True)
    assert value.hex() == value1.hex()
    assert det == det1


def test_lattice_coordinates_refuses_a_lattice_over_budget(monkeypatch):
    # 2^81 * 4 points of H^1 at scale 40 in [-1, 1)^3: refused, not allocated
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    with pytest.raises(sw.DomainError, match="budget"):
        sw.lattice_coordinates(gs, 40, [(-1.0, 1.0)] * 3)
    # exactly at the budget the lattice is built; one byte less refuses it
    gs = sw.preset_sampling_set(sw.abelian(2), 1.0)
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2 * 36)
    assert sw.lattice_coordinates(gs, 0, [(0.0, 6.0)] * 2).shape == (36, 2)
    monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", 8 * 2 * 36 - 1)
    with pytest.raises(sw.DomainError, match="36 lattice points at scale 0"):
        sw.lattice_coordinates(gs, 0, [(0.0, 6.0)] * 2)


@pytest.mark.parametrize("j, box", [(1100, [(-1.0, 1.0)]), (-1100, [(-1.0, 1.0)]),
                                    (0, [(-np.inf, 1.0)]), (0, [(np.nan, 1.0)])],
                         ids=["step-underflows", "step-overflows", "infinite-box", "nan-box"])
def test_lattice_coordinates_refuses_a_non_finite_step_or_count(j, box):
    # 2^-1100 rounds to 0 and 2^1100 to inf; either used to give an
    # OverflowError, or an empty lattice where gamma = 0 lies in the box
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.raises(sw.DomainError, match="no finite float64 step or point count"):
        sw.lattice_coordinates(gs, j, box)


def _exact_ranges(gs, j, box):
    """ceil(lo / step - 1e-12), ceil(hi / step - 1e-12) per coordinate, with
    the step beta 2^-j on V1 and (beta^2 / 2) 4^-j on V2 in exact rationals."""
    d1 = gs.group.strata_dims[0]
    out = []
    for k, (lo, hi) in enumerate(box):
        step = (Fraction(gs.beta) * Fraction(2) ** -j if k < d1
                else Fraction(gs.beta) ** 2 / 2 * Fraction(4) ** -j)
        eps = Fraction(1e-12)
        out.append(tuple(math.ceil(Fraction(v) / step - eps) for v in (lo, hi)))
    return out


@pytest.mark.parametrize("gs, box", [
    (sw.SamplingSet(sw.abelian(1), 0.25), [(-4.0, 4.0)]),
    (sw.SamplingSet(sw.abelian(2), 0.3), [(-1.5, 2.0), (0.0, 1.0)]),
    (sw.SamplingSet(sw.heisenberg(1), 0.5), [(-1.0, 1.0), (0.25, 2.0), (-0.5, 0.5)]),
    (sw.SamplingSet(custom_3_2(), 1.0), [(-1.0, 1.0)] * 5),
], ids=["abelian1", "abelian2", "heisenberg1", "custom_3_2"])
def test_scale_ranges_equal_the_per_scale_ranges(gs, box):
    js = [2, -2, 0, 1, -3, -1]  # any order: the ranges come back in the order of js
    ranges = sampling.scale_ranges(gs, js, box)
    assert ranges == [sampling.lattice_ranges(gs, j, box) for j in js]
    assert ranges == [_exact_ranges(gs, j, box) for j in js]
    assert sampling.scale_ranges(gs, [], box) == []
    empty = [(0.0, 0.0)] + list(box[1:])
    assert sampling.scale_ranges(gs, js, empty) == [[(0, 0)] * gs.group.dim] * len(js)


def _first_refusal(gs, js, box):
    """The message of the first refusal of per-scale calls, finest scale first."""
    for j in sorted(js, reverse=True):
        try:
            sampling.lattice_ranges(gs, j, box)
        except sw.DomainError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("js, budget", [
    (range(-1, 8), 8 * 2**10),   # scales 7 and 6 are over: 7 is named
    (range(-1, 8), 8 * 2**11 - 1),  # only 7 is over
    ([0, 22, 3, -1100], None),  # 22 is over the budget; -1100 has an infinite step
    ([0, 1100, 22, 3], None),   # 1100 has a zero step and comes first
    ([-1100, 0, 1], None),      # the overflow is the only refusal
], ids=["two-over", "one-over", "budget-first", "underflow-first", "overflow"])
def test_scale_ranges_raise_the_first_per_scale_refusal(monkeypatch, js, budget):
    # density 0.25 on [-2, 2): scale j has 2^(j + 4) points
    if budget is not None:
        monkeypatch.setattr(sampling, "MAX_ARRAY_BYTES", budget)
    gs, box = sw.SamplingSet(sw.abelian(1), 0.25), [(-2.0, 2.0)]
    message = _first_refusal(gs, js, box)
    assert message is not None
    with pytest.raises(sw.DomainError) as info:
        sampling.scale_ranges(gs, js, box)
    assert str(info.value) == message


def test_sampling_json_roundtrip():
    for gs in lattices():
        gs2 = sampling_from_json(sampling_to_json(gs))
        assert gs2.beta == gs.beta
        assert gs2.tile == gs.tile
        assert gs2.group.kind == gs.group.kind


@pytest.mark.parametrize("change, message", [
    ({"beta": "1.0"}, "beta must be a JSON number"),
    ({"beta": True}, "beta must be a JSON number"),
    ({"beta": float("inf")}, "beta must be a JSON number"),
    ({"tile": [["0.0", 1.0]]}, r"tile\[0\]\[0\] must be a JSON number"),
    ({"tile": [[0.0, False]]}, r"tile\[0\]\[1\] must be a JSON number"),
    ({"tile": [[0.0, 1.0], [0.0, 1.0]]}, "one \\(lo, hi\\) pair for each of 1 coordinates"),
    ({"tile": [[0.0]]}, "one \\(lo, hi\\) pair"),
    ({"group": {"kind": "abelian", "d": 1.0}}, "d must be a JSON integer"),
], ids=["string-beta", "bool-beta", "inf-beta", "string-lo", "bool-hi", "two-pairs", "one-bound",
        "float-d"])
def test_sampling_from_json_refuses_mistyped_fields(change, message):
    obj = dict(sampling_to_json(sw.preset_sampling_set(sw.abelian(1), 1.0)), **change)
    with pytest.raises(ValueError, match=message):
        sampling_from_json(obj)


def test_sampling_from_json_refuses_a_tile_that_is_not_the_lattices():
    obj = sampling_to_json(sw.preset_sampling_set(sw.heisenberg(1), 0.5))
    assert sampling_from_json(obj) == sw.preset_sampling_set(sw.heisenberg(1), 0.5)
    obj["tile"] = [[0.0, 0.5], [0.0, 0.5], [0.0, 0.25]]  # beta^2, not beta^2 / 2
    with pytest.raises(ValueError, match="one \\(lo, hi\\) pair for each of 3 coordinates"):
        sampling_from_json(obj)


# -- the int64 lattice law against Python integers ----------------------------

LAW_LATTICES = {"R2": sw.SamplingSet(sw.abelian(2), 0.5),
                "H1": sw.SamplingSet(sw.heisenberg(1), 1.0),
                "H2": sw.SamplingSet(sw.heisenberg(2), 0.5),
                "custom3+2": sw.SamplingSet(custom_3_2(), 1.0),
                "N3,2": sw.SamplingSet(free_3_2(), 0.75)}
BOUND = 2**62
# the certificate may refuse a result this close to the bound (relative to the
# sum of its terms): 2 gamma_n with n = 2 d1 + 8 <= 16 is below 4e-15
SLACK = 1e-14


def oracle_mul(gs, a, b):
    """(a, c).(a', c') = (a + a', c + c' + B(a, a')) in Python ints, and per
    coordinate the sum of the absolute values of its terms."""
    g, d1 = gs.group, gs.group.strata_dims[0]
    out = [x + y for x, y in zip(a, b)]
    terms = [abs(x) + abs(y) for x, y in zip(a, b)]
    for k in range(g.dim - d1):
        for i in range(d1):
            for j in range(d1):
                t = int(g.bracket[k, i, j]) * a[i] * b[j]
                out[d1 + k] += t
                terms[d1 + k] += abs(t)
    return tuple(out), terms


def oracle_dilate(gs, a, j):
    w = sw.groups.dilation_weights(gs.group).astype(int).tolist()
    return tuple(x * 2 ** (j * k) for x, k in zip(a, w))


law_coords = st.one_of(st.integers(-50, 50), st.integers(-2**31, 2**31),
                       st.integers(-2**53, 2**53),
                       st.sampled_from([2**53, -2**53, 2**53 - 1, 1 - 2**53]))


@pytest.mark.parametrize("name", sorted(LAW_LATTICES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int64_law_equals_python_integers(name, data):
    gs = LAW_LATTICES[name]
    dim = gs.group.dim
    a, b = (tuple(data.draw(st.lists(law_coords, min_size=dim, max_size=dim)))
            for _ in range(2))
    want, terms = oracle_mul(gs, a, b)
    try:
        got = gs.lat_mul(a, b)
    except sw.DomainError:
        # refused only where the exact value reaches the bound, or comes
        # within the certificate's rounding bound of it
        assert any(abs(w) + SLACK * t >= BOUND for w, t in zip(want, terms))
    else:
        assert got == want and all(abs(w) < BOUND for w in want)
    assert gs.lat_inv(a) == tuple(-x for x in a)
    j = data.draw(st.integers(0, 70))
    want = oracle_dilate(gs, a, j)
    if all(abs(w) < BOUND for w in want):
        assert gs.lat_dilate(a, j) == want
    else:
        with pytest.raises(sw.DomainError, match="dilation"):
            gs.lat_dilate(a, j)


@pytest.mark.parametrize("name", sorted(LAW_LATTICES))
def test_int64_law_batches_equal_python_integers(name):
    gs = LAW_LATTICES[name]
    rng = np.random.default_rng(5)
    a = rng.integers(-2**26, 2**26, size=(31, 8, gs.group.dim))
    b = rng.integers(-2**26, 2**26, size=(1, 8, gs.group.dim))
    j = rng.integers(0, 8, size=(31, 8))
    got = gs.lat_mul(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [[list(oracle_mul(gs, x, y)[0]) for x, y in zip(row, b[0].tolist())]
                            for row in a.tolist()]
    assert gs.lat_dilate(a, j).tolist() == [
        [list(oracle_dilate(gs, x, k)) for x, k in zip(row, ks)]
        for row, ks in zip(a.tolist(), j.tolist())]
    assert gs.lat_inv(a).tolist() == (-a).tolist()


@pytest.mark.parametrize("E", [2**32, 2**40, 2**53 - 1])
def test_cancelling_products_beyond_int64(E):
    # each product is about E^2, past 2^63, but the bracket term is 2E
    gs = LAW_LATTICES["H1"]
    assert gs.lat_mul((E, -E, 0), (E + 1, -E + 1, 0)) == (2 * E + 1, 1 - 2 * E, 2 * E)
    # products of 2^106 that cancel to 0 exactly
    assert gs.lat_mul((2**53, 2**53, 5), (-2**53, -2**53, 7)) == (0, 0, 12)


@pytest.mark.parametrize("a, b, inside", [
    # second stratum: |F| + err below 2^62 (err is about 2^14 here)
    ((0, 0, 2**61), (0, 0, 2**61 - 2**20), True),
    # the exact result is inside, but within the rounding bound of 2^62
    ((0, 0, 2**61), (0, 0, 2**61 - 2**10), False),
    ((0, 0, 2**61), (0, 0, 2**61), False),
    # the cross term alone: 2^31 * (2^31 - 1) inside, 2^31 * 2^31 = 2^62 outside
    ((2**31, 0, 0), (0, 2**31 - 1, 0), True),
    ((2**31, 0, 0), (0, 2**31, 0), False),
    # the first stratum of a step-2 group goes through the same certificate
    ((2**61, 0, 0), (2**61 - 2**20, 0, 0), True),
    ((2**61, 0, 0), (2**61 - 1, 0, 0), False),
    # and so does a step-1 sum
    ((2**61, 0), (2**61 - 2**20, 0), True),
    ((2**61, 0), (2**61 - 1, 0), False),
    ((-2**61, 0), (2**20 - 2**61, 0), True),
    ((-2**61, 0), (-2**61, 0), False),
])
def test_certificate_bound(a, b, inside):
    gs = LAW_LATTICES["H1" if len(a) == 3 else "R2"]
    if inside:
        assert gs.lat_mul(a, b) == oracle_mul(gs, a, b)[0]
    else:
        with pytest.raises(sw.DomainError, match=r"\+-2\^62 of the int64 law"):
            gs.lat_mul(a, b)


def test_dilation_is_refused_before_it_wraps():
    gs = LAW_LATTICES["H1"]
    assert gs.lat_dilate((2**61 - 1, 0, 2**59), 1) == (2**62 - 2, 0, 2**61)
    assert gs.lat_dilate((0, 0, 0), 10**9) == (0, 0, 0)
    # 2^40 * 2^30 = 2^70 wraps to 0 in int64; 2^60 * 4 = 2^62
    for a, j in (((2**40, 0, 0), 30), ((0, 0, 2**60), 1), ((1, 0, 0), 63), ((0, 0, -1), 31)):
        with pytest.raises(sw.DomainError, match="dilation"):
            gs.lat_dilate(a, j)
    with pytest.raises(sw.DomainError, match=r"outside the range \+-2\^62"):
        gs.lat_dilate((1, 0, 0), 2**70)
    with pytest.raises(sw.DomainError, match=r"outside the range \+-2\^62"):
        gs.lat_inv((2**62, 0, 0))
    with pytest.raises(ValueError, match="integers"):
        gs.lat_mul((0.5, 0, 0), (0, 0, 0))


def test_a_bracket_beyond_the_int64_law_is_refused():
    b = np.zeros((1, 2, 2))
    b[0, 0, 1], b[0, 1, 0] = 2.0**62, -(2.0**62)
    g = sw.GroupSpec(strata_dims=(2, 1), kind="custom", bracket=b)
    with pytest.raises(sw.DomainError, match="2\\^62 or more"):
        sw.SamplingSet(g, 1.0)


def test_src_holds_no_object_arrays():
    # the lattice law and the writers work on int64 and float64 arrays only
    src = Path(sw.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "dtype=object" not in text and "np.frompyfunc" not in text, path.name
