"""Lattices: exact integer arithmetic, tiling, enumeration, decay sums."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import custom_3_2
from stratwave.sampling import (
    _shell,
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
    one point at a time, with the H^1 law and Koranyi gauge written out."""
    b, d = gs.beta, gs.group.dim
    heis = gs.group.kind == "heisenberg"
    center = [round(v / b) for v in x]
    if heis:
        center[-1] = round(2.0 * x[-1] / b**2)
    Q, r = gs.group.Q, shells - 1
    total, cut = 0.0, np.inf
    for off in itertools.product(range(-r, r + 1), repeat=d):
        gam = [c + o for c, o in zip(center, off)]
        if heis:
            p = (b * gam[0], b * gam[1], gam[2] * b * b / 2.0)
            rel = (x[0] - p[0], x[1] - p[1], x[2] - p[2] + (p[1] * x[0] - p[0] * x[1]) / 2.0)
            h = 2.0 ** (-j)
            dist = ((h * rel[0]) ** 2 + (h * rel[1]) ** 2) ** 2 + 16.0 * (h * h * rel[2]) ** 2
            dist = dist ** 0.25
        else:
            dist = 2.0 ** (-j) * np.sqrt(sum((xi - b * gi) ** 2 for xi, gi in zip(x, gam)))
        total += 2.0 ** (-j * Q) / (1.0 + 2.0**eta * dist) ** n
        if max(abs(o) for o in off) == r:
            cut = min(cut, dist)
    return total * 2.0 ** (eta * Q), cut


@pytest.mark.parametrize("gs, eta, j, n, x", [
    (sw.preset_sampling_set(sw.heisenberg(1), 1.0), 1, 2, 16, [0.3, -0.2, 0.1]),
    (sw.preset_sampling_set(sw.heisenberg(1), 0.5), 0, 0, 16, [0.1, 0.4, 0.05]),
    (sw.preset_sampling_set(sw.abelian(2), 0.5), 0, 0, 6, [0.2, -0.1]),
    (sw.preset_sampling_set(sw.abelian(2), 1.0), 1, 1, 8, [0.7, 0.3]),
], ids=["H1-eta1-j2", "H1-b0.5", "R2-b0.5", "R2-eta1-j1"])
def test_decay_certificate_matches_brute_force(gs, eta, j, n, x):
    # shell-by-shell sums equal a full-cube recomputation over the same points
    value, det = column_decay_certificate(gs, eta, j, n, np.asarray(x), rel_tail=0.0,
                                          max_shells=7, return_details=True)
    assert det["shells"] == 7
    partial, cut = _brute_force_sums(gs, eta, j, n, x, det["shells"])
    assert det["partial_sum"] == pytest.approx(partial, rel=1e-12, abs=0)
    assert det["cut_distance"] == pytest.approx(cut, rel=1e-12, abs=0)
    assert value >= det["partial_sum"]


@pytest.mark.parametrize("make", [
    custom_3_2,
    # 4+1 with [e0, e1] = [e2, e3] = f: not the H^2 preset, whose bracket
    # pairs e0 with e2 and e1 with e3
    lambda: sw.GroupSpec(strata_dims=(4, 1), kind="custom", bracket=np.array(
        [[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]], dtype=float)),
    # the H^1 layout under the Heisenberg label but with the opposite bracket
    lambda: sw.GroupSpec(strata_dims=(2, 1), kind="heisenberg",
                         bracket=-sw.heisenberg(1).bracket),
    lambda: sw.GroupSpec(strata_dims=(2,), kind="custom"),
], ids=["custom3+2", "custom4+1", "heisenberg-flipped", "custom-abelian"])
def test_sampling_set_rejects_groups_without_a_lattice_law(make):
    g = make()
    with pytest.raises(sw.DomainError, match="no lattice law"):
        sw.preset_sampling_set(g, 1.0)
    with pytest.raises(sw.DomainError, match="no lattice law"):
        sw.SamplingSet(group=g, beta=1.0)


def test_decay_certificate_divergence_warning():
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.warns(UserWarning, match="diverge"):
        column_decay_certificate(gs, 0, 0, 1, np.zeros(1), max_shells=5)


def test_decay_certificate_domain():
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    with pytest.raises(ValueError):
        column_decay_certificate(gs, 3, 1, 4, np.zeros(1))


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
