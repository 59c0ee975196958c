"""Extraction is invariant under the symmetries of the problem.

Profiles are defined modulo dilations and left translations (Gerard 1998;
Bahouri-Cohen-Koch 2011), so shifting every scale of a sequence by k, or
left-translating every atom (j, gamma) to lat_mul(lat_dilate(eta, j - j_min),
gamma), must leave every verdict alone.  A right translation is no symmetry of
the rules and must change the result.  `generate` is equivariant in `j0` and
`gamma0`, and the relative index equals exact integer arithmetic at any scale.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import custom_3_2, free_3_2, two_profile_spec
from stratwave import generators, groups
from stratwave import io as sio
from stratwave.cli import main
from stratwave.profiles import energy_ledger, remainder_split

GROUPS = {"R1": sw.abelian(1), "R2": sw.abelian(2), "H1": sw.heisenberg(1),
          "H2": sw.heisenberg(2), "custom_3_2": custom_3_2(), "N3,2": free_3_2()}
BETAS = (1.0, 0.5, 0.75, 0.3)


# -- the symmetries, on a sequence's arrays -----------------------------------

def rebuilt(s, js, gammas):
    """s with every entry's scale and lattice point replaced, each snapshot
    re-sorted by the field constructor."""
    fields = [sw.CoefficientField(s.sampling, normalization=s.normalization,
                                  js=js[lo:hi], gammas=gammas[lo:hi], values=s.values[lo:hi])
              for lo, hi in zip(s.starts[:-1].tolist(), s.starts[1:].tolist())]
    return sw.SequenceSnapshots(sampling=s.sampling, n_values=s.n_values, fields=fields)


def dilated(s, k):
    return rebuilt(s, s.js + k, s.gammas)


def translated(s, eta, side="left", j_min=None):
    """Every atom times lat_dilate(eta, j - j_min), on the left or on the right;
    j_min is the sequence's least scale unless given."""
    gs = s.sampling
    eta_j = gs.lat_dilate(np.asarray(eta), s.js - (s.js.min() if j_min is None else j_min))
    return rebuilt(s, s.js, gs.lat_mul(*((eta_j, s.gammas) if side == "left"
                                         else (s.gammas, eta_j))))


def outcome(dec):
    """Everything extraction decides, and the numbers it reports.  The
    remainder's B^0_{p,p} proxy weighs scale j by powers 2^(j e) that are not
    exact when e is not an integer (Q odd at p = 2), so a dilation keeps it to
    rounding only; it is kept apart, under "r2"."""
    L, last = len(dec.profiles), dec.snapshots.horizon - 1
    splits = [remainder_split(dec, last, L, M) for M in range(max(L, 1), dec.M_eff + 1)]
    return {"nu": len(dec.profiles), "nu_curve": dec.nu_curve,
            "profiles": [(p.atoms, p.members, p.escape) for p in dec.profiles],
            "log": dec.classification_log, "d_limits": dec.d_limits,
            "nonconvergent": dec.nonconvergent,
            "undecided": dec.diagnostics.get("undecided_pairs"),
            "K_bound": dec.diagnostics["K_bound"],
            "ledger": energy_ledger(dec, L).tolist(),
            "r1": [sp["r1_norm_Hs"] for sp in splits],
            "r2": [sp["r2_norm_Lp_proxy"] for sp in splits]}


def assert_same(got, want):
    """Equal bit for bit, but for the r2 proxies, which agree to rounding."""
    assert {**got, "r2": None} == {**want, "r2": None}
    assert got["r2"] == pytest.approx(want["r2"], rel=1e-15, abs=0)


# -- specs with distinct moduli whose tracks satisfy the mixture check -------

V1_OFFSETS = st.integers(-1, 1)


@st.composite
def mixtures(draw, g, noise=True):
    """Translating tracks at distinct slopes, cores at (n0 + n) s, and at most
    one concentrating track; bundles of 1-3 atoms with pairwise distinct
    moduli in 0.10..0.99, and noise far below them."""
    d1, d2 = g.strata_dims[0], g.dim - g.strata_dims[0]
    vec = st.tuples(*[st.integers(-3, 3)] * d1).filter(any)
    slopes = draw(st.lists(vec, min_size=1, max_size=3, unique=True))
    concentrating = draw(st.booleans())
    sizes = [draw(st.integers(1, 3)) for _ in range(len(slopes) + concentrating)]
    moduli = iter(draw(st.lists(st.integers(10, 99), min_size=sum(sizes), max_size=sum(sizes),
                                unique=True)))
    n0, horizon = draw(st.integers(8, 16)), draw(st.integers(10, 16))

    def bundle(size):
        offsets = draw(st.lists(st.tuples(st.integers(0, 1), st.tuples(*[V1_OFFSETS] * d1)),
                                min_size=size, max_size=size, unique=True))
        return tuple(sw.BundleAtom(dj, dg + (0,) * d2,
                                   next(moduli) / 100 * np.exp(1j * draw(st.integers(0, 6))))
                     for dj, dg in offsets)

    tracks = [sw.TrackSpec(j0=draw(st.integers(-3, 3)), j_slope=0,
                           gamma0=tuple(n0 * v for v in s) + (0,) * d2,
                           gamma_slope=s + (0,) * d2, bundle=bundle(size))
              for s, size in zip(slopes, sizes)]
    if concentrating:
        tracks.append(sw.TrackSpec(j0=4, j_slope=1, gamma0=draw(st.tuples(*[V1_OFFSETS] * d1))
                                   + (0,) * d2, gamma_slope=(0,) * g.dim,
                                   bundle=bundle(sizes[-1])))
    return sw.GeneratorSpec(kind="mixture", tracks=tuple(tracks), horizon=horizon,
                            noise_amplitude=1e-3 if noise else 0.0,
                            noise_count=draw(st.integers(0, 4)) if noise else 0,
                            noise_seed=draw(st.integers(0, 99)))


def generated(spec, gs):
    """generate(spec, gs), or the draw is rejected when the mixture check refuses it."""
    try:
        return sw.generate(spec, gs)
    except generators.GeneratorError:
        assume(False)


def params_for(spec, tail):
    return sw.ExtractParams(M_max=sum(len(t.bundle) for t in spec.tracks), L_max=8,
                            eps_conv=1e-8, T_div=5.0, eps_stable=1e-9,
                            tail=min(tail, spec.horizon), mode="exploratory")


def eta_for(data, g, span):
    """A translation as large as keeps every index of `mixtures` within 2^53,
    with room for the law's lifts: |eta_1| 2^span <= 2^24 and
    |eta_2| 2^(2 span) <= 2^48."""
    d1 = g.strata_dims[0]
    e1, e2 = max(24 - span, 0), max(48 - 2 * span, 0)
    return (tuple(data.draw(st.integers(-2**e1, 2**e1)) for _ in range(d1))
            + tuple(data.draw(st.integers(-2**e2, 2**e2)) for _ in range(g.dim - d1)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_dilation_and_left_translation_leave_extraction_alone(name, data):
    g = GROUPS[name]
    gs = sw.SamplingSet(g, data.draw(st.sampled_from(BETAS)))
    spec = data.draw(mixtures(g))
    s = generated(spec, gs)
    p = params_for(spec, data.draw(st.integers(4, 8)))
    base = outcome(sw.extract(s, p))
    # dilation: every scale shifted by k, bit for bit
    k = data.draw(st.integers(-40, 40))
    assert_same(outcome(sw.extract(dilated(s, k), p)), base)
    # left translation: the canonical order within each scale is kept, so bit for bit too
    eta = eta_for(data, g, int(s.js.max() - s.js.min()))
    assert_same(outcome(sw.extract(translated(s, eta), p)), base)


def test_tied_moduli_are_broken_alike_after_either_symmetry():
    # Ties in modulus are broken by the canonical (j, gamma) order.  A dilation
    # shifts every j alike, and a left translation at one scale maps V1 to
    # V1 + eta_1 and, at equal V1, V2 to V2 + const, so both keep that order
    # within each scale and break ties alike.  Here all four atoms tie.
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    spec = two_profile_spec(3)
    spec = dataclasses.replace(spec, tracks=tuple(
        dataclasses.replace(t, bundle=tuple(dataclasses.replace(a, d=0.5) for a in t.bundle))
        for t in spec.tracks))
    s = sw.generate(spec, gs)
    p = params_for(spec, 8)
    base = outcome(sw.extract(s, p))
    assert base["nu"] == 2 and [m for _, m, _ in base["profiles"]] == [[1, 2], [3, 4]]
    assert_same(outcome(sw.extract(dilated(s, 7), p)), base)
    assert_same(outcome(sw.extract(translated(s, (-(10**5), 10**5, 0)), p)), base)


@pytest.mark.parametrize("name, i, j", [("H1", 0, 1), ("H2", 0, 2), ("custom_3_2", 0, 1),
                                         ("N3,2", 0, 1)])
def test_a_right_translation_changes_the_result(name, i, j):
    # the absorbed atom sits at e_i from its founder; a right translation by
    # eta = e_j conjugates the relative index, adding B(e_i, e_j) != 0 on V2
    g = GROUPS[name]
    gs, d1 = sw.SamplingSet(g, 1.0), g.strata_dims[0]
    e_i, e_j = (tuple(int(k == m) for k in range(g.dim)) for m in (i, j))
    track = sw.TrackSpec(j0=0, j_slope=0, gamma0=(0,) * g.dim, gamma_slope=(2,) * d1
                         + (0,) * (g.dim - d1),
                         bundle=(sw.BundleAtom(0, (0,) * g.dim, 1.0), sw.BundleAtom(0, e_i, 0.5)))
    spec = sw.GeneratorSpec(kind="translating", tracks=(track,), horizon=12)
    s, p = sw.generate(spec, gs), params_for(spec, 8)
    base = outcome(sw.extract(s, p))
    assert base["profiles"][0][0][1][1] == tuple(map(float, e_i))
    assert_same(outcome(sw.extract(translated(s, e_j), p)), base)
    moved = outcome(sw.extract(translated(s, e_j, side="right"), p))
    assert moved["profiles"] != base["profiles"]


# -- generate is equivariant in j0 and gamma0 ---------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generate_is_equivariant_in_j0_and_gamma0(name, data):
    g = GROUPS[name]
    gs = sw.SamplingSet(g, data.draw(st.sampled_from(BETAS)))
    spec = data.draw(mixtures(g, noise=False))
    s = generated(spec, gs)
    k = data.draw(st.integers(-40, 40))
    want = dilated(s, k)
    got = sw.generate(dataclasses.replace(spec, tracks=tuple(
        dataclasses.replace(t, j0=t.j0 + k) for t in spec.tracks)), gs)
    assert np.array_equal(got.js, want.js) and np.array_equal(got.gammas, want.gammas)
    assert np.array_equal(got.values, want.values)
    # a left translation of the constant-scale tracks' cores eta_t . (gamma0 + n s)
    # is the track with gamma0' = eta_t . gamma0 and slope eta_t . (gamma0 + s) - gamma0'
    if any(t.j_slope for t in spec.tracks):
        return
    eta = eta_for(data, g, int(s.js.max() - s.js.min()))
    j_min = min(t.j0 for t in spec.tracks)
    moved = []
    for t in spec.tracks:
        eta_t = gs.lat_dilate(eta, t.j0 - j_min)
        g0 = gs.lat_mul(eta_t, t.gamma0)
        g1 = gs.lat_mul(eta_t, tuple(a + b for a, b in zip(t.gamma0, t.gamma_slope)))
        moved.append(dataclasses.replace(t, gamma0=g0,
                                         gamma_slope=tuple(b - a for a, b in zip(g0, g1))))
    want = translated(s, eta, j_min=j_min)
    got = sw.generate(dataclasses.replace(spec, tracks=tuple(moved)), gs)
    assert np.array_equal(got.js, want.js) and np.array_equal(got.gammas, want.gammas)
    assert np.array_equal(got.values, want.values)


# -- the CLI round trip -------------------------------------------------------

def test_decompose_reports_agree_on_a_dilated_and_translated_file(tmp_path):
    spec = generators.spec_to_json(two_profile_spec(3))
    spec.update(group=groups.group_to_json(sw.heisenberg(1)), density=0.75,
                noise_amplitude=1e-3, noise_count=6)
    params = {"M_max": 4, "L_max": 4, "eps_conv": 1e-8, "T_div": 5.0, "eps_stable": 1e-9,
              "tail": 8, "mode": "strict"}
    for name, obj in (("spec", spec), ("params", params)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    plain, moved = tmp_path / "plain.jsonl", tmp_path / "moved.jsonl"
    assert main(["generate", "--spec", str(tmp_path / "spec.json"), "--out", str(plain)]) == 0
    sio.write_snapshots(moved, translated(dilated(sio.read_snapshots(plain), 40),
                                          (3 * 10**5, -(10**5), 0)))
    reports = []
    for path in (plain, moved):
        out = tmp_path / f"{path.stem}.json"
        assert main(["decompose", "--in", str(path), "--params", str(tmp_path / "params.json"),
                     "--report", str(out)]) == 0
        rep = json.loads(out.read_text())
        for prof in rep["profiles"]:  # the founders' absolute indices move, and nothing else
            assert prof.pop("core_track")
        reports.append({k: v for k, v in rep.items() if k != "inputs"})
    assert reports[0] == reports[1]
    assert reports[0]["nu"] == 2 and [p["escape"] for p in reports[0]["profiles"]] == ["scale",
                                                                                        "core"]


# -- the relative index is exact, and no verdict decodes a core ---------------

def exact_relative_index(gs, ga, ja, gb, jb):
    """delta_{2^{j_b}}(kappa_a^{-1} kappa_b) in Python integers with one rounding:
    both points lifted to the finer scale J = max(j_a, j_b), multiplied with
    the bracket's own sum, decoded by the spacings as rationals and brought
    back to scale j_b."""
    g = gs.group
    d1 = g.strata_dims[0]
    w = [1] * d1 + [2] * (g.dim - d1)
    J = max(ja, jb)
    A = [-x * 2 ** ((J - ja) * k) for x, k in zip(ga, w)]
    B = [x * 2 ** ((J - jb) * k) for x, k in zip(gb, w)]
    P = [a + b for a, b in zip(A, B)]
    for k in range(g.dim - d1):
        P[d1 + k] += sum(int(g.bracket[k, i, j]) * A[i] * B[j]
                         for i in range(d1) for j in range(d1))
    return tuple(float(Fraction(s) * p / 2 ** ((J - jb) * k))
                 for s, p, k in zip(gs.spacing.tolist(), P, w))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_relative_index_equals_integer_arithmetic_at_any_scale(name, data):
    # scales far beyond float64's 2^-1074..2^1023 and coordinates up to 2^20 on
    # V1 and 2^40 on V2: the verdict's gamma_rel is the exact value, rounded once
    g = GROUPS[name]
    gs = sw.SamplingSet(g, data.draw(st.sampled_from(BETAS)))
    d1 = g.strata_dims[0]
    point = st.tuples(*[st.integers(-2**20, 2**20)] * d1,
                      *[st.integers(-2**40, 2**40)] * (g.dim - d1))
    ja = data.draw(st.integers(-5000, 5000))
    jb = ja + data.draw(st.integers(-5, 5))
    ga, gb = data.draw(point), data.draw(point)
    a, b = (sw.ScaleCorePair(gs, (j,) * 4, (x,) * 4) for j, x in ((ja, ga), (jb, gb)))
    v = sw.classify_pair(a, b, 4, 1e300, 0.0)
    assert (v.kind, v.j_rel) == ("NotOrthogonal", jb - ja)
    assert v.gamma_rel == exact_relative_index(gs, ga, ja, gb, jb)


def test_no_verdict_decodes_a_core(monkeypatch):
    # extract, classify_pair and the mixture check read lattice points only
    def refuse(*args):
        raise AssertionError("a verdict decoded a core")
    monkeypatch.setattr(sw.SamplingSet, "points", refuse)
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    spec = two_profile_spec(3)
    s = sw.generate(spec, gs)
    dec = sw.extract(s, params_for(spec, 8))
    assert [p.escape for p in dec.profiles] == ["scale", "core"]
    a, b = (sw.ScaleCorePair(gs, (5,) * 8, ((k, 0, 0),) * 8) for k in (0, 1))
    assert sw.classify_pair(a, b, 8, 5.0, 1e-9).gamma_rel == (1.0, 0.0, 0.0)


def test_the_pair_at_j_600_reads_as_at_j_1():
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    verdicts = []
    for j0 in (1, 600):
        js = tuple(range(j0, j0 + 20))
        a = sw.ScaleCorePair(gs, js, ((0, 0, 0),) * 20)
        b = sw.ScaleCorePair(gs, js, tuple((0, 0, 100 * n) for n in range(20)))
        verdicts.append(sw.classify_pair(a, b, 8, 5.0, 1e-9))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].detail == "rescaled core distance reaches 61.6441 at constant scale gap 0"
