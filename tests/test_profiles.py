"""Track classification and the extraction induction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import as_dict, field_of
from stratwave import groups, profiles
from stratwave.profiles import (
    NonconvergentCoefficient,
    UndecidableOrthogonality,
    Verdict,
    remainder_field,
    remainder_split,
)

TAIL = dict(tail=8, T_div=5.0, eps_stable=1e-9)


def pair(gs, js, gammas):
    return sw.ScaleCorePair(sampling=gs, js=tuple(js), gammas=tuple(gammas))


def lattice(group=None, beta=1.0):
    return sw.preset_sampling_set(group or sw.abelian(1), beta)


def snapshots_from_entries(gs, per_n, p=2.0):
    fields = tuple(field_of(gs, entries, sw.lp_atoms(p)) for entries in per_n)
    return sw.SequenceSnapshots(sampling=gs,
                                n_values=tuple(range(len(per_n))), fields=fields)


# -- classify_pair -----------------------------------------------------------

def test_classify_scale_orthogonal():
    gs = lattice()
    n = 16
    a = pair(gs, [0] * n, [(0,)] * n)
    b = pair(gs, list(range(n)), [(0,)] * n)
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "ScaleOrthogonal" and v.orthogonal


def test_classify_core_orthogonal():
    gs = lattice()
    n = 16
    a = pair(gs, [0] * n, [(0,)] * n)
    b = pair(gs, [0] * n, [(3 * k,) for k in range(n)])
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "CoreOrthogonal" and v.orthogonal


def test_classify_refuses_tracks_on_different_sampling_sets():
    # the same coordinates decoded at beta = 1 and beta = 1/2 are different tracks
    n = 16
    a = pair(lattice(), [0] * n, [(k,) for k in range(n)])
    b = pair(lattice(beta=0.5), [0] * n, [(k,) for k in range(n)])
    with pytest.raises(ValueError, match="different sampling sets"):
        sw.classify_pair(a, b, **TAIL)


def test_classify_core_orthogonal_constant_gap():
    # a fixed nonzero scale offset with diverging rescaled cores still
    # separates the tracks
    gs = lattice()
    n = 16
    a = pair(gs, [0] * n, [(0,)] * n)
    b = pair(gs, [2] * n, [(16 * k,) for k in range(n)])
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "CoreOrthogonal"


def test_classify_not_orthogonal():
    gs = lattice()
    n = 16
    a = pair(gs, list(range(n)), [(2**k,) for k in range(n)])
    b = pair(gs, [k + 1 for k in range(n)], [(2 ** (k + 1),) for k in range(n)])
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "NotOrthogonal"
    assert v.j_rel == 1
    # relative position 2^{j_b} (kappa_a^{-1} kappa_b) = 2^{k+1}(2^k 2^{-k} - ...)
    assert v.gamma_rel is not None


def test_classify_not_orthogonal_fixed_offset():
    gs = lattice()
    n = 16
    a = pair(gs, [1] * n, [(0,)] * n)
    b = pair(gs, [1] * n, [(3,)] * n)
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "NotOrthogonal"
    assert v.j_rel == 0
    # 2^{j_b} . (kappa_a^{-1} kappa_b) with kappa = 2^{-1} * 3
    assert np.allclose(v.gamma_rel, [3.0])


def test_classify_undecided_drift():
    gs = lattice()
    n = 16
    a = pair(gs, [0] * n, [(0,)] * n)
    wobble = [(int(2 * np.cos(k)),) for k in range(n)]
    b = pair(gs, [0] * n, wobble)
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "Undecided"


def test_classify_undecided_scale_wobble():
    gs = lattice()
    n = 16
    a = pair(gs, [0] * n, [(0,)] * n)
    b = pair(gs, [k % 2 for k in range(n)], [(0,)] * n)
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "Undecided"


def test_classify_refuses_a_dilation_beyond_float64():
    # at j = 1000..1019 the second-stratum factor 2^(2 j) overflows float64; the
    # rows once held 0 * inf = NaN and read "Undecided" with "core drift nan"
    gs, js = lattice(sw.heisenberg(1)), range(1000, 1020)
    a, b = pair(gs, js, [(0, 0, 0)] * 20), pair(gs, js, [(0, 1, 0)] * 20)
    with pytest.raises(sw.DomainError, match=r"alpha\^2, the factor of stratum 2"):
        sw.classify_pair(a, b, **TAIL)


def test_classify_validation():
    gs = lattice()
    a = pair(gs, [0] * 4, [(0,)] * 4)
    b = pair(gs, [0] * 5, [(0,)] * 5)
    with pytest.raises(ValueError):
        sw.classify_pair(a, b, **TAIL)
    with pytest.raises(ValueError):
        sw.classify_pair(a, pair(gs, [0] * 4, [(0,)] * 4), tail=10,
                         T_div=5.0, eps_stable=1e-9)


@pytest.mark.parametrize("js, gammas", [
    ([2**53 + 1] * 4, [(0,)] * 4),
    ([0] * 4, [(0,)] * 3 + [(-(2**53) - 1,)]),
    ([0] * 4, [(2**70,)] * 4),
], ids=["scale", "coordinate", "past-int64"])
def test_scale_core_pair_refuses_integers_beyond_the_bound(js, gammas):
    gs = lattice()
    with pytest.raises(sw.DomainError, match=r"beyond the bound 9007199254740992 = 2\^53"):
        pair(gs, js, gammas)
    # the bound itself is a valid coordinate
    assert len(pair(gs, [2**53] * 4, [(0,)] * 4)) == 4
    assert pair(gs, [0] * 4, [(-(2**53),)] * 4).kappa[0, 0] == -(2.0**53)


def test_classify_heisenberg_central_direction():
    # cores escaping along the center still diverge in the homogeneous norm
    gs = lattice(sw.heisenberg(1))
    n = 16
    a = pair(gs, [0] * n, [(0, 0, 0)] * n)
    b = pair(gs, [0] * n, [(0, 0, 40 * k) for k in range(n)])
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "CoreOrthogonal"



# -- the batched kernel against the pointwise rules --------------------------

def reference_classify(a, b, tail, T_div, eps_stable):
    """The verdict rules applied to one pair with per-pair group-law calls, as
    classify_pair stated them before the batched kernel; also returns the last
    scale gap, the last core distance and the core spread (None if unused)."""
    lo = len(a) - tail
    gap = np.asarray(b.js[lo:], dtype=int) - np.asarray(a.js[lo:], dtype=int)
    abs_gap = np.abs(gap).astype(float)
    if abs_gap[-1] > T_div and np.all(np.diff(abs_gap) >= 0):
        return Verdict("ScaleOrthogonal", detail=f"log-scale gap reaches {abs_gap[-1]:g}"), \
            (abs_gap[-1], None, None)
    if not np.all(gap == gap[0]):
        return Verdict("Undecided", detail="scale gap neither divergent nor constant"), \
            (abs_gap[-1], None, None)
    g = a.sampling.group
    rel = groups.multiply(g, groups.inverse(g, a.kappa[lo:]), b.kappa[lo:])
    rel = groups.dilate(g, 2.0 ** np.asarray(b.js[lo:], dtype=float), rel)
    dist = groups.hom_norm(g, rel)
    spread = float(np.max(np.abs(rel - rel[-1])))
    stats = (abs_gap[-1], dist[-1], spread)
    if dist[-1] > T_div and np.all(np.diff(dist) >= -1e-9):
        return Verdict("CoreOrthogonal", detail=f"rescaled core distance reaches {dist[-1]:g} "
                                                   f"at constant scale gap {int(gap[0])}"), stats
    if spread <= eps_stable:
        return Verdict("NotOrthogonal", j_rel=int(gap[0]),
                          gamma_rel=tuple(float(x) for x in rel[-1]),
                          detail=f"relative index stable within {spread:.2e}"), stats
    return Verdict("Undecided", detail=f"constant scale gap but core drift {spread:.2e} "
                                          f"neither divergent (last dist {dist[-1]:g} <= "
                                          f"{T_div:g}) nor stable (> {eps_stable:g})"), stats


def random_tracks(data, gs, H):
    """Track a and K tracks b built to reach every verdict kind: lattice offsets
    of a (stable relative index), offsets that alternate, jitter or run away,
    growing scale gaps and random tracks."""
    dim = gs.group.dim
    ints = st.integers(-4, 4)
    n = np.arange(H)
    ja = data.draw(ints) + data.draw(st.integers(-1, 1)) * n
    ga = np.array([data.draw(st.lists(st.integers(-30, 30), min_size=dim, max_size=dim))
                   for _ in range(H)], dtype=object)
    tracks = []
    for _ in range(data.draw(st.integers(1, 5))):
        kind = data.draw(st.sampled_from(["offset", "drift", "jitter", "runaway", "ramp",
                                          "random"]))
        dj = data.draw(st.integers(0, 2))
        offset = np.array(data.draw(st.lists(ints, min_size=dim, max_size=dim)), dtype=object)
        step = np.zeros(dim, dtype=object)
        step[data.draw(st.integers(0, dim - 1))] = {"drift": 1, "jitter": 1,
                                                    "runaway": 40}.get(kind, 0)
        if kind == "drift":
            offsets = offset + (n % 2)[:, None] * step
        elif kind == "jitter":  # uneven, so the spread depends on the reference row
            offsets = offset + ((n * n) % 5)[:, None] * step
        else:
            offsets = offset + n[:, None] * step
        jb = ja + dj
        gb = gs.lat_mul(gs.lat_dilate(ga, dj), offsets)
        if kind == "ramp":
            jb = ja + data.draw(st.integers(-2, 2)) + data.draw(st.sampled_from([-1, 1])) * n
        if kind == "random":
            jb = np.array([data.draw(ints) for _ in range(H)])
            gb = np.array([data.draw(st.lists(st.integers(-30, 30), min_size=dim, max_size=dim))
                           for _ in range(H)], dtype=object)
        tracks.append(pair(gs, [int(j) for j in jb], [tuple(int(x) for x in g) for g in gb]))
    return pair(gs, [int(j) for j in ja], [tuple(int(x) for x in g) for g in ga]), tracks


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_rows_equal_classify_pair(data):
    g = data.draw(st.sampled_from([sw.abelian(1), sw.abelian(3), sw.heisenberg(1),
                                   sw.heisenberg(2)]))
    gs = lattice(g, data.draw(st.sampled_from([1.0, 0.5, 0.75])))
    H = data.draw(st.integers(2, 10))
    tail = data.draw(st.integers(2, H))
    a, bs = random_tracks(data, gs, H)
    _, stats = reference_classify(a, bs[0], tail, 5.0, 1e-9)
    # thresholds on the first b track's boundaries: a gap or distance equal to
    # T_div is not divergent, and a spread equal to eps_stable is stable
    T_divs = [5.0] + [x for t in stats[:2] if t is not None
                      for x in (t, np.nextafter(t, -np.inf))]
    epss = [1e-9] + ([stats[2], np.nextafter(stats[2], -np.inf)] if stats[2] else [])
    T_div, eps = data.draw(st.sampled_from(T_divs)), data.draw(st.sampled_from(epss))
    lo = H - tail
    rows = profiles._classify_rows(
        g, a.kappa[lo:], np.asarray(a.js[lo:]), np.stack([b.kappa[lo:] for b in bs]),
        np.array([b.js[lo:] for b in bs]), T_div, eps)
    for k, b in enumerate(bs):
        got = profiles._verdict(rows, k, T_div, eps)
        want, _ = reference_classify(a, b, tail, T_div, eps)
        assert got == want  # kind, j_rel, gamma_rel bit for bit, detail
        if T_div < 0:  # just below a zero gap: the kernel runs, the API refuses
            with pytest.raises(ValueError, match="T_div must be finite and >= 0"):
                sw.classify_pair(a, b, tail, T_div, eps)
        else:
            assert sw.classify_pair(a, b, tail, T_div, eps) == want


@pytest.mark.parametrize("value", [-5.0, -5e-324, np.nan, np.inf])
def test_every_caller_refuses_a_bad_threshold(value):
    gs = lattice()
    a, b = (pair(gs, [0] * 8, [(k + g0,) for k in range(8)]) for g0 in (0, 3))
    track = sw.TrackSpec(j0=0, j_slope=0, gamma0=(0,), gamma_slope=(1,),
                         bundle=(sw.BundleAtom(0, (0,), 1.0),))
    base = dict(M_max=4, L_max=2, eps_conv=1e-8, T_div=5.0, eps_stable=1e-9, tail=8)
    calls = [("T_div", lambda: sw.classify_pair(a, b, 8, value, 1e-9)),
             ("eps_stable", lambda: sw.classify_pair(a, b, 8, 5.0, value))]
    for key in ("check_T_div", "check_eps_stable"):
        calls.append((key, lambda key=key: sw.GeneratorSpec(
            kind="translating", tracks=(track,), horizon=8, **{key: value})))
    for key in ("eps_conv", "T_div", "eps_stable"):
        calls.append((key, lambda key=key: sw.ExtractParams(**dict(base, **{key: value}))))
    for name, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be finite and >= 0, got {value!r}"


def test_kernel_reaches_every_kind_at_the_thresholds():
    gs = lattice(sw.heisenberg(1))
    n = 8
    a = pair(gs, [0] * n, [(0, 0, 0)] * n)
    ramp = pair(gs, list(range(n)), [(0, 0, 0)] * n)
    # the scale gap reaches exactly 7: T_div = 7 is not divergent, just below is
    assert sw.classify_pair(a, ramp, n, 7.0, 1e-9).kind == "Undecided"
    assert sw.classify_pair(a, ramp, n, np.nextafter(7.0, 0), 1e-9).kind == "ScaleOrthogonal"
    wobble = pair(gs, [0] * n, [(k % 2, 0, 0) for k in range(n)])
    spread = reference_classify(a, wobble, n, 5.0, 1e-9)[1][2]
    assert spread == 1.0
    assert sw.classify_pair(a, wobble, n, 5.0, spread).kind == "NotOrthogonal"
    eps = np.nextafter(spread, 0)
    drift = sw.classify_pair(a, wobble, n, 5.0, eps)
    assert drift == reference_classify(a, wobble, n, 5.0, eps)[0] and drift.kind == "Undecided"
    run = pair(gs, [0] * n, [(0, 0, 40 * k) for k in range(n)])
    assert sw.classify_pair(a, run, n, 5.0, 1e-9).kind == "CoreOrthogonal"


# -- extract -----------------------------------------------------------------

def params(**kw):
    base = dict(M_max=16, L_max=8, eps_conv=1e-8, T_div=5.0,
                eps_stable=1e-9, tail=8, mode="strict")
    base.update(kw)
    return sw.ExtractParams(**base)


def test_extract_single_compact_profile():
    gs = lattice()
    per_n = [{(0, (0,)): 1.0, (1, (2,)): 0.5} for _ in range(16)]
    dec = sw.extract(snapshots_from_entries(gs, per_n), params())
    assert len(dec.profiles) == 1
    assert dec.profiles[0].escape == "none"
    assert dec.profiles[0].members == [1, 2]
    assert dec.d_limits[1] == pytest.approx(1.0)
    assert dec.d_limits[2] == pytest.approx(0.5)
    assert np.max(sw.energy_ledger(dec, 1)[1]) <= 1e-12


def test_extract_translating_escape():
    gs = lattice()
    per_n = [{(0, (8 * n,)): 1.0} for n in range(16)]
    dec = sw.extract(snapshots_from_entries(gs, per_n), params())
    assert len(dec.profiles) == 1
    assert dec.profiles[0].escape == "core"


def test_extract_concentrating_escape():
    gs = lattice()
    per_n = [{(n, (0,)): 1.0} for n in range(16)]
    dec = sw.extract(snapshots_from_entries(gs, per_n), params())
    assert dec.profiles[0].escape == "scale"


def test_extract_two_profiles_and_log():
    gs = lattice()
    per_n = [{(n, (0,)): 1.0, (0, (6 * n + 1,)): 0.5} for n in range(16)]
    dec = sw.extract(snapshots_from_entries(gs, per_n), params())
    assert len(dec.profiles) == 2
    assert dec.nu_curve == [1, 2]
    kinds = {tuple(v) for entry in dec.classification_log for v in entry["verdicts"]}
    assert (1, "ScaleOrthogonal") in kinds


def test_extract_nonconvergent_strict_raises():
    rng = np.random.default_rng(0)
    gs = lattice()
    per_n = [{(0, (0,)): 1.0 + rng.normal()} for _ in range(16)]
    with pytest.raises(NonconvergentCoefficient):
        sw.extract(snapshots_from_entries(gs, per_n), params())


def test_extract_nonconvergent_exploratory_flags():
    rng = np.random.default_rng(0)
    gs = lattice()
    per_n = [{(0, (0,)): 2.0, (0, (1,)): 0.5 + 0.3 * rng.normal()} for _ in range(16)]
    dec = sw.extract(snapshots_from_entries(gs, per_n),
                     params(mode="exploratory"))
    assert dec.nonconvergent == [2]


def test_extract_undecidable_strict_raises():
    gs = lattice()
    per_n = [{(0, (0,)): 1.0,
              (0, (3 + int(np.round(1.4 * np.cos(3 * n))),)): 0.5}
             for n in range(16)]
    with pytest.raises(UndecidableOrthogonality):
        sw.extract(snapshots_from_entries(gs, per_n), params())
    dec = sw.extract(snapshots_from_entries(gs, per_n), params(mode="exploratory"))
    assert dec.diagnostics.get("undecided_pairs")


def test_extract_m_max_clamp():
    gs = lattice()
    per_n = [{(0, (0,)): 1.0} for _ in range(16)]
    dec = sw.extract(snapshots_from_entries(gs, per_n), params(M_max=100))
    assert dec.M_eff == 1
    assert dec.diagnostics["M_max_clamped_to"] == 1


def test_extract_horizon_validation():
    gs = lattice()
    per_n = [{(0, (0,)): 1.0} for _ in range(4)]
    with pytest.raises(ValueError):
        sw.extract(snapshots_from_entries(gs, per_n), params(tail=8))


def test_snapshot_validation():
    gs = lattice()
    f = field_of(gs, {sw.AtomIndex(0, (0,)): 1.0 + 0j}, sw.L1_ATOMS)
    with pytest.raises(ValueError):
        sw.SequenceSnapshots(sampling=gs, n_values=(0,), fields=(f,))


def test_snapshots_refuse_a_field_on_another_lattice():
    f = field_of(lattice(beta=0.5), {sw.AtomIndex(0, (3,)): 1.0}, sw.lp_atoms(2.0))
    with pytest.raises(ValueError, match="sampling set"):
        sw.SequenceSnapshots(lattice(beta=1.0), (0,), (f,))
    assert sw.SequenceSnapshots(lattice(beta=0.5), (0,), (f,)).sampling.beta == 0.5
    with pytest.raises(TypeError):
        sw.SequenceSnapshots(lattice(beta=0.5), (0,), (f,), group=sw.abelian(1))



def ranked_entries(f):
    """f's (index, value) pairs by decreasing modulus, ties in canonical order."""
    items = list(as_dict(f).items())
    return [items[k] for k in sw.rank_order(f)]


def reference_induction(s, p):
    """The extraction induction with one classify_pair call per rank and
    existing profile and one Cauchy test per rank: (log, undecided pairs,
    profiles as (atoms, members, core track), limits, nonconvergent, nu curve)."""
    M = min(p.M_max, min(len(f) for f in s.fields))
    ranked = [ranked_entries(f)[:M] for f in s.fields]
    limits, nonconvergent = {}, []
    for m in range(1, M + 1):
        window = np.array([r[m - 1][1] for r in ranked])[-p.tail:]
        mean = complex(np.mean(window))
        limits[m] = mean
        if not float(np.max(np.abs(window - mean))) <= p.eps_conv:
            nonconvergent.append(m)
    profs, log, undecided, nu = [], [], [], []
    for m in range(1, M + 1):
        track = pair(s.sampling, [r[m - 1][0].j for r in ranked],
                     [r[m - 1][0].gamma for r in ranked])
        verdicts, absorbed = [], None
        for ell, (atoms, members, core) in enumerate(profs, start=1):
            v = sw.classify_pair(core, track, p.tail, p.T_div, p.eps_stable)
            verdicts.append((ell, v.kind))
            if v.kind == "Undecided":
                undecided.append({"rank": m, "profile": ell, "detail": v.detail})
            elif v.kind == "NotOrthogonal" and absorbed is None:
                absorbed = (ell, v)
        if absorbed:
            ell, v = absorbed
            profs[ell - 1][0].append((v.j_rel, v.gamma_rel, limits[m]))
            profs[ell - 1][1].append(m)
            case = f"case2->profile{ell}"
        else:
            profs.append(([(0, (0.0,) * s.sampling.group.dim, limits[m])], [m], track))
            case = f"case1->profile{len(profs)}"
        nu.append(len(profs))
        log.append({"rank": m, "decision": case, "verdicts": verdicts})
    return log, undecided, profs, limits, nonconvergent, nu


def golden_snapshots(name):
    import json
    from pathlib import Path
    from stratwave.generators import spec_from_json
    obj = json.loads((Path(__file__).parent / "data" / f"golden_{name}_spec.json").read_text())
    g = sw.heisenberg(1)
    return sw.generate(spec_from_json(obj), sw.preset_sampling_set(g, 1.0))


@pytest.mark.parametrize("name, overrides", [
    ("noise", dict(T_div=1e6)),                       # constant gaps never diverge
    ("noise", dict(T_div=30.0, tail=5, eps_stable=1e-12)),
    ("h1", dict(T_div=1e6, M_max=6)),
    ("h1", dict(tail=2, eps_conv=10.0, T_div=0.5, eps_stable=0.5)),
    ("drift", dict(eps_conv=1e-3)),                   # rank 2 does not converge
])
def test_extract_equals_the_per_pair_induction(monkeypatch, name, overrides):
    if name == "drift":
        per_n = [{(0, (0,)): 2.0, (0, (1 + n % 3,)): 0.5 + 0.3 / (n + 1.0), (n % 2, (7,)): 0.1}
                 for n in range(16)]
        snaps = snapshots_from_entries(lattice(), per_n)
    else:
        snaps = golden_snapshots(name)
    p = params(**{"mode": "exploratory", "M_max": 64, **overrides})
    calls = []
    kernel = profiles._classify_rows
    monkeypatch.setattr(profiles, "_classify_rows", lambda *a: calls.append(1) or kernel(*a))
    dec = sw.extract(snaps, p)
    assert len(calls) == len(dec.profiles)  # one kernel call per profile
    log, undecided, profs, limits, nonconvergent, nu = reference_induction(snaps, p)
    assert dec.classification_log == log
    assert dec.diagnostics.get("undecided_pairs", []) == undecided
    assert [(q.atoms, q.members, q.core_track) for q in dec.profiles] == profs
    assert dec.d_limits == limits  # bit for bit: == on complex
    assert dec.nonconvergent == nonconvergent and dec.nu_curve == nu
    if overrides.get("T_div") == 1e6:
        assert undecided
    if name == "drift":
        assert nonconvergent


# -- remainders and energy ---------------------------------------------------

def drift_decomposition():
    gs = lattice()
    per_n = [{(0, (0,)): 1.0,
              (0, (n + 1,)): 0.7 + 0.3 / (n + 1.0)} for n in range(16)]
    snaps = snapshots_from_entries(gs, per_n)
    return sw.extract(snaps, params(eps_conv=0.05))


def test_remainder_reconstruction_identity():
    dec = drift_decomposition()
    n_last = dec.snapshots.horizon - 1
    for L in (0, 1, 2):
        target = remainder_field(dec, n_last, L)
        for M in range(max(L, 1), dec.M_eff + 1):
            sp = remainder_split(dec, n_last, L, M)
            combined = as_dict(sp["r1_field"])
            for idx, val in as_dict(sp["r2_field"]).items():
                combined[idx] = combined.get(idx, 0j) + val
            want = as_dict(target)
            keys = set(combined) | set(want)
            for k in keys:
                assert abs(combined.get(k, 0j) - want.get(k, 0j)) <= 1e-12


def test_remainder_split_validation():
    dec = drift_decomposition()
    with pytest.raises(ValueError):
        remainder_split(dec, 0, 5, 2)
    with pytest.raises(ValueError):
        remainder_split(dec, 0, 1, dec.M_eff + 1)


def test_energy_defect_decays_with_drift():
    dec = drift_decomposition()
    defects = sw.energy_ledger(dec, len(dec.profiles))[-1]
    q = len(defects) // 4
    assert np.median(defects[-q:]) < np.median(defects[:q])


def test_rendered_profile_matches_track():
    dec = drift_decomposition()
    prof = sw.rendered_profile(dec, 1, 3)
    # profile 1 is the constant track at the origin
    assert set(as_dict(prof)) == {sw.AtomIndex(0, (0,))}
    assert as_dict(prof)[sw.AtomIndex(0, (0,))] == pytest.approx(dec.d_limits[1])


def sequential_ledger(dec, L):
    """The energy ledger by repeated dict subtraction, one profile copy at a time."""
    rows = []
    for ell in range(L + 1):
        profile_energy = sum(p.energy() for p in dec.profiles[:ell])
        row = []
        for u in dec.snapshots.fields:
            ranked = ranked_entries(u)
            r = as_dict(u)
            for prof in dec.profiles[:ell]:
                for m in prof.members:
                    idx = ranked[m - 1][0]
                    r[idx] = r.get(idx, 0j) + (-1.0 * dec.d_limits[m])
                r = {k: v for k, v in r.items() if v != 0}
            moduli = np.abs(np.fromiter(r.values(), dtype=complex, count=len(r)))
            r2 = float(np.sqrt(np.sum(moduli**2))) ** 2 if r else 0.0
            row.append(abs(sw.sobolev_seq_norm(u) ** 2 - profile_energy - r2))
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("name", ["h1", "noise"])
def test_energy_ledger_equals_sequential_subtraction(name):
    import json
    from pathlib import Path
    from stratwave.generators import spec_from_json
    data = Path(__file__).parent / "data"
    obj = json.loads((data / f"golden_{name}_spec.json").read_text())
    g = sw.heisenberg(1)
    snaps = sw.generate(spec_from_json(obj), sw.preset_sampling_set(g, 1.0))
    dec = sw.extract(snaps, sw.ExtractParams(
        **json.loads((data / f"golden_{name}_params.json").read_text())))
    L = len(dec.profiles)
    ledger = sw.energy_ledger(dec, L)
    assert ledger.shape == (L + 1, snaps.horizon)
    assert np.array_equal(ledger, sequential_ledger(dec, L))  # bit for bit
    for ell in range(L + 1):
        assert np.array_equal(sw.energy_ledger(dec, ell)[ell], ledger[ell])
    with pytest.raises(ValueError):
        sw.energy_ledger(dec, L + 1)


def test_remainder_field_drops_exact_zeros():
    dec = drift_decomposition()
    u = dec.snapshots.fields[0]
    r = remainder_field(dec, 0, 1)
    # the constant profile's limit is exact, so its atom cancels
    assert sw.AtomIndex(0, (0,)) not in as_dict(r)
    assert len(r) == len(u) - 1
    # with no profile removed the remainder is u: its entries, not a copy of them
    r0 = remainder_field(dec, 0, 0)
    for name in ("js", "gammas", "values"):
        assert np.array_equal(getattr(r0, name), getattr(u, name))
        assert np.shares_memory(getattr(r0, name), getattr(dec.snapshots, name))
