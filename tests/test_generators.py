"""Synthetic sequence generators: laws, invariant checks, serialization."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import stratwave as sw
from stratwave import generators, profiles
from stratwave.generators import GeneratorError, spec_from_json, spec_to_json
from conftest import as_dict, two_profile_spec


def single_track(kind, j_slope=0, gamma_slope=(0,), bundle=None, **kw):
    bundle = bundle or (sw.BundleAtom(0, (0,), 1.0),)
    t = sw.TrackSpec(j0=0, j_slope=j_slope, gamma0=(0,),
                     gamma_slope=tuple(gamma_slope), bundle=bundle)
    return sw.GeneratorSpec(kind=kind, tracks=(t,), horizon=8, **kw)


def test_kind_law_validation():
    with pytest.raises(ValueError):
        single_track("translating")  # needs a moving core
    with pytest.raises(ValueError):
        single_track("concentrating", j_slope=0)
    with pytest.raises(ValueError):
        single_track("spreading", j_slope=1)
    with pytest.raises(ValueError):
        single_track("compact", gamma_slope=(1,))
    with pytest.raises(ValueError):
        single_track("sideways")
    with pytest.raises(ValueError):
        sw.GeneratorSpec(kind="mixture", tracks=(), horizon=8)


def test_bundle_offset_validation():
    with pytest.raises(ValueError):
        sw.BundleAtom(-1, (0,), 1.0)


def test_generate_constant_norm_and_indices():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    spec = single_track("translating", gamma_slope=(3,),
                        bundle=(sw.BundleAtom(0, (0,), 1.0),
                                sw.BundleAtom(1, (1,), 0.5)))
    snaps = sw.generate(spec, gs)
    assert snaps.horizon == 8
    norms = [sw.sobolev_seq_norm(f) for f in snaps.fields]
    assert np.ptp(norms) <= 1e-12
    # bundle placement: core at (0, (3n,)), second atom at (1, delta_2(core) . (1,))
    f3 = snaps.fields[3]
    assert sw.AtomIndex(0, (9,)) in as_dict(f3)
    assert sw.AtomIndex(1, (19,)) in as_dict(f3)


def test_generate_bundle_relative_position_heisenberg():
    # the decoded position of a bundle atom relative to its rescaled core is
    # the decoded offset itself, for every n
    g = sw.heisenberg(1)
    gs = sw.preset_sampling_set(g, 1.0)
    dgamma = (1, 2, 3)
    spec = sw.GeneratorSpec(
        kind="translating",
        tracks=(sw.TrackSpec(j0=0, j_slope=0, gamma0=(0, 0, 0),
                             gamma_slope=(4, 1, 0),
                             bundle=(sw.BundleAtom(0, (0, 0, 0), 1.0),
                                     sw.BundleAtom(0, dgamma, 0.5))),),
        horizon=6)
    snaps = sw.generate(spec, gs)
    t = spec.tracks[0]
    for n, f in enumerate(snaps.fields):
        _, gamma_core = t.core_at(n)
        for idx, v in as_dict(f).items():
            if abs(v) == pytest.approx(0.5):
                rel = sw.multiply(g, sw.inverse(g, gs.decode(gamma_core)),
                                  gs.decode(idx.gamma))
                assert np.allclose(rel, gs.decode(dgamma), atol=1e-12)


def test_generate_collision_raises():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    spec = sw.GeneratorSpec(
        kind="translating",
        tracks=(sw.TrackSpec(j0=0, j_slope=0, gamma0=(0,), gamma_slope=(1,),
                             bundle=(sw.BundleAtom(0, (0,), 1.0),
                                     sw.BundleAtom(0, (0,), 0.5))),),
        horizon=8)
    with pytest.raises(GeneratorError, match="collision"):
        sw.generate(spec, gs)


def test_generate_nonorthogonal_mixture_raises():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    t1 = sw.TrackSpec(j0=0, j_slope=0, gamma0=(0,), gamma_slope=(2,),
                      bundle=(sw.BundleAtom(0, (0,), 1.0),))
    t2 = sw.TrackSpec(j0=0, j_slope=0, gamma0=(1,), gamma_slope=(2,),
                      bundle=(sw.BundleAtom(0, (0,), 0.5),))
    spec = sw.GeneratorSpec(kind="mixture", tracks=(t1, t2), horizon=8)
    with pytest.raises(GeneratorError, match="not orthogonal"):
        sw.generate(spec, gs)



def test_mixture_check_reports_the_first_failing_pair(monkeypatch):
    # tracks 1, 2 and 3 run parallel (pairs (1, 2), (1, 3), (2, 3) fail); track
    # 0 concentrates away from all of them
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    tracks = [sw.TrackSpec(j0=0, j_slope=1, gamma0=(0,), gamma_slope=(0,),
                           bundle=(sw.BundleAtom(0, (0,), 1.0),))]
    tracks += [sw.TrackSpec(j0=0, j_slope=0, gamma0=(100 + 5 * k,), gamma_slope=(2,),
                            bundle=(sw.BundleAtom(0, (0,), 0.5 / k),)) for k in (1, 2, 3)]
    spec = sw.GeneratorSpec(kind="mixture", tracks=tuple(tracks), horizon=12)
    pairs = [sw.ScaleCorePair(sampling=gs, js=tuple(t.core_at(n)[0] for n in range(12)),
                              gammas=tuple(t.core_at(n)[1] for n in range(12))) for t in tracks]
    v = sw.classify_pair(pairs[1], pairs[2], 6, 5.0, 1e-9)
    assert v.kind == "NotOrthogonal"
    calls = []
    kernel = profiles._classify_rows
    monkeypatch.setattr(profiles, "_classify_rows", lambda *a: calls.append(1) or kernel(*a))
    with pytest.raises(GeneratorError) as err:
        sw.generate(spec, gs)
    assert str(err.value) == (f"mixture tracks 1 and 2 are not orthogonal over the horizon: "
                              f"{v.kind} ({v.detail})")
    assert len(calls) == 2  # track 0 against 1..3, then track 1 against 2..3
    with pytest.raises(ValueError, match="tail window 13 not within horizon 12"):
        sw.generate(dataclasses.replace(spec, check_tail=13), gs)


def test_generate_two_profile_mixture_passes_checks():
    for g in (sw.abelian(1), sw.heisenberg(1)):
        gs = sw.preset_sampling_set(g, 1.0)
        snaps = sw.generate(two_profile_spec(g.dim), gs)
        assert snaps.horizon == 32
        assert all(len(f) == 4 for f in snaps.fields)


def test_noise_entries_deterministic():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    spec = single_track("compact", noise_amplitude=1e-6, noise_count=5,
                        noise_seed=42, allow_overlap=True)
    a = sw.generate(spec, gs)
    b = sw.generate(spec, gs)
    assert as_dict(a.fields[0]) == as_dict(b.fields[0])
    assert len(a.fields[0]) == 6


def test_spec_json_roundtrip():
    spec = two_profile_spec(1)
    spec2 = spec_from_json(spec_to_json(spec))
    assert spec2 == spec


@pytest.mark.parametrize("track, bundle", [
    # the core outgrows the bound at the last n
    (dict(j0=0, j_slope=0, gamma0=(2**53 - 5, 0, 0), gamma_slope=(1, 0, 0)),
     (sw.BundleAtom(0, (0, 0, 0), 1.0),)),
    # the Heisenberg cross term of a bundle offset: 2^30 * 2^30 = 2^60
    (dict(j0=0, j_slope=0, gamma0=(2**30, 0, 0), gamma_slope=(1, 0, 0)),
     (sw.BundleAtom(0, (0, 2**30, 0), 1.0),)),
    # the dilation of a bundle atom: 2^40 * 2^30, which int64 would wrap past 2^63
    (dict(j0=0, j_slope=0, gamma0=(2**40, 0, 0), gamma_slope=(1, 0, 0)),
     (sw.BundleAtom(30, (0, 0, 0), 1.0),)),
], ids=["core", "cross-term", "dilation"])
def test_generate_refuses_indices_beyond_bound(track, bundle):
    g = sw.heisenberg(1)
    spec = sw.GeneratorSpec(kind="translating", tracks=(sw.TrackSpec(bundle=bundle, **track),),
                            horizon=8)
    with pytest.raises(sw.DomainError, match="2\\^53"):
        sw.generate(spec, sw.preset_sampling_set(g, 1.0))


def test_generate_indices_match_scalar_lattice_law():
    g = sw.heisenberg(1)
    gs = sw.preset_sampling_set(g, 1.0)
    t = sw.TrackSpec(j0=-1, j_slope=1, gamma0=(3, -2, 5), gamma_slope=(0, 0, 0),
                     bundle=(sw.BundleAtom(0, (0, 0, 0), 1.0), sw.BundleAtom(2, (1, -1, 3), 0.5),
                             sw.BundleAtom(1, (-2, 4, 0), 0.25j)))
    snaps = sw.generate(sw.GeneratorSpec(kind="concentrating", tracks=(t,), horizon=6), gs)
    for n, f in enumerate(snaps.fields):
        j_core, core = t.core_at(n)
        want = {}
        for a in t.bundle:
            # the lattice law on plain integer tuples, point by point
            x, y, c = core[0] * 2**a.dj, core[1] * 2**a.dj, core[2] * 4**a.dj
            u, v, w = a.dgamma
            want[sw.AtomIndex(j_core + a.dj, (x + u, y + v, c + w + x * v - y * u))] = a.d
        assert as_dict(f) == want


def test_generate_collision_messages():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    t = sw.TrackSpec(j0=0, j_slope=0, gamma0=(0,), gamma_slope=(1,),
                     bundle=(sw.BundleAtom(0, (0,), 1.0), sw.BundleAtom(0, (0,), 0.5)))
    spec = sw.GeneratorSpec(kind="translating", tracks=(t,), horizon=4)
    with pytest.raises(GeneratorError, match=r"n=0, index AtomIndex\(j=0, gamma=\(0,\)\)"):
        sw.generate(spec, gs)
    summed = sw.generate(sw.GeneratorSpec(kind="translating", tracks=(t,), horizon=4,
                                          allow_overlap=True), gs)
    assert as_dict(summed.fields[2]) == {sw.AtomIndex(0, (2,)): 1.5}


def test_generate_refuses_a_spec_over_the_budget_before_building(monkeypatch):
    # 8 snapshots of 2 bundle atoms and 3 noise entries on R^1, rows of 3 int64:
    # 10 copies of 8 * 5 * 3 * 8 B = 9600 B
    spec = single_track("compact", bundle=(sw.BundleAtom(0, (0,), 1.0),
                                           sw.BundleAtom(1, (0,), 0.5)),
                        noise_amplitude=1e-3, noise_count=3)
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    built = []
    law = generators._track_indices
    monkeypatch.setattr(generators, "_track_indices", lambda *a: built.append(1) or law(*a))
    monkeypatch.setattr(generators, "MAX_ARRAY_BYTES", 9600)
    assert sw.generate(spec, gs).horizon == 8
    built.clear()
    monkeypatch.setattr(generators, "MAX_ARRAY_BYTES", 9599)
    with pytest.raises(sw.DomainError, match="8 snapshots of 5 entries need 9600 B"):
        sw.generate(spec, gs)
    assert built == []
    # noise of zero amplitude draws no entries
    silent = dataclasses.replace(spec, noise_amplitude=0.0)
    assert len(sw.generate(silent, gs).fields[0]) == 2


def _budget_cases():
    """(sampling set, spec, entries per snapshot): the largest measured peak per
    row (one atom on R^1), a mixture with its orthogonality check, and noise."""
    r1 = sw.SamplingSet(sw.abelian(1), 1.0)
    one = dataclasses.replace(single_track("translating", gamma_slope=(1,)), horizon=20000)
    h1 = sw.SamplingSet(sw.heisenberg(1), 1.0)
    a0, a1 = sw.BundleAtom(0, (0, 0, 0), 1.0), sw.BundleAtom(1, (1, 0, 0), 0.5)
    b0, b1 = sw.BundleAtom(0, (0, 0, 0), 0.8), sw.BundleAtom(0, (2, 0, 0), 0.3)
    mixture = sw.GeneratorSpec(kind="mixture", horizon=5000, tracks=(
        sw.TrackSpec(0, 0, (0, 0, 0), (1, 0, 0), (a0, a1)),
        sw.TrackSpec(0, 0, (7, 0, 0), (4, 0, 0), (b0, b1))))
    h2 = sw.SamplingSet(sw.heisenberg(2), 1.0)
    noisy = sw.GeneratorSpec(kind="translating", horizon=400, noise_amplitude=1e-3,
                             noise_count=30, tracks=(sw.TrackSpec(
                                 0, 0, (0,) * 5, (1, 0, 0, 0, 0),
                                 (sw.BundleAtom(0, (0,) * 5, 1.0),)),))
    return {"R1-one-atom": (r1, one, 1), "H1-mixture": (h1, mixture, 4),
            "H2-noise": (h2, noisy, 31)}


@pytest.mark.parametrize("case", ["R1-one-atom", "H1-mixture", "H2-noise"])
def test_generate_peak_stays_within_its_counted_budget(monkeypatch, case):
    gs, spec, entries = _budget_cases()[case]
    count = 8 * generators._ROW_COPIES * spec.horizon * entries * (gs.group.dim + 2)
    built = []
    law = generators._track_indices
    monkeypatch.setattr(generators, "_track_indices", lambda *a: built.append(1) or law(*a))
    monkeypatch.setattr(generators, "MAX_ARRAY_BYTES", count)
    # a short run first: what the first call allocates once (about 0.65 MB on
    # R^1: modules and caches NumPy loads on first use) is no row copy
    sw.generate(dataclasses.replace(spec, horizon=20), gs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert sw.generate(spec, gs).horizon == spec.horizon
        peak = tracemalloc.get_traced_memory()[1] - start
        built.clear()
        monkeypatch.setattr(generators, "MAX_ARRAY_BYTES", count - 1)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(sw.DomainError, match=f"entries need {count} B to index and sort"):
            sw.generate(spec, gs)
        refused = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= count
    # a refusal builds no array: no lattice law pass, and a few KiB of Python objects
    assert built == [] and refused < 16384
