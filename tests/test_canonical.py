"""Producers that build fields already in canonical order skip the re-sort.

Every such producer must give the arrays the public constructor gives: the
same selection, conversion, difference or file contents passed through
CoefficientField(...) in any order yields js, gammas and values that are
equal byte for byte.  The regression guards count public-constructor calls
on the paths that need none.
"""

import dataclasses
import functools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from stratwave import io as sio
from stratwave import transform
from stratwave.coeffs import SPARSE_FLOOR, field_add, field_sub
from stratwave.profiles import remainder_field, rendered_profile
from conftest import custom_3_2, two_profile_spec

GROUPS = {"R1": sw.abelian(1), "H1": sw.heisenberg(1), "custom_3_2": custom_3_2()}
NORMS = (sw.L1_ATOMS, sw.lp_atoms(2.0), sw.lp_atoms(3.5))


def build(gs, norm, js, gammas, values, floor=None):
    """The public constructor, the reference every producer is held to."""
    return sw.CoefficientField(gs, norm, js=js, gammas=gammas, values=values, floor=floor)


def assert_same(c, ref):
    assert c.sampling == ref.sampling and c.normalization == ref.normalization
    assert c.js.dtype == ref.js.dtype == np.int64
    assert c.gammas.dtype == ref.gammas.dtype == np.int64
    assert c.values.dtype == ref.values.dtype == complex
    assert c.gammas.shape == ref.gammas.shape == (len(ref), ref.sampling.group.dim)
    for name in ("js", "gammas", "values"):
        assert getattr(c, name).tobytes() == getattr(ref, name).tobytes(), name
        assert not getattr(c, name).flags.writeable


def assert_canonical(c):
    """c's arrays survive a rebuild through the public constructor unchanged."""
    assert_same(c, build(c.sampling, c.normalization, c.js, c.gammas, c.values))


@st.composite
def fields(draw, group=None, max_size=24):
    """A field on R^1, H^1 or custom_3_2 from entries in any order, repeats
    (which the constructor sums) and exact zeros included."""
    name = group or draw(st.sampled_from(sorted(GROUPS)))
    gs = sw.SamplingSet(GROUPS[name], draw(st.sampled_from([0.5, 1.0])))
    dim = gs.group.dim
    n = draw(st.integers(0, max_size))
    js = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    gammas = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                      st.floats(-4.0, 4.0, allow_nan=False))
    values = [complex(draw(parts), draw(parts)) for _ in range(n)]
    norm = draw(st.sampled_from(NORMS))
    return build(gs, norm, np.array(js, dtype=np.int64).reshape(n),
                 np.array(gammas, dtype=np.int64).reshape(n, dim), values)


slices = st.builds(slice, st.none() | st.integers(-30, 30), st.none() | st.integers(-30, 30),
                   st.none() | st.integers(-4, 4).filter(bool))


@settings(max_examples=80, deadline=None)
@given(c=fields(), at=slices, data=st.data())
def test_take_by_slice_and_mask_equals_the_constructor(c, at, data):
    assert_canonical(c)
    sliced = c.take(at)
    assert_same(sliced, build(c.sampling, c.normalization, c.js[at], c.gammas[at],
                              c.values[at]))
    assert_canonical(sliced)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(c), max_size=len(c))),
                    dtype=bool)
    masked = c.take(mask, -c.values[mask], sw.lp_atoms(4.0))
    assert_same(masked, build(c.sampling, sw.lp_atoms(4.0), c.js[mask], c.gammas[mask],
                              -c.values[mask]))
    assert_canonical(masked)


def test_take_does_not_alias_given_values():
    gs = sw.SamplingSet(sw.abelian(1), 1.0)
    c = build(gs, sw.L1_ATOMS, [0, 1], [[0], [0]], [1.0, 2.0])
    values = np.array([3.0, 4.0], dtype=complex)
    t = c.take(slice(None), values)
    values[0] = 9.0
    assert t.values.tolist() == [3.0, 4.0] and values.flags.writeable


@settings(max_examples=60, deadline=None)
@given(c=fields(), to=st.sampled_from(NORMS))
def test_convert_equals_the_constructor(c, to):
    e = sw.coeffs._conversion_exponent(c.normalization, to) * c.sampling.group.Q
    factor = np.array([2.0 ** (j * e) for j in c.js.tolist()])
    out = sw.convert(c, to)
    if to == c.normalization:
        assert out is c
    else:
        assert_same(out, build(c.sampling, to, c.js, c.gammas, c.values * factor))
    assert_canonical(out)


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(sorted(GROUPS)), data=st.data())
def test_field_add_and_sub_equal_the_constructor(group, data):
    a = data.draw(fields(group))
    b = data.draw(fields(group))
    b = build(a.sampling, a.normalization, b.js, b.gammas, b.values)
    for op, b_values in ((field_add, b.values), (field_sub, -b.values)):
        total = build(a.sampling, a.normalization, np.concatenate([a.js, b.js]),
                      np.concatenate([a.gammas, b.gammas]), np.concatenate([a.values, b_values]))
        nz = total.values != 0
        out = op(a, b)
        assert_same(out, build(a.sampling, a.normalization, total.js[nz], total.gammas[nz],
                               total.values[nz]))
        assert_canonical(out)


@functools.lru_cache(maxsize=None)
def _decomposition(group: str):
    """Two profile tracks and scale-0 noise on `group`."""
    gs = sw.SamplingSet(GROUPS[group], 1.0)
    spec = two_profile_spec(gs.group.dim, horizon=16)
    spec = dataclasses.replace(spec, noise_amplitude=1e-3, noise_count=5)
    params = sw.ExtractParams(M_max=16, L_max=4, eps_conv=1e-10, T_div=5.0,
                              eps_stable=1e-9, tail=8)
    return sw.extract(sw.generate(spec, gs), params)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_remainder_field_equals_field_sub_of_the_profiles(group):
    dec = _decomposition(group)
    assert len(dec.profiles) == 7  # the two tracks and five noise atoms
    for n_pos in (0, 7, dec.snapshots.horizon - 1):
        u = dec.snapshots.fields[n_pos]
        for L in range(len(dec.profiles) + 1):
            r = remainder_field(dec, n_pos, L)
            copies = [rendered_profile(dec, ell, n_pos) for ell in range(1, L + 1)]
            ref = functools.reduce(field_sub, copies, u)
            assert_same(r, ref)
            assert_canonical(r)
            assert len(r) < len(u) or L == 0  # exact profile copies cancel


@st.composite
def grids(draw):
    """Sums of 1-3 Gaussian bumps, or one plane wave, on a 64-point torus.  A
    plane wave's blocks at the scales whose band misses its frequency hold
    rounding only, which the sparsity floor drops."""
    x = sw.GridDescriptor(1, 64, 4.0)
    if draw(st.booleans()):
        k = draw(st.integers(1, 31))
        return sw.GridFunction.from_callable(x, lambda t: np.exp(2j * np.pi * k * t / 8.0))
    bumps = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.2, 1.0),
                                    st.floats(-1.0, 1.0).filter(lambda a: abs(a) > 0.1)),
                          min_size=1, max_size=3))
    return sw.GridFunction.from_callable(
        x, lambda t: sum(a * np.exp(-np.pi * ((t - c) / w) ** 2) for c, w, a in bumps))


def analyze_through_the_constructor(f, ks, gs, p):
    """`analyze` with every field built by the public constructor."""
    desc = f.descriptor()
    scales = transform._scales(transform._js(ks), gs, desc)
    spec = transform.grid_fft(f)
    gammas = [sw.sampling.range_coordinates(s.ranges) for s in scales]
    values = [transform._sample(desc, ks.multiplier(s.j) * spec,
                                transform._place(desc, gm, s.geo))
              for s, gm in zip(scales, gammas)]
    c1 = build(gs, sw.L1_ATOMS, np.concatenate([np.full(len(gm), s.j)
                                                for s, gm in zip(scales, gammas)]),
               np.concatenate(gammas), np.concatenate(values), floor=SPARSE_FLOOR)
    e = sw.coeffs._conversion_exponent(sw.L1_ATOMS, sw.lp_atoms(p)) * gs.group.Q
    factor = np.array([2.0 ** (j * e) for j in c1.js.tolist()])
    return build(gs, sw.lp_atoms(p), c1.js, c1.gammas, c1.values * factor)


@settings(max_examples=25, deadline=None)
@given(f=grids(), beta=st.sampled_from([0.25, 0.375, 0.5]), p=st.sampled_from([2.0, 4.0]),
       jmin=st.integers(-2, 0))
def test_analyze_equals_the_constructor(f, beta, p, jmin):
    gs = sw.SamplingSet(sw.abelian(1), beta)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (jmin, 2))
    c = sw.analyze(f, ks, gs, p)
    assert_same(c, analyze_through_the_constructor(f, ks, gs, p))
    assert_canonical(c)


def test_analyze_floor_drops_entries():
    # frequency 2 lies outside the band of scale -1
    f = sw.GridFunction.from_callable(sw.GridDescriptor(1, 64, 4.0),
                                      lambda t: np.exp(4j * np.pi * t))
    gs = sw.SamplingSet(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 2))
    c = sw.analyze(f, ks, gs, 2.0)
    lattice = sum(len(sw.sampling.range_coordinates(s.ranges))
                  for s in transform._scales(transform._js(ks), gs, f.descriptor()))
    assert 0 < len(c) < lattice
    assert_same(c, analyze_through_the_constructor(f, ks, gs, 2.0))


def _shuffle_entries(path, seed: int) -> list:
    """Rewrite the file with its entry lines in a seeded random order; the
    entry lines in their new order."""
    header, *entries = path.read_text().splitlines(keepends=True)
    random.Random(seed).shuffle(entries)
    path.write_text(header + "".join(entries))
    return entries


@settings(max_examples=40, deadline=None)
@given(c=fields(), seed=st.integers(0, 2**32 - 1))
def test_read_field_of_shuffled_lines_equals_the_constructor(tmp_path_factory, c, seed):
    path = tmp_path_factory.mktemp("field") / "c.jsonl"
    sio.write_field(path, c)
    shuffled = _shuffle_entries(path, seed)
    rows = list(map(json.loads, shuffled))
    read = sio.read_field(path)
    ref = build(c.sampling, c.normalization,
                np.array([r["j"] for r in rows], dtype=np.int64).reshape(len(rows)),
                np.array([r["gamma"] for r in rows], dtype=np.int64).reshape(
                    len(rows), c.sampling.group.dim),
                [complex(r["re"], r["im"]) for r in rows])
    assert_same(read, ref)
    assert_same(read, c)


@settings(max_examples=30, deadline=None)
@given(group=st.sampled_from(sorted(GROUPS)), data=st.data(), seed=st.integers(0, 2**32 - 1),
       n_values=st.lists(st.integers(-5, 40), min_size=1, max_size=4, unique=True))
def test_read_snapshots_of_shuffled_lines_equals_the_constructor(tmp_path_factory, group, data,
                                                                 seed, n_values):
    n_values = sorted(n_values)
    first = data.draw(fields(group))
    norm = sw.lp_atoms(2.0)
    snaps = [build(first.sampling, norm, first.js, first.gammas, first.values)]
    for _ in n_values[1:]:  # some snapshots may hold no entry
        f = data.draw(fields(group))
        snaps.append(build(first.sampling, norm, f.js, f.gammas, f.values))
    s = sw.SequenceSnapshots(first.sampling, tuple(n_values), tuple(snaps))
    path = tmp_path_factory.mktemp("snaps") / "s.jsonl"
    sio.write_snapshots(path, s)
    shuffled = _shuffle_entries(path, seed)
    rows = list(map(json.loads, shuffled))
    read = sio.read_snapshots(path)
    assert read.n_values == tuple(n_values)
    for n, got, want in zip(n_values, read.fields, snaps):
        mine = [r for r in rows if r["n"] == n]
        ref = build(first.sampling, norm,
                    np.array([r["j"] for r in mine], dtype=np.int64).reshape(len(mine)),
                    np.array([r["gamma"] for r in mine], dtype=np.int64).reshape(
                        len(mine), s.sampling.group.dim),
                    [complex(r["re"], r["im"]) for r in mine])
        assert_same(got, ref)
        assert_same(got, want)


def test_read_snapshots_of_a_fully_shuffled_large_file_equals_the_constructor(tmp_path):
    # 20 H^1 snapshots of 160 entries, the decompose benchmark's 3200 rows,
    # every line out of place: the reader's one sort of the whole file must
    # give each snapshot the constructor's bytes, and a repeated index is
    # reported at the first line that repeats an earlier one
    rng = np.random.default_rng(23)
    gs, norm = sw.SamplingSet(sw.heisenberg(1), 1.0), sw.lp_atoms(2.0)
    snaps = []
    for _ in range(20):
        rows = np.unique(rng.integers(-40, 41, size=(400, 4)), axis=0)[rng.permutation(160)]
        snaps.append(build(gs, norm, rows[:, 0], rows[:, 1:],
                           rng.normal(size=160) + 1j * rng.normal(size=160)))
    path = tmp_path / "s.jsonl"
    sio.write_snapshots(path, sw.SequenceSnapshots(gs, tuple(range(20)), tuple(snaps)))
    shuffled = _shuffle_entries(path, 29)
    assert len(shuffled) == 3200
    rows = list(map(json.loads, shuffled))
    read = sio.read_snapshots(path)
    for n, got, want in zip(range(20), read.fields, snaps):
        mine = [r for r in rows if r["n"] == n]
        assert_same(got, build(gs, norm, np.array([r["j"] for r in mine], dtype=np.int64),
                               np.array([r["gamma"] for r in mine], dtype=np.int64),
                               [complex(r["re"], r["im"]) for r in mine]))
        assert_same(got, want)
    header = path.read_text().splitlines(keepends=True)[0]
    lines = shuffled[:]
    for at, source in ((2500, 40), (900, 3000), (1700, 900)):  # three repeats
        lines.insert(at, lines[source])
    path.write_text(header + "".join(lines))
    seen, first = set(), None
    for k, line in enumerate(lines):
        r = json.loads(line)
        key = (r["n"], r["j"], tuple(r["gamma"]))
        if key in seen:
            first = (k + 2, r)  # line 1 is the header
            break
        seen.add(key)
    lineno, r = first
    with pytest.raises(sio.IngestionError) as exc:
        sio.read_snapshots(path)
    assert str(exc.value) == (f"line {lineno}: duplicate index "
                              f"{sw.AtomIndex(r['j'], tuple(r['gamma']))} at n={r['n']}")


def generate_through_the_constructor(spec, gs):
    """`generate`'s snapshots built the way it once built them: each n's
    entries in insertion order (tracks, their atoms, then the noise), indices
    from the lattice law in Python ints, through the public constructor.
    Returns the fields, or the GeneratorError text of the first collision."""
    g, d1 = gs.group, gs.group.strata_dims[0]
    w = sw.groups.dilation_weights(g).astype(int).tolist()
    noise = spec.noise_count if spec.noise_amplitude != 0.0 else 0
    noise_gammas, noise_values = sw.generators._noise(spec, gs, noise)
    n_track = sum(len(t.bundle) for t in spec.tracks)
    fields = []
    for n in range(spec.horizon):
        js, gammas = [], []
        for t in spec.tracks:
            j_core, core = t.core_at(n)
            for a in t.bundle:
                x = [c * 2 ** (a.dj * k) for c, k in zip(core, w)]
                y = list(a.dgamma)
                out = [p + q for p, q in zip(x, y)]
                for k in range(g.dim - d1):
                    out[d1 + k] += sum(int(g.bracket[k, i, j]) * x[i] * y[j]
                                       for i in range(d1) for j in range(d1))
                js.append(j_core + a.dj)
                gammas.append(out)
        js += [0] * noise
        gammas += noise_gammas.tolist()
        values = [complex(a.d) for t in spec.tracks for a in t.bundle] + noise_values.tolist()
        f = build(gs, sw.lp_atoms(spec.p), np.array(js, dtype=np.int64),
                  np.array(gammas, dtype=np.int64).reshape(-1, g.dim), values)
        if len(f) < len(values) and not spec.allow_overlap:
            rows = [(j, *gm) for j, gm in zip(js, gammas)]
            k = next(k for k in range(len(rows)) if rows[k] in rows[:k])
            if k >= n_track:
                return f"noise collides with a track at n={n}"
            return (f"track collision at n={n}, index "
                    f"{sw.AtomIndex(js[k], tuple(gammas[k]))}; declared orthogonality is violated")
        fields.append(f)
    return fields


@st.composite
def generator_specs(draw):
    """Specs on R^1, H^1 or custom_3_2 whose atoms often share an index: a
    single atom's track keeps its index from one n to the next, and bundle
    offsets repeat, so that up to four values are summed at one index."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    gs = sw.SamplingSet(GROUPS[name], 1.0)
    dim = gs.group.dim
    small = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim).map(tuple)
    values = st.sampled_from([0.1, 0.2, 0.3, -0.7, 1e-3 + 0.5j, 1.0])
    atoms = st.builds(sw.BundleAtom, st.integers(0, 1), small, values)
    tracks = st.builds(sw.TrackSpec, st.integers(-1, 1), st.integers(-1, 1), small, small,
                       st.lists(atoms, min_size=1, max_size=4).map(tuple))
    spec = sw.GeneratorSpec(kind="mixture", tracks=tuple(draw(st.lists(tracks, min_size=1,
                                                                          max_size=3))),
                            horizon=draw(st.integers(2, 6)),
                            noise_amplitude=draw(st.sampled_from([0.0, 1e-3])),
                            noise_count=draw(st.integers(0, 3)), noise_seed=draw(st.integers(0, 9)),
                            allow_overlap=draw(st.booleans()))
    return spec, gs


@settings(max_examples=150, deadline=None)
@given(case=generator_specs())
def test_generate_equals_the_constructor(case):
    spec, gs = case
    want = generate_through_the_constructor(spec, gs)
    try:
        snaps = sw.generate(spec, gs)
    except sw.GeneratorError as exc:
        if isinstance(want, str):  # the same first collision
            assert str(exc) == want
        else:  # a check on the finished snapshots
            assert "collision" not in str(exc) and "collides" not in str(exc)
        return
    assert not isinstance(want, str)
    for got, ref in zip(snaps.fields, want, strict=True):
        assert_same(got, ref)


def test_generate_sums_a_shared_index_in_insertion_order():
    # 60 atoms at one index, whose float sum depends on the order of its terms
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    rng = np.random.default_rng(8)
    values = rng.choice([1e16, -1e16, 1.0, 0.5, -3.0], size=60) * rng.uniform(1, 2, size=60)
    t = sw.TrackSpec(j0=0, j_slope=0, gamma0=(0, 0, 0), gamma_slope=(1, 0, 0),
                     bundle=tuple(sw.BundleAtom(0, (0, 0, 0), v) for v in values.tolist()))
    spec = sw.GeneratorSpec(kind="translating", tracks=(t,), horizon=3, allow_overlap=True)
    for got, ref in zip(sw.generate(spec, gs).fields, generate_through_the_constructor(spec, gs),
                        strict=True):
        assert_same(got, ref)


def test_a_constant_single_atom_track_repeats_its_index_at_every_n():
    # the last entry of each snapshot equals the first of the next: no collision
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    t = sw.TrackSpec(j0=2, j_slope=0, gamma0=(1, 2, 3), gamma_slope=(0, 0, 0),
                     bundle=(sw.BundleAtom(0, (0, 0, 0), 0.5),))
    snaps = sw.generate(sw.GeneratorSpec(kind="compact", tracks=(t,), horizon=5), gs)
    for f in snaps.fields:
        assert (f.js.tolist(), f.gammas.tolist(), f.values.tolist()) == ([2], [[1, 2, 3]], [0.5])


@settings(max_examples=40, deadline=None)
@given(c=fields())
def test_scales_are_the_runs_of_equal_j(c):
    runs = c.scales()
    assert [j for j, _ in runs] == sorted(set(c.js.tolist()))
    assert all(type(j) is int for j, _ in runs)
    covered = [k for _, run in runs for k in range(len(c))[run]]
    assert covered == list(range(len(c)))
    assert all(set(c.js[run].tolist()) == {j} for j, run in runs)


# -- regression guards: no public-constructor call where none is needed ------

@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one per public-constructor call."""
    calls = []
    init = sw.CoefficientField.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sw.CoefficientField, "__init__", counting)
    return calls


def test_analyze_synthesize_and_norm_call_no_constructor(constructions):
    f = sw.GridFunction.from_callable(sw.GridDescriptor(1, 64, 4.0),
                                      lambda t: np.exp(-np.pi * t**2))
    gs = sw.SamplingSet(sw.abelian(1), 0.25)
    ks = sw.build_kernel_set(sw.build_window(1.0), f.descriptor(), (-1, 2))
    c = sw.analyze(f, ks, gs, 4.0)
    sw.synthesize(c, ks, gs, f.descriptor())
    sw.discrete_besov_norm(c, sw.NormParams(0.25, 2.0, 2.0))
    assert len(c) > 0 and constructions == []
    field_add(c, c)  # the control: a sum of arbitrary fields is re-sorted
    assert constructions == [1]


def test_read_snapshots_and_read_field_call_no_constructor(tmp_path, constructions):
    gs = sw.SamplingSet(sw.heisenberg(1), 1.0)
    snaps = sw.generate(two_profile_spec(3, horizon=20), gs)
    assert constructions == []
    sio.write_snapshots(tmp_path / "s.jsonl", snaps)
    sio.write_field(tmp_path / "c.jsonl", snaps.fields[3])
    read = sio.read_snapshots(tmp_path / "s.jsonl")
    field = sio.read_field(tmp_path / "c.jsonl")
    assert constructions == []
    assert len(read.fields) == 20
    assert_same(field, snaps.fields[3])
    for got, want in zip(read.fields, snaps.fields):
        assert_same(got, want)
    field_add(field, field)  # the control: a sum of arbitrary fields is re-sorted
    assert constructions == [1]
