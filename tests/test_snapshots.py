"""One array-backed snapshot sequence.

`SequenceSnapshots` holds one set of (n, j, gamma) arrays.  Built from
fields by the public constructor or from the arrays by `_canonical`, it
must give the same arrays; its norms, rank tables and energy ledger must
equal, bit for bit, what one field at a time gives; and the
generate -> write -> read path must build no field at all.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from stratwave import io as sio
from stratwave.generators import spec_from_json
from stratwave.profiles import _rank_tables, _run_sums, energy_ledger
from conftest import custom_3_2, field_of

GROUPS = {"R1": sw.abelian(1), "H1": sw.heisenberg(1), "custom_3_2": custom_3_2()}
DATA = Path(__file__).parent / "data"
# few moduli, so that ranks tie; 0 is an exact zero the ledger drops
TIED = st.sampled_from([0.0, 0.5, -0.5, 0.5j, 1.0, -1j, 2.0])
FREE = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def ragged_sequences(draw):
    """(sampling set, n_values, fields): 2..6 snapshots of 0..8 entries on
    R^1, H^1 or custom_3_2, with tied moduli, one-entry and empty snapshots."""
    gs = sw.preset_sampling_set(GROUPS[draw(st.sampled_from(sorted(GROUPS)))], 1.0)
    dim = gs.group.dim
    index = st.tuples(st.integers(0, 2), st.tuples(*[st.integers(-2, 2)] * dim))
    fields = []
    for _ in range(draw(st.integers(2, 6))):
        keys = draw(st.lists(index, min_size=draw(st.sampled_from([0, 1, 2, 3, 5, 8])),
                             max_size=8, unique=True))
        values = draw(st.lists(st.one_of(TIED, FREE), min_size=len(keys), max_size=len(keys)))
        fields.append(field_of(gs, dict(zip(keys, values)), sw.lp_atoms(2.0)))
    n_values = sorted(draw(st.sets(st.integers(-50, 50), min_size=len(fields),
                                   max_size=len(fields))))
    return gs, tuple(n_values), tuple(fields)


def reference_ledger(dec, L):
    """`energy_ledger` as it was computed one snapshot at a time."""
    members = [profiles_members(dec, ell) for ell in range(1, L + 1)]
    out = np.zeros((L + 1, dec.snapshots.horizon))
    for n_pos, u in enumerate(dec.snapshots.fields):
        u2 = float(dec.snapshots.norms[n_pos]) ** 2
        values = u.values.copy()
        profile_energy = 0
        for ell, (ranks, d) in enumerate(members, start=1):
            values[dec.rank_pos[ranks, n_pos]] -= d
            profile_energy += dec.profiles[ell - 1].energy()
            r2 = float(np.sqrt(np.sum(np.abs(values[values != 0]) ** 2))) ** 2
            out[ell, n_pos] = abs(u2 - profile_energy - r2)
    return out


def profiles_members(dec, ell):
    ranks = [m - 1 for m in dec.members_up_to(ell, dec.M_eff)]
    return (np.array(ranks, dtype=np.int64),
            np.array([dec.d_limits[m + 1] for m in ranks], dtype=complex))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(seq=ragged_sequences())
def test_the_two_constructors_agree_with_the_fields_one_by_one(seq):
    gs, n_values, fields = seq
    s = sw.SequenceSnapshots(gs, n_values, fields)
    starts = np.cumsum([0] + [len(f) for f in fields])
    c = sw.SequenceSnapshots._canonical(
        gs, sw.lp_atoms(2.0), n_values, np.concatenate([f.js for f in fields]),
        np.concatenate([f.gammas for f in fields]), np.concatenate([f.values for f in fields]),
        starts)
    for name in ("js", "gammas", "values", "starts", "norms"):
        assert same_bits(getattr(s, name), getattr(c, name)), name
        assert not getattr(s, name).flags.writeable
    assert s.n_values == c.n_values == n_values and s.normalization == c.normalization
    # each snapshot's field, norm and ranking as one field at a time gives them
    for f, got, norm in zip(fields, s.fields, s.norms, strict=True):
        for name in ("js", "gammas", "values"):
            assert same_bits(getattr(got, name), getattr(f, name))
        assert same_bits(norm, f.l2())
    M = min(len(f) for f in fields)
    rank_pos, coeffs, js, gammas = _rank_tables(s, M)
    tops = [sw.rank_order(f)[:M] for f in fields]
    assert same_bits(rank_pos, np.stack(tops, axis=1).astype(np.int64))
    for got, name in ((coeffs, "values"), (js, "js"), (gammas, "gammas")):
        want = np.stack([getattr(f, name)[top] for f, top in zip(fields, tops)], axis=1)
        assert same_bits(got, want)
    if M and len(fields) >= 2:
        params = sw.ExtractParams(M_max=M, L_max=M, eps_conv=1.0, T_div=5.0, eps_stable=1e-9,
                                  tail=2, mode="exploratory")
        dec = sw.extract(s, params)
        for L in range(len(dec.profiles) + 1):
            assert same_bits(energy_ledger(dec, L), reference_ledger(dec, L))


@pytest.mark.parametrize("name", ["noise", "h1", "custom"])
def test_the_ledger_equals_the_per_snapshot_loop_on_the_golden_sequences(name):
    obj = json.loads((DATA / f"golden_{name}_spec.json").read_text())
    gs = sw.SamplingSet(sw.groups.group_from_json(obj["group"]), obj.get("density", 1.0))
    snaps = sw.generate(spec_from_json(obj), gs)
    params = json.loads((DATA / f"golden_{name}_params.json").read_text())
    dec = sw.extract(snaps, sw.ExtractParams(**params))
    assert dec.profiles
    for L in range(len(dec.profiles) + 1):
        assert same_bits(energy_ledger(dec, L), reference_ledger(dec, L))


def test_the_ledger_squares_norms_as_python_floats_do():
    # w and the norm x = sqrt(1 + w^2) of each snapshot are doubles whose
    # square by libm pow, as float ** 2 takes it, differs from x * x in the
    # last bit; w moves away from the constant atom 1.0, so it is profile 2
    w = 0.6283993546071417
    x = math.sqrt(1 + w * w)
    assert w**2 != w * w and x**2 != x * x
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    per_n = [{(0, (0,)): 1.0, (0, (10 + 3 * n,)): w} for n in range(4)]
    s = sw.SequenceSnapshots(gs, range(4), [field_of(gs, e, sw.lp_atoms(2.0)) for e in per_n])
    dec = sw.extract(s, sw.ExtractParams(M_max=2, L_max=2, eps_conv=1e-12, T_div=0.5,
                                         eps_stable=1e-9, tail=2))
    assert len(dec.profiles) == 2
    assert same_bits(energy_ledger(dec, 2), reference_ledger(dec, 2))
    assert energy_ledger(dec, 1)[1].tolist() == [abs(x**2 - 1.0 - w**2)] * 4


def test_run_sums_equal_np_sum_of_each_run_bit_for_bit():
    # np.add.reduceat sums a run in sequence, not pairwise as np.sum does, and
    # differs in the last bit on most runs this long
    rng = np.random.default_rng(24)
    lengths = rng.integers(0, 601, size=300)
    lengths[:3] = 0, 1, 600
    starts = np.concatenate([[0], np.cumsum(lengths)])
    x = rng.uniform(0, 1, size=starts[-1]) * 10.0 ** rng.integers(-3, 4, size=starts[-1])
    want = np.array([np.sum(x[lo:hi]) for lo, hi in zip(starts, starts[1:])])
    assert same_bits(_run_sums(x, starts), want)
    assert not np.array_equal(np.add.reduceat(x, starts[:-1])[lengths > 0], want[lengths > 0])


def test_an_empty_sequence_has_no_tag_and_no_norms():
    s = sw.SequenceSnapshots(sw.preset_sampling_set(sw.abelian(1), 1.0), (), ())
    assert s.horizon == 0 and s.normalization is None and s.fields == ()
    assert s.K_bound == 0.0 and s.starts.tolist() == [0] and s.gammas.shape == (0, 1)


# -- regression guards: the generate -> write -> read path builds no field ---

@pytest.fixture
def builds(monkeypatch):
    """Counts of CoefficientField constructor and `_canonical` calls."""
    counts = {"__init__": 0, "_canonical": 0}
    init, canonical = sw.CoefficientField.__init__, sw.CoefficientField._canonical.__func__

    def counting_init(self, *args, **kwargs):
        counts["__init__"] += 1
        init(self, *args, **kwargs)

    def counting_canonical(cls, *args, **kwargs):
        counts["_canonical"] += 1
        return canonical(cls, *args, **kwargs)

    monkeypatch.setattr(sw.CoefficientField, "__init__", counting_init)
    monkeypatch.setattr(sw.CoefficientField, "_canonical", classmethod(counting_canonical))
    return counts


@pytest.mark.parametrize("name", ["noise", "h1", "custom"])
def test_generate_write_and_read_build_no_field(tmp_path, builds, name):
    obj = json.loads((DATA / f"golden_{name}_spec.json").read_text())
    gs = sw.SamplingSet(sw.groups.group_from_json(obj["group"]), obj.get("density", 1.0))
    snaps = sw.generate(spec_from_json(obj), gs)
    sio.write_snapshots(tmp_path / "s.jsonl", snaps)
    read = sio.read_snapshots(tmp_path / "s.jsonl")
    assert builds == {"__init__": 0, "_canonical": 0}
    for name in ("js", "gammas", "values", "starts", "norms"):
        assert same_bits(getattr(read, name), getattr(snaps, name))
    assert len(read.fields) == snaps.horizon  # the control: fields are built on demand
    assert builds == {"__init__": 0, "_canonical": snaps.horizon}


def test_a_long_translating_sequence_keeps_its_norm_and_builds_no_field(builds):
    # the golden H^1 mixture with its first track translating at constant
    # scale: 2 * 10^4 snapshots of 4 entries
    obj = json.loads((DATA / "golden_h1_spec.json").read_text())
    obj["horizon"] = 20000
    obj["tracks"][0].update(j_slope=0, gamma_slope=[1, 0, 0])
    snaps = sw.generate(spec_from_json(obj), sw.SamplingSet(sw.heisenberg(1), 1.0))
    assert builds == {"__init__": 0, "_canonical": 0}
    assert snaps.horizon == 20000 and np.diff(snaps.starts).tolist() == [4] * 20000
    assert np.all(snaps.norms == snaps.norms[0]) and snaps.K_bound == snaps.norms[0]
