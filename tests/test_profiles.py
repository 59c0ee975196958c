"""Track classification and the extraction induction."""

import numpy as np
import pytest

import stratwave as sw
from stratwave.profiles import (
    NonconvergentCoefficient,
    UndecidableOrthogonality,
    remainder_field,
    remainder_split,
)

TAIL = dict(tail=8, T_div=5.0, eps_stable=1e-9)


def pair(gs, js, gammas):
    return sw.ScaleCorePair(sampling=gs, js=tuple(js), gammas=tuple(gammas))


def lattice(group=None, beta=1.0):
    return sw.preset_sampling_set(group or sw.abelian(1), beta)


def snapshots_from_entries(gs, per_n, p=2.0):
    fields = tuple(
        sw.CoefficientField(group=gs.group, sampling=gs,
                            entries={sw.AtomIndex(j, tuple(g)): complex(v)
                                     for (j, g), v in entries.items()},
                            normalization=sw.lp_atoms(p))
        for entries in per_n
    )
    return sw.SequenceSnapshots(group=gs.group, sampling=gs,
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


def test_classify_validation():
    gs = lattice()
    a = pair(gs, [0] * 4, [(0,)] * 4)
    b = pair(gs, [0] * 5, [(0,)] * 5)
    with pytest.raises(ValueError):
        sw.classify_pair(a, b, **TAIL)
    with pytest.raises(ValueError):
        sw.classify_pair(a, pair(gs, [0] * 4, [(0,)] * 4), tail=10,
                         T_div=5.0, eps_stable=1e-9)


def test_classify_heisenberg_central_direction():
    # cores escaping along the center still diverge in the homogeneous norm
    gs = lattice(sw.heisenberg(1))
    n = 16
    a = pair(gs, [0] * n, [(0, 0, 0)] * n)
    b = pair(gs, [0] * n, [(0, 0, 40 * k) for k in range(n)])
    v = sw.classify_pair(a, b, **TAIL)
    assert v.kind == "CoreOrthogonal"


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
    assert np.max(sw.energy_check(dec, 1)) <= 1e-12


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
    f = sw.CoefficientField(group=gs.group, sampling=gs,
                            entries={sw.AtomIndex(0, (0,)): 1.0 + 0j},
                            normalization=sw.L1_ATOMS)
    with pytest.raises(ValueError):
        sw.SequenceSnapshots(group=gs.group, sampling=gs, n_values=(0,), fields=(f,))


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
            combined = dict(sp["r1_field"].entries)
            for idx, val in sp["r2_field"].entries.items():
                combined[idx] = combined.get(idx, 0j) + val
            keys = set(combined) | set(target.entries)
            for k in keys:
                assert abs(combined.get(k, 0j) - target.entries.get(k, 0j)) <= 1e-12


def test_remainder_split_validation():
    dec = drift_decomposition()
    with pytest.raises(ValueError):
        remainder_split(dec, 0, 5, 2)
    with pytest.raises(ValueError):
        remainder_split(dec, 0, 1, dec.M_eff + 1)


def test_energy_defect_decays_with_drift():
    dec = drift_decomposition()
    defects = sw.energy_check(dec, len(dec.profiles))
    q = len(defects) // 4
    assert np.median(defects[-q:]) < np.median(defects[:q])


def test_rendered_profile_matches_track():
    dec = drift_decomposition()
    prof = sw.rendered_profile(dec, 1, 3)
    # profile 1 is the constant track at the origin
    assert set(prof.entries) == {sw.AtomIndex(0, (0,))}
    assert prof.entries[sw.AtomIndex(0, (0,))] == pytest.approx(dec.d_limits[1])


def sequential_ledger(dec, L):
    """The energy ledger by repeated dict subtraction, one profile copy at a time."""
    rows = []
    for ell in range(L + 1):
        profile_energy = sum(p.energy() for p in dec.profiles[:ell])
        row = []
        for u in dec.snapshots.fields:
            ranked = sw.reorder(u)
            r = dict(u.entries)
            for prof in dec.profiles[:ell]:
                for m in prof.members:
                    idx = ranked[m - 1][1]
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
    snaps = sw.generate(spec_from_json(obj), g, sw.preset_sampling_set(g, 1.0))
    dec = sw.extract(snaps, sw.ExtractParams(
        **json.loads((data / f"golden_{name}_params.json").read_text())))
    L = len(dec.profiles)
    ledger = sw.energy_ledger(dec, L)
    assert ledger.shape == (L + 1, snaps.horizon)
    assert np.array_equal(ledger, sequential_ledger(dec, L))  # bit for bit
    for ell in range(L + 1):
        assert np.array_equal(sw.energy_check(dec, ell), ledger[ell])
    with pytest.raises(ValueError):
        sw.energy_ledger(dec, L + 1)


def test_remainder_field_drops_exact_zeros():
    dec = drift_decomposition()
    u = dec.snapshots.fields[0]
    r = remainder_field(dec, 0, 1)
    # the constant profile's limit is exact, so its atom cancels
    assert sw.AtomIndex(0, (0,)) not in r.entries
    assert len(r) == len(u) - 1
    assert remainder_field(dec, 0, 0) is u
