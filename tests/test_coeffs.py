"""Coefficient algebra: normalizations, sequence norms, thresholding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import as_dict, field_of
from stratwave.coeffs import (
    SPARSE_FLOOR,
    ConversionRequired,
    Normalization,
    field_add,
    field_sub,
    mterm_error_curve,
    unconditionality_ratio,
)


def sparse_field(group, entries, norm=sw.L1_ATOMS):
    return field_of(sw.preset_sampling_set(group, 1.0), entries, norm)


field_entries = st.dictionaries(
    keys=st.tuples(st.integers(-6, 6),
                   st.tuples(st.integers(-20, 20))),
    values=st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False).filter(lambda z: abs(z) > 1e-8),
    min_size=1, max_size=25,
)


def test_besov_norm_hand_example():
    # [DERIVED] Q = 1, s = 0, p = q = 2: weights 2^{-j/2}, so
    # || {c_{0,0} = 3, c_{1,1} = 4} || = sqrt(9 + 16/2) = sqrt(17)
    c = sparse_field(sw.abelian(1), {(0, (0,)): 3.0, (1, (1,)): 4.0})
    val = sw.discrete_besov_norm(c, sw.NormParams(0.0, 2.0, 2.0))
    assert val == pytest.approx(np.sqrt(17.0), rel=1e-14)


def test_field_takes_q_from_its_sampling_set():
    # [DERIVED] on the abelian(3) lattice Q = 3: at s = 1/2, p = q = 2 the
    # weight of j = 1 is 2^{1/2 - 3/2} = 1/2, and the L^2-atom coefficient is
    # 2^{-3/2} c; Heisenberg's Q = 4 would give 2^{-3/2} and 2^{-2}
    gs = sw.preset_sampling_set(sw.abelian(3), 1.0)
    c = field_of(gs, {sw.AtomIndex(1, (0, 0, 0)): 1.0}, sw.L1_ATOMS)
    assert sw.discrete_besov_norm(c, sw.NormParams(0.5, 2.0, 2.0)) == 0.5
    assert sw.convert(c, sw.lp_atoms(2.0)).values.tolist() == [2.0**-1.5]
    assert not hasattr(c, "group")
    with pytest.raises(TypeError):
        sw.CoefficientField(gs, group=sw.heisenberg(1))


def test_besov_norm_q1_hand_example():
    # [DERIVED] q = 1 stacks the per-scale l^p norms additively
    c = sparse_field(sw.abelian(1), {(0, (0,)): 3.0, (0, (1,)): 4.0, (2, (0,)): 2.0})
    val = sw.discrete_besov_norm(c, sw.NormParams(1.0, 2.0, 1.0))
    # scale 0: 2^0 * sqrt(25) = 5 ; scale 2: 2^{2/2} * 2 = 4
    assert val == pytest.approx(9.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(entries=field_entries, p=st.floats(1.1, 6.0))
def test_critical_identity(entries, p):
    # the discrete Besov norm at the critical (s, 2, 2) equals the plain l2
    # norm of the L^p-atom coefficients, for every p
    g = sw.abelian(1)
    c1 = sparse_field(g, entries)
    # critical pairing between the smoothness and the atom exponent p
    s = g.Q * (0.5 - 1.0 / p)
    np_ = sw.NormParams(s, 2.0, 2.0)
    cp = sw.convert(c1, sw.lp_atoms(p))
    assert sw.discrete_besov_norm(c1, np_) == pytest.approx(
        sw.sobolev_seq_norm(cp), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(entries=field_entries, p=st.floats(1.1, 6.0))
def test_conversion_roundtrip(entries, p):
    c1 = sparse_field(sw.abelian(1), entries)
    back = as_dict(sw.convert(sw.convert(c1, sw.lp_atoms(p)), sw.L1_ATOMS))
    for idx, val in as_dict(c1).items():
        assert back[idx] == pytest.approx(val, rel=1e-12)


def test_sobolev_seq_norm_requires_lp():
    c = sparse_field(sw.abelian(1), {(0, (0,)): 1.0})
    with pytest.raises(ConversionRequired):
        sw.sobolev_seq_norm(c)
    assert sw.sobolev_seq_norm(sw.convert(c, sw.lp_atoms(2.0))) == pytest.approx(1.0)


@pytest.mark.filterwarnings("error")
def test_besov_norm_refuses_a_power_sum_beyond_float64():
    # (1e300)^2 overflows although both entries are finite: a refusal, not inf
    huge = sparse_field(sw.abelian(1), {(0, (0,)): 1e300, (0, (1,)): 1e300})
    with pytest.raises(sw.DomainError, match=r"discrete_besov_norm at \(s, p, q\) = "
                                             r"\(0.5, 2, 3\) overflows float64"):
        sw.discrete_besov_norm(huge, sw.NormParams(0.5, 2.0, 3.0))
    small = sparse_field(sw.abelian(1), {(0, (0,)): 1e150, (0, (1,)): 1e150})
    assert sw.discrete_besov_norm(small, sw.NormParams(0.5, 2.0, 2.0)) == pytest.approx(
        np.sqrt(2.0) * 1e150, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_sobolev_seq_norm_refuses_a_sum_of_squares_beyond_float64():
    huge = sparse_field(sw.abelian(1), {(0, (0,)): 1e300, (0, (1,)): 1e300}, sw.lp_atoms(4.0))
    with pytest.raises(sw.DomainError, match=r"sobolev_seq_norm of an Lp\(4\) field "
                                             "overflows float64"):
        sw.sobolev_seq_norm(huge)
    small = sparse_field(sw.abelian(1), {(0, (0,)): 3e150, (0, (1,)): 4e150}, sw.lp_atoms(4.0))
    assert sw.sobolev_seq_norm(small) == pytest.approx(5e150, rel=1e-15)


def test_norm_params_validation():
    with pytest.raises(ValueError):
        sw.NormParams(0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        sw.NormParams(0.0, 2.0, np.inf)
    for p, q in ((np.nan, 2.0), (2.0, np.nan), (0.5, np.nan)):
        with pytest.raises(ValueError, match="p and q must be numbers >= 1"):
            sw.NormParams(0.0, p, q)
    with pytest.raises(ValueError, match="infinity is out of scope"):
        sw.NormParams(0.0, np.inf, 2.0)
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            sw.NormParams(s, 2.0, 2.0)


def test_reorder_deterministic_ties():
    c = sparse_field(sw.abelian(1),
                     {(1, (0,)): 2.0, (0, (5,)): 2.0, (0, (-3,)): 2.0, (2, (1,)): 5.0})
    keys = list(as_dict(c))
    ranked = [keys[k] for k in sw.rank_order(c)]
    assert ranked[0] == sw.AtomIndex(2, (1,))
    # ties: j ascending, then gamma lexicographic
    assert ranked[1:] == [sw.AtomIndex(0, (-3,)), sw.AtomIndex(0, (5,)), sw.AtomIndex(1, (0,))]


def test_q_m_projector():
    c = sparse_field(sw.abelian(1), {(0, (k,)): 10.0 - k for k in range(5)})
    kept = sw.q_m(c, 2)
    assert isinstance(kept, sw.CoefficientField) and len(kept) == 2
    assert sw.AtomIndex(0, (0,)) in as_dict(kept)
    assert sw.AtomIndex(0, (1,)) in as_dict(kept)
    with pytest.raises(ValueError):
        sw.q_m(c, 0)


@settings(max_examples=40, deadline=None)
@given(entries=field_entries)
def test_mterm_curve_nonincreasing_and_terminal_zero(entries):
    c = sparse_field(sw.abelian(1), entries)
    card = len(c)
    curve = mterm_error_curve(c, sw.NormParams(0.0, 2.0, 2.0), range(card + 1))
    errs = [e for _, e in curve]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0


@settings(max_examples=40, deadline=None)
@given(entries=field_entries, frac=st.floats(0.0, 1.0))
def test_unconditionality(entries, frac):
    # shrinking moduli entrywise can only shrink the sequence norm
    big = sparse_field(sw.abelian(1), entries)
    small_entries = {idx: frac * val for idx, val in as_dict(big).items()}
    small = field_of(big.sampling, small_entries, big.normalization)
    r = unconditionality_ratio(small, big, sw.NormParams(0.5, 2.0, 2.0))
    assert r <= 1.0 + 1e-12


def test_unconditionality_violations():
    big = sparse_field(sw.abelian(1), {(0, (0,)): 1.0})
    outside = sparse_field(sw.abelian(1), {(0, (1,)): 0.5})
    with pytest.raises(ValueError):
        unconditionality_ratio(outside, big, sw.NormParams(0.0, 2.0, 2.0))
    too_big = sparse_field(sw.abelian(1), {(0, (0,)): 2.0})
    with pytest.raises(ValueError):
        unconditionality_ratio(too_big, big, sw.NormParams(0.0, 2.0, 2.0))


def test_field_algebra():
    a = sparse_field(sw.abelian(1), {(0, (0,)): 1.0, (0, (1,)): 2.0})
    b = sparse_field(sw.abelian(1), {(0, (1,)): -2.0, (1, (0,)): 3.0})
    s = field_add(a, b)
    assert sw.AtomIndex(0, (1,)) not in as_dict(s)  # exact cancellation dropped
    assert as_dict(s)[sw.AtomIndex(1, (0,))] == 3.0
    d = field_sub(a, a)
    assert len(d) == 0
    mixed = sw.convert(b, sw.lp_atoms(2.0))
    with pytest.raises(ConversionRequired):
        field_add(a, mixed)



def test_fields_on_different_lattices_do_not_combine():
    # gamma = 3 is x = 3 at beta = 1 and x = 1.5 at beta = 0.5: not one atom
    a, b = (field_of(sw.preset_sampling_set(sw.abelian(1), beta),
                     {sw.AtomIndex(0, (3,)): 1.0}, sw.L1_ATOMS)
            for beta in (1.0, 0.5))
    for op in (field_add, field_sub):
        with pytest.raises(ValueError, match="different sampling sets"):
            op(a, b)
    with pytest.raises(ValueError, match="different sampling sets"):
        unconditionality_ratio(a, b, sw.NormParams(0.0, 2.0, 2.0))


def test_normalization_tags_are_checked():
    for kind, p in (("Lq", 2.0), ("L1", 2.0)):
        with pytest.raises(ValueError, match="'L1' or 'Lp'"):
            Normalization(kind, p)
    with pytest.raises(ValueError, match="positive exponent"):
        sw.lp_atoms(float("nan"))
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    arrays = dict(js=[0], gammas=[[0]], values=[1.0])
    with pytest.raises(TypeError, match="normalization"):
        sw.CoefficientField(gs, **arrays)
    for tag in (None, "Lp"):
        with pytest.raises(ValueError, match="normalization tag"):
            sw.CoefficientField(gs, tag, **arrays)


def test_build_accumulates_and_floors():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    c = sw.CoefficientField(gs, sw.L1_ATOMS, floor=SPARSE_FLOOR, js=[0, 0, 0],
                            gammas=[[0], [0], [1]], values=[1.0, 1.0, 1e-20])
    assert as_dict(c)[sw.AtomIndex(0, (0,))] == 2.0
    assert sw.AtomIndex(0, (1,)) not in as_dict(c)
    with pytest.raises(ValueError):
        sw.CoefficientField(gs, sw.L1_ATOMS, floor=SPARSE_FLOOR, js=[0], gammas=[[0]],
                            values=[np.nan])


# -- array operations against dict references written out here ---------------

# small index and value ranges, so that shared indices, exact cancellations
# and equal moduli are common
tie_entries = st.dictionaries(
    keys=st.tuples(st.integers(-2, 2), st.tuples(st.integers(-3, 3))),
    values=st.sampled_from([1.0, -1.0, 2.0, 1j, -1j, 0.5 + 0.5j, -0.5 - 0.5j, 3.0 - 4.0j]),
    min_size=1, max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(a=tie_entries, b=tie_entries)
def test_field_add_sub_match_dict_reference(a, b):
    fa, fb = sparse_field(sw.abelian(1), a), sparse_field(sw.abelian(1), b)
    for op, sign in ((field_add, 1.0), (field_sub, -1.0)):
        ref = as_dict(fa)
        for k, v in as_dict(fb).items():
            ref[k] = ref.get(k, 0j) + sign * v
        ref = {k: v for k, v in ref.items() if v != 0}
        got = op(fa, fb)
        assert as_dict(got) == ref
        assert list(as_dict(got)) == sorted(ref)  # canonical order


@settings(max_examples=80, deadline=None)
@given(entries=tie_entries, M=st.integers(1, 14))
def test_reorder_and_q_m_match_dict_reference(entries, M):
    c = sparse_field(sw.abelian(1), entries)
    ref = sorted(as_dict(c).items(), key=lambda kv: (-abs(kv[1]), kv[0][0], kv[0][1]))
    items = list(as_dict(c).items())
    assert [items[k] for k in sw.rank_order(c)] == ref
    kept = sw.q_m(c, M)
    kept_items = list(as_dict(kept).items())
    assert [kept_items[k] for k in sw.rank_order(kept)] == ref[:M]
    assert as_dict(kept) == dict(sorted(ref[:M]))


@settings(max_examples=60, deadline=None)
@given(entries=field_entries, p=st.floats(1.1, 6.0), s=st.floats(-1.0, 1.0),
       q=st.floats(1.0, 4.0))
def test_convert_and_besov_match_dict_reference(entries, p, s, q):
    g = sw.abelian(1)
    c = sparse_field(g, entries)
    cp = sw.convert(c, sw.lp_atoms(p))
    assert as_dict(cp) == {k: v * 2.0 ** (k[0] * ((-1.0 / p) * g.Q))
                           for k, v in as_dict(c).items()}
    back = {k: v * 2.0 ** (k[0] * ((1.0 / p) * g.Q)) for k, v in as_dict(cp).items()}
    per_j: dict = {}
    for (j, _), v in sorted(back.items()):
        per_j.setdefault(j, []).append(abs(v))
    acc = 0.0
    for j, vals in per_j.items():
        inner = np.sum((2.0 ** (j * (s - g.Q / p)) * np.asarray(vals)) ** p) ** (1.0 / p)
        acc += inner**q
    assert sw.discrete_besov_norm(cp, sw.NormParams(s, p, q)) == float(acc ** (1.0 / q))


@settings(max_examples=60, deadline=None)
@given(big=tie_entries, picks=st.lists(st.floats(0.0, 1.2), min_size=12, max_size=12),
       extra=st.booleans())
def test_unconditionality_matches_dict_reference(big, picks, extra):
    fb = sparse_field(sw.abelian(1), big)
    small = {k: f * v for (k, v), f in zip(as_dict(fb).items(), picks)}
    if extra:
        small[(3, (9,))] = 1.0
    fs = sparse_field(sw.abelian(1), small)
    params = sw.NormParams(0.5, 2.0, 2.0)
    ref_big = as_dict(fb)
    if set(as_dict(fs)) - set(ref_big):
        expect = "supported"
    elif any(abs(v) > abs(ref_big[k]) + 1e-12 * abs(ref_big[k]) for k, v in as_dict(fs).items()):
        expect = "domination"
    else:
        expect = None
    if expect:
        with pytest.raises(ValueError, match=expect):
            unconditionality_ratio(fs, fb, params)
    else:
        ratio = unconditionality_ratio(fs, fb, params)
        assert ratio == sw.discrete_besov_norm(fs, params) / sw.discrete_besov_norm(fb, params)


def test_arrays_are_canonical_and_read_only():
    c = sparse_field(sw.abelian(2), {(1, (0, 1)): 1.0, (0, (5, -1)): 2.0, (0, (-3, 7)): 3.0,
                                     (1, (0, -1)): 4.0})
    assert c.js.dtype == np.int64 and c.gammas.shape == (4, 2) and c.values.dtype == complex
    assert c.js.tolist() == [0, 0, 1, 1]
    assert c.gammas.tolist() == [[-3, 7], [5, -1], [0, -1], [0, 1]]
    assert c.values.tolist() == [3.0, 2.0, 4.0, 1.0]
    for a in (c.js, c.gammas, c.values):
        with pytest.raises(ValueError):
            a[0] = 0
    assert not hasattr(c, "entries")


def test_array_constructor_sums_repeats_and_floors():
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    c = sw.CoefficientField(gs, normalization=sw.L1_ATOMS, floor=1e-14, js=[2, 0, 2, 0],
                            gammas=[[1], [0], [1], [3]], values=[1.0, 1e-20, 0.5j, 2.0])
    assert as_dict(c) == {(0, (3,)): 2.0, (2, (1,)): 1.0 + 0.5j}


@pytest.mark.parametrize("bad", [2**53 + 1, -(2**53) - 1, 10**30])
def test_int64_bound_refused(bad):
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    with pytest.raises(sw.DomainError, match="2\\^53"):
        sparse_field(g, {(0, (bad,)): 1.0})
    with pytest.raises(sw.DomainError, match="2\\^53"):
        sparse_field(g, {(bad, (0,)): 1.0})
    if abs(bad) < 2**63:
        with pytest.raises(sw.DomainError, match="2\\^53"):
            sw.CoefficientField(gs, normalization=sw.L1_ATOMS, js=[0], gammas=[[bad]],
                                values=[1.0])
    edge = sparse_field(g, {(0, (2**53,)): 1.0, (-(2**53), (0,)): 1.0})
    assert len(edge) == 2
