"""Group arithmetic: axioms, dilations, homogeneous norms, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import custom_3_2
from test_lattice_pins import PIN_GROUPS
from stratwave.groups import (
    DomainError,
    LayoutError,
    dilation_weights,
    group_from_json,
    group_to_json,
    identity,
)

GROUPS = [sw.abelian(1), sw.abelian(3), sw.heisenberg(1), sw.heisenberg(2)]
BATCH_GROUPS = [sw.abelian(1), sw.abelian(2), sw.abelian(3), sw.heisenberg(1),
                sw.heisenberg(2), custom_3_2()]

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def points(g, n):
    return st.lists(
        st.lists(coord, min_size=g.dim, max_size=g.dim), min_size=n, max_size=n
    )


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: f"{g.kind}{g.dim}")
class TestAxioms:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_associativity(self, g, data):
        x, y, z = data.draw(points(g, 3))
        a = sw.multiply(g, sw.multiply(g, x, y), z)
        b = sw.multiply(g, x, sw.multiply(g, y, z))
        assert np.max(np.abs(a - b)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_identity_and_inverse(self, g, data):
        (x,) = data.draw(points(g, 1))
        e = identity(g)
        assert np.allclose(sw.multiply(g, x, e), x, atol=1e-12)
        assert np.allclose(sw.multiply(g, e, x), x, atol=1e-12)
        assert np.max(np.abs(sw.multiply(g, x, sw.inverse(g, x)))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), alpha=st.floats(0.1, 8.0))
    def test_dilation_automorphism(self, g, data, alpha):
        x, y = data.draw(points(g, 2))
        a = sw.dilate(g, alpha, sw.multiply(g, x, y))
        b = sw.multiply(g, sw.dilate(g, alpha, x), sw.dilate(g, alpha, y))
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), alpha=st.floats(0.1, 8.0))
    def test_norm_homogeneity_and_symmetry(self, g, data, alpha):
        (x,) = data.draw(points(g, 1))
        n = sw.hom_norm(g, x)
        assert sw.hom_norm(g, sw.dilate(g, alpha, x)) == pytest.approx(
            alpha * n, rel=1e-10, abs=1e-12)
        assert sw.hom_norm(g, sw.inverse(g, x)) == pytest.approx(n, rel=1e-12, abs=0)

    def test_validate_law(self, g):
        assert sw.validate_law(g, n_triples=100) <= 1e-12


@pytest.mark.parametrize("g", BATCH_GROUPS, ids=lambda g: f"{g.kind}{g.strata_dims}")
@settings(max_examples=30, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(1,), (5,), (2, 3)]),
       alpha=st.floats(0.1, 8.0))
def test_batched_law_matches_rows(g, data, shape, alpha):
    # a (..., dim) call equals the single-point call on every row, exactly
    n = int(np.prod(shape))
    x, y = (np.reshape(data.draw(points(g, n)), shape + (g.dim,)) for _ in range(2))
    rows = [(i, x[i], y[i]) for i in np.ndindex(*shape)]
    prod, inv, dil = sw.multiply(g, x, y), sw.inverse(g, x), sw.dilate(g, alpha, x)
    norms = sw.hom_norm(g, x)
    assert norms.shape == shape
    for i, xi, yi in rows:
        assert np.array_equal(prod[i], sw.multiply(g, xi, yi))
        assert np.array_equal(inv[i], sw.inverse(g, xi))
        assert np.array_equal(dil[i], sw.dilate(g, alpha, xi))
        single = sw.hom_norm(g, xi)
        assert type(single) is float and norms[i] == single
    # broadcasting one point against a batch, and one dilation per row
    assert np.array_equal(sw.multiply(g, x[0], y)[0], sw.multiply(g, x[0], y[0]))
    alphas = np.full(shape, alpha)
    assert np.array_equal(sw.dilate(g, alphas, x), dil)
    gs = sw.SamplingSet(g, 0.5)
    gam = np.reshape(data.draw(st.lists(st.integers(-50, 50), min_size=n * g.dim,
                                        max_size=n * g.dim)), shape + (g.dim,))
    pts = gs.decode(gam)
    assert np.array_equal(gs.encode(pts), gam)
    for i in np.ndindex(*shape):
        assert np.array_equal(pts[i], gs.decode(tuple(int(v) for v in gam[i])))
        assert gs.encode(pts[i]) == tuple(int(v) for v in gam[i])


def test_batched_layout_error():
    with pytest.raises(LayoutError):
        sw.multiply(sw.heisenberg(1), np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(LayoutError):
        sw.hom_norm(sw.abelian(2), 1.0)
    with pytest.raises(DomainError):
        sw.dilate(sw.abelian(1), np.array([1.0, 0.0]), np.zeros((2, 1)))


def test_koranyi_norm_is_the_only_norm():
    # the ignored norm_kind field is gone: (1, 0, 1) on H^1 has the
    # Koranyi value (1 + 16)^(1/4), never the Euclidean sqrt(2)
    g = sw.heisenberg(1)
    assert sw.hom_norm(g, [1.0, 0.0, 1.0]) == pytest.approx(17.0 ** 0.25, rel=1e-15)
    with pytest.raises(TypeError):
        sw.GroupSpec(strata_dims=(2,), kind="abelian", norm_kind="euclidean")


def test_hom_dimension_values():
    # [TRIVIAL] Q = sum k dim V_k
    assert sw.abelian(3).Q == 3
    assert sw.heisenberg(1).Q == 4
    assert sw.heisenberg(2).Q == 6


def test_koranyi_reference_value():
    # [PAPER] the gauge of the central generator (0, 0, 1) on the
    # 3-dimensional step-2 group: (0 + 16 * 1)^(1/4) = 2
    g = sw.heisenberg(1)
    assert sw.hom_norm(g, np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0, abs=1e-14)


def test_heisenberg_central_commutator():
    # [DERIVED] (1,0,0).(0,1,0).(1,0,0)^{-1}.(0,1,0)^{-1} = (0,0,1)
    g = sw.heisenberg(1)
    a, b = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    comm = sw.multiply(g, sw.multiply(g, a, b),
                       sw.multiply(g, sw.inverse(g, a), sw.inverse(g, b)))
    assert np.allclose(comm, [0, 0, 1.0], atol=1e-14)


def test_critical_exponent_oracle():
    # [DERIVED] 1/p = 1/2 - s/Q
    g = sw.heisenberg(1)  # Q = 4
    assert sw.critical_exponent(g, 1.0) == pytest.approx(4.0)
    assert sw.critical_exponent(sw.abelian(1), 0.25) == pytest.approx(4.0)
    s = 0.5
    p = sw.critical_exponent(g, s)
    assert s / g.Q + 1.0 / p == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(DomainError):
        sw.critical_exponent(g, 0.0)
    with pytest.raises(DomainError):
        sw.critical_exponent(g, 2.0)
    with pytest.raises(DomainError):
        sw.critical_exponent(g, -1.0)


def test_dilation_weights():
    assert np.allclose(dilation_weights(sw.abelian(2)), [1, 1])
    assert np.allclose(dilation_weights(sw.heisenberg(1)), [1, 1, 2])


def test_dilation_weights_are_one_shared_read_only_array():
    w = dilation_weights(custom_3_2())
    assert w.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0]
    assert dilation_weights(custom_3_2()) is w
    with pytest.raises(ValueError):
        w[0] = 3.0
    with pytest.raises(ValueError):
        w += 1.0
    assert dilation_weights(custom_3_2()).tolist() == [1.0, 1.0, 1.0, 2.0, 2.0]


def test_layout_error():
    with pytest.raises(LayoutError):
        sw.multiply(sw.heisenberg(1), [1.0, 2.0], [0.0, 0.0, 0.0])


def test_dilate_domain():
    with pytest.raises(DomainError):
        sw.dilate(sw.abelian(1), -2.0, [1.0])


@pytest.mark.parametrize("alpha, message", [
    (np.nan, "positive and finite, got nan"),
    (np.inf, r"alpha = inf has alpha\^2"),
    (1e200, r"alpha = 1e\+200 has alpha\^2, the factor of stratum 2"),
    ([2.0, np.nan], "positive and finite, got nan"),
    ([0.5, 2.0**600], r"alpha = 4.149515568880993e\+180 has alpha\^2"),
], ids=["nan", "inf", "square-overflows", "nan-row", "row-square-overflows"])
def test_dilate_refuses_non_finite_factors(alpha, message):
    with pytest.raises(DomainError, match=message):
        sw.dilate(sw.heisenberg(1), alpha, np.ones((np.size(alpha), 3)))


@pytest.mark.filterwarnings("error")
def test_dilate_allows_underflow_and_first_stratum_scales():
    g = sw.heisenberg(1)
    assert sw.dilate(g, 1e-200, [1.0, -1.0, 1.0]).tolist() == [1e-200, -1e-200, 0.0]
    # alpha^2 fits at 1e154; on a step-1 group alpha itself is the only factor
    assert sw.dilate(g, 1e154, [1.0, 0.0, 1.0]).tolist() == [1e154, 0.0, 1e154 ** 2]
    assert sw.dilate(sw.abelian(2), 1e300, [1.0, 2.0]).tolist() == [1e300, 2e300]
    assert sw.dilate(g, np.zeros(0) + 2.0, np.zeros((0, 3))).shape == (0, 3)


def test_multiply_matches_the_triple_sum_on_a_dense_bracket():
    # every (k, i) row of this bracket has two nonzeros of arbitrary size, so the
    # row-by-row cross term agrees with the (i, j) triple sum to rounding only
    rng = np.random.default_rng(2024)
    upper = np.triu(rng.normal(size=(2, 3, 3)), k=1)
    b = upper - upper.transpose(0, 2, 1)
    g = sw.GroupSpec(strata_dims=(3, 2), kind="custom", bracket=b)
    x, y = rng.normal(scale=3.0, size=(2, 50, 5))
    for left in (x, x[0]):
        ref = left + y
        ref[:, 3:] += 0.5 * np.einsum("kij,pi,pj->pk", b, np.broadcast_to(left[..., :3], (50, 3)),
                                      y[:, :3])
        np.testing.assert_allclose(sw.multiply(g, left, y), ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(PIN_GROUPS))
def test_pinned_groups_batches_equal_rows_bit_for_bit(name):
    g = PIN_GROUPS[name]
    rng = np.random.default_rng([31, g.dim])
    x, y = rng.normal(scale=3.0, size=(2, 4, 6, g.dim))
    alpha = rng.uniform(0.1, 8.0, size=(4, 6))
    prod, left, dil, norms = (sw.multiply(g, x, y), sw.multiply(g, x[0, 0], y),
                              sw.dilate(g, alpha, x), sw.hom_norm(g, x))
    for i in np.ndindex(4, 6):
        assert prod[i].tobytes() == sw.multiply(g, x[i], y[i]).tobytes()
        assert left[i].tobytes() == sw.multiply(g, x[0, 0], y[i]).tobytes()
        assert dil[i].tobytes() == sw.dilate(g, alpha[i], x[i]).tobytes()
        assert norms[i].tobytes() == np.float64(sw.hom_norm(g, x[i])).tobytes()


def test_json_roundtrip():
    for g in GROUPS:
        g2 = group_from_json(group_to_json(g))
        assert g2.kind == g.kind and g2.strata_dims == g.strata_dims


def test_custom_group_json_validated():
    g = sw.heisenberg(1)
    obj = {"kind": "custom", "strata_dims": [2, 1], "law": "custom",
           "coefficients": g.bracket.tolist()}
    g2 = group_from_json(obj)
    assert sw.validate_law(g2) <= 1e-12
    bad = {"kind": "custom", "strata_dims": [2, 1], "law": "custom",
           "coefficients": [[[1.0, 0.0], [0.0, 1.0]]]}  # not antisymmetric
    with pytest.raises(ValueError):
        group_from_json(bad)


def test_group_equality_sees_the_bracket():
    b = custom_3_2().bracket
    plus = sw.GroupSpec(strata_dims=(3, 2), kind="custom", bracket=b)
    minus = sw.GroupSpec(strata_dims=(3, 2), kind="custom", bracket=-b)
    assert plus != minus and hash(plus) != hash(minus) and len({plus, minus}) == 2
    assert sw.SamplingSet(plus, 1.0) != sw.SamplingSet(minus, 1.0)
    # equal values are equal groups, whatever the array or the sign of a zero
    same = sw.GroupSpec(strata_dims=(3, 2), kind="custom", bracket=np.where(b == 0, -0.0, b))
    assert same == plus and hash(same) == hash(plus)
    assert group_from_json(group_to_json(minus)) == minus
    # the bracket is read-only, so the hash cannot go stale
    with pytest.raises(ValueError):
        plus.bracket[0, 0, 1] = 2.0


def test_step_1_groups_store_no_bracket():
    g = sw.GroupSpec(strata_dims=(2,), kind="custom")
    from_json = group_from_json({"kind": "custom", "strata_dims": [2], "coefficients": []})
    assert g.bracket is None and from_json.bracket is None and from_json == g
    assert group_to_json(g) == {"kind": "custom", "strata_dims": [2], "law": "custom",
                                "coefficients": []}
    assert group_from_json(group_to_json(g)) == g
    with pytest.raises(ValueError, match="no bracket"):
        sw.GroupSpec(strata_dims=(2,), kind="custom", bracket=np.ones((1, 1, 1)))


@pytest.mark.parametrize("make", [
    # the H^1 layout under the Heisenberg label but with the opposite bracket
    lambda: sw.GroupSpec(strata_dims=(2, 1), kind="heisenberg",
                         bracket=-sw.heisenberg(1).bracket),
    # [e0, e1] = [e2, e3] = f: H^2 pairs e0 with e2 and e1 with e3
    lambda: sw.GroupSpec(strata_dims=(4, 1), kind="heisenberg", bracket=np.array(
        [[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]], dtype=float)),
    lambda: sw.GroupSpec(strata_dims=(3, 2), kind="heisenberg", bracket=custom_3_2().bracket),
    lambda: sw.GroupSpec(strata_dims=(2,), kind="heisenberg"),
    lambda: sw.GroupSpec(strata_dims=(2, 1), kind="abelian", bracket=sw.heisenberg(1).bracket),
], ids=["heisenberg-flipped", "heisenberg-4+1-pairs", "heisenberg-3+2", "heisenberg-step-1",
        "abelian-step-2"])
def test_preset_labels_must_be_the_presets(make):
    with pytest.raises(ValueError, match="preset"):
        make()


def test_flipped_heisenberg_bracket_round_trips_as_custom():
    # written under the preset label it read back with the opposite centre
    g = sw.GroupSpec(strata_dims=(2, 1), kind="custom", bracket=-sw.heisenberg(1).bracket)
    back = group_from_json(group_to_json(g))
    assert back == g and back != sw.heisenberg(1)
    e1, e2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    assert sw.multiply(back, e1, e2)[-1] == -0.5
    assert sw.multiply(sw.heisenberg(1), e1, e2)[-1] == 0.5


def test_group_spec_refuses_three_strata():
    with pytest.raises(DomainError, match="only step-1 and step-2"):
        sw.GroupSpec(strata_dims=(1, 1, 1), kind="custom")


def test_group_from_json_refuses_large_dimensions():
    assert group_from_json({"kind": "heisenberg", "d": 31}).dim == 63
    for bad in ({"kind": "heisenberg", "d": 32}, {"kind": "abelian", "d": 65},
                {"kind": "abelian", "d": 0},
                {"kind": "custom", "strata_dims": [40, 30], "coefficients": []}):
        with pytest.raises(sw.DomainError, match="64"):
            group_from_json(bad)


H1_BRACKET = sw.heisenberg(1).bracket.tolist()


@pytest.mark.parametrize("obj, message", [
    ({"kind": "heisenberg", "d": 1.9}, "d must be a JSON integer"),
    ({"kind": "abelian", "d": True}, "d must be a JSON integer"),
    ({"kind": "abelian", "d": "2"}, "d must be a JSON integer"),
    ({"kind": "abelian"}, "has no field 'd'"),
    ({"kind": 5, "d": 1}, "kind must be a JSON string"),
    ([], "group must be a JSON object"),
    ({"kind": "custom", "strata_dims": [2.0, 1], "coefficients": H1_BRACKET},
     r"strata_dims\[0\] must be a JSON integer"),
    ({"kind": "custom", "strata_dims": [2, 1], "coefficients": [[["0", 1.0], [-1.0, 0.0]]]},
     r"coefficients\[0\]\[0\]\[0\] must be a JSON number"),
    ({"kind": "custom", "strata_dims": [2, 1], "coefficients": [[[0.0, True], [-1.0, 0.0]]]},
     r"coefficients\[0\]\[0\]\[1\] must be a JSON number"),
    ({"kind": "custom", "strata_dims": [2, 1],
      "coefficients": [[[0.0, 1.0], [-1.0, float("nan")]]]},
     r"coefficients\[0\]\[1\]\[1\] must be a JSON number"),
    ({"kind": "custom", "strata_dims": [2, 1], "coefficients": [[0.0, 1.0]]},
     r"coefficients\[0\]\[0\] must be a JSON list"),
], ids=["float-d", "bool-d", "string-d", "no-d", "int-kind", "list", "float-strata",
        "string-coefficient", "bool-coefficient", "nan-coefficient", "shallow-coefficients"])
def test_group_from_json_refuses_mistyped_fields(obj, message):
    with pytest.raises(ValueError, match=message):
        group_from_json(obj)
