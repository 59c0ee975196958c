"""Group arithmetic: axioms, dilations, homogeneous norms, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from conftest import custom_3_2
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
