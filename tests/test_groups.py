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
    if g.kind == "custom":
        return
    gs = sw.preset_sampling_set(g, 0.5)
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
