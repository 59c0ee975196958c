"""Shared fixtures: groups, sampling sets, grids, and the function corpus."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

import stratwave as sw


@pytest.fixture(scope="session")
def ab1():
    return sw.abelian(1)


@pytest.fixture(scope="session")
def heis1():
    return sw.heisenberg(1)


@pytest.fixture(scope="session")
def ab1_lattice(ab1):
    return sw.preset_sampling_set(ab1, 1.0)


@pytest.fixture(scope="session")
def heis1_lattice(heis1):
    return sw.preset_sampling_set(heis1, 1.0)


def custom_3_2():
    """Step-2 group with strata (3, 2): [e0, e1] = f0, [e1, e2] = f1."""
    b = np.zeros((2, 3, 3))
    b[0, 0, 1], b[1, 1, 2] = 1.0, 1.0
    return sw.GroupSpec(strata_dims=(3, 2), kind="custom", bracket=b - b.transpose(0, 2, 1))


def free_3_2():
    """The free step-2 nilpotent group N_{3,2}: strata (3, 3), [e_i, e_j] = f_k
    for the pairs (i, j) = (0, 1), (0, 2), (1, 2) in that order."""
    b = np.zeros((3, 3, 3))
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        b[k, i, j], b[k, j, i] = 1.0, -1.0
    return sw.GroupSpec(strata_dims=(3, 3), kind="custom", bracket=b)


@st.composite
def integer_step_2_groups(draw, max_d1=4, max_d2=3, max_entry=3):
    """Custom step-2 groups with integer antisymmetric brackets, d1 <= 4 and d2 <= 3."""
    d1, d2 = draw(st.integers(1, max_d1)), draw(st.integers(1, max_d2))
    upper = np.array(draw(st.lists(st.integers(-max_entry, max_entry),
                                   min_size=d2 * d1 * d1, max_size=d2 * d1 * d1)),
                     dtype=float).reshape(d2, d1, d1)
    upper = np.triu(upper, k=1)
    return sw.GroupSpec(strata_dims=(d1, d2), kind="custom",
                        bracket=upper - upper.transpose(0, 2, 1))


def field_of(gs, mapping, normalization) -> sw.CoefficientField:
    """A field from a mapping (j, gamma) -> value, through the array constructor."""
    return sw.CoefficientField(gs, normalization=normalization, js=[k[0] for k in mapping],
                               gammas=[k[1] for k in mapping], values=list(mapping.values()))


def as_dict(c: sw.CoefficientField) -> dict:
    """{AtomIndex: complex} of a field's arrays, in canonical order."""
    return {sw.AtomIndex(j, tuple(g)): v
            for j, g, v in zip(c.js.tolist(), c.gammas.tolist(), c.values.tolist())}


def make_grid(n: int = 256, extent: float = 8.0) -> sw.GridFunction:
    return sw.GridFunction(1, extent, np.zeros(n, dtype=complex))


def gaussian_1d(n: int = 256, extent: float = 8.0, sigma: float = 1.0,
                center: float = 0.0) -> sw.GridFunction:
    desc = sw.GridDescriptor(1, n, extent)
    return sw.GridFunction.from_callable(
        desc, lambda x: np.exp(-np.pi * ((x - center) / sigma) ** 2))


def corpus_1d(n: int = 256, extent: float = 8.0) -> list[sw.GridFunction]:
    """20 functions: plain bumps, modulated bumps, multi-scale sums.

    All are well localized inside the torus and spectrally confined below
    half the grid's Nyquist rate, so a dyadic compression keeps them
    representable on the same grid.
    """
    desc = sw.GridDescriptor(1, n, extent)

    def make(fn):
        return sw.GridFunction.from_callable(desc, fn)

    out = []
    for sigma in (0.4, 0.7, 1.0, 1.6):                       # 4 bumps
        out.append(make(lambda x, s=sigma: np.exp(-np.pi * (x / s) ** 2)))
    for center in (-1.5, 0.5, 2.0):                          # 3 shifted bumps
        out.append(make(lambda x, c=center: np.exp(-np.pi * (x - c) ** 2)))
    for freq in (0.5, 1.0, 2.0, 3.0):                        # 4 modulated bumps
        out.append(make(lambda x, f=freq:
                        np.exp(-np.pi * x**2) * np.exp(2j * np.pi * f * x)))
    for freq, sigma in ((1.5, 0.5), (2.5, 0.8), (0.8, 1.4)):  # 3 chirp-like
        out.append(make(lambda x, f=freq, s=sigma:
                        np.exp(-np.pi * (x / s) ** 2) * np.cos(2 * np.pi * f * x)))
    # 6 multi-scale sums
    combos = [
        ((0.3, 0.0, 1.0), (1.5, 1.0, 0.5)),
        ((0.5, -1.0, 1.0), (1.2, 1.5, -0.7)),
        ((0.4, 0.0, 1.0), (0.9, 0.0, 1.0)),
        ((0.6, -2.0, 0.8), (1.8, 2.0, 0.6)),
        ((0.35, 1.0, 1.0), (1.4, -1.5, 0.9)),
        ((0.5, 0.5, 1.0), (1.0, -0.5, -1.0)),
    ]
    for (s1, c1, a1), (s2, c2, a2) in combos:
        out.append(make(lambda x, s1=s1, c1=c1, a1=a1, s2=s2, c2=c2, a2=a2:
                        a1 * np.exp(-np.pi * ((x - c1) / s1) ** 2)
                        + a2 * np.exp(-np.pi * ((x - c2) / s2) ** 2)))
    assert len(out) == 20
    return out


def two_profile_spec(dim: int, horizon: int = 32) -> sw.GeneratorSpec:
    """Mixture of a concentrating track and a translating track.

    Bundle moduli are pairwise distinct so per-snapshot rankings follow
    the same bundle atom at every n.
    """
    zero = (0,) * dim
    e1 = (1,) + (0,) * (dim - 1)
    e2 = (2,) + (0,) * (dim - 1)
    track_scale = sw.TrackSpec(
        j0=0, j_slope=1, gamma0=zero, gamma_slope=zero,
        bundle=(sw.BundleAtom(0, zero, 1.0), sw.BundleAtom(1, e1, 0.5)),
    )
    track_core = sw.TrackSpec(
        j0=0, j_slope=0, gamma0=(7,) + (0,) * (dim - 1),
        gamma_slope=tuple(4 * v for v in e1),
        bundle=(sw.BundleAtom(0, zero, 0.8), sw.BundleAtom(0, e2, 0.3)),
    )
    return sw.GeneratorSpec(kind="mixture", tracks=(track_scale, track_core),
                            horizon=horizon, p=2.0)


def check_bookkeeping(dec, atol: float = 1e-12) -> None:
    """Structural invariants of a decomposition: membership partition,
    unit growth of the profile count, nesting, and M-independence of the
    reconstructed remainder."""
    M_eff = dec.M_eff
    nu = dec.nu_curve
    assert len(nu) == M_eff
    assert nu[0] == 1
    for M in range(1, M_eff):
        assert nu[M] - nu[M - 1] in (0, 1)
    for M in range(1, M_eff + 1):
        covered = []
        for ell in range(1, nu[M - 1] + 1):
            covered.extend(dec.members_up_to(ell, M))
        assert sorted(covered) == list(range(1, M + 1))
    for ell in range(1, len(dec.profiles) + 1):
        for M in range(1, M_eff):
            small = set(dec.members_up_to(ell, M))
            assert small <= set(dec.members_up_to(ell, M + 1))
    # r1 + r2 reconstructs u_n - sum of exact profile copies, for every M
    from stratwave.profiles import remainder_split
    n_last = dec.snapshots.horizon - 1
    for L in range(0, min(2, len(dec.profiles)) + 1):
        reference = None
        for M in range(max(L, 1), M_eff + 1):
            sp = remainder_split(dec, n_last, L, M)
            combined = as_dict(sp["r1_field"])
            for idx, val in as_dict(sp["r2_field"]).items():
                combined[idx] = combined.get(idx, 0j) + val
            if reference is None:
                reference = combined
            else:
                keys = set(reference) | set(combined)
                for k in keys:
                    assert abs(reference.get(k, 0j) - combined.get(k, 0j)) <= atol
