"""Exact arithmetic on stratified Lie groups in exponential coordinates.

A group element is a flat real vector whose coordinates are grouped by
stratum.  Step-1 (abelian) and step-2 groups are supported; step-2 group
laws are given by an antisymmetric bracket tensor mapping the first
stratum into the second.

Every operation takes points as arrays of shape (..., dim): the last axis
holds the coordinates and the leading axes are a batch, broadcast between
operands like any NumPy elementwise operation.  A batched call equals the
single-point call row by row, and a single (dim,) point gives a (dim,)
array, or a float from `hom_norm`.

`dilation_weights` returns one shared read-only array per strata shape,
built once; a caller that needs to write copies it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._json import json_fields

__all__ = [
    "GroupSpec",
    "LayoutError",
    "DomainError",
    "abelian",
    "heisenberg",
    "multiply",
    "inverse",
    "identity",
    "dilate",
    "hom_norm",
    "critical_exponent",
    "dilation_weights",
    "validate_law",
    "group_to_json",
    "group_from_json",
]


class LayoutError(ValueError):
    """Point coordinates do not match the group's strata layout."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


@dataclass(frozen=True)
class GroupSpec:
    """A stratified group: strata dimensions, group law, homogeneous norm.

    kind is "abelian", "heisenberg" or "custom".  For step-2 groups the
    law is x.y = x + y + [x, y]/2 with the bracket stored as a read-only
    float tensor of shape (dim V2, dim V1, dim V1), antisymmetric in its
    last two axes; a step-1 group stores none.  Equality and hashing see
    the bracket.  The preset labels are reserved: "abelian" is step 1 and
    "heisenberg" is exactly `heisenberg(d)`.
    """

    strata_dims: tuple[int, ...]
    kind: str
    bracket: Optional[np.ndarray] = field(default=None, compare=False)
    # the bracket's bytes (-0.0 read as 0.0), which equality and hashing compare
    _bracket_bytes: Optional[bytes] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        dims = tuple(self.strata_dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError("strata_dims must be positive integers")
        if len(dims) > 2:
            raise DomainError("only step-1 and step-2 groups are supported")
        b, d1 = self.bracket, dims[0]
        b = None if b is None or np.size(b) == 0 else np.array(b, dtype=float)
        if len(dims) == 1 and b is not None:
            raise ValueError("a step-1 group has no bracket")
        if len(dims) == 2:
            if b is None or b.shape != (dims[1], d1, d1):
                raise ValueError("step-2 group needs a bracket of shape (dim V2, dim V1, dim V1)")
            if not (np.isfinite(b).all() and np.allclose(b, -b.transpose(0, 2, 1))):
                raise ValueError("bracket must be finite and antisymmetric")
            b.flags.writeable = False
        for name, value in (("strata_dims", dims), ("bracket", b),
                            ("_bracket_bytes", None if b is None else (b + 0.0).tobytes())):
            object.__setattr__(self, name, value)
        if self.kind == "abelian" and b is not None or self.kind == "heisenberg" and not (
                dims == (d1, 1) and d1 % 2 == 0
                and np.array_equal(b, _heisenberg_bracket(d1 // 2))):
            raise ValueError(f"strata {dims} and this bracket are not a {self.kind} preset's")

    @property
    def dim(self) -> int:
        return sum(self.strata_dims)

    @property
    def step(self) -> int:
        return len(self.strata_dims)

    @property
    def Q(self) -> int:
        return sum((k + 1) * d for k, d in enumerate(self.strata_dims))


def abelian(d: int) -> GroupSpec:
    return GroupSpec(strata_dims=(d,), kind="abelian")


def _heisenberg_bracket(d: int) -> np.ndarray:
    """[e_i, e_{d+i}] = e_t, the bracket of H^d."""
    b = np.zeros((1, 2 * d, 2 * d))
    for i in range(d):
        b[0, i, d + i] = 1.0
        b[0, d + i, i] = -1.0
    return b


def heisenberg(d: int) -> GroupSpec:
    """Heisenberg group H^d: strata (2d, 1), [e_i, e_{d+i}] = e_t."""
    return GroupSpec(strata_dims=(2 * d, 1), kind="heisenberg", bracket=_heisenberg_bracket(d))


def _as_points(g: GroupSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != g.dim:
        raise LayoutError(f"expected {g.dim} coordinates on the last axis, got shape {x.shape}")
    return x


def identity(g: GroupSpec) -> np.ndarray:
    return np.zeros(g.dim)


def multiply(g: GroupSpec, x, y) -> np.ndarray:
    """x.y = x + y + [x, y]/2, with [x, y]_k = sum_i x_i b_k(e_i, y).

    b_k(e_i, y) comes from one contraction of the bracket with y, and the sum
    over i runs in ascending i from 0.  On a bracket with at most one nonzero
    per (k, i) row, each +-1 (H^d, N_{3,2} and the pinned custom groups), every
    product is exact and this is the order of the triple sum over (i, j), so
    the digests pinned in tests/test_lattice_pins.py hold bit for bit; any
    other bracket agrees with that sum to rounding.
    """
    x, y = _as_points(g, x), _as_points(g, y)
    out = x + y
    if g.step == 2:
        d1 = g.strata_dims[0]
        x1, by = x[..., :d1], np.einsum("kij,...j->...ik", g.bracket, y[..., :d1])
        acc = 0.0
        for i in range(d1):
            acc = acc + x1[..., i, None] * by[..., i, :]
        out[..., d1:] += 0.5 * acc
    return out


def inverse(g: GroupSpec, x) -> np.ndarray:
    # exponential coordinates of the first kind: inversion is negation
    # (asserted by test_groups for both presets, not assumed silently)
    return -_as_points(g, x)


def dilation_weights(g: GroupSpec) -> np.ndarray:
    """The dilation degree k of each coordinate of stratum k, as floats; a
    read-only array built once per strata shape and shared by every caller."""
    return _dilation_weights(g.strata_dims)


@functools.lru_cache(maxsize=16)
def _dilation_weights(strata_dims: tuple[int, ...]) -> np.ndarray:
    w = np.concatenate([np.full(d, k + 1.0) for k, d in enumerate(strata_dims)])
    w.setflags(write=False)
    return w


def dilate(g: GroupSpec, alpha, x) -> np.ndarray:
    """delta_alpha(x); alpha is a scalar or an array over x's leading axes.

    DomainError for an alpha that is not positive and finite, or whose power
    alpha^k on stratum k overflows float64; a power that underflows to 0 is
    allowed.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not (alpha > 0).all():  # NaN included
        raise DomainError(f"dilation parameter must be positive and finite, got "
                          f"{float(alpha[~(alpha > 0)].flat[0])!r}")
    top, k = float(alpha.max(initial=1.0)), g.step  # alpha^k is largest on the last stratum
    try:
        finite = top**k < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"dilation parameter alpha = {top!r} has alpha^{k}, the "
                          f"factor of stratum {k}, beyond float64")
    return _as_points(g, x) * alpha[..., None] ** dilation_weights(g)


def hom_norm(g: GroupSpec, x):
    """Homogeneous norm: Euclidean for abelian, Koranyi-type for step 2.

    Step 2: (|v1|^4 + 16 |v2|^2)^(1/4); on H^1 this is the classical
    ((x^2+y^2)^2 + 16 t^2)^(1/4).  Returns a float for a single point and
    an array of shape x.shape[:-1] for a batch.

    Each |v_k|^2 sums the squares of its stratum column by column, in
    coordinate order.  On a stratum of fewer than 8 coordinates that is
    NumPy's own `(x**2).sum(axis=-1)` bit for bit, which the pinned digests
    rely on; from 8 coordinates up NumPy sums pairwise, and the norms of the
    two orders differ by a few units in the last place (at most 2 on 8
    coordinates and 4 on 64 in 20000 random points).
    """
    x = _as_points(g, x)
    d1 = g.strata_dims[0]
    v1 = _sum_of_squares(x, 0, d1)
    if g.step == 1:
        out = np.sqrt(v1)
    else:
        # two correctly rounded square roots, so that a batch and its rows agree
        out = np.sqrt(np.sqrt(v1 * v1 + 16.0 * _sum_of_squares(x, d1, g.dim)))
    return float(out) if out.ndim == 0 else out


def _sum_of_squares(x: np.ndarray, lo: int, hi: int):
    """x_lo^2 + ... + x_{hi-1}^2 over the last axis, summed left to right."""
    acc = x[..., lo] * x[..., lo]
    for i in range(lo + 1, hi):
        acc = acc + x[..., i] * x[..., i]
    return acc


def critical_exponent(g: GroupSpec, s: float) -> float:
    """Lebesgue exponent p paired with smoothness s by s/Q + 1/p = 1/2."""
    Q = g.Q
    if not 0 < s < Q / 2:
        raise DomainError(f"s must lie in (0, Q/2) = (0, {Q / 2}), got {s}")
    return 1.0 / (0.5 - s / Q)


def validate_law(g: GroupSpec, n_triples: int = 200, tol: float = 1e-12, seed: int = 0) -> float:
    """Fuzz the group law: associativity, identity, inverses on random triples.

    Returns the worst absolute defect found; raises if it exceeds tol.
    """
    rng = np.random.default_rng(seed)
    x, y, z = rng.normal(size=(n_triples, 3, g.dim)).transpose(1, 0, 2)
    e = identity(g)
    defects = (multiply(g, multiply(g, x, y), z) - multiply(g, x, multiply(g, y, z)),
               multiply(g, x, e) - x,
               multiply(g, x, inverse(g, x)) - e)
    worst = max(float(np.max(np.abs(d), initial=0.0)) for d in defects)
    if worst > tol:
        raise ValueError(f"group law validation failed: defect {worst:.3e} > {tol:.1e}")
    return worst


def group_to_json(g: GroupSpec) -> dict:
    if g.kind == "abelian":
        return {"kind": "abelian", "d": g.strata_dims[0]}
    if g.kind == "heisenberg":
        return {"kind": "heisenberg", "d": g.strata_dims[0] // 2}
    return {
        "kind": "custom",
        "strata_dims": list(g.strata_dims),
        "law": "custom",
        "coefficients": [] if g.bracket is None else g.bracket.tolist(),
    }


# largest dimension group_from_json builds: a custom law's validation and a
# Heisenberg bracket allocate O(dim^2) to O(dim^3) floats
MAX_JSON_DIM = 64
# the fields of each group kind: JSON kind and default (required when none is given)
_GROUP_FIELDS = {"abelian": {"d": ("integer",)}, "heisenberg": {"d": ("integer",)},
                 "custom": {"strata_dims": ("list of integer",),
                            "coefficients": ("list of list of list of number",)}}


def group_from_json(obj: dict) -> GroupSpec:
    kind = json_fields(obj, {"kind": ("string",)}, "group")["kind"]
    if kind not in _GROUP_FIELDS:
        raise ValueError(f"unknown group kind {kind!r}")
    f = json_fields(obj, _GROUP_FIELDS[kind], f"{kind} group")
    if kind != "custom":
        d = f["d"]
        if not 1 <= (d if kind == "abelian" else 2 * d + 1) <= MAX_JSON_DIM:
            raise DomainError(f"{kind} group of dimension parameter {d} outside "
                              f"1..{MAX_JSON_DIM} coordinates")
        return abelian(d) if kind == "abelian" else heisenberg(d)
    if sum(f["strata_dims"]) > MAX_JSON_DIM:
        raise DomainError(f"custom group with more than {MAX_JSON_DIM} coordinates")
    g = GroupSpec(strata_dims=f["strata_dims"], kind="custom",
                  bracket=np.asarray(f["coefficients"], dtype=float))
    validate_law(g)
    return g
