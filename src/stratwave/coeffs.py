"""Group-agnostic coefficient algebra on sparse wavelet index sets.

A CoefficientField(sampling, entries, normalization, *, js=, gammas=,
values=, floor=) takes dim and Q from `sampling.group` and holds
its entries as read-only arrays in canonical order, lexicographic in
(j, gamma), with no index repeated: `js` (P,) and `gammas` (P, dim) int64
within sampling.MAX_LATTICE_COORD, `values` (P,) complex128.
The constructor sorts a mapping AtomIndex -> value, or index and value
arrays, into that order; `.entries` derives the mapping back.  Sums over a
field run in canonical order, and equal moduli rank by position.

A CoefficientField carries a normalization tag, and is refused without
one; two fields combine only on one sampling set.  "L1" entries are sampled
convolution values c = (u * psi_j^*)(2^{-j} . gamma); "Lp" entries are the
synthesis coefficients against L^p-normalized atoms, d = 2^{-jQ/p} c.  The
factor is pinned by the requirement that the discrete Besov norm at the
critical (s, 2, 2) parameters coincide exactly with the plain l2 norm of
the L^p-tagged moduli.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from .sampling import AtomIndex, SamplingSet, lattice_int64

__all__ = [
    "Normalization",
    "L1_ATOMS",
    "lp_atoms",
    "CoefficientField",
    "NormParams",
    "ConversionRequired",
    "convert",
    "discrete_besov_norm",
    "sobolev_seq_norm",
    "rank_order",
    "q_m",
    "mterm_error_curve",
    "unconditionality_ratio",
    "field_add",
    "field_sub",
]

SPARSE_FLOOR = 1e-14


class ConversionRequired(ValueError):
    """Operation needs a different normalization tag."""


@dataclass(frozen=True)
class Normalization:
    kind: str  # "L1" or "Lp"
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("L1", "Lp") or self.kind == "L1" and self.p is not None:
            raise ValueError(f"a normalization tag is 'L1' or 'Lp' with an exponent, got {self}")
        if self.kind == "Lp" and (self.p is None or not self.p > 0):
            raise ValueError(f"Lp normalization needs a positive exponent, got {self.p}")

    def label(self) -> str:
        return "L1" if self.kind == "L1" else f"Lp({self.p:g})"


L1_ATOMS = Normalization("L1")


def lp_atoms(p: float) -> Normalization:
    return Normalization("Lp", float(p))


@dataclass(frozen=True, eq=False, init=False)
class CoefficientField:
    sampling: SamplingSet
    normalization: Normalization
    js: np.ndarray       # (P,) int64
    gammas: np.ndarray   # (P, dim) int64
    values: np.ndarray   # (P,) complex128

    def __init__(self, sampling: SamplingSet, entries: Optional[Mapping] = None,
                 normalization: Optional[Normalization] = None, *, js=(), gammas=(), values=(),
                 floor: Optional[float] = None):
        """From a mapping AtomIndex -> value or from index and value arrays, in
        any order; values sharing an index are summed in input order, and with
        a floor, moduli at most floor * the largest are dropped."""
        if not isinstance(normalization, Normalization):
            raise ValueError(f"a field needs a normalization tag, got {normalization!r}")
        if entries is not None:
            js, gammas, values = [k[0] for k in entries], [k[1] for k in entries], list(
                entries.values())
        js = lattice_int64(js).reshape(-1)
        gammas = lattice_int64(gammas).reshape(len(js), sampling.group.dim)
        values = np.asarray(values, dtype=complex).reshape(len(js))
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite coefficient")
        order = np.lexsort((*gammas.T[::-1], js))
        js, gammas, values = js[order], gammas[order], values[order]
        new = np.ones(len(js), dtype=bool)
        new[1:] = (js[1:] != js[:-1]) | np.any(gammas[1:] != gammas[:-1], axis=1)
        if not np.all(new):
            values = np.add.reduceat(values, np.flatnonzero(new))
            js, gammas = js[new], gammas[new]
        if floor is not None and len(values):
            moduli = np.hypot(values.real, values.imag)
            keep = moduli > floor * np.max(moduli)
            js, gammas, values = js[keep], gammas[keep], values[keep]
        for name, val in (("sampling", sampling), ("normalization", normalization),
                          ("js", js), ("gammas", gammas), ("values", values)):
            if isinstance(val, np.ndarray):
                val.setflags(write=False)
            object.__setattr__(self, name, val)

    @classmethod
    def build(cls, sampling, items: Iterable, normalization, floor=SPARSE_FLOOR):
        """Assemble from (index, value) pairs, accumulating duplicates and
        dropping entries below floor * max modulus."""
        items = list(items)
        return cls(sampling, normalization=normalization, floor=floor,
                   js=[k[0] for k, _ in items], gammas=[k[1] for k, _ in items],
                   values=[v for _, v in items])

    @functools.cached_property
    def entries(self) -> Mapping:
        """Read-only mapping AtomIndex -> complex in canonical order."""
        return MappingProxyType(dict(zip(_indices(self, slice(None)), self.values.tolist())))

    def __len__(self):
        return len(self.values)

    def scales(self) -> list[tuple[int, slice]]:
        """(j, run) for each scale present: its entries are arrays[run]."""
        js, starts = np.unique(self.js, return_index=True)
        bounds = [*starts.tolist(), len(self)]
        return [(j, slice(lo, hi)) for j, lo, hi in zip(js.tolist(), bounds, bounds[1:])]

    def moduli(self) -> np.ndarray:
        """|values| as Python's abs(complex) computes them (libm hypot), which
        np.abs misses in the last bit for about a third of complex values."""
        return np.hypot(self.values.real, self.values.imag)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2))) if len(self) else 0.0

    def take(self, at, values=None, normalization=None) -> "CoefficientField":
        """The entries at positions or a mask `at`, optionally with new values or tag."""
        return CoefficientField(self.sampling, normalization=normalization or self.normalization,
                                js=self.js[at], gammas=self.gammas[at],
                                values=self.values[at] if values is None else values)


def _indices(c: CoefficientField, at) -> list[AtomIndex]:
    return [AtomIndex(j, tuple(g)) for j, g in zip(c.js[at].tolist(), c.gammas[at].tolist())]


@dataclass(frozen=True)
class NormParams:
    s: float
    p: float
    q: float

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1")
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise ValueError("endpoint p or q = infinity is out of scope")

    def is_critical(self, Q: float, tol: float = 1e-12) -> bool:
        return abs(self.s / Q + 1.0 / self.p - 0.5) <= tol


def _conversion_exponent(frm: Normalization, to: Normalization) -> float:
    """Per-unit-j exponent e such that d_to = 2^{j e} d_frm, factored via L1."""
    return (1.0 / frm.p if frm.kind == "Lp" else 0.0) - (1.0 / to.p if to.kind == "Lp" else 0.0)


def convert(c: CoefficientField, to: Normalization) -> CoefficientField:
    if c.normalization == to:
        return c
    e = _conversion_exponent(c.normalization, to) * c.sampling.group.Q
    factor = np.empty(len(c))
    for j, run in c.scales():
        factor[run] = 2.0 ** (j * e)
    return c.take(slice(None), c.values * factor, to)


def discrete_besov_norm(c: CoefficientField, np_: NormParams) -> float:
    """(sum_j (sum_gamma (2^{j(s - Q/p)} |c_jg|)^p)^{q/p})^{1/q} on L1-tagged entries."""
    c = convert(c, L1_ATOMS)
    if not len(c):
        return 0.0
    Q = c.sampling.group.Q
    s, p, q = np_.s, np_.p, np_.q
    moduli = c.moduli()
    acc = 0.0
    for j, run in c.scales():
        w = 2.0 ** (j * (s - Q / p))
        inner = np.sum((w * moduli[run]) ** p) ** (1.0 / p)
        acc += inner**q
    return float(acc ** (1.0 / q))


def sobolev_seq_norm(c: CoefficientField) -> float:
    """Plain l2 norm of the moduli; requires L^p-atom normalization."""
    if c.normalization.kind != "Lp":
        raise ConversionRequired(
            "sobolev_seq_norm needs Lp-atom normalization; convert() first"
        )
    return c.l2()


def rank_order(c: CoefficientField) -> np.ndarray:
    """Positions of c's entries by decreasing modulus; ties keep the
    canonical (j asc, gamma lex) order."""
    return np.argsort(-c.moduli(), kind="stable")


def q_m(c: CoefficientField, M: int) -> tuple[CoefficientField, list[AtomIndex]]:
    """Nonlinear projector: keep the M largest-modulus entries."""
    if M < 1:
        raise ValueError("M must be >= 1")
    top = rank_order(c)[:M]
    return c.take(top), _indices(c, top)


def mterm_error_curve(c: CoefficientField, np_: NormParams, m_list) -> list[tuple[int, float]]:
    """(M, norm of c - Q_M c) with the tail measured by the (0, p, p) proxy."""
    order = rank_order(c)
    proxy = NormParams(0.0, np_.p, np_.p)
    return [(int(M), discrete_besov_norm(c.take(order[M:]), proxy)) for M in m_list]


def unconditionality_ratio(
    c_small: CoefficientField, c_big: CoefficientField, np_: NormParams
) -> float:
    """Sequence-space ratio ||c_small|| / ||c_big|| under coefficient domination."""
    if c_small.sampling != c_big.sampling:
        raise ValueError("the fields live on different sampling sets")
    rows = np.column_stack([np.concatenate([c_big.js, c_small.js]),
                            np.concatenate([c_big.gammas, c_small.gammas])])
    _, key = np.unique(rows, axis=0, return_inverse=True)
    in_big = np.full(len(rows), -1)
    in_big[key[:len(c_big)]] = np.arange(len(c_big))
    at = in_big[key[len(c_big):]]
    if np.any(at < 0):
        raise ValueError("c_small must be supported on c_big's index set")
    big = c_big.moduli()[at]
    bad = np.flatnonzero(c_small.moduli() > big + 1e-12 * big)
    if len(bad):
        raise ValueError(f"domination violated at {_indices(c_small, bad[:1])[0]}")
    norm_big = discrete_besov_norm(c_big, np_)
    if norm_big == 0.0:
        return 0.0
    return discrete_besov_norm(c_small, np_) / norm_big


def field_add(a: CoefficientField, b: CoefficientField) -> CoefficientField:
    """a + b; exact zeros are dropped."""
    if a.sampling != b.sampling:
        raise ValueError("the fields live on different sampling sets")
    if a.normalization != b.normalization:
        raise ConversionRequired("fields have different normalization tags")
    total = CoefficientField(a.sampling, normalization=a.normalization,
                             js=np.concatenate([a.js, b.js]),
                             gammas=np.concatenate([a.gammas, b.gammas]),
                             values=np.concatenate([a.values, b.values]))
    return total.take(total.values != 0)


def field_sub(a: CoefficientField, b: CoefficientField) -> CoefficientField:
    return field_add(a, b.take(slice(None), -b.values))
