"""Group-agnostic coefficient algebra on sparse wavelet index sets.

A CoefficientField(sampling, normalization, *, js, gammas, values,
floor=None) takes dim and Q from `sampling.group` and holds its entries as
read-only arrays in canonical order, lexicographic in (j, gamma), with no
index repeated: `js` (P,) and `gammas` (P, dim) int64 within
sampling.MAX_LATTICE_COORD, `values` (P,) complex128.  The constructor
sorts index and value arrays given in any order into that order; the three
arrays are the only way to read a field.  Sums over a field run in
canonical order, and equal moduli rank by position.

Producers whose output is canonical by construction build it with the
private `CoefficientField._canonical`, which keeps the finiteness check and
the floor but converts, sorts and sums nothing: `take` with a boolean mask
or a forward slice (hence `convert`, the zero drop of `field_add` and
`field_sub`, `profiles.remainder_field`), `transform.analyze`,
`io.read_field` (which sorts a file only when its rows are out of order)
and a `SequenceSnapshots` snapshot, a slice of the sequence's arrays built
on demand.  `generators.generate` and `io.read_snapshots` build no field:
they hand a whole sequence's arrays to `SequenceSnapshots._canonical`,
which mirrors this one.  Input in any other order, such as a `take` by
rank, goes through the constructor.

A CoefficientField carries a normalization tag, and is refused without
one; two fields combine only on one sampling set.  "L1" entries are sampled
convolution values c = (u * psi_j^*)(2^{-j} . gamma); "Lp" entries are the
synthesis coefficients against L^p-normalized atoms, d = 2^{-jQ/p} c.
`convert` applies that factor; `discrete_besov_norm` folds it into one
weight per scale on the stored moduli, so at the critical (0, p, p) proxy
of an Lp(p) field every weight is exactly 1, at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import DomainError
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


def _lex_order(keys: np.ndarray) -> np.ndarray:
    """`np.lexsort` of the columns of the int64 rows keys (P, K), last to
    first, in one stable sort: sign bit flipped, a row's big-endian bytes
    compare as the row does.  It pays off on long inputs (a sequence's
    rows, a shuffled file); below about 1000 rows the conversion costs more
    than it saves (25 us against 14 us for `np.lexsort` on 160 rows), so
    the `CoefficientField` constructor keeps `np.lexsort`."""
    raw = (keys.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    return np.argsort(raw.view(f"V{8 * keys.shape[1]}").ravel(), kind="stable")


def _floor_mask(values: np.ndarray, floor: Optional[float]) -> Optional[np.ndarray]:
    """The mask of the values whose moduli exceed floor * the largest, None
    when there is no floor or it keeps every value; non-finite values are
    refused with ValueError first."""
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite coefficient")
    if floor is None or not len(values):
        return None
    moduli = np.hypot(values.real, values.imag)
    keep = moduli > floor * np.max(moduli)
    return None if keep.all() else keep


@dataclass(frozen=True, eq=False, init=False)
class CoefficientField:
    sampling: SamplingSet
    normalization: Normalization
    js: np.ndarray       # (P,) int64
    gammas: np.ndarray   # (P, dim) int64
    values: np.ndarray   # (P,) complex128

    def __init__(self, sampling: SamplingSet, normalization: Normalization, *, js, gammas,
                 values, floor: Optional[float] = None):
        """From index and value arrays in any order; values sharing an index
        are summed in input order, and with a floor, moduli at most floor *
        the largest are dropped."""
        js = lattice_int64(js).reshape(-1)
        gammas = lattice_int64(gammas).reshape(len(js), sampling.group.dim)
        values = np.asarray(values, dtype=complex).reshape(len(js))
        order = np.lexsort((*gammas.T[::-1], js))
        js, gammas, values = js[order], gammas[order], values[order]
        new = np.ones(len(js), dtype=bool)
        new[1:] = (js[1:] != js[:-1]) | np.any(gammas[1:] != gammas[:-1], axis=1)
        if not np.all(new):
            values = np.add.reduceat(values, np.flatnonzero(new))
            js, gammas = js[new], gammas[new]
        self._set(sampling, normalization, js, gammas, values, floor)

    @classmethod
    def _canonical(cls, sampling: SamplingSet, normalization: Normalization, js: np.ndarray,
                   gammas: np.ndarray, values, floor: Optional[float] = None
                   ) -> "CoefficientField":
        """From int64 arrays js (P,) and gammas (P, dim) within
        MAX_LATTICE_COORD whose (j, gamma) rows strictly increase, and values
        (P,) that the field may keep; nothing is converted, sorted or summed."""
        field = object.__new__(cls)
        field._set(sampling, normalization, js, gammas,
                   np.asarray(values, dtype=complex).reshape(len(js)), floor)
        return field

    def _set(self, sampling, normalization, js, gammas, values, floor) -> None:
        """Check the tag and finiteness, apply the floor, freeze the arrays."""
        if not isinstance(normalization, Normalization):
            raise ValueError(f"a field needs a normalization tag, got {normalization!r}")
        keep = _floor_mask(values, floor)
        if keep is not None:
            js, gammas, values = js[keep], gammas[keep], values[keep]
        for name, val in (("sampling", sampling), ("normalization", normalization),
                          ("js", js), ("gammas", gammas), ("values", values)):
            if isinstance(val, np.ndarray):
                val.setflags(write=False)
            object.__setattr__(self, name, val)

    def __len__(self):
        return len(self.values)

    def scales(self) -> list[tuple[int, slice]]:
        """(j, run) for each scale present: its entries are arrays[run]."""
        if not len(self):
            return []
        bounds = [0, *(np.flatnonzero(self.js[1:] != self.js[:-1]) + 1).tolist(), len(self)]
        js = self.js[bounds[:-1]].tolist()
        return [(j, slice(lo, hi)) for j, lo, hi in zip(js, bounds, bounds[1:])]

    def moduli(self) -> np.ndarray:
        """|values| as Python's abs(complex) computes them (libm hypot), which
        np.abs misses in the last bit for about a third of complex values."""
        return np.hypot(self.values.real, self.values.imag)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2))) if len(self) else 0.0

    def take(self, at, values=None, normalization=None) -> "CoefficientField":
        """The entries at positions or a mask `at`, optionally with new values or tag.
        A mask or a forward slice keeps canonical order and is not re-sorted."""
        normalization = normalization or self.normalization
        values = self.values[at] if values is None else np.array(values, dtype=complex)
        if (isinstance(at, slice) and (at.step or 1) > 0
                or isinstance(at, np.ndarray) and at.dtype == bool):
            return CoefficientField._canonical(self.sampling, normalization, self.js[at],
                                               self.gammas[at], values)
        return CoefficientField(self.sampling, normalization=normalization,
                                js=self.js[at], gammas=self.gammas[at], values=values)


@dataclass(frozen=True)
class NormParams:
    s: float
    p: float
    q: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s!r}")
        if not (self.p >= 1 and self.q >= 1):  # NaN included
            raise ValueError(f"p and q must be numbers >= 1, got p = {self.p!r}, q = {self.q!r}")
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise ValueError("endpoint p or q = infinity is out of scope")

    def is_critical(self, Q: float, tol: float = 1e-12) -> bool:
        return abs(self.s / Q + 1.0 / self.p - 0.5) <= tol


def _conversion_exponent(frm: Normalization, to: Normalization) -> float:
    """Per-unit-j exponent e such that d_to = 2^{j e} d_frm, factored via L1."""
    return (1.0 / frm.p if frm.kind == "Lp" else 0.0) - (1.0 / to.p if to.kind == "Lp" else 0.0)


def _power_of_two(j: int, *factors: float) -> float:
    """2^{j e_1 e_2 ...}, the product taken left to right; DomainError naming
    the scale j when it overflows float64."""
    e = j
    for f in factors:
        e = e * f
    try:
        return 2.0 ** e
    except OverflowError:
        shown = " * ".join([str(j)] + [f"{f:g}" for f in factors])
        raise DomainError(f"the scale weight 2^({shown}) overflows float64 "
                          f"at scale j = {j}") from None


def convert(c: CoefficientField, to: Normalization) -> CoefficientField:
    if c.normalization == to:
        return c
    e = _conversion_exponent(c.normalization, to) * c.sampling.group.Q
    factor = np.empty(len(c))
    for j, run in c.scales():
        factor[run] = _power_of_two(j, e)
    return c.take(slice(None), c.values * factor, to)


def discrete_besov_norm(c: CoefficientField, np_: NormParams) -> float:
    """(sum_j (sum_gamma (2^{j e} |c_jg|)^p)^{q/p})^{1/q} on the stored moduli of
    either tag, e = s + Q (c - 1/p) with c = 1/p_tag on Lp(p_tag) and 0 on L1.

    DomainError naming the scale when its weight 2^{j e} overflows float64,
    and naming (s, p, q) when a weighted modulus or the norm itself does."""
    if not len(c):
        return 0.0
    s, p, q = np_.s, np_.p, np_.q
    e = s + c.sampling.group.Q * (_conversion_exponent(c.normalization, L1_ATOMS) - 1.0 / p)
    moduli = c.moduli()

    def norm(top: float) -> float:  # top times the norm of the weighted moduli / top
        acc = 0.0
        for x in weighted:
            acc += (np.sum((x / top) ** p) ** (1.0 / p)) ** q
        return top * float(acc ** (1.0 / q))

    with np.errstate(over="ignore"):
        weighted = [_power_of_two(j, e) * moduli[run] for j, run in c.scales()]
        value = norm(1.0)
        if value == np.inf and (top := max(map(np.max, weighted))) < np.inf:
            value = norm(top)  # a power sum overflowed: rescale by the largest weighted modulus
    if value == np.inf:
        raise DomainError(f"discrete_besov_norm at (s, p, q) = ({s:g}, {p:g}, {q:g}) "
                          "overflows float64")
    return value


def sobolev_seq_norm(c: CoefficientField) -> float:
    """Plain l2 norm of the moduli; requires L^p-atom normalization.

    DomainError, naming the normalization, when the norm itself overflows
    float64."""
    if c.normalization.kind != "Lp":
        raise ConversionRequired(
            "sobolev_seq_norm needs Lp-atom normalization; convert() first"
        )
    with np.errstate(over="ignore"):
        norm = c.l2()
        if norm == np.inf and (top := np.max(np.abs(c.values))) < np.inf:
            norm = float(top * np.sqrt(np.sum((np.abs(c.values) / top) ** 2)))
    if norm == np.inf:
        raise DomainError(f"sobolev_seq_norm of an {c.normalization.label()} field "
                          "overflows float64")
    return norm


def rank_order(c: CoefficientField) -> np.ndarray:
    """Positions of c's entries by decreasing modulus; ties keep the
    canonical (j asc, gamma lex) order."""
    return np.argsort(-c.moduli(), kind="stable")


def q_m(c: CoefficientField, M: int) -> CoefficientField:
    """Nonlinear projector: keep the M largest-modulus entries."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return c.take(rank_order(c)[:M])


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
        at = AtomIndex(int(c_small.js[bad[0]]), tuple(c_small.gammas[bad[0]].tolist()))
        raise ValueError(f"domination violated at {at}")
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
