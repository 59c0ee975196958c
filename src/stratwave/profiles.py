"""Profile extraction from bounded coefficient sequences.

Implements the finite-horizon induction: per-snapshot reordering, limit
estimation for the leading coefficients, the orthogonal-track / absorbed-atom
dichotomy, remainder splitting, and the energy ledger.  All limit notions
are replaced by explicit tail-window tests whose parameters travel with the
output, and undecidable situations are surfaced rather than resolved
silently.

Nothing here loops over snapshots: the ranks of every snapshot come from
one stable sort of the sequence's arrays, rank m at position
`rank_pos[m - 1, n]` of snapshot n's run, and profile copies, remainders and
the energy ledger (every L and n in one pass over the profiles) work there.

Orthogonality verdicts come from one array kernel, `_classify_rows` (one
track against K), which forms relative indices on the exact int64 lattice
law, so dilations and left translations of a sequence leave them alone; when
rank f founds a profile, `extract` classifies f against all later ranks in
one call: later ranks read their verdicts from these founder-major rows."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import groups
from .sampling import MAX_LATTICE_COORD, SamplingSet, lattice_int64
from .coeffs import (
    CoefficientField,
    Normalization,
    NormParams,
    discrete_besov_norm,
    rank_order,
    sobolev_seq_norm,
)

__all__ = [
    "SequenceSnapshots",
    "ScaleCorePair",
    "Verdict",
    "classify_pair",
    "ExtractParams",
    "Profile",
    "ProfileDecomposition",
    "extract",
    "rendered_profile",
    "remainder_field",
    "remainder_split",
    "energy_ledger",
    "UndecidableOrthogonality",
    "NonconvergentCoefficient",
]


class UndecidableOrthogonality(RuntimeError):
    """A track pair is neither divergent nor stable over the tail window."""


class NonconvergentCoefficient(RuntimeError):
    """A leading coefficient failed the Cauchy test over the tail window."""


def _run_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run x[starts[k]:starts[k + 1]], bit for bit np.sum of
    the run: the runs of one length sum as the rows of one gathered 2-D
    array, so the loop is over the distinct lengths only."""
    lengths = np.diff(starts)
    out = np.zeros(len(lengths))
    by_length = np.argsort(lengths, kind="stable")
    for sel in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        if len(sel) and lengths[sel[0]]:
            out[sel] = x[starts[sel, None] + np.arange(lengths[sel[0]])].sum(axis=1)
    return out


def _checked_n_values(n_values) -> tuple[int, ...]:
    """n_values as a tuple of int; ValueError unless they are integers within
    MAX_LATTICE_COORD = 2^53 that strictly increase."""
    if any(issubclass(k, bool) or not issubclass(k, (int, np.integer))
           for k in set(map(type, n_values))):
        raise ValueError(f"n_values must be integers, got {n_values!r}")
    n_values = tuple(map(int, n_values))
    if max(map(abs, n_values), default=0) > MAX_LATTICE_COORD:
        raise ValueError(f"n_values beyond the bound {MAX_LATTICE_COORD} = 2^53")
    if not all(map(operator.lt, n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    return n_values


@dataclass(frozen=True, eq=False, init=False)
class SequenceSnapshots:
    """SequenceSnapshots(sampling, n_values, fields): a bounded sequence of
    coefficient fields on `sampling` at n_values, integers within
    MAX_LATTICE_COORD = 2^53 kept as a tuple of int, held as one set of
    read-only arrays in (n, j, gamma) order under one Lp tag (None if empty):
    snapshot k is the run starts[k]:starts[k + 1] of js, gammas and values,
    with norm norms[k]; `fields` builds the snapshots on demand.  A total
    energy sum_n ||u_n||^2 beyond float64 is refused with DomainError, so
    every snapshot and profile energy of the ledger is finite."""

    sampling: SamplingSet
    n_values: tuple[int, ...]
    normalization: Optional[Normalization]
    js: np.ndarray       # (P,) int64
    gammas: np.ndarray   # (P, dim) int64
    values: np.ndarray   # (P,) complex128
    starts: np.ndarray   # (H + 1,) int64
    norms: np.ndarray    # (H,) float64

    def __init__(self, sampling: SamplingSet, n_values, fields):
        fields = tuple(fields)
        if any(f.sampling != sampling for f in fields):
            raise ValueError("every snapshot must live on the sequence's sampling set")
        if len({f.normalization for f in fields}) > 1:
            raise ValueError("all snapshots must share one normalization tag")
        dim = sampling.group.dim
        js, gammas, values = (np.concatenate([empty, *(getattr(f, name) for f in fields)])
                              for name, empty in (("js", np.zeros(0, np.int64)),
                                                  ("gammas", np.zeros((0, dim), np.int64)),
                                                  ("values", np.zeros(0, complex))))
        self._set(sampling, n_values, fields[0].normalization if fields else None, js, gammas,
                  values, np.cumsum([0, *map(len, fields)]))

    @classmethod
    def _canonical(cls, sampling: SamplingSet, normalization: Normalization, n_values,
                   js: np.ndarray, gammas: np.ndarray, values: np.ndarray,
                   starts: np.ndarray) -> "SequenceSnapshots":
        """From arrays the sequence may keep, in canonical order within each run
        and within MAX_LATTICE_COORD; nothing is converted, sorted or summed."""
        snaps = object.__new__(cls)
        snaps._set(sampling, n_values, normalization, js, gammas, values, np.asarray(starts))
        return snaps

    def _set(self, sampling, n_values, normalization, js, gammas, values, starts) -> None:
        """Check n_values, the tag, finiteness and the total energy; freeze the arrays."""
        n_values = _checked_n_values(n_values)
        if len(starts) != len(n_values) + 1:
            raise ValueError("n_values and fields must have equal length")
        if n_values and normalization.kind != "Lp":
            raise ValueError("snapshots must carry Lp-atom normalization")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite coefficient")
        # summed as CoefficientField.l2 sums: one field's overflow is refused as the total's
        with np.errstate(over="ignore"):
            norms = np.sqrt(_run_sums(np.abs(values) ** 2, starts))
            if not np.isfinite(np.sum(norms**2)):
                raise groups.DomainError("the total energy sum_n ||u_n||^2 of the snapshots "
                                         "overflows float64")
        for name, val in zip(self.__dataclass_fields__, (sampling, n_values, normalization, js,
                                                         gammas, values, starts, norms)):
            if isinstance(val, np.ndarray):
                val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def horizon(self) -> int:
        return len(self.n_values)

    @property
    def K_bound(self) -> float:
        return float(self.norms.max()) if self.horizon else 0.0

    def _field(self, k: int) -> CoefficientField:
        """Snapshot k as a field: a slice of the sequence's arrays."""
        run = slice(*self.starts[k:k + 2].tolist())
        return CoefficientField._canonical(self.sampling, self.normalization, self.js[run],
                                           self.gammas[run], self.values[run])

    @property
    def fields(self) -> tuple[CoefficientField, ...]:
        """Every snapshot as a field, built on demand."""
        return tuple(map(self._field, range(self.horizon)))


@dataclass(frozen=True)
class ScaleCorePair:
    """A scale/core track: scales j_n and lattice points gamma_n, integers within
    MAX_LATTICE_COORD = 2^53 (larger ones raise DomainError).  Verdicts read
    these; `kappa`, the decoded cores, is kept for tests and benchmarks."""

    sampling: SamplingSet
    js: tuple[int, ...]
    gammas: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        lattice_int64(self.js)
        lattice_int64(self.gammas)  # also ValueError if ragged

    def __len__(self):
        return len(self.js)

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        """Decoded cores delta_{h_n}(gamma_n), shape (len, dim); computed once, read-only."""
        gammas = np.asarray(self.gammas, dtype=np.int64).reshape(len(self), self.sampling.group.dim)
        k = self.sampling.points(self.js, gammas)
        k.setflags(write=False)
        return k


@dataclass(frozen=True)
class Verdict:
    kind: str  # ScaleOrthogonal | CoreOrthogonal | NotOrthogonal | Undecided
    j_rel: Optional[int] = None
    gamma_rel: Optional[tuple[float, ...]] = None
    detail: str = ""

    @property
    def orthogonal(self) -> bool:
        return self.kind in ("ScaleOrthogonal", "CoreOrthogonal")


_KINDS = ("ScaleOrthogonal", "CoreOrthogonal", "NotOrthogonal", "Undecided", "Undecided")


def _relative_index(gs: SamplingSet, ga, gb, gap):
    """delta_{2^{j_b}}(kappa_a^{-1} kappa_b) of lattice points ga at j_a and gb
    at j_b = j_a + gap, as delta_{2^{-v}} decode(lat_inv(lat_dilate(ga, u)) .
    lat_dilate(gb, v)), u = max(gap, 0), v = max(-gap, 0): exact on the int64
    law, decoded once, and DomainError where the law leaves +-2^62."""
    u, v = np.maximum(gap, 0), np.maximum(-gap, 0)
    prod = gs.lat_mul(gs.lat_inv(gs.lat_dilate(ga, u)), gs.lat_dilate(gb, v))
    # delta_{2^{-v}} as exponent shifts: exact, and 0 rather than a refusal on underflow
    return np.ldexp(gs.decode(prod), -v[..., None] * groups.dilation_weights(gs.group).astype(int))


def _classify_rows(gs: SamplingSet, ga, ja, gb, jb, T_div: float, eps_stable: float):
    """Verdicts of track a, lattice points ga (tail, dim) at scales ja (tail,),
    against K tracks b, gb (K, tail, dim) at jb (K, tail), over one tail window.

    Returns (codes, gap, abs_gap, dist, rel, spread), row k for b_k.  codes
    index _KINDS (3: constant scale gap, drifting core; 4: gap neither
    divergent nor constant); the constant-gap rows, whose |gap| <= T_div, take
    one `_relative_index` pass, and dist, rel and spread are NaN on the others.
    A row equals the K = 1 call bit for bit."""
    gap = jb - ja
    abs_gap = np.abs(gap).astype(float)
    codes = np.where(np.all(gap == gap[:, :1], axis=1), 3, 4)
    codes[(abs_gap[:, -1] > T_div) & np.all(np.diff(abs_gap, axis=1) >= 0, axis=1)] = 0
    rel, dist, spread = (np.full(shape, np.nan) for shape in (gb.shape, jb.shape, len(jb)))
    c = np.flatnonzero(codes == 3)
    rel[c] = _relative_index(gs, ga, gb[c], gap[c, :1])
    dist[c] = groups.hom_norm(gs.group, rel[c])
    spread[c] = np.max(np.abs(rel[c] - rel[c, -1:]), axis=(1, 2))
    core = (dist[c, -1] > T_div) & np.all(np.diff(dist[c], axis=1) >= -1e-9, axis=1)
    codes[c] = np.select([core, spread[c] <= eps_stable], [1, 2], 3)
    return codes, gap, abs_gap, dist, rel, spread


_DETAILS = ("log-scale gap reaches {abs_gap:g}",
            "rescaled core distance reaches {dist:g} at constant scale gap {gap}",
            "relative index stable within {spread:.2e}",
            "constant scale gap but core drift {spread:.2e} neither divergent (last dist "
            "{dist:g} <= {T_div:g}) nor stable (> {eps_stable:g})",
            "scale gap neither divergent nor constant")  # the detail of each _KINDS code


def _verdict(rows, k: int, T_div: float, eps_stable: float) -> Verdict:
    """Row k of `_classify_rows` as a Verdict with the one detail string its code selects."""
    code, gap, abs_gap, dist, rel, spread = (x[k] for x in rows)
    detail = _DETAILS[code].format(abs_gap=abs_gap[-1], dist=dist[-1], gap=int(gap[0]),
                                   spread=spread, T_div=T_div, eps_stable=eps_stable)
    if code == 2:
        return Verdict(_KINDS[2], int(gap[0]), tuple(rel[-1].tolist()), detail)
    return Verdict(_KINDS[code], detail=detail)


def _row_classifier(gs: SamplingSet, js, gammas, tail: int, T_div: float, eps_stable: float):
    """rows(a): `_classify_rows` of track a against the tracks after it, over
    the last `tail` snapshots of T tracks given as (T, H) scales and (T, H, dim)
    lattice points."""
    if tail < 2 or tail > js.shape[1]:
        raise ValueError(f"tail window {tail} not within horizon {js.shape[1]}")
    js, gammas = js[:, -tail:], gammas[:, -tail:]
    return lambda a: _classify_rows(gs, gammas[a], js[a], gammas[a + 1:], js[a + 1:], T_div,
                                    eps_stable)


def _check_thresholds(**values) -> None:
    """Refuse an orthogonality threshold that is negative or not finite."""
    for name, value in values.items():
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def classify_pair(a: ScaleCorePair, b: ScaleCorePair, tail: int,
                  T_div: float, eps_stable: float) -> Verdict:
    """Orthogonality verdict for two tracks on one sampling set over the last
    `tail` snapshots."""
    _check_thresholds(T_div=T_div, eps_stable=eps_stable)
    if len(a) != len(b):
        raise ValueError("tracks have different lengths")
    if a.sampling != b.sampling:
        raise ValueError("tracks live on different sampling sets")
    rows = _row_classifier(a.sampling, np.array([a.js, b.js], dtype=int),
                           np.array([a.gammas, b.gammas], dtype=np.int64), tail, T_div,
                           eps_stable)(0)
    return _verdict(rows, 0, T_div, eps_stable)


@dataclass(frozen=True)
class ExtractParams:
    M_max: int
    L_max: int
    eps_conv: float
    T_div: float
    eps_stable: float
    tail: int
    mode: str = "strict"

    def __post_init__(self):
        if self.mode not in ("strict", "exploratory"):
            raise ValueError("mode must be strict or exploratory")
        if self.M_max < 1 or self.L_max < 0 or self.tail < 2:
            raise ValueError("M_max >= 1, L_max >= 0, tail >= 2 required")
        _check_thresholds(eps_conv=self.eps_conv, T_div=self.T_div, eps_stable=self.eps_stable)


@dataclass
class Profile:
    index: int                      # 1-based profile number l
    atoms: list                     # (j_rel, gamma_rel point, d limit)
    core_track: ScaleCorePair       # the founding rank's index per n
    members: list                   # ranks absorbed, in absorption order
    escape: str = "unknown"         # scale | core | none

    def energy(self) -> float:
        return float(sum(abs(d) ** 2 for _, _, d in self.atoms))


@dataclass
class ProfileDecomposition:
    snapshots: SequenceSnapshots
    params: ExtractParams
    M_eff: int
    profiles: list                  # of Profile
    d_limits: dict                  # rank -> complex
    rank_pos: np.ndarray            # (M_eff, horizon): rank m's position in field n at [m-1, n]
    rank_coeffs: np.ndarray         # (M_eff, horizon): rank m's coefficient at [m-1, n]
    nu_curve: list                  # nu(M) for M = 1..M_eff
    classification_log: list
    nonconvergent: list
    diagnostics: dict

    def members_up_to(self, ell: int, M: int) -> list[int]:
        """E(ell, M): ranks of profile ell among the first M."""
        return [m for m in self.profiles[ell - 1].members if m <= M]


def _rank_tables(s: SequenceSnapshots, M: int):
    """Positions, coefficients, scales and lattice points of the first M ranks
    per snapshot: (M, H), (M, H), (M, H) and (M, H, dim) arrays, ranked as
    `rank_order` ranks each snapshot, by one stable sort."""
    run = np.repeat(np.arange(s.horizon), np.diff(s.starts))
    order = np.lexsort((-np.hypot(s.values.real, s.values.imag), run))
    top = order[s.starts[:-1] + np.arange(M)[:, None]]
    return top - s.starts[:-1], s.values[top], s.js[top], s.gammas[top]


def _escapes(gs: SamplingSet, js, gammas, T_div: float) -> list[str]:
    """Escape of K tracks, (K, H) scales and (K, H, dim) points: scale, else core,
    if the scale gap, else the relative index, of the last entry to the first
    exceeds T_div, else none; left translations leave both alone."""
    gap = js[:, -1] - js[:, 0]
    near = np.abs(gap) <= T_div
    dist = np.zeros(len(gap))
    rel = _relative_index(gs, gammas[near, 0], gammas[near, -1], gap[near])
    dist[near] = groups.hom_norm(gs.group, rel)
    return np.select([~near, dist > T_div], ["scale", "core"], "none").tolist()


def extract(s: SequenceSnapshots, params: ExtractParams) -> ProfileDecomposition:
    """Run the extraction induction over the observed horizon."""
    if s.horizon < params.tail:
        raise ValueError("horizon shorter than the tail window")
    card_min = int(np.diff(s.starts).min())
    diagnostics: dict = {"K_bound": s.K_bound}
    M_eff = params.M_max
    if M_eff > card_min:
        M_eff = card_min
        diagnostics["M_max_clamped_to"] = M_eff
    rank_pos, coeffs, rank_js, rank_gammas = _rank_tables(s, M_eff)

    # Cauchy test of every rank's tail window at once
    window = coeffs[:, -params.tail:]
    limits = np.mean(window, axis=1)
    radius = np.max(np.abs(window - limits[:, None]), axis=1)
    bad = np.flatnonzero(~(radius <= params.eps_conv))
    if bad.size and params.mode == "strict":
        raise NonconvergentCoefficient(
            f"rank {bad[0] + 1}: Cauchy radius {radius[bad[0]]:.3e} > eps_conv "
            f"{params.eps_conv:.1e} over the last {params.tail} snapshots")
    d_limits: dict = dict(enumerate(limits.tolist(), start=1))
    nonconvergent = (bad + 1).tolist()

    gs = s.sampling
    T_div, eps = params.T_div, params.eps_stable
    # every rank's cores decoded once; rows_of(f - 1) classifies founder f against ranks > f
    rows_of = _row_classifier(gs, rank_js, rank_gammas, params.tail, T_div, eps)
    profiles: list[Profile] = []
    founder_rows: list = []         # rows_of(f - 1) per profile, f its founding rank
    nu_curve: list[int] = []
    log: list[dict] = []

    for m in range(1, M_eff + 1):
        verdicts = []
        absorbed_into = None
        for prof, rows in zip(profiles, founder_rows):
            k = m - prof.members[0] - 1
            code = rows[0][k]
            verdicts.append((prof.index, _KINDS[code]))
            if code >= 3:
                detail = _verdict(rows, k, T_div, eps).detail
                if params.mode == "strict":
                    raise UndecidableOrthogonality(f"rank {m} vs profile {prof.index}: {detail}")
                diagnostics.setdefault("undecided_pairs", []).append(
                    {"rank": m, "profile": prof.index, "detail": detail})
            elif code == 2 and absorbed_into is None:
                absorbed_into = (prof, _verdict(rows, k, T_div, eps))
        if absorbed_into is not None:
            prof, v = absorbed_into
            prof.atoms.append((v.j_rel, v.gamma_rel, d_limits[m]))
            prof.members.append(m)
            case = f"case2->profile{prof.index}"
        else:
            ell = len(profiles) + 1
            track = ScaleCorePair(sampling=gs, js=tuple(rank_js[m - 1].tolist()),
                                  gammas=tuple(map(tuple, rank_gammas[m - 1].tolist())))
            profiles.append(Profile(index=ell, atoms=[(0, (0.0,) * gs.group.dim, d_limits[m])],
                                    core_track=track, members=[m]))
            founder_rows.append(rows_of(m - 1))
            case = f"case1->profile{ell}"
        nu_curve.append(len(profiles))
        log.append({"rank": m, "decision": case, "verdicts": verdicts})

    f = [prof.members[0] - 1 for prof in profiles]  # the founding ranks
    for prof, escape in zip(profiles, _escapes(gs, rank_js[f], rank_gammas[f], T_div)):
        prof.escape = escape

    diagnostics["nu"] = len(profiles)
    diagnostics["escape_status"] = {p.index: p.escape for p in profiles}
    return ProfileDecomposition(
        snapshots=s, params=params, M_eff=M_eff, profiles=profiles,
        d_limits=d_limits, rank_pos=rank_pos, rank_coeffs=coeffs,
        nu_curve=nu_curve, classification_log=log,
        nonconvergent=nonconvergent, diagnostics=diagnostics)


def _members(dec: ProfileDecomposition, ells, M: int):
    """0-based ranks of the given profiles among the first M, in absorption
    order, and their limits."""
    ranks = [m - 1 for ell in ells for m in dec.members_up_to(ell, M)]
    return (np.array(ranks, dtype=np.int64),
            np.array([dec.d_limits[m + 1] for m in ranks], dtype=complex))


def rendered_profile(dec: ProfileDecomposition, ell: int, n_pos: int,
                     M: Optional[int] = None) -> CoefficientField:
    """The copy of profile ell placed along its track at snapshot position n_pos.

    Uses the recorded per-rank positions, so the placement is exact on the
    observed horizon.  M restricts to the partial profile built from the
    first M ranks; None means the full (exact) profile.
    """
    M = dec.M_eff if M is None else M
    ranks, d = _members(dec, [ell], M)
    return dec.snapshots._field(n_pos).take(dec.rank_pos[ranks, n_pos], d)


def remainder_field(dec: ProfileDecomposition, n_pos: int, L: int) -> CoefficientField:
    """r_{n,L} = u_n minus the first L exact profile copies; exact zeros are dropped."""
    u = dec.snapshots._field(n_pos)
    ranks, d = _members(dec, range(1, min(L, len(dec.profiles)) + 1), dec.M_eff)
    if not len(ranks):
        return u
    values = u.values.copy()
    values[dec.rank_pos[ranks, n_pos]] -= d
    keep = values != 0
    return u.take(keep, values[keep])


def remainder_split(dec: ProfileDecomposition, n_pos: int, L: int, M: int) -> dict:
    """Split the remainder into the profile-drift part r1 and the tail part r2.

    r1 collects, over profiles up to L, the coefficient drift at absorbed
    ranks within M plus the not-yet-absorbed exact atoms beyond M; r2 holds
    the ranks of later profiles within M together with everything beyond the
    first M ranks.  Their sum reconstructs u_n minus the first L exact
    profile copies, independently of M.
    """
    if not 0 <= L <= len(dec.profiles):
        raise ValueError("L out of range")
    if not L <= M <= dec.M_eff:
        raise ValueError("need L <= M <= M_eff")
    u = dec.snapshots._field(n_pos)
    ranks1, d1 = _members(dec, range(1, L + 1), dec.M_eff)
    r1 = u.take(dec.rank_pos[ranks1, n_pos],
                np.where(ranks1 < M, dec.rank_coeffs[ranks1, n_pos] - d1, -d1))
    nu_M = dec.nu_curve[M - 1] if M >= 1 else 0
    ranks2, _ = _members(dec, range(L + 1, nu_M + 1), M)
    tail = rank_order(u)[M:]
    r2 = u.take(np.concatenate([dec.rank_pos[ranks2, n_pos], tail]),
                np.concatenate([dec.rank_coeffs[ranks2, n_pos], u.values[tail]]))
    p = u.normalization.p
    proxy = NormParams(0.0, p, p)
    return {
        "r1_field": r1,
        "r2_field": r2,
        "r1_norm_Hs": sobolev_seq_norm(r1),
        "r2_norm_Lp_proxy": discrete_besov_norm(r2, proxy),
    }


def energy_ledger(dec: ProfileDecomposition, L: int) -> np.ndarray:
    """Defects |  ||u_n||^2 - sum_{l<=ell} ||phi^l||^2 - ||r_{n,ell}||^2 | for
    ell = 0..L (rows) and every snapshot n (columns), shape (L+1, H).

    One cumulative pass over the profiles, every snapshot at once: profile
    ell's limits are subtracted at its members' positions, exact zeros are
    dropped as in `remainder_field`, and norms are squared by libm pow, as
    float ** 2 squares them and x * x does not always.
    """
    if not 0 <= L <= len(dec.profiles):
        raise ValueError("L out of range")
    s = dec.snapshots
    u2 = np.float_power(s.norms, 2)
    values = s.values.copy()
    out = np.zeros((L + 1, s.horizon))
    profile_energy = 0
    for ell in range(1, L + 1):
        ranks, d = _members(dec, [ell], dec.M_eff)
        values[dec.rank_pos[ranks] + s.starts[:-1]] -= d[:, None]
        profile_energy += dec.profiles[ell - 1].energy()
        keep = values != 0
        kept_starts = np.concatenate([[0], np.cumsum(keep)])[s.starts]
        r2 = np.float_power(np.sqrt(_run_sums(np.abs(values[keep]) ** 2, kept_starts)), 2)
        out[ell] = np.abs(u2 - profile_energy - r2)
    return out
