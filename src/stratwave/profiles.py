"""Profile extraction from bounded coefficient sequences.

Implements the finite-horizon induction: per-snapshot reordering, limit
estimation for the leading coefficients, the orthogonal-track / absorbed-atom
dichotomy, remainder splitting, and the energy ledger.  All limit notions
are replaced by explicit tail-window tests whose parameters travel with the
output, and undecidable situations are surfaced rather than resolved
silently.

Rank m sits at position `rank_pos[m - 1, n]` of snapshot n's arrays;
profile copies, remainders and the energy ledger work at those positions,
the ledger for every L in one cumulative pass over the profiles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import groups
from .groups import GroupSpec
from .sampling import SamplingSet
from .coeffs import (
    CoefficientField,
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
    "energy_check",
    "UndecidableOrthogonality",
    "NonconvergentCoefficient",
]


class UndecidableOrthogonality(RuntimeError):
    """A track pair is neither divergent nor stable over the tail window."""


class NonconvergentCoefficient(RuntimeError):
    """A leading coefficient failed the Cauchy test over the tail window."""


@dataclass(frozen=True)
class SequenceSnapshots:
    """A bounded sequence of coefficient fields observed at finitely many n."""

    group: GroupSpec
    sampling: SamplingSet
    n_values: tuple[int, ...]
    fields: tuple[CoefficientField, ...]

    def __post_init__(self):
        if len(self.n_values) != len(self.fields):
            raise ValueError("n_values and fields must have equal length")
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n_values must be strictly increasing")
        tags = {f.normalization for f in self.fields}
        if len(tags) > 1:
            raise ValueError("all snapshots must share one normalization tag")
        if self.fields and self.fields[0].normalization.kind != "Lp":
            raise ValueError("snapshots must carry Lp-atom normalization")

    @property
    def horizon(self) -> int:
        return len(self.n_values)

    @property
    def K_bound(self) -> float:
        return max((sobolev_seq_norm(f) for f in self.fields), default=0.0)


@dataclass(frozen=True)
class ScaleCorePair:
    """A scale/core track: h_n = 2^{-j_n} and decoded core positions kappa_n."""

    sampling: SamplingSet
    js: tuple[int, ...]
    gammas: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.js)

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        """Decoded cores delta_{h_n}(gamma_n), shape (len, dim); computed once, read-only."""
        gs = self.sampling
        gammas = np.asarray(self.gammas, dtype=np.int64).reshape(len(self), gs.group.dim)
        k = groups.dilate(gs.group, 2.0 ** (-np.asarray(self.js, dtype=float)), gs.decode(gammas))
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


def _relative_positions(a: ScaleCorePair, b: ScaleCorePair, lo: int) -> np.ndarray:
    """Decoded relative cores 2^{j_b} . (kappa_a^{-1} . kappa_b) over [lo:]."""
    g = a.sampling.group
    rel = groups.multiply(g, groups.inverse(g, a.kappa[lo:]), b.kappa[lo:])
    return groups.dilate(g, 2.0 ** np.asarray(b.js[lo:], dtype=float), rel)


def classify_pair(a: ScaleCorePair, b: ScaleCorePair, tail: int,
                  T_div: float, eps_stable: float) -> Verdict:
    """Orthogonality verdict for two tracks over the last `tail` snapshots."""
    if len(a) != len(b):
        raise ValueError("tracks have different lengths")
    if tail < 2 or tail > len(a):
        raise ValueError(f"tail window {tail} not within horizon {len(a)}")
    lo = len(a) - tail
    gap = np.asarray(b.js[lo:], dtype=int) - np.asarray(a.js[lo:], dtype=int)
    abs_gap = np.abs(gap).astype(float)
    if abs_gap[-1] > T_div and np.all(np.diff(abs_gap) >= 0):
        return Verdict("ScaleOrthogonal", detail=f"log-scale gap reaches {abs_gap[-1]:g}")
    if np.all(gap == gap[0]):
        g = a.sampling.group
        rel = _relative_positions(a, b, lo)
        dist = groups.hom_norm(g, rel)
        if dist[-1] > T_div and np.all(np.diff(dist) >= -1e-9):
            return Verdict("CoreOrthogonal",
                           detail=f"rescaled core distance reaches {dist[-1]:g} "
                                  f"at constant scale gap {int(gap[0])}")
        spread = float(np.max(np.abs(rel - rel[-1]))) if tail > 1 else 0.0
        if spread <= eps_stable:
            return Verdict("NotOrthogonal", j_rel=int(gap[0]),
                           gamma_rel=tuple(float(x) for x in rel[-1]),
                           detail=f"relative index stable within {spread:.2e}")
        return Verdict("Undecided",
                       detail=f"constant scale gap but core drift {spread:.2e} "
                              f"neither divergent (last dist {dist[-1]:g} <= "
                              f"{T_div:g}) nor stable (> {eps_stable:g})")
    return Verdict("Undecided", detail="scale gap neither divergent nor constant")


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
    per snapshot: (M, H), (M, H), (M, H) and (M, H, dim) arrays."""
    tops = [rank_order(f)[:M] for f in s.fields]
    coeffs, js, gammas = (np.stack([getattr(f, a)[top] for f, top in zip(s.fields, tops)], axis=1)
                          for a in ("values", "js", "gammas"))
    return np.stack(tops, axis=1), coeffs, js, gammas


def _limit_estimate(values: np.ndarray, tail: int, eps: float):
    """Tail mean with a Cauchy radius check; returns (limit, radius, ok)."""
    window = values[-tail:]
    mean = complex(np.mean(window))
    radius = float(np.max(np.abs(window - mean)))
    return mean, radius, radius <= eps


def _escape_status(track: ScaleCorePair, T_div: float) -> str:
    gs = track.sampling
    js = np.array(track.js, dtype=float)
    if abs(js[-1] - js[0]) > T_div:
        return "scale"
    first, last = groups.hom_norm(gs.group, gs.decode([track.gammas[0], track.gammas[-1]]))
    if last - first > T_div:
        return "core"
    return "none"


def extract(s: SequenceSnapshots, params: ExtractParams) -> ProfileDecomposition:
    """Run the extraction induction over the observed horizon."""
    if s.horizon < params.tail:
        raise ValueError("horizon shorter than the tail window")
    card_min = min(len(f) for f in s.fields)
    diagnostics: dict = {"K_bound": s.K_bound}
    M_eff = params.M_max
    if M_eff > card_min:
        M_eff = card_min
        diagnostics["M_max_clamped_to"] = M_eff
    rank_pos, coeffs, rank_js, rank_gammas = _rank_tables(s, M_eff)

    d_limits: dict = {}
    nonconvergent: list = []
    for m in range(1, M_eff + 1):
        lim, radius, ok = _limit_estimate(coeffs[m - 1], params.tail, params.eps_conv)
        d_limits[m] = lim
        if not ok:
            if params.mode == "strict":
                raise NonconvergentCoefficient(
                    f"rank {m}: Cauchy radius {radius:.3e} > eps_conv "
                    f"{params.eps_conv:.1e} over the last {params.tail} snapshots")
            nonconvergent.append(m)

    gs = s.sampling
    profiles: list[Profile] = []
    nu_curve: list[int] = []
    log: list[dict] = []

    for m in range(1, M_eff + 1):
        pair_m = ScaleCorePair(sampling=gs, js=tuple(rank_js[m - 1].tolist()),
                               gammas=tuple(map(tuple, rank_gammas[m - 1].tolist())))
        verdicts = []
        absorbed_into = None
        for prof in profiles:
            v = classify_pair(prof.core_track, pair_m,
                              params.tail, params.T_div, params.eps_stable)
            verdicts.append((prof.index, v))
            if v.kind == "Undecided":
                if params.mode == "strict":
                    raise UndecidableOrthogonality(
                        f"rank {m} vs profile {prof.index}: {v.detail}")
                diagnostics.setdefault("undecided_pairs", []).append(
                    {"rank": m, "profile": prof.index, "detail": v.detail})
            elif v.kind == "NotOrthogonal" and absorbed_into is None:
                absorbed_into = (prof, v)
        if absorbed_into is not None:
            prof, v = absorbed_into
            prof.atoms.append((v.j_rel, v.gamma_rel, d_limits[m]))
            prof.members.append(m)
            case = f"case2->profile{prof.index}"
        else:
            ell = len(profiles) + 1
            prof = Profile(index=ell,
                           atoms=[(0, tuple(0.0 for _ in range(gs.group.dim)),
                                   d_limits[m])],
                           core_track=pair_m,
                           members=[m])
            profiles.append(prof)
            case = f"case1->profile{ell}"
        nu_curve.append(len(profiles))
        log.append({"rank": m, "decision": case,
                    "verdicts": [(p, v.kind) for p, v in verdicts]})

    for prof in profiles:
        prof.escape = _escape_status(prof.core_track, params.T_div)

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
    return dec.snapshots.fields[n_pos].take(dec.rank_pos[ranks, n_pos], d)


def remainder_field(dec: ProfileDecomposition, n_pos: int, L: int) -> CoefficientField:
    """r_{n,L} = u_n minus the first L exact profile copies; exact zeros are dropped."""
    u = dec.snapshots.fields[n_pos]
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
    u = dec.snapshots.fields[n_pos]
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

    One cumulative pass over the profiles per n: profile ell's limits are
    subtracted at its members' positions, exact zeros are dropped as in
    `remainder_field`, and the remainder norm is summed in canonical order.
    """
    if not 0 <= L <= len(dec.profiles):
        raise ValueError("L out of range")
    members = [_members(dec, [ell], dec.M_eff) for ell in range(1, L + 1)]
    out = np.zeros((L + 1, dec.snapshots.horizon))
    for n_pos, u in enumerate(dec.snapshots.fields):
        u2 = sobolev_seq_norm(u) ** 2
        values = u.values.copy()
        profile_energy = 0
        for ell, (ranks, d) in enumerate(members, start=1):
            values[dec.rank_pos[ranks, n_pos]] -= d
            profile_energy += dec.profiles[ell - 1].energy()
            r2 = float(np.sqrt(np.sum(np.abs(values[values != 0]) ** 2))) ** 2
            out[ell, n_pos] = abs(u2 - profile_energy - r2)
    return out


def energy_check(dec: ProfileDecomposition, L: int) -> np.ndarray:
    """The per-n defects at L: the last row of `energy_ledger`."""
    return energy_ledger(dec, L)[L]
