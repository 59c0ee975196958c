"""Synthetic bounded sequences with prescribed escape mechanisms.

`generate(spec, gs)` realizes a spec on the sampling set gs.  Each track
places a fixed coefficient bundle along an affine scale/core law
(j(n), gamma(n)); reindexing preserves the coefficient multiset, so the
sequence norm is constant by construction.  Mixtures are checked after
generation: the component tracks must actually satisfy the orthogonality
they declare, unless overlap is explicitly allowed (adversarial inputs).

A track's atom indices for every n come from one batched call of the int64
lattice law of `sampling`; indices beyond sampling.MAX_LATTICE_COORD are
refused with `DomainError` before they are stored.  A spec whose
_ROW_COPIES copies of its horizon x (bundle atoms + noise entries) rows of
dim + 2 int64 (n, j, gamma) would exceed sampling.MAX_ARRAY_BYTES is refused
with `DomainError` before any array is built: that bounds what the lattice
law's pass, the sort and the sequence's arrays hold at once.

The sequence's entries are sorted once, by (n, j, gamma); a collision is
found on adjacent rows, entries sharing an index under allow_overlap are
summed in insertion order as the `CoefficientField` constructor sums them,
and the sorted arrays become the sequence's (n, j, gamma) arrays through
`SequenceSnapshots._canonical`: no snapshot field is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._json import json_fields
from .groups import DomainError
from .sampling import (_LAW_BOUND, MAX_ARRAY_BYTES, MAX_LATTICE_COORD, AtomIndex,
                       SamplingSet, _law_int64, lattice_int64)
from .coeffs import _lex_order, lp_atoms
from .profiles import SequenceSnapshots, _check_thresholds, _row_classifier, _verdict

__all__ = [
    "BundleAtom",
    "TrackSpec",
    "GeneratorSpec",
    "GeneratorError",
    "generate",
    "spec_to_json",
    "spec_from_json",
]

KNOWN_KINDS = ("translating", "concentrating", "spreading", "mixture", "compact")
# copies of the (n, j, gamma) rows that generate holds at once, at most: the
# rows, their sort keys and sorted copy, both value arrays and the sequence's
# arrays, or before them the lattice law's pass over the atoms (tracemalloc
# peaks: 9.0 copies on R^1 with one atom, 7.4 on H^1, 6.5 on N_{3,2}, 7.6 on R^40)
_ROW_COPIES = 10


class GeneratorError(ValueError):
    """Generated snapshots violate a declared invariant."""


@dataclass(frozen=True)
class BundleAtom:
    dj: int                      # scale offset from the core, >= 0
    dgamma: tuple[int, ...]      # lattice offset from the core
    d: complex

    def __post_init__(self):
        if self.dj < 0:
            raise ValueError("bundle scale offsets must be >= 0")


@dataclass(frozen=True)
class TrackSpec:
    j0: int
    j_slope: int
    gamma0: tuple[int, ...]
    gamma_slope: tuple[int, ...]
    bundle: tuple[BundleAtom, ...]

    def core_at(self, n: int) -> tuple[int, tuple[int, ...]]:
        j = self.j0 + self.j_slope * n
        gamma = tuple(g0 + gs * n for g0, gs in zip(self.gamma0, self.gamma_slope))
        return j, gamma


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    tracks: tuple[TrackSpec, ...]
    horizon: int
    p: float = 2.0
    noise_amplitude: float = 0.0
    noise_count: int = 0
    noise_seed: int = 0
    allow_overlap: bool = False
    check_tail: Optional[int] = None
    check_T_div: float = 5.0
    check_eps_stable: float = 1e-9

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise ValueError(f"kind must be one of {KNOWN_KINDS}")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.noise_count < 0:
            raise ValueError(f"noise_count must be >= 0, got {self.noise_count}")
        _check_thresholds(check_T_div=self.check_T_div, check_eps_stable=self.check_eps_stable)
        if not self.tracks:
            raise ValueError("at least one track required")
        if self.kind != "mixture" and len(self.tracks) != 1:
            raise ValueError(f"kind {self.kind!r} takes exactly one track")
        t = self.tracks[0]
        if self.kind == "translating" and (t.j_slope != 0 or not any(t.gamma_slope)):
            raise ValueError("translating needs constant scale and a moving core")
        if self.kind == "concentrating" and t.j_slope <= 0:
            raise ValueError("concentrating needs a positive scale slope")
        if self.kind == "spreading" and t.j_slope >= 0:
            raise ValueError("spreading needs a negative scale slope")
        if self.kind == "compact" and (t.j_slope != 0 or any(t.gamma_slope)):
            raise ValueError("compact needs a constant track")


def _noise(spec: GeneratorSpec, gs: SamplingSet, count: int):
    """Scale-0 noise shared by every snapshot: (count, dim) lattice points and count values."""
    rng = np.random.default_rng(spec.noise_seed)
    draws = [(rng.integers(-10**6, -10**6 + 1000, size=gs.group.dim),
              spec.noise_amplitude * complex(*rng.normal(size=2)) / np.sqrt(2.0))
             for _ in range(count)]
    return (np.array([g for g, _ in draws], dtype=np.int64).reshape(count, gs.group.dim),
            np.array([v for _, v in draws], dtype=complex))


def _line(x0, slope, horizon: int) -> np.ndarray:
    """x0 + n slope for n < horizon, (horizon, len(x0)) int64, for tuples of
    Python ints; DomainError unless it stays within the int64 law's +-2^62."""
    if any(abs(a) + (horizon - 1) * abs(b) >= _LAW_BOUND for a, b in zip(x0, slope)):
        raise DomainError("a track core or scale leaves the range +-2^62 of the int64 law")
    return np.array(x0, dtype=np.int64) + np.arange(horizon)[:, None] * np.array(slope, np.int64)


def _track_indices(spec: GeneratorSpec, gs: SamplingSet):
    """The tracks' core scales (T, H) and cores (T, H, dim), and every bundle
    atom's (j, gamma) for every n, atoms in insertion order: (A, H) scales and
    (A, H, dim) lattice points, all int64 and exact, from one call of the law."""
    H, tracks = spec.horizon, spec.tracks
    owner = np.repeat(np.arange(len(tracks)), [len(t.bundle) for t in tracks])
    try:
        j_cores = np.stack([_line((t.j0,), (t.j_slope,), H)[:, 0] for t in tracks])
        cores = np.stack([_line(t.gamma0, t.gamma_slope, H) for t in tracks])
        dj = _law_int64([a.dj for t in tracks for a in t.bundle])
        dgamma = _law_int64([a.dgamma for t in tracks for a in t.bundle])
        gammas = gs.lat_mul(gs.lat_dilate(cores[owner], dj[:, None]),
                            dgamma.reshape(-1, 1, gs.group.dim))
    except DomainError as exc:  # beyond 2^62, so beyond 2^53 too
        raise DomainError(f"track indices beyond the bound {MAX_LATTICE_COORD} = 2^53 "
                          f"({exc})") from None
    return j_cores, cores, j_cores[owner] + dj[:, None], gammas


def generate(spec: GeneratorSpec, gs: SamplingSet) -> SequenceSnapshots:
    """Realize the generator law as a sequence of coefficient fields on gs."""
    dim = gs.group.dim
    for k, t in enumerate(spec.tracks):
        if {len(t.gamma0), len(t.gamma_slope)} | {len(a.dgamma) for a in t.bundle} != {dim}:
            raise ValueError(f"track {k}: core and bundle offsets need {dim} coordinates")
    noise = spec.noise_count if spec.noise_amplitude != 0.0 else 0
    entries = sum(len(t.bundle) for t in spec.tracks) + noise
    need = 8 * _ROW_COPIES * spec.horizon * entries * (dim + 2)
    if need > MAX_ARRAY_BYTES:
        raise DomainError(f"{spec.horizon} snapshots of {entries} entries need {need} B to "
                          f"index and sort, over the {MAX_ARRAY_BYTES} B budget")
    j_cores, cores, atom_js, atom_gammas = _track_indices(spec, gs)
    H = spec.horizon
    noise_gammas, noise_values = _noise(spec, gs, noise)
    values = np.array([complex(a.d) for t in spec.tracks for a in t.bundle], dtype=complex)
    n_track, E = len(values), len(values) + len(noise_values)
    # rows (n, j, *gamma) of the H x E entries in insertion order, n by n:
    # tracks, their atoms, then the noise
    flat = np.zeros((H, E, dim + 2), dtype=np.int64)
    flat[..., 0] = np.arange(H)[:, None]
    flat[:, :n_track, 1] = atom_js.T
    flat[:, :n_track, 2:] = atom_gammas.transpose(1, 0, 2)
    flat[:, n_track:, 2:] = noise_gammas
    flat = lattice_int64(flat.reshape(-1, dim + 2))
    order = _lex_order(flat)  # stable: entries sharing an index keep insertion order
    rows, values = flat[order], np.tile(np.concatenate([values, noise_values]), H)[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    if not new.all():
        if not spec.allow_overlap:
            # the first snapshot with a repeat, and its first entry in insertion
            # order whose index came before
            at = int(order[~new].min())
            n, k = divmod(at, E)
            if k >= n_track:
                raise GeneratorError(f"noise collides with a track at n={n}")
            raise GeneratorError(f"track collision at n={n}, index "
                                 f"{AtomIndex(int(flat[at, 1]), tuple(flat[at, 2:].tolist()))}; "
                                 "declared orthogonality is violated")
        rows, values = rows[new], np.add.reduceat(values, np.flatnonzero(new))
    snaps = SequenceSnapshots._canonical(gs, lp_atoms(spec.p), range(H),
                                         np.ascontiguousarray(rows[:, 1]),
                                         np.ascontiguousarray(rows[:, 2:]), values,
                                         np.searchsorted(rows[:, 0], np.arange(H + 1)))

    norms = snaps.norms
    if not spec.allow_overlap and np.max(np.abs(norms - norms[0])) > 1e-12 * max(norms[0], 1.0):
        raise GeneratorError("sequence norm drifts although no overlap was declared")

    if len(spec.tracks) > 1 and not spec.allow_overlap:
        # each track against the later ones: the first failing pair in (a, b) order
        T_div, eps = spec.check_T_div, spec.check_eps_stable
        rows_of = _row_classifier(gs, j_cores, cores,
                                  spec.check_tail or max(2, spec.horizon // 2), T_div, eps)
        for a in range(len(cores) - 1):
            rows = rows_of(a)
            bad = np.flatnonzero(rows[0] >= 2)
            if bad.size:
                v = _verdict(rows, bad[0], T_div, eps)
                raise GeneratorError(f"mixture tracks {a} and {a + 1 + bad[0]} are not orthogonal "
                                     f"over the horizon: {v.kind} ({v.detail})")
    return snaps


# -- JSON plumbing -----------------------------------------------------------

def spec_to_json(spec: GeneratorSpec) -> dict:
    return {
        "kind": spec.kind,
        "horizon": spec.horizon,
        "p": spec.p,
        "noise_amplitude": spec.noise_amplitude,
        "noise_count": spec.noise_count,
        "noise_seed": spec.noise_seed,
        "allow_overlap": spec.allow_overlap,
        "check_tail": spec.check_tail,
        "check_T_div": spec.check_T_div,
        "check_eps_stable": spec.check_eps_stable,
        "tracks": [
            {
                "j0": t.j0,
                "j_slope": t.j_slope,
                "gamma0": list(t.gamma0),
                "gamma_slope": list(t.gamma_slope),
                "bundle": [
                    {"dj": a.dj, "dgamma": list(a.dgamma),
                     "re": a.d.real, "im": a.d.imag}
                    for a in t.bundle
                ],
            }
            for t in spec.tracks
        ],
    }


# the fields of a spec, a track and a bundle atom: JSON kind and default
# (required when none is given)
_SPEC_FIELDS = {"kind": ("string",), "tracks": ("list of object",), "horizon": ("integer",),
                "p": ("number", 2.0), "noise_amplitude": ("number", 0.0),
                "noise_count": ("integer", 0), "noise_seed": ("integer", 0),
                "allow_overlap": ("bool", False), "check_tail": ("integer or null", None),
                "check_T_div": ("number", 5.0), "check_eps_stable": ("number", 1e-9)}
_TRACK_FIELDS = {"j0": ("integer",), "j_slope": ("integer",), "gamma0": ("list of integer",),
                 "gamma_slope": ("list of integer",), "bundle": ("list of object",)}
_ATOM_FIELDS = {"dj": ("integer",), "dgamma": ("list of integer",), "re": ("number",),
                "im": ("number", 0.0)}


def spec_from_json(obj: dict) -> GeneratorSpec:
    """The spec of a JSON object; ValueError for a field of the wrong JSON type."""
    def atom(a: dict) -> BundleAtom:
        f = json_fields(a, _ATOM_FIELDS, "bundle atom")
        return BundleAtom(dj=f["dj"], dgamma=f["dgamma"], d=complex(f["re"], f["im"]))

    def track(t: dict) -> TrackSpec:
        f = json_fields(t, _TRACK_FIELDS, "track")
        return TrackSpec(**dict(f, bundle=tuple(map(atom, f["bundle"]))))

    f = json_fields(obj, _SPEC_FIELDS, "spec")
    return GeneratorSpec(**dict(f, tracks=tuple(map(track, f["tracks"]))))
