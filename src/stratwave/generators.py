"""Synthetic bounded sequences with prescribed escape mechanisms.

`generate(spec, gs)` realizes a spec on the sampling set gs.  Each track
places a fixed coefficient bundle along an affine scale/core law
(j(n), gamma(n)); reindexing preserves the coefficient multiset, so the
sequence norm is constant by construction.  Mixtures are checked after
generation: the component tracks must actually satisfy the orthogonality
they declare, unless overlap is explicitly allowed (adversarial inputs).

A track's atom indices for every n come from one batched call of the exact
lattice law; indices beyond sampling.MAX_LATTICE_COORD are refused with
`DomainError` before they are stored as int64.  A spec whose horizon x
(bundle atoms + noise entries) x dim int64 coordinates would exceed
sampling.MAX_ARRAY_BYTES is refused with `DomainError` before any is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._json import json_fields
from .groups import DomainError
from .sampling import MAX_ARRAY_BYTES, AtomIndex, SamplingSet, lattice_int64
from .coeffs import CoefficientField, lp_atoms
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


def _track_indices(spec: GeneratorSpec, gs: SamplingSet, t: TrackSpec):
    """Every bundle atom's (j, gamma) for every n, exactly: (A, H) scales and
    (A, H, dim) lattice points as Python-int object arrays."""
    n = np.arange(spec.horizon, dtype=object)
    core = np.array(t.gamma0, dtype=object) + n[:, None] * np.array(t.gamma_slope, dtype=object)
    dj = np.array([a.dj for a in t.bundle], dtype=object)
    dgamma = np.array([a.dgamma for a in t.bundle], dtype=object)
    gammas = gs.lat_mul(gs.lat_dilate(core[None], dj[:, None]), dgamma[:, None, :])
    return (t.j0 + t.j_slope * n)[None, :] + dj[:, None], gammas


def generate(spec: GeneratorSpec, gs: SamplingSet) -> SequenceSnapshots:
    """Realize the generator law as a sequence of coefficient fields on gs."""
    dim = gs.group.dim
    for k, t in enumerate(spec.tracks):
        if {len(t.gamma0), len(t.gamma_slope)} | {len(a.dgamma) for a in t.bundle} != {dim}:
            raise ValueError(f"track {k}: core and bundle offsets need {dim} coordinates")
    noise = spec.noise_count if spec.noise_amplitude != 0.0 else 0
    entries = sum(len(t.bundle) for t in spec.tracks) + noise
    need = 8 * spec.horizon * entries * dim
    if need > MAX_ARRAY_BYTES:
        raise DomainError(f"{spec.horizon} snapshots of {entries} entries need {need} B of "
                          f"lattice coordinates, over the {MAX_ARRAY_BYTES} B budget")
    laws = [_track_indices(spec, gs, t) for t in spec.tracks]
    # entries per snapshot in insertion order: tracks, their atoms, then the noise
    js = np.concatenate([j for j, _ in laws]).T
    gammas = np.concatenate([gm for _, gm in laws]).transpose(1, 0, 2)
    js, gammas = lattice_int64(js), lattice_int64(gammas)
    values = np.array([complex(a.d) for t in spec.tracks for a in t.bundle], dtype=complex)
    noise_gammas, noise_values = _noise(spec, gs, noise)
    n_track = len(values)
    js = np.concatenate([js, np.zeros((spec.horizon, len(noise_values)), dtype=np.int64)], axis=1)
    values = np.concatenate([values, noise_values])
    fields = []
    for n in range(spec.horizon):
        gammas_n = np.concatenate([gammas[n], noise_gammas])
        f = CoefficientField(gs, normalization=lp_atoms(spec.p), js=js[n], gammas=gammas_n,
                             values=values)
        if len(f) < len(values) and not spec.allow_overlap:
            # the first entry, in insertion order, whose index came before
            rows = np.column_stack([js[n], gammas_n])
            k = min(set(range(len(rows))) - set(np.unique(rows, axis=0, return_index=True)[1]))
            if k >= n_track:
                raise GeneratorError(f"noise collides with a track at n={n}")
            raise GeneratorError(f"track collision at n={n}, index "
                                 f"{AtomIndex(int(js[n][k]), tuple(gammas_n[k].tolist()))}; "
                                 "declared orthogonality is violated")
        fields.append(f)

    snaps = SequenceSnapshots(gs, tuple(range(spec.horizon)), tuple(fields))

    norms = snaps.norms
    if not spec.allow_overlap and np.max(np.abs(norms - norms[0])) > 1e-12 * max(norms[0], 1.0):
        raise GeneratorError("sequence norm drifts although no overlap was declared")

    if len(spec.tracks) > 1 and not spec.allow_overlap:
        # each track against the later ones: the first failing pair in (a, b) order
        cores = [[t.core_at(n) for n in range(spec.horizon)] for t in spec.tracks]
        T_div, eps = spec.check_T_div, spec.check_eps_stable
        rows_of = _row_classifier(gs, np.array([[j for j, _ in c] for c in cores], dtype=np.int64),
                                  np.array([[g for _, g in c] for c in cores], dtype=np.int64),
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
