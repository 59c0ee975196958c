"""File formats: binary grids, JSON-lines coefficient fields and snapshots.

Grid files are little-endian {dim: int32, N: int32, R: float64} followed by
the complex64 sample array in C order.  Coefficient files are JSON lines
with a header object carrying the group, sampling set, and normalization
tag; every malformed line is reported with its line number.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from . import groups as _groups
from .sampling import AtomIndex, SamplingSet, sampling_from_json, sampling_to_json
from .coeffs import CoefficientField, L1_ATOMS, Normalization, lp_atoms
from .profiles import SequenceSnapshots
from .transform import GridFunction

__all__ = [
    "IngestionError",
    "write_grid",
    "read_grid",
    "write_field",
    "read_field",
    "write_snapshots",
    "read_snapshots",
    "ingest",
]

_GRID_HEADER = struct.Struct("<iid")


class IngestionError(ValueError):
    """Malformed input file; message carries the offending line number."""


# -- grids -------------------------------------------------------------------

def write_grid(path, f: GridFunction) -> None:
    with open(path, "wb") as fh:
        fh.write(_GRID_HEADER.pack(f.dim, f.N, f.extent))
        fh.write(np.ascontiguousarray(f.samples, dtype=np.complex64).tobytes())


def read_grid(path) -> GridFunction:
    raw = Path(path).read_bytes()
    if len(raw) < _GRID_HEADER.size:
        raise IngestionError("grid file too short for its header")
    dim, n, r = _GRID_HEADER.unpack_from(raw)
    expected = _GRID_HEADER.size + n**dim * 8
    if dim < 1 or n < 2 or len(raw) != expected:
        raise IngestionError(
            f"grid header {dim=} {n=} inconsistent with file size {len(raw)}")
    samples = np.frombuffer(raw, dtype=np.complex64, offset=_GRID_HEADER.size)
    return GridFunction(dim, float(r), samples.astype(complex).reshape((n,) * dim))


# -- shared JSONL helpers ----------------------------------------------------

def _normalization_to_json(norm: Normalization) -> dict:
    out = {"kind": norm.kind}
    if norm.kind == "Lp":
        out["p"] = norm.p
    return out


def _normalization_from_json(obj, lineno: int) -> Normalization:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise IngestionError(
            f"line {lineno}: missing normalization tag; add "
            '"normalization": {"kind": "L1"} or {"kind": "Lp", "p": ...} '
            "to the header")
    if obj["kind"] == "L1":
        return L1_ATOMS
    if obj["kind"] == "Lp":
        return lp_atoms(float(obj["p"]))
    raise IngestionError(f"line {lineno}: unknown normalization kind {obj['kind']!r}")


def _entry_from_json(obj: dict, dim: int, lineno: int) -> tuple[AtomIndex, complex]:
    try:
        j = int(obj["j"])
        gamma = tuple(int(x) for x in obj["gamma"])
        val = complex(float(obj["re"]), float(obj.get("im", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"line {lineno}: bad coefficient entry ({exc})") from None
    if len(gamma) != dim:
        raise IngestionError(f"line {lineno}: gamma has {len(gamma)} coordinates, "
                             f"expected {dim}")
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise IngestionError(f"line {lineno}: non-finite coefficient")
    return AtomIndex(j, gamma), val


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise IngestionError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
    return obj


# -- coefficient fields ------------------------------------------------------

def write_field(path, c: CoefficientField) -> None:
    header = {
        "type": "coefficient_field",
        "group": _groups.group_to_json(c.group),
        "sampling": sampling_to_json(c.sampling),
        "normalization": _normalization_to_json(c.normalization),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for idx in sorted(c.entries):
            val = c.entries[idx]
            fh.write(json.dumps({"j": idx.j, "gamma": list(idx.gamma),
                                 "re": val.real, "im": val.imag},
                                sort_keys=True) + "\n")


def read_field(path) -> CoefficientField:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise IngestionError("line 1: empty file, header expected")
    header = _parse_json_line(lines[0], 1)
    if header.get("type") != "coefficient_field":
        raise IngestionError("line 1: header type must be 'coefficient_field'")
    gs = sampling_from_json(header["sampling"])
    norm = _normalization_from_json(header.get("normalization"), 1)
    entries: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        idx, val = _entry_from_json(_parse_json_line(line, lineno), gs.group.dim, lineno)
        if idx in entries:
            raise IngestionError(f"line {lineno}: duplicate index {idx}")
        entries[idx] = val
    return CoefficientField(group=gs.group, sampling=gs, entries=entries,
                            normalization=norm)


# -- sequence snapshots ------------------------------------------------------

def write_snapshots(path, s: SequenceSnapshots) -> None:
    header = {
        "type": "sequence_snapshots",
        "group": _groups.group_to_json(s.group),
        "sampling": sampling_to_json(s.sampling),
        "normalization": _normalization_to_json(s.fields[0].normalization),
        "n_values": list(s.n_values),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for n, c in zip(s.n_values, s.fields):
            for idx in sorted(c.entries):
                val = c.entries[idx]
                fh.write(json.dumps({"n": n, "j": idx.j, "gamma": list(idx.gamma),
                                     "re": val.real, "im": val.imag},
                                    sort_keys=True) + "\n")


def read_snapshots(path) -> SequenceSnapshots:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise IngestionError("line 1: empty file, header expected")
    header = _parse_json_line(lines[0], 1)
    if header.get("type") != "sequence_snapshots":
        raise IngestionError("line 1: header type must be 'sequence_snapshots'")
    gs = sampling_from_json(header["sampling"])
    norm = _normalization_from_json(header.get("normalization"), 1)
    n_values = header.get("n_values")
    if not (isinstance(n_values, list)
            and all(isinstance(n, int) and not isinstance(n, bool) for n in n_values)):
        raise IngestionError("line 1: n_values must be a list of integers")
    per_n: dict = {n: {} for n in n_values}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        obj = _parse_json_line(line, lineno)
        n = obj.get("n")
        if not isinstance(n, (int, float)) or n not in per_n:
            raise IngestionError(f"line {lineno}: snapshot n={n} not in header list")
        idx, val = _entry_from_json(obj, gs.group.dim, lineno)
        if idx in per_n[n]:
            raise IngestionError(f"line {lineno}: duplicate index {idx} at n={n}")
        per_n[n][idx] = val
    fields = tuple(
        CoefficientField(group=gs.group, sampling=gs, entries=per_n[n],
                         normalization=norm)
        for n in n_values
    )
    return SequenceSnapshots(group=gs.group, sampling=gs,
                             n_values=tuple(n_values), fields=fields)


def ingest(path, fmt: str):
    """Dispatch on the declared format: grid | field | snapshots."""
    readers = {"grid": read_grid, "field": read_field, "snapshots": read_snapshots}
    if fmt not in readers:
        raise IngestionError(f"unknown format {fmt!r}; expected one of {sorted(readers)}")
    return readers[fmt](path)
