"""File formats: binary grids, JSON-lines coefficient fields and snapshots.

Grid files are little-endian {dim: int32, N: int32, R: float64} followed by
the complex64 sample array in C order.  Coefficient files are UTF-8 JSON
lines with a header object carrying the group, sampling set, and
normalization tag, then one entry per line in canonical (j, gamma) order
(per n for snapshots).  j, gamma and n are JSON integers within
sampling.MAX_LATTICE_COORD = 2^53, re and im are finite JSON numbers.

Writers format each entry line with one fixed template, byte-identical to
json.dumps(entry, sort_keys=True).  Readers stream the file in chunks of
_CHUNK_LINES lines: each chunk is parsed by one json.loads of the lines
joined into a JSON array, and its types, bounds, finiteness, dimensions
and n values are checked on the columns.  A chunk that fails any check,
and every chunk after it, is re-read line by line; duplicates are found on
the columns at the end, or line by line after a re-read.  Either way a
malformed file raises IngestionError naming the same first offending line
a line-by-line reader would.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import struct
from operator import itemgetter
from pathlib import Path

import numpy as np

from .sampling import (
    MAX_LATTICE_COORD,
    AtomIndex,
    SamplingSet,
    lattice_int64,
    sampling_from_json,
    sampling_to_json,
)
from . import groups as _groups
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
_CHUNK_LINES = 256
# json.dumps(..., sort_keys=True) of an entry: keys sorted, ", " and ": "
# separators, floats by repr
_FIELD_LINE = '{"gamma": [%s], "im": %r, "j": %r, "re": %r}\n'
_SNAPSHOT_LINE = '{"gamma": [%s], "im": %r, "j": %r, "n": %r, "re": %r}\n'
# a closing brace followed on the same line by a comma: where one line could
# hold two values of the joined array
_TWO_VALUES = re.compile(r"\}[^\S\n]*,")


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
    # n >= 2 samples per axis fit the file only for dim <= 64
    if not 1 <= dim <= 64 or n < 2 or len(raw) != _GRID_HEADER.size + n**dim * 8:
        raise IngestionError(
            f"grid header {dim=} {n=} inconsistent with file size {len(raw)}")
    samples = np.frombuffer(raw, dtype=np.complex64, offset=_GRID_HEADER.size)
    try:
        return GridFunction(dim, float(r), samples.astype(complex).reshape((n,) * dim))
    except ValueError as exc:
        raise IngestionError(f"grid header or samples: {exc}") from None


# -- shared JSONL helpers ----------------------------------------------------

def _normalization_to_json(norm: Normalization) -> dict:
    out = {"kind": norm.kind}
    if norm.kind == "Lp":
        out["p"] = norm.p
    return out


def _finite(x):
    """x as a float if it is a finite JSON number (int or float, not bool), else None."""
    if type(x) not in (int, float):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _normalization_from_json(obj, lineno: int) -> Normalization:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise IngestionError(
            f"line {lineno}: missing normalization tag; add "
            '"normalization": {"kind": "L1"} or {"kind": "Lp", "p": ...} '
            "to the header")
    if obj["kind"] == "L1":
        return L1_ATOMS
    if obj["kind"] == "Lp":
        p = _finite(obj.get("p"))
        if p is None or p <= 0:
            raise IngestionError(f"line {lineno}: Lp normalization needs a finite "
                                 f"positive exponent p, got {obj.get('p')!r}")
        return lp_atoms(p)
    raise IngestionError(f"line {lineno}: unknown normalization kind {obj['kind']!r}")


def _sampling_from_header(header: dict) -> SamplingSet:
    if "sampling" not in header:
        raise IngestionError("line 1: the header has no sampling set")
    try:
        return sampling_from_json(header["sampling"])
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise IngestionError(f"line 1: bad sampling set ({exc})") from None


def _entry_from_json(obj: dict, dim: int, lineno: int) -> tuple[int, tuple, complex]:
    try:
        j, gamma, re_, im = obj["j"], obj["gamma"], obj["re"], obj.get("im", 0.0)
    except KeyError as exc:
        raise IngestionError(f"line {lineno}: bad coefficient entry ({exc})") from None
    if type(j) is not int or type(gamma) is not list or any(type(x) is not int for x in gamma):
        raise IngestionError(f"line {lineno}: bad coefficient entry "
                             "(j and gamma must be JSON integers)")
    if type(re_) not in (int, float) or type(im) not in (int, float):
        raise IngestionError(f"line {lineno}: bad coefficient entry "
                             "(re and im must be JSON numbers)")
    if len(gamma) != dim:
        raise IngestionError(f"line {lineno}: gamma has {len(gamma)} coordinates, "
                             f"expected {dim}")
    if max(map(abs, [j, *gamma])) > MAX_LATTICE_COORD:
        raise IngestionError(f"line {lineno}: lattice coordinate beyond the bound "
                             f"{MAX_LATTICE_COORD} = 2^53")
    re_, im = _finite(re_), _finite(im)
    if re_ is None or im is None:
        raise IngestionError(f"line {lineno}: non-finite coefficient")
    return j, tuple(gamma), complex(re_, im)


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise IngestionError(f"line {lineno}: invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise IngestionError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _numbered_chunks(fh):
    """(first line number, lines) of a binary file in chunks of at most
    _CHUNK_LINES raw lines, split and numbered as str.splitlines splits the
    whole decoded text."""
    lineno = 1
    while raw := list(itertools.islice(fh, _CHUNK_LINES)):
        try:
            lines = b"".join(raw).decode("utf-8").splitlines()
        except UnicodeDecodeError:
            lines = []
            for r in raw:
                try:
                    lines += r.decode("utf-8").splitlines()
                except UnicodeDecodeError:
                    raise IngestionError(f"line {lineno + len(lines)}: not UTF-8 text") from None
        yield lineno, lines
        lineno += len(lines)


def _joined(parts: list, dim: int) -> tuple:
    """The chunks' entry columns end to end: line numbers, n, j, gammas
    (P, dim) and values, in file order."""
    empty = (np.zeros(0, np.int64),) * 3 + (np.zeros((0, dim), np.int64), np.zeros(0, complex))
    return tuple(np.concatenate(col) for col in zip(empty, *parts))


class _EntryReader:
    """Checks entry lines chunk by chunk and collects their columns.

    n_values is None for a coefficient field (no n key, n = 0 throughout).
    """

    def __init__(self, dim: int, n_values):
        self.dim = dim
        self.n_values = None if n_values is None else set(n_values)
        self.parts: list = []
        self.seen = None   # keys (n, j, gamma) once reading line by line

    def add(self, first: int, lines: list) -> None:
        numbered = [(first + k, line) for k, line in enumerate(lines) if line.strip()]
        if not numbered:
            return
        if self.seen is None:
            cols = self._bulk(numbered)
            if cols is not None:
                self.parts.append(cols)
                return
            _, n, j, gammas, _ = done = _joined(self.parts, self.dim)
            self._check_duplicates(done)
            self.seen = set(zip(n.tolist(), j.tolist(), map(tuple, gammas.tolist())))
        self.parts.append(self._line_by_line(numbered))

    def columns(self) -> tuple:
        cols = _joined(self.parts, self.dim)
        if self.seen is None:
            self._check_duplicates(cols)
        return cols

    def _duplicate(self, lineno: int, n: int, j: int, gamma: tuple) -> IngestionError:
        where = "" if self.n_values is None else f" at n={n}"
        return IngestionError(f"line {lineno}: duplicate index {AtomIndex(j, gamma)}{where}")

    def _check_duplicates(self, cols: tuple) -> None:
        """Raise for the repeated index whose line comes first."""
        lineno, n, j, gammas, _ = cols
        order = np.lexsort((*gammas.T[::-1], j, n))
        rows = np.column_stack([n, j, gammas])[order]
        again = order[np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1)) + 1]
        if len(again):
            k = again[np.argmin(lineno[again])]
            raise self._duplicate(int(lineno[k]), int(n[k]), int(j[k]), tuple(gammas[k].tolist()))

    def _bulk(self, numbered: list):
        """Columns of a chunk parsed as one JSON array, or None if any check fails."""
        text = "[" + "\n,".join(line for _, line in numbered) + "]"
        if _TWO_VALUES.search(text):
            return None
        try:
            objs = json.loads(text)
        except (ValueError, RecursionError):
            return None
        if len(objs) != len(numbered) or set(map(type, objs)) != {dict}:
            return None
        has_n = self.n_values is not None
        try:
            js, gammas, res = (list(map(itemgetter(k), objs)) for k in ("j", "gamma", "re"))
            ns = list(map(itemgetter("n"), objs)) if has_n else [0] * len(objs)
        except KeyError:
            return None
        ims = list(map(dict.get, objs, itertools.repeat("im"), itertools.repeat(0.0)))
        flat = list(itertools.chain.from_iterable(gammas)) \
            if set(map(type, gammas)) == {list} and set(map(len, gammas)) == {self.dim} else None
        if (flat is None or not set(map(type, js + ns + flat)) <= {int}
                or not set(map(type, res + ims)) <= {int, float}
                or (has_n and not set(ns) <= self.n_values)):
            return None
        try:
            j, gamma = lattice_int64(js), lattice_int64(flat).reshape(len(objs), self.dim)
            values = np.empty(len(objs), dtype=complex)
            values.real, values.imag = res, ims
        except (ValueError, OverflowError):  # beyond the bound or a float's range
            return None
        if not np.all(np.isfinite(values)):
            return None
        return (np.array([k for k, _ in numbered], dtype=np.int64),
                np.array(ns, dtype=np.int64), j, gamma, values)

    def _line_by_line(self, numbered: list):
        rows = []
        for lineno, line in numbered:
            obj = _parse_json_line(line, lineno)
            n = 0
            if self.n_values is not None:
                n = obj.get("n")
                if type(n) in (float, bool):
                    raise IngestionError(f"line {lineno}: snapshot n must be a JSON integer, "
                                         f"got {n!r}")
                if type(n) is not int or n not in self.n_values:
                    raise IngestionError(f"line {lineno}: snapshot n={n} not in header list")
            j, gamma, val = _entry_from_json(obj, self.dim, lineno)
            if (n, j, gamma) in self.seen:
                raise self._duplicate(lineno, n, j, gamma)
            self.seen.add((n, j, gamma))
            rows.append((lineno, n, j, gamma, val))
        lineno, n, j, gamma, val = zip(*rows)
        return (np.array(lineno, dtype=np.int64), np.array(n, dtype=np.int64),
                np.array(j, dtype=np.int64),
                np.array(gamma, dtype=np.int64).reshape(len(rows), self.dim),
                np.array(val, dtype=complex))


def _read_coefficients(path, kind: str):
    """Sampling set, normalization, n_values (snapshots only) and entry
    columns of a coefficient file."""
    with open(path, "rb") as fh:
        chunks = _numbered_chunks(fh)
        first, lines = next(chunks, (1, []))
        if not lines:
            raise IngestionError("line 1: empty file, header expected")
        header = _parse_json_line(lines[0], 1)
        if header.get("type") != kind:
            raise IngestionError(f"line 1: header type must be {kind!r}")
        gs = _sampling_from_header(header)
        norm = _normalization_from_json(header.get("normalization"), 1)
        n_values = None
        if kind == "sequence_snapshots":
            n_values = header.get("n_values")
            if not (isinstance(n_values, list) and all(type(n) is int for n in n_values)):
                raise IngestionError("line 1: n_values must be a list of integers")
            if any(abs(n) > MAX_LATTICE_COORD for n in n_values):
                raise IngestionError(f"line 1: n_values beyond the bound {MAX_LATTICE_COORD}")
            if n_values != sorted(set(n_values)):
                raise IngestionError("line 1: n_values must be strictly increasing")
        reader = _EntryReader(gs.group.dim, n_values)
        reader.add(first + 1, lines[1:])
        for first, lines in chunks:
            reader.add(first, lines)
    return gs, norm, n_values, reader.columns()


def _write_entries(fh, c: CoefficientField, n=None) -> None:
    """c's entries as JSON lines, _CHUNK_LINES entries per write."""
    for lo in range(0, len(c), _CHUNK_LINES):
        run = slice(lo, lo + _CHUNK_LINES)
        gammas = [", ".join(map(str, g)) for g in c.gammas[run].tolist()]
        cols = (gammas, c.values[run].imag.tolist(), c.js[run].tolist(),
                c.values[run].real.tolist())
        if n is None:
            fh.write("".join(_FIELD_LINE % row for row in zip(*cols)))
        else:
            fh.write("".join(_SNAPSHOT_LINE % (g, im, j, n, r) for g, im, j, r in zip(*cols)))


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
        _write_entries(fh, c)


def read_field(path) -> CoefficientField:
    gs, norm, _, (_, _, j, gammas, values) = _read_coefficients(path, "coefficient_field")
    return CoefficientField(gs.group, gs, normalization=norm, js=j, gammas=gammas, values=values)


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
            _write_entries(fh, c, int(n))


def read_snapshots(path) -> SequenceSnapshots:
    gs, norm, n_values, (_, n, j, gammas, values) = _read_coefficients(
        path, "sequence_snapshots")
    fields = tuple(CoefficientField(gs.group, gs, normalization=norm, js=j[at], gammas=gammas[at],
                                    values=values[at]) for at in (n == v for v in n_values))
    try:
        return SequenceSnapshots(group=gs.group, sampling=gs, n_values=tuple(n_values),
                                 fields=fields)
    except ValueError as exc:
        raise IngestionError(f"line 1: {exc}") from None


def ingest(path, fmt: str):
    """Dispatch on the declared format: grid | field | snapshots."""
    readers = {"grid": read_grid, "field": read_field, "snapshots": read_snapshots}
    if fmt not in readers:
        raise IngestionError(f"unknown format {fmt!r}; expected one of {sorted(readers)}")
    return readers[fmt](path)
