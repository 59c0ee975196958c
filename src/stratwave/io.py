"""File formats: binary grids, JSON-lines coefficient fields and snapshots.

Grid files are little-endian {dim: int32, N: int32, R: float64} followed by
the complex64 sample array in C order.  Coefficient files are UTF-8 JSON
lines with a header object carrying the group, sampling set, and
normalization tag, then one entry per line in canonical (j, gamma) order
(per n for snapshots).  j, gamma and n are JSON integers within
sampling.MAX_LATTICE_COORD = 2^53, re and im are finite JSON numbers, the
header's group is the sampling set's, and the sampling set's tile is the
one its group and beta define.

Writers format each entry line byte-identical to json.dumps(entry,
sort_keys=True).  Each distinct float bit pattern among a field's or a
snapshot sequence's values is formatted once by float.__repr__ (-0.0 and 0.0
are distinct patterns), since a sequence's snapshots repeat their profiles'
coefficients at moved indices.  Lines are written _CHUNK_LINES at a time,
each chunk by one % of its repeated line template.  Readers stream the file
in chunks of _CHUNK_LINES lines, each parsed by one json.loads of its lines
joined into a JSON array, or line by line up to the first invalid line if
that fails.
One validator checks the parsed rows on their columns, rule by rule, and
keeps the rows before the first that breaks a rule.  Duplicates are found
on the kept columns before any error is raised, so a malformed file raises
IngestionError naming its first bad line, as a line-by-line reader would;
snapshots whose total energy overflows float64 raise it without a line.
"""

from __future__ import annotations

import json
import math
import re
import struct
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from ._json import KINDS, json_typed, load_json
from .sampling import (
    MAX_LATTICE_COORD,
    AtomIndex,
    SamplingSet,
    sampling_from_json,
    sampling_to_json,
)
from . import groups as _groups
from .coeffs import CoefficientField, Normalization
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
]

_GRID_HEADER = struct.Struct("<iid")
_CHUNK_LINES = 256
# a closing brace followed on the same line by a comma: where one line could
# hold two values of the joined array
_TWO_VALUES = re.compile(r"\}[^\S\n]*,")
# the least integer whose float() overflows; also above every finite float
_FLOAT_LIMIT = 2**1024 - 2**970
_MISSING = object()  # a missing key: of no JSON kind, it fails every type rule


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
    return {"kind": "L1"} if norm.kind == "L1" else {"kind": "Lp", "p": norm.p}


def _header(header, kind: str):
    """Sampling set, normalization and n_values (None for a field) of a
    header object; ValueError for any broken rule."""
    header = json_typed(header, "object", "header")
    if header.get("type") != kind:
        raise ValueError(f"header type must be {kind!r}")
    if "sampling" not in header:
        raise ValueError("the header has no sampling set")
    try:
        gs = sampling_from_json(header["sampling"])
    except ValueError as exc:
        raise ValueError(f"bad sampling set ({exc})") from None
    if _groups.group_from_json(header.get("group")) != gs.group:
        raise ValueError("the header group differs from the sampling set's group")
    norm = header.get("normalization")
    if not isinstance(norm, dict) or "kind" not in norm:
        raise ValueError('missing normalization tag; add "normalization": {"kind": "L1"} '
                         'or {"kind": "Lp", "p": ...} to the header')
    p = json_typed(norm["p"], "number", "the Lp exponent p") if "p" in norm else None
    norm = Normalization(norm["kind"], p)
    n_values = None
    if kind == "sequence_snapshots":
        n_values = json_typed(header.get("n_values"), "list of integer", "n_values")
        if any(abs(n) > MAX_LATTICE_COORD for n in n_values):
            raise ValueError(f"n_values beyond the bound {MAX_LATTICE_COORD}")
        if n_values != tuple(sorted(set(n_values))):
            raise ValueError("n_values must be strictly increasing")
        if norm.kind != "Lp":
            raise ValueError("snapshots must carry Lp-atom normalization")
    return gs, norm, n_values


def _numbered_chunks(fh):
    """(first line number, lines, error) of a binary file in chunks of at
    most _CHUNK_LINES raw lines, split and numbered as str.splitlines splits
    the whole decoded text.  A chunk that is not UTF-8 ends before its first
    undecodable line, and error is the IngestionError naming that line."""
    lineno = 1
    while raw := list(islice(fh, _CHUNK_LINES)):
        data = b"".join(raw)
        try:
            lines, error = data.decode("utf-8").splitlines(), None
        except UnicodeDecodeError as exc:  # keep the raw lines before the undecodable one
            lines = data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8").splitlines()
            error = IngestionError(f"line {lineno + len(lines)}: not UTF-8 text")
        yield lineno, lines, error
        lineno += len(lines)


def _parse(first: int, lines: list, error):
    """Line numbers and values of a chunk's non-blank lines, the first
    numbered `first`, parsed as one JSON array.  If that fails they are
    parsed line by line, and the first line that is not one JSON value ends
    them and replaces the pending error."""
    text = "[" + "\n,".join(lines) + "]"  # a blank line fails here
    if not _TWO_VALUES.search(text):
        try:
            objs = json.loads(text)
        except (ValueError, RecursionError):
            objs = None
        if objs is not None and len(objs) == len(lines):
            return np.arange(first, first + len(lines)), objs, error
    numbered, objs = [], []
    for lineno, line in enumerate(lines, first):
        if line.strip():
            try:
                objs.append(load_json(line))
            except ValueError as exc:
                error = IngestionError(f"line {lineno}: {exc}")
                break
            numbered.append(lineno)
    return np.array(numbered, dtype=np.int64), objs, error


def _joined(parts: list, dim: int) -> tuple:
    """The chunks' entry columns end to end: line numbers, n, j, gammas
    (P, dim) and values, in file order."""
    empty = (np.zeros(0, np.int64),) * 3 + (np.zeros((0, dim), np.int64), np.zeros(0, complex))
    return tuple(np.concatenate(col) for col in zip(empty, *parts))


class _EntryReader:
    """Validates entry lines chunk by chunk and collects their columns.

    n_values is None for a coefficient field (no n key, n = 0 throughout).
    """

    def __init__(self, dim: int, n_values):
        self.dim = dim
        self.n_values = None if n_values is None else set(n_values)
        self.parts: list = []

    def add(self, first: int, lines: list, error=None) -> None:
        """Keep the valid rows of a chunk whose first line is numbered
        `first`; raise at its first bad line, or else its pending error."""
        numbered, objs, error = _parse(first, lines, error)
        stop, message, cols = self._rows(objs)
        self.parts.append((numbered[:stop], *cols))
        if message is not None:
            error = IngestionError(f"line {numbered[stop]}: {message}")
        if error is not None:
            self.columns()  # a duplicate on an earlier line comes first
            raise error

    def columns(self) -> tuple:
        """The entry columns n, j, gammas and values, sorted by (n, j, gamma),
        once no index repeats."""
        self.parts = [_joined(self.parts, self.dim)]  # the chunks' arrays are freed
        lineno, n, j, gammas, values = self.parts[0]
        order = np.lexsort((*gammas.T[::-1], j, n))
        ns, js, gm = n[order], j[order], gammas[order]
        same = (ns[1:] == ns[:-1]) & (js[1:] == js[:-1]) & np.all(gm[1:] == gm[:-1], axis=1)
        again = order[np.flatnonzero(same) + 1]
        if len(again):  # raise for the repeated index whose line comes first
            k = again[np.argmin(lineno[again])]
            where = "" if self.n_values is None else f" at n={n[k]}"
            raise IngestionError(f"line {lineno[k]}: duplicate index "
                                 f"{AtomIndex(int(j[k]), tuple(gammas[k].tolist()))}{where}")
        return ns, js, gm, values[order]

    def _rows(self, objs: list):
        """The number of rows before the first that breaks a rule, its message
        (None if every row passes) and the columns n, j, gammas and values of
        the rows before it.  Each rule checks only the rows before the first
        failure found so far, which passed every earlier rule."""
        stop, message, dim = len(objs), None, self.dim

        def rule(k: int, text) -> None:
            """Row k is the rule's first failure; text(k) is its message."""
            nonlocal stop, message
            if k < stop:
                stop, message = k, text(k)

        rule(_first(objs, stop, KINDS["object"]),
             lambda k: f"expected a JSON object, got {type(objs[k]).__name__}")
        rows = objs[:stop]
        ns = [0] * stop
        if self.n_values is not None:
            ns = list(map(dict.get, rows, repeat("n")))

            def bad_n(k):
                if type(ns[k]) in (float, bool):
                    return f"snapshot n must be a JSON integer, got {ns[k]!r}"
                return f"snapshot n={ns[k]} not in header list"
            rule(_first(ns, stop, KINDS["integer"]), bad_n)
            rule(_first(ns, stop, {True}, self.n_values.__contains__), bad_n)
        js, gammas, res = (list(map(dict.get, rows, repeat(key), repeat(_MISSING)))
                           for key in ("j", "gamma", "re"))
        ims = list(map(dict.get, rows, repeat("im"), repeat(0.0)))
        integers = "bad coefficient entry (j and gamma must be JSON integers)"

        def entry(key, col, message):
            """row k's message: its key is missing, or else `message`"""
            return lambda k: f"bad coefficient entry ({key!r})" if col[k] is _MISSING else message
        rule(_first(js, stop, KINDS["integer"]), entry("j", js, integers))
        rule(_first(gammas, stop, KINDS["list"]), entry("gamma", gammas, integers))
        rule(_first(gammas, stop, {dim}, len),
             lambda k: f"gamma has {len(gammas[k])} coordinates, expected {dim}")
        flat = list(chain.from_iterable(gammas[:stop]))
        rule(_first(flat, stop * dim, KINDS["integer"]) // dim, lambda k: integers)
        rule(min(_first(res, stop, KINDS["number"]), _first(ims, stop, KINDS["number"])),
             entry("re", res, "bad coefficient entry (re and im must be JSON numbers)"))
        bound = MAX_LATTICE_COORD
        j = _array(js[:stop], np.int64, bound + 1, bound + 1)
        gamma = _array(flat[:stop * dim], np.int64, bound + 1, bound + 1).reshape(stop, dim)
        coords = np.column_stack([j, gamma])
        rule(_first_false(np.all((coords >= -bound) & (coords <= bound), axis=1)),
             lambda k: f"lattice coordinate beyond the bound {bound} = 2^53")
        values = np.empty(stop, dtype=complex)
        values.real = _array(res[:stop], float, _FLOAT_LIMIT, math.inf)
        values.imag = _array(ims[:stop], float, _FLOAT_LIMIT, math.inf)
        rule(_first_false(np.isfinite(values)), lambda k: "non-finite coefficient")
        return stop, message, (np.array(ns[:stop], dtype=np.int64), j[:stop], gamma[:stop],
                               values[:stop])


def _first(col: list, stop: int, allowed: set, key=type) -> int:
    """Position of the first of col's first stop items whose key is not in
    allowed, or stop."""
    col = col if stop == len(col) else col[:stop]
    if set(map(key, col)) <= allowed:
        return stop
    return next(k for k, x in enumerate(col) if key(x) not in allowed)


def _first_false(ok: np.ndarray) -> int:
    return len(ok) if ok.all() else int(np.argmin(ok))


def _array(numbers: list, dtype, limit, beyond) -> np.ndarray:
    """JSON numbers as a dtype array; if some are too large for dtype, those
    whose absolute value is limit or more become `beyond`."""
    try:
        return np.array(numbers, dtype=dtype)
    except OverflowError:
        return np.array([beyond if abs(x) >= limit else x for x in numbers], dtype=dtype)


def _read_coefficients(path, kind: str):
    """Sampling set, normalization, n_values (snapshots only) and the entry
    columns n, j, gammas and values of a coefficient file, in (n, j, gamma)
    order."""
    with open(path, "rb") as fh:
        chunks = _numbered_chunks(fh)
        first, lines, error = next(chunks, (1, [], None))
        if not lines:
            raise error or IngestionError("line 1: empty file, header expected")
        try:
            gs, norm, n_values = _header(load_json(lines[0]), kind)
        except ValueError as exc:
            raise IngestionError(f"line 1: {exc}") from None
        reader = _EntryReader(gs.group.dim, n_values)
        reader.add(first + 1, lines[1:], error)
        for chunk in chunks:
            reader.add(*chunk)
    return gs, norm, n_values, reader.columns()


def _line_template(dim: int, n) -> str:
    """An entry line as json.dumps(entry, sort_keys=True) writes it (keys
    sorted, ", " and ": " separators, floats by repr), with %d for gamma's dim
    coordinates and j, %s for the formatted im and re; n (None for a field)
    is written into the template."""
    n_key = "" if n is None else f'"n": {n}, '
    return f'{{"gamma": [{", ".join(["%d"] * dim)}], "im": %s, "j": %d, {n_key}"re": %s}}\n'


# -- coefficient fields ------------------------------------------------------

def _write_coefficients(path, header: dict, gs: SamplingSet, norm, runs: list) -> None:
    """The header line, completed with gs, its group and norm, then the
    entries of each (n, field) of runs; n is None for a coefficient field.
    A chunk's rows fill one object array, the floats from the runs' formatted
    distinct bit patterns."""
    header.update(group=_groups.group_to_json(gs.group), sampling=sampling_to_json(gs),
                  normalization=_normalization_to_json(norm))
    dim = gs.group.dim
    # re and im of every entry, interleaved, as positions in the distinct bit
    # patterns: -0.0 and 0.0 differ in their bits
    bits = np.concatenate([c.values for _, c in runs]).view(np.int64)
    distinct, which = np.unique(bits, return_inverse=True)
    text = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        at = 0
        for n, c in runs:
            line = _line_template(dim, n)
            for lo in range(0, len(c), _CHUNK_LINES):
                hi = min(lo + _CHUNK_LINES, len(c))
                rows = np.empty((hi - lo, dim + 3), dtype=object)
                rows[:, :dim] = c.gammas[lo:hi]
                rows[:, dim + 1] = c.js[lo:hi]
                rows[:, [dim + 2, dim]] = text[which[2 * (at + lo):2 * (at + hi)]].reshape(-1, 2)
                fh.write(line * (hi - lo) % tuple(rows.ravel().tolist()))
            at += len(c)


def write_field(path, c: CoefficientField) -> None:
    _write_coefficients(path, {"type": "coefficient_field"}, c.sampling, c.normalization,
                        [(None, c)])


def read_field(path) -> CoefficientField:
    gs, norm, _, (_, j, gammas, values) = _read_coefficients(path, "coefficient_field")
    return CoefficientField._canonical(gs, norm, j, gammas, values)


# -- sequence snapshots ------------------------------------------------------

def write_snapshots(path, s: SequenceSnapshots) -> None:
    if not s.fields:
        raise ValueError("a sequence with no snapshots has no normalization to write")
    _write_coefficients(path, {"type": "sequence_snapshots", "n_values": list(s.n_values)},
                        s.sampling, s.fields[0].normalization,
                        list(zip(s.n_values, s.fields)))


def read_snapshots(path) -> SequenceSnapshots:
    gs, norm, n_values, (n, j, gammas, values) = _read_coefficients(
        path, "sequence_snapshots")
    bounds = [*np.searchsorted(n, n_values).tolist(), len(n)]  # every n is in n_values
    # each snapshot copies its run, so that none pins the whole file's arrays
    fields = tuple(CoefficientField._canonical(gs, norm, j[lo:hi].copy(), gammas[lo:hi].copy(),
                                               values[lo:hi].copy())
                   for lo, hi in zip(bounds, bounds[1:]))
    try:
        return SequenceSnapshots(gs, n_values, fields)
    except _groups.DomainError as exc:  # entries finite one by one, their energy not
        raise IngestionError(str(exc)) from None
