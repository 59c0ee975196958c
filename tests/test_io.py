"""File formats: round trips and per-line ingestion diagnostics."""

import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from stratwave import io as sio
from conftest import as_dict, custom_3_2, field_of


def sample_field():
    g = sw.heisenberg(1)
    gs = sw.preset_sampling_set(g, 0.5)
    entries = {sw.AtomIndex(0, (0, 0, 0)): 1.0 + 2.0j,
               sw.AtomIndex(2, (-1, 3, 7)): -0.25 + 0j}
    return field_of(gs, entries, sw.lp_atoms(2.0))


def test_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    f = sw.GridFunction(2, 4.0, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    path = tmp_path / "f.grid"
    sio.write_grid(path, f)
    g = sio.read_grid(path)
    assert g.dim == 2 and g.N == 16 and g.extent == 4.0
    # complex64 storage quantizes
    assert np.max(np.abs(g.samples - f.samples)) <= 1e-6


def test_grid_bad_header(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(sio.IngestionError, match="header"):
        sio.read_grid(path)
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(sio.IngestionError):
        sio.read_grid(path)


def test_field_roundtrip(tmp_path):
    c = sample_field()
    path = tmp_path / "c.jsonl"
    sio.write_field(path, c)
    c2 = sio.read_field(path)
    assert c2.normalization == c.normalization
    assert c2.sampling.group.kind == c.sampling.group.kind
    assert as_dict(c2) == as_dict(c)


def test_snapshots_roundtrip(tmp_path):
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    spec = sw.GeneratorSpec(
        kind="translating",
        tracks=(sw.TrackSpec(j0=0, j_slope=0, gamma0=(0,), gamma_slope=(2,),
                             bundle=(sw.BundleAtom(0, (0,), 1.0),)),),
        horizon=5)
    snaps = sw.generate(spec, gs)
    path = tmp_path / "s.jsonl"
    sio.write_snapshots(path, snaps)
    s2 = sio.read_snapshots(path)
    assert s2.n_values == snaps.n_values
    for a, b in zip(snaps.fields, s2.fields):
        assert as_dict(a) == as_dict(b)


@pytest.mark.parametrize("kind", ["field", "snapshots"])
def test_written_header_group_is_the_sampling_sets(tmp_path, kind):
    # a field has no group of its own, so the writers cannot put a group
    # beside its sampling set that the readers would refuse
    gs = sw.preset_sampling_set(sw.abelian(3), 0.5)
    c = field_of(gs, {sw.AtomIndex(0, (1, 2, 3)): 1.0}, sw.lp_atoms(2.0))
    path = tmp_path / "c.jsonl"
    if kind == "field":
        sio.write_field(path, c)
        back = sio.read_field(path)
    else:
        sio.write_snapshots(path, sw.SequenceSnapshots(gs, (0, 1), (c, c)))
        back = sio.read_snapshots(path).fields[1]
    header = json.loads(path.read_text().splitlines()[0])
    assert header["group"] == sw.groups.group_to_json(sw.abelian(3))
    assert back.sampling == gs and as_dict(back) == as_dict(c)


def field_lines(tmp_path):
    c = sample_field()
    path = tmp_path / "c.jsonl"
    sio.write_field(path, c)
    return path, path.read_text().splitlines()


def test_bad_json_line_reports_lineno(tmp_path):
    path, lines = field_lines(tmp_path)
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sio.IngestionError, match="line 3"):
        sio.read_field(path)


def test_duplicate_index_rejected(tmp_path):
    path, lines = field_lines(tmp_path)
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(sio.IngestionError, match="duplicate"):
        sio.read_field(path)


def test_nonfinite_coefficient_rejected(tmp_path):
    path, lines = field_lines(tmp_path)
    obj = json.loads(lines[1])
    obj["re"] = float("inf")  # serialized as the JSON extension "Infinity"
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sio.IngestionError, match="line 2"):
        sio.read_field(path)


def test_wrong_gamma_dimension(tmp_path):
    path, lines = field_lines(tmp_path)
    obj = json.loads(lines[1])
    obj["gamma"] = [0, 0]
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sio.IngestionError, match="coordinates"):
        sio.read_field(path)


def test_missing_normalization_hint(tmp_path):
    path, lines = field_lines(tmp_path)
    header = json.loads(lines[0])
    del header["normalization"]
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sio.IngestionError, match="add"):
        sio.read_field(path)


def test_wrong_header_type(tmp_path):
    path, lines = field_lines(tmp_path)
    with pytest.raises(sio.IngestionError, match="sequence_snapshots"):
        sio.read_snapshots(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(sio.IngestionError, match="line 1"):
        sio.read_field(path)


# -- strict ingestion --------------------------------------------------------

def snapshot_lines(tmp_path):
    spec = sw.GeneratorSpec(
        kind="translating",
        tracks=(sw.TrackSpec(j0=0, j_slope=0, gamma0=(0, 0, 0), gamma_slope=(2, 0, 0),
                             bundle=(sw.BundleAtom(0, (0, 0, 0), 1.0 - 0.5j),
                                     sw.BundleAtom(1, (1, 0, 1), 0.25))),),
        horizon=4)
    g = sw.heisenberg(1)
    path = tmp_path / "s.jsonl"
    sio.write_snapshots(path, sw.generate(spec, sw.preset_sampling_set(g, 1.0)))
    return path, path.read_text().splitlines()


def rewrite(path, lines, k, obj):
    lines = list(lines)
    lines[k] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("reader, mutate, message", [
    (sio.read_field, lambda h: h.update(sampling=3), "line 1: bad sampling set"),
    (sio.read_field, lambda h: h.pop("sampling"), "line 1: the header has no sampling set"),
    (sio.read_field, lambda h: h["sampling"]["group"].update(d=10**6), "line 1: bad sampling set"),
    (sio.read_field, lambda h: h["sampling"].update(beta=-1.0), "line 1: bad sampling set"),
    (sio.read_field, lambda h: h["normalization"].update(p=float("nan")), "exponent"),
    (sio.read_snapshots, lambda h: h.update(n_values=[0, 2, 1, 3]), "strictly increasing"),
    (sio.read_snapshots, lambda h: h.update(n_values=[0, 1, 2, 2**60]), "bound"),
    (sio.read_snapshots, lambda h: h.update(normalization={"kind": "L1"}), "line 1: "),
], ids=["scalar-sampling", "no-sampling", "huge-group", "bad-beta", "nan-p", "unsorted-n",
        "huge-n", "L1-snapshots"])
def test_bad_header_raises_ingestion_error(tmp_path, reader, mutate, message):
    if reader is sio.read_field:
        path, lines = field_lines(tmp_path)
    else:
        path, lines = snapshot_lines(tmp_path)
    header = json.loads(lines[0])
    mutate(header)
    rewrite(path, lines, 0, header)
    with pytest.raises(sio.IngestionError, match=message):
        reader(path)



def test_header_group_with_the_opposite_bracket_is_refused(tmp_path):
    gs = sw.SamplingSet(custom_3_2(), 1.0)
    c = field_of(gs, {sw.AtomIndex(1, (1, -2, 3, 4, -5)): 0.5 + 0j}, sw.lp_atoms(2.0))
    path = tmp_path / "c.jsonl"
    sio.write_field(path, c)
    assert sio.read_field(path).sampling == gs
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["group"]["coefficients"] = (-np.array(header["group"]["coefficients"])).tolist()
    rewrite(path, lines, 0, header)
    with pytest.raises(sio.IngestionError,
                       match="line 1: the header group differs from the sampling set's group"):
        sio.read_field(path)


@pytest.mark.parametrize("reader", [sio.read_field, sio.read_snapshots],
                         ids=["field", "snapshots"])
def test_header_tile_must_be_the_lattices(tmp_path, reader):
    # a well-typed tile that is not [0, beta) x [0, beta) x [0, beta^2/2)
    path, lines = (field_lines if reader is sio.read_field else snapshot_lines)(tmp_path)
    header = json.loads(lines[0])
    header["sampling"]["tile"][-1][1] *= 2.0
    rewrite(path, lines, 0, header)
    with pytest.raises(sio.IngestionError,
                       match=r"line 1: bad sampling set \(the tile must be the lattice's"):
        reader(path)

@pytest.mark.parametrize("entry, message", [
    ({"j": 2.7, "gamma": [1.9, 2, 3], "re": "1.5", "im": True}, "JSON integers"),
    ({"j": 2, "gamma": [1, 2, 3], "re": "1.5", "im": 0.0}, "JSON numbers"),
    ({"j": 2, "gamma": [1, 2, 3], "re": 1.5, "im": True}, "JSON numbers"),
    ({"j": True, "gamma": [1, 2, 3], "re": 1.5}, "JSON integers"),
    ({"j": 2, "gamma": [10**30, 2, 3], "re": 1.5}, "bound"),
    ({"j": 2, "gamma": [2**53 + 1, 2, 3], "re": 1.5}, "bound"),
    ({"j": 2, "gamma": [1, 2, 3], "re": 10**400}, "non-finite"),
    ({"j": 2, "gamma": 5, "re": 1.5}, "JSON integers"),
], ids=["lenient-types", "string-re", "bool-im", "bool-j", "huge-gamma", "beyond-2^53",
        "huge-int-re", "scalar-gamma"])
def test_bad_entry_raises_ingestion_error(tmp_path, entry, message):
    path, lines = field_lines(tmp_path)
    rewrite(path, lines, 2, entry)
    with pytest.raises(sio.IngestionError, match=f"line 3: .*{message}"):
        sio.read_field(path)


def test_bound_is_inclusive(tmp_path):
    path, lines = field_lines(tmp_path)
    rewrite(path, lines, 2, {"j": 2, "gamma": [2**53, -2**53, 3], "re": 1.5})
    assert sw.AtomIndex(2, (2**53, -2**53, 3)) in as_dict(sio.read_field(path))


@pytest.mark.parametrize("n", [1.0, True], ids=["float", "bool"])
def test_snapshot_n_must_be_integer(tmp_path, n):
    path, lines = snapshot_lines(tmp_path)
    obj = json.loads(lines[3])
    obj["n"] = n
    rewrite(path, lines, 3, obj)
    with pytest.raises(sio.IngestionError, match="line 4: snapshot n must be a JSON integer"):
        sio.read_snapshots(path)


@pytest.mark.parametrize("n", [7, -1, [0], None], ids=["unlisted", "negative", "list", "null"])
def test_snapshot_n_must_be_in_header_list(tmp_path, n):
    path, lines = snapshot_lines(tmp_path)
    obj = json.loads(lines[3])
    obj["n"] = n
    rewrite(path, lines, 3, obj)
    with pytest.raises(sio.IngestionError, match=r"line 4: snapshot n=.* not in header list"):
        sio.read_snapshots(path)


def test_non_utf8_bytes_report_line(tmp_path):
    path, lines = field_lines(tmp_path)
    raw = ("\n".join(lines) + "\n").encode()
    at = raw.index(b"\n", raw.index(b"\n") + 1) + 3  # inside line 3
    path.write_bytes(raw[:at] + b"\xff\xfe" + raw[at:])
    with pytest.raises(sio.IngestionError, match="line 3: not UTF-8"):
        sio.read_field(path)


@pytest.mark.parametrize("extent", [-2.0, 0.0, float("nan"), float("inf")])
def test_grid_extent_must_be_finite_positive(tmp_path, extent):
    with pytest.raises(ValueError, match="extent"):
        sw.GridFunction(1, extent, np.zeros(8, dtype=complex))
    path = tmp_path / "f.grid"
    sio.write_grid(path, sw.GridFunction(1, 1.0, np.zeros(8, dtype=complex)))
    raw = bytearray(path.read_bytes())
    raw[8:16] = np.float64(extent).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(sio.IngestionError, match="extent"):
        sio.read_grid(path)


def test_entry_lines_match_json_dumps(tmp_path, monkeypatch):
    # two-line chunks: each run spans several, and a five-entry run ends mid-chunk
    monkeypatch.setattr(sio, "_CHUNK_LINES", 2)
    g = sw.abelian(2)
    gs = sw.preset_sampling_set(g, 1.0)
    values = [complex(-0.0, 0.0), 5e-324 - 5e-324j, 1e308 + 2.5j, -1.0 / 3.0 + 0.1j,
              complex(7.0, -0.0)]
    keys = [(0, (0, 0)), (-3, (2**53, -2**53)), (2**40, (1, -1)), (5, (123456789, 0)),
            (-(2**53), (0, 9))]

    def field(keys, values):
        return field_of(gs, dict(zip(keys, values)), sw.lp_atoms(2.0))

    def lines(c, n=None):
        return [json.dumps({"j": idx.j, "gamma": list(idx.gamma), "re": v.real, "im": v.imag,
                            **({} if n is None else {"n": n})}, sort_keys=True)
                for idx, v in as_dict(c).items()]

    def same(a, b):
        return (np.array_equal(a.js, b.js) and np.array_equal(a.gammas, b.gammas)
                and np.array_equal(a.values.view(np.int64), b.values.view(np.int64)))

    c = field(keys, values)
    path = tmp_path / "c.jsonl"
    for f in (c, field([], [])):
        sio.write_field(path, f)
        assert path.read_text().splitlines()[1:] == lines(f)
        assert same(sio.read_field(path), f)
    # an entry of 1e308 leaves a sequence no finite energy, so it is refused
    # and the snapshots carry 1e150 there
    with pytest.raises(sw.DomainError, match="total energy"):
        sw.SequenceSnapshots(gs, (0,), (c,))
    values[2] = 1e150 + 2.5j
    c = field(keys, values)
    # the same values at moved indices, and the signs of every zero flipped
    moved = field([(j + 1, (a, b - 1)) for j, (a, b) in keys[2:]], values[2:])
    flipped = field(keys, [complex(-v.real if v.real == 0 else v.real,
                                   -v.imag if v.imag == 0 else v.imag) for v in values])
    assert np.array_equal(flipped.values, c.values) and not same(flipped, c)
    n_values = (-7, 3, 4, 5, 2**50)
    fields = (c, moved, field([], []), flipped, c)
    sio.write_snapshots(path, sw.SequenceSnapshots(sampling=gs, n_values=n_values, fields=fields))
    assert path.read_text().splitlines()[1:] == [
        line for n, f in zip(n_values, fields) for line in lines(f, n)]
    back = sio.read_snapshots(path)
    assert back.n_values == n_values
    assert all(same(b, f) for b, f in zip(back.fields, fields))


@pytest.mark.parametrize("n_values", [(0.5, 1.5), (0, 1.0), (False, True), (0, 2**53 + 1)],
                         ids=["halves", "float", "bools", "beyond-2^53"])
def test_snapshots_refuse_n_values_the_reader_would(n_values):
    # (0.5, 1.5) used to be written as a [0.5, 1.5] header over entries at
    # "n": 0 and "n": 1, a file read_snapshots refused
    c = sample_field()
    with pytest.raises(ValueError, match="n_values"):
        sw.SequenceSnapshots(c.sampling, n_values, (c, c))


def test_snapshots_keep_integer_n_values_as_int(tmp_path):
    c = sample_field()
    s = sw.SequenceSnapshots(c.sampling, np.array([2, 2**53]), (c, c))
    assert s.n_values == (2, 2**53) and all(type(n) is int for n in s.n_values)
    path = tmp_path / "s.jsonl"
    sio.write_snapshots(path, s)
    assert sio.read_snapshots(path).n_values == s.n_values


def test_write_snapshots_refuses_an_empty_sequence(tmp_path):
    # used to raise IndexError from the missing first snapshot
    empty = sw.SequenceSnapshots(sample_field().sampling, (), ())
    with pytest.raises(ValueError, match="no snapshots"):
        sio.write_snapshots(tmp_path / "s.jsonl", empty)
    assert not (tmp_path / "s.jsonl").exists()


def test_joined_lines_do_not_merge(tmp_path):
    # each line alone is invalid or holds two values, but the joined array
    # would parse to one valid entry per line
    path, lines = field_lines(tmp_path)
    entry = json.loads(lines[1])
    first = json.dumps(dict(entry, j=5))[:-1] + ', "x": [{}'
    path.write_text("\n".join([lines[0], first, "{}]}",
                               json.dumps(dict(entry, j=6)) + ", " + json.dumps(dict(entry, j=7))])
                    + "\n")
    with pytest.raises(sio.IngestionError, match="line 2: invalid JSON"):
        sio.read_field(path)


# -- the chunked reader equals a line-by-line reader -------------------------

def reference_read(path, kind):
    """A strict line-by-line reader: the header through the library's header
    rules, then each entry line checked on its own, rule by rule."""
    lines = path.read_text().splitlines()
    try:
        gs, norm, n_values = sio._header(json.loads(lines[0]), kind)
    except ValueError as exc:
        raise sio.IngestionError(f"line 1: {exc}") from None
    dim, entries = gs.group.dim, {n: {} for n in ([0] if n_values is None else n_values)}
    integers = "bad coefficient entry (j and gamma must be JSON integers)"
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue

        def refuse(message):
            raise sio.IngestionError(f"line {lineno}: {message}")
        try:
            obj = json.loads(line)
        except ValueError as exc:
            refuse(f"invalid JSON ({exc.msg})")
        if type(obj) is not dict:
            refuse(f"expected a JSON object, got {type(obj).__name__}")
        n = 0 if n_values is None else obj.get("n")
        if type(n) in (float, bool):
            refuse(f"snapshot n must be a JSON integer, got {n!r}")
        if type(n) is not int or n not in entries:
            refuse(f"snapshot n={n} not in header list")
        if "j" not in obj:
            refuse("bad coefficient entry ('j')")
        if type(obj["j"]) is not int:
            refuse(integers)
        if "gamma" not in obj:
            refuse("bad coefficient entry ('gamma')")
        j, gamma = obj["j"], obj["gamma"]
        if type(gamma) is not list:
            refuse(integers)
        if len(gamma) != dim:
            refuse(f"gamma has {len(gamma)} coordinates, expected {dim}")
        if any(type(x) is not int for x in gamma):
            refuse(integers)
        if "re" not in obj:
            refuse("bad coefficient entry ('re')")
        parts = obj["re"], obj.get("im", 0.0)
        if any(type(x) not in (int, float) for x in parts):
            refuse("bad coefficient entry (re and im must be JSON numbers)")
        if max(abs(x) for x in [j, *gamma]) > 2**53:
            refuse("lattice coordinate beyond the bound 9007199254740992 = 2^53")
        try:
            value = complex(*map(float, parts))
        except OverflowError:
            value = complex("inf")
        if not cmath.isfinite(value):
            refuse("non-finite coefficient")
        index = sw.AtomIndex(j, tuple(gamma))
        if index in entries[n]:
            refuse(f"duplicate index {index}" + ("" if n_values is None else f" at n={n}"))
        entries[n][index] = value
    fields = tuple(field_of(gs, e, norm) for e in entries.values())
    if n_values is None:
        return fields[0]
    try:
        return sw.SequenceSnapshots(sampling=gs, n_values=n_values, fields=fields)
    except sw.DomainError as exc:  # entries finite one by one, their energy not
        raise sio.IngestionError(str(exc)) from None


def _outcome(reader, path):
    try:
        r = reader(path)
    except sio.IngestionError as exc:
        return "error", str(exc)
    fields = r.fields if isinstance(r, sw.SequenceSnapshots) else (r,)
    return "ok", [(f.js.tolist(), f.gammas.tolist(), f.values.tolist()) for f in fields]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                   max_size=3),
    max_leaves=6)


def _mutations(lines):
    """(line, key path) of every field of the header and of the entry lines."""
    out = []
    for k, line in enumerate(lines):
        def walk(obj, path):
            for key, val in obj.items():
                out.append((k, path + (key,)))
                if isinstance(val, dict):
                    walk(val, path + (key,))
        walk(json.loads(line), ())
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), snapshots=st.booleans())
def test_single_field_mutation_parses_or_raises_ingestion_error(tmp_path_factory, data,
                                                               snapshots):
    tmp_path = tmp_path_factory.mktemp("mut")
    path, lines = (snapshot_lines if snapshots else field_lines)(tmp_path)
    reader = sio.read_snapshots if snapshots else sio.read_field
    k, keys = data.draw(st.sampled_from(_mutations(lines)))
    obj = json.loads(lines[k])
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = data.draw(json_values)
    rewrite(path, lines, k, obj)
    kind = "sequence_snapshots" if snapshots else "coefficient_field"
    # the same result or the same message at every chunk size and line by line
    want = _outcome(lambda p: reference_read(p, kind), path)
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 2, 256):
            mp.setattr(sio, "_CHUNK_LINES", chunk)
            assert _outcome(reader, path) == want, chunk


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=200), with_header=st.booleans())
def test_arbitrary_bytes_parse_or_raise_ingestion_error(tmp_path_factory, raw, with_header):
    tmp_path = tmp_path_factory.mktemp("bytes")
    headers = {sio.read_grid: sio._GRID_HEADER.pack(1, 2, 1.0),
               sio.read_field: field_lines(tmp_path)[1][0].encode() + b"\n",
               sio.read_snapshots: snapshot_lines(tmp_path)[1][0].encode() + b"\n"}
    path = tmp_path / "x"
    for reader, header in headers.items():
        path.write_bytes((header if with_header else b"") + raw)
        try:
            reader(path)
        except sio.IngestionError:
            pass


def test_duplicate_across_chunks_reports_first_line(tmp_path, monkeypatch):
    path, lines = snapshot_lines(tmp_path)
    # line 3 repeats line 2; line 9 is also broken, but comes later
    lines = lines[:2] + [lines[1]] + lines[2:]
    lines[8] = "{oops"
    path.write_text("\n".join(lines) + "\n")
    for chunk in (2, 3, 256):
        monkeypatch.setattr(sio, "_CHUNK_LINES", chunk)
        with pytest.raises(sio.IngestionError, match="line 3: duplicate index"):
            sio.read_snapshots(path)
