"""Command-line workbench: pipelines, reports, exit codes, determinism."""

import functools
import hashlib
import json
import re
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from stratwave import cli, transform
from stratwave import io as sio
from stratwave.cli import main
from stratwave.generators import spec_to_json
from stratwave.transform import grid_ifft
from conftest import custom_3_2, field_of, two_profile_spec


def _not_json(constant):
    raise AssertionError(f"{constant} is not a JSON number")


# reports and inputs are read back with Infinity and NaN refused, as JSON has neither
loads = functools.partial(json.loads, parse_constant=_not_json)


def write_spec(tmp_path, dim=1, group=None):
    obj = spec_to_json(two_profile_spec(dim))
    obj["group"] = group or {"kind": "abelian", "d": dim}
    obj["density"] = 1.0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return path


def test_generate_refuses_a_horizon_over_the_budget(tmp_path, capsys):
    # 2e9 snapshots would need tens of GB: refused before anything is built
    spec = write_spec(tmp_path)
    obj = loads(spec.read_text())
    obj["horizon"] = 2 * 10**9
    spec.write_text(json.dumps(obj))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: 2000000000 snapshots of ") and "budget" in err
    assert err.count("\n") == 1 and not (tmp_path / "o.jsonl").exists()


def write_params(tmp_path, **overrides):
    params = {"M_max": 64, "L_max": 4, "eps_conv": 1e-8, "T_div": 5.0,
              "eps_stable": 1e-9, "tail": 8, "mode": "strict"}
    params.update(overrides)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    return path


def test_generate_then_decompose(tmp_path):
    spec = write_spec(tmp_path)
    params = write_params(tmp_path)
    snaps = tmp_path / "snaps.jsonl"
    assert main(["generate", "--spec", str(spec), "--out", str(snaps),
                 "--report", str(tmp_path / "gen.json")]) == 0
    report_path = tmp_path / "dec.json"
    assert main(["decompose", "--in", str(snaps), "--params", str(params),
                 "--report", str(report_path)]) == 0
    report = loads(report_path.read_text())
    assert report["nu"] == 2
    assert report["M_eff"] == 4
    assert set(report["inputs"]) == {"snapshots", "params"}
    assert all(len(d) == 64 for d in report["inputs"].values())  # sha256 hex
    escapes = {p["escape"] for p in report["profiles"]}
    assert escapes == {"scale", "core"}


def test_decompose_deterministic(tmp_path):
    spec = write_spec(tmp_path)
    params = write_params(tmp_path)
    snaps = tmp_path / "snaps.jsonl"
    main(["generate", "--spec", str(spec), "--out", str(snaps)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["decompose", "--in", str(snaps), "--params", str(params), "--report", str(r1)])
    main(["decompose", "--in", str(snaps), "--params", str(params), "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_window(tmp_path):
    report = tmp_path / "w.json"
    assert main(["verify-window", "--J", "8", "--grid-points", "512",
                 "--report", str(report)]) == 0
    obj = loads(report.read_text())
    assert obj["pass"] is True
    assert obj["max_partition_deviation"] <= 1e-12
    assert main(["verify-window", "--narrow", "--report", str(report)]) == 0
    assert loads(report.read_text())["max_partition_deviation"] == 0.0


@pytest.mark.parametrize("narrow", [[], ["--narrow"]], ids=["smooth", "narrow"])
def test_verify_window_peak_stays_within_its_counted_budget(tmp_path, capsys, monkeypatch,
                                                            narrow):
    # the count: np.geomspace's grid and its working copy, and one chunk of the check
    n = 100_000
    count = 16 * (n + 2) + sw.windows._PARTITION_CHUNK_BYTES
    argv = ["verify-window", *narrow, "--grid-points", str(n), "--report",
            str(tmp_path / "w.json")]
    # a short run first: what the first call allocates once is no grid copy
    assert main(["verify-window", *narrow, "--grid-points", "64", "--report",
                 str(tmp_path / "w.json")]) == 0
    monkeypatch.setattr("stratwave.cli.MAX_ARRAY_BYTES", count)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
        monkeypatch.setattr("stratwave.cli.MAX_ARRAY_BYTES", count - 1)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 1
        refused = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= count
    # a refusal builds no grid: a few KiB of Python objects
    assert refused < 16384
    assert capsys.readouterr().err == (f"validation error: {n} grid points need {count} B, "
                                       f"over the {count - 1} B budget\n")


def test_verify_frame_refuses_a_grid_over_the_budget_before_reading_its_samples(tmp_path,
                                                                              capsys,
                                                                              monkeypatch):
    # the count: the file, its complex128 copy and the finiteness mask
    n = 1 << 16
    grid = tmp_path / "f.grid"
    sio.write_grid(grid, sw.GridFunction(1, 1.0, np.ones(n, dtype=complex)))
    count = grid.stat().st_size + 17 * n
    sio.read_grid(grid)  # a first read: what it allocates once is no grid copy
    monkeypatch.setattr(sio, "MAX_ARRAY_BYTES", count)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert sio.read_grid(grid).N == n
        peak = tracemalloc.get_traced_memory()[1] - start
        monkeypatch.setattr(sio, "MAX_ARRAY_BYTES", count - 1)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(sio.IngestionError, match=f"needs {count} B, over the {count - 1} B"):
            sio.read_grid(grid)
        refused = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= count
    # a refusal reads no samples: a few KiB of Python objects
    assert refused < 16384
    assert main(["verify-frame", "--grid", str(grid), "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (f"validation error: a grid of {n}^1 samples needs {count} "
                                       f"B, over the {count - 1} B budget\n")
    assert not (tmp_path / "r.json").exists()


def write_band_grid(tmp_path):
    blank = sw.GridFunction(1, 8.0, np.zeros(128, dtype=complex))
    nu = blank.freq_axis()
    spec = np.exp(-8.0 * (np.abs(nu) - 2.0) ** 2).astype(complex)
    grid = tmp_path / "f.grid"
    sio.write_grid(grid, grid_ifft(blank, spec))
    return grid


FRAME_SINGULAR = re.compile(r"validation error: at density (\S+) the frame operator is "
                            r"singular on the covered band: lower frame bound (\S+) <= 1e-12 "
                            r"\* upper frame bound (\S+)\n")


def assert_singular_on_the_band(err, density):
    """The stderr of a verify-frame run whose lower frame bound is 0 to
    rounding; returns the printed bounds."""
    match = FRAME_SINGULAR.fullmatch(err)
    assert match and match.group(1) == density
    lower, upper = float(match.group(2)), float(match.group(3))
    assert upper > 0 and lower <= 1e-12 * upper
    return lower, upper


def test_verify_frame(tmp_path, capsys):
    # the narrow window at density 1.0: the lower frame bound on the covered
    # band is 0 to rounding (-9.7e-17 against 2.0), so the report is written
    # and the run exits 1; at 0.25 the same grid is a frame
    grid = write_band_grid(tmp_path)
    report = tmp_path / "frame.json"
    argv = ["verify-frame", "--grid", str(grid), "--narrow", "--p", "2.0", "--jmin", "0",
            "--jmax", "4", "--report", str(report)]
    assert main(argv + ["--density", "1.0"]) == 1
    obj = loads(report.read_text())
    assert obj["corrected_rel_error"] <= 1e-5
    assert obj["frame_iterations"] == 0 and obj["frame_residual"] <= 1e-12
    assert assert_singular_on_the_band(capsys.readouterr().err, "1.0")[1] == 2.0
    assert main(argv + ["--density", "0.25"]) == 0
    obj = loads(report.read_text())
    assert obj["corrected_rel_error"] <= 1e-5
    assert obj["frame_iterations"] == 0 and obj["frame_residual"] == 0.0
    assert capsys.readouterr().err == ""


def test_verify_frame_exits_1_when_the_cg_does_not_converge(tmp_path, capsys):
    # a 2-D band at density 0.5 over j in [-1, 3]: the frame operator is
    # singular on the covered band, so verify-frame writes its report and
    # exits 1, naming the bounds
    blank = sw.GridFunction(2, 4.0, np.zeros((64, 64), dtype=complex))
    nu = np.fft.fftfreq(64, d=blank.spacing)
    radius = np.hypot(*np.meshgrid(nu, nu, indexing="ij"))
    grid, report = tmp_path / "f.grid", tmp_path / "frame.json"
    sio.write_grid(grid, grid_ifft(blank, np.exp(-8.0 * (radius - 2.0) ** 2).astype(complex)))
    argv = ["verify-frame", "--grid", str(grid), "--jmin", "-1", "--jmax", "3",
            "--report", str(report)]
    assert main(argv + ["--density", "0.5"]) == 1
    obj = loads(report.read_text())
    assert obj["frame_iterations"] == 0 and obj["frame_residual"] <= 1e-12
    assert_singular_on_the_band(capsys.readouterr().err, "0.5")
    # at density 0.25 the same grid is a frame
    assert main(argv + ["--density", "0.25"]) == 0
    assert loads(report.read_text())["frame_residual"] == 0.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("jmax, message", [
    ("22", "at scale 22 need"),  # 16 / (0.25 * 2^-22) = 2^28 points, 2 GiB of int64
    ("1100", "no finite float64 step"),  # 2^-1100 rounds to 0
])
def test_verify_frame_refuses_an_over_budget_scale_before_allocating(tmp_path, capsys,
                                                                     jmax, message):
    grid = write_band_grid(tmp_path)
    tracemalloc.start()
    try:
        assert main(["verify-frame", "--grid", str(grid), "--density", "0.25",
                     "--jmax", jmax]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    err = capsys.readouterr().err
    assert "validation error:" in err and message in err


def test_verify_frame_refuses_an_overflowing_dilation(tmp_path, capsys):
    # 4^600 overflows float64: refused with exit 1, not an OverflowError traceback
    grid, report = write_band_grid(tmp_path), tmp_path / "frame.json"
    assert main(["verify-frame", "--grid", str(grid), "--jmin", "-600", "--jmax", "-590",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == ("validation error: the dilation 4^(-j) of the spectral "
                                       "variable overflows float64 at scale j = -600\n")
    assert not report.exists()


def test_verify_frame_refuses_a_kernel_set_over_the_budget(tmp_path, capsys):
    # 10^7 scales of 128 points would need 10 GB of multipliers: refused up front
    grid, report = write_band_grid(tmp_path), tmp_path / "frame.json"
    tracemalloc.start()
    try:
        assert main(["verify-frame", "--grid", str(grid), "--jmin", "-1",
                     "--jmax", "9999998", "--report", str(report)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("validation error: 10000000 scales of ") and "budget" in err
    assert err.count("\n") == 1 and not report.exists()


def test_verify_frame_refuses_a_scale_without_a_lattice_before_building_multipliers(tmp_path,
                                                                                    capsys):
    # 2^18 scales of 128 points fit the kernel budget (256 MiB), but the
    # scale-262142 lattice has no finite step: the range pass refuses it
    # before any multiplier is built, within a quarter of the budget
    grid, report = write_band_grid(tmp_path), tmp_path / "frame.json"
    tracemalloc.start()
    try:
        assert main(["verify-frame", "--grid", str(grid), "--jmin", "-1",
                     "--jmax", "262142", "--report", str(report)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sw.sampling.MAX_ARRAY_BYTES // 4
    err = capsys.readouterr().err
    assert err.startswith("validation error: the scale-262142 lattice ")
    assert "no finite float64 step" in err and not report.exists()


def write_benchmark_band_grid(tmp_path, seed):
    """Seeded noise under a sin^2 envelope on 0.3 < |nu| < 12, N = 256, R = 4."""
    rng = np.random.default_rng(seed)
    blank = sw.GridFunction(1, 4.0, np.zeros(256, dtype=complex))
    a = np.abs(blank.freq_axis())
    env = np.where((a > 0.3) & (a < 12.0), np.sin(np.pi * (a - 0.3) / 11.7) ** 2, 0.0)
    samples = np.fft.ifft(env * (rng.normal(size=256) + 1j * rng.normal(size=256)))
    grid = tmp_path / "f.grid"
    sio.write_grid(grid, sw.GridFunction(1, 4.0, samples / np.max(np.abs(samples))))
    return grid


@pytest.mark.parametrize("seed", [1, 777])
def test_verify_frame_default_density_converges_on_a_band_limited_grid(tmp_path, capsys, seed):
    # at density 0.5 the scale-j step beta 2^-j is twice the alias-free 2^-j / 4
    # and the frame operator is singular on the covered band; the default,
    # 0.25, is a frame there
    grid, report = write_benchmark_band_grid(tmp_path, seed), tmp_path / "frame.json"
    argv = ["verify-frame", "--grid", str(grid), "--jmin", "-1", "--jmax", "4",
            "--report", str(report)]
    assert main(argv) == 0
    obj = loads(report.read_text())
    assert obj["density"] == 0.25 and obj["corrected_rel_error"] <= 1e-5
    assert capsys.readouterr().err == ""
    assert main(argv + ["--density", "0.5"]) == 1
    assert loads(report.read_text())["frame_iterations"] == 0
    assert_singular_on_the_band(capsys.readouterr().err, "0.5")


def test_verify_frame_works_out_each_scale_and_the_spectrum_of_f_once(tmp_path, monkeypatch):
    # the up-front check's geometry feeds analysis, synthesis and the frame
    # symbol, and one spectrum of f feeds analysis, the frame solve and the norm;
    # each scale is placed once, for analysis and synthesis, the L = 2 scale's
    # frequency index is built once, and the five L = 1 scales are sampled from
    # the norm's stacked blocks: 1 + 1 + 1 inverse FFTs for f-hat, the blocks
    # and the L = 2 samples, 6 + 1 for synthesis and 1 for the frame solve
    grid, report = write_benchmark_band_grid(tmp_path, 1), tmp_path / "frame.json"
    calls, more = [], []
    for module, name in [(transform, "scale_ranges"), (transform, "grid_fft"),
                         (transform, "_refinement")]:
        monkeypatch.setattr(module, name, lambda *a, fn=getattr(module, name), name=name:
                            calls.append(name) or fn(*a))
    for module, name in [(transform, "_place"), (transform, "_frequencies"), (np.fft, "fftn"),
                         (np.fft, "ifftn")]:
        monkeypatch.setattr(module, name, lambda *a, fn=getattr(module, name), name=name, **k:
                            more.append(name) or fn(*a, **k))
    assert main(["verify-frame", "--grid", str(grid), "--jmin", "-1", "--jmax", "4",
                 "--report", str(report)]) == 0
    assert sorted(calls) == ["_refinement"] * 6 + ["grid_fft", "scale_ranges"]
    assert more.count("_place") == 6 and more.count("_frequencies") == 1
    assert more.count("fftn") + more.count("ifftn") == 11
    assert loads(report.read_text())["corrected_rel_error"] <= 1e-5


def test_verify_frame_holds_one_run_of_blocks_at_a_time(tmp_path, monkeypatch):
    # 2 of the 6 scales of 256 points a run: each run's blocks are freed before
    # the next run's are built, and the report is the one of a single run
    monkeypatch.setattr(transform, "_STACK_POINTS", 512)
    alive, blocks = [], transform._lp_blocks

    def one_run(*args):
        assert all(ref() is None for ref in alive)
        out = blocks(*args)
        alive.append(weakref.ref(out))
        return out
    monkeypatch.setattr(transform, "_lp_blocks", one_run)
    report = tmp_path / "frame.json"
    assert main(["verify-frame", "--grid", str(DATA / "golden_frame_band.grid"), "--jmin", "-1",
                 "--jmax", "4", "--report", str(report)]) == 0
    assert len(alive) == 3
    assert report.read_bytes() == (DATA / "golden_frame_band_025.json").read_bytes()


def test_verify_frame_warns_of_band_leakage_only_after_the_frame_solve(tmp_path, capsys,
                                                                       monkeypatch):
    # scales 0..2 leave most of the band grid's energy uncovered: the norm warns
    # of it after the frame solve, and not at all when the frame solve refuses
    argv = ["verify-frame", "--grid", str(DATA / "golden_frame_band.grid"), "--density", "0.5",
            "--jmin", "0", "--jmax", "2", "--report", str(tmp_path / "frame.json")]
    with pytest.warns(UserWarning, match="band leakage: relative residual energy 6.597e-01"):
        assert main(argv) == 1
    assert_singular_on_the_band(capsys.readouterr().err, "0.5")
    monkeypatch.setattr(transform, "MAX_ARRAY_BYTES", 1 << 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        "validation error: 16 frame operator fibers of 16^2 entries and their solve need "
        "106496 B, over the 65536 B budget\n")


def test_verify_frame_refuses_a_density_on_no_dyadic_refinement(tmp_path, capsys, monkeypatch):
    # density 0.3 puts scale -1 at step 0.6 on a grid of dx = 1/32; the
    # largest step dx 2^k at or below it is 0.5, which is density 0.25.  The
    # pre-check finds every scale's refinement before any multiplier is built
    grid, report = write_benchmark_band_grid(tmp_path, 1), tmp_path / "frame.json"
    monkeypatch.setattr("stratwave.transform.build_kernel_set",
                        lambda *a: pytest.fail("multipliers built before the refusal"))
    assert main(["verify-frame", "--grid", str(grid), "--density", "0.3", "--jmin", "-1",
                 "--jmax", "4", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: points of step 0.6 lie on no dyadic refinement")
    assert "the largest step dx*2^k at or below it is 0.5 (dx = 0.03125)" in err
    assert err.count("\n") == 1 and not report.exists()


def test_verify_frame_refuses_a_density_whose_scales_do_not_fold(tmp_path, capsys, monkeypatch):
    # density 0.375 places every scale on an offset coset of its refinement:
    # analyze and synthesize take it, but the frame operator has no fibers,
    # so the pre-check refuses it before any multiplier is built
    grid, report = write_benchmark_band_grid(tmp_path, 1), tmp_path / "frame.json"
    monkeypatch.setattr("stratwave.transform.build_kernel_set",
                        lambda *a: pytest.fail("multipliers built before the refusal"))
    assert main(["verify-frame", "--grid", str(grid), "--density", "0.375", "--jmin", "-1",
                 "--jmax", "4", "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        "validation error: the scale--1 lattice at density 0.375 does not fold (it is no "
        "subgroup of its refinement), so the frame operator has no fibers\n")
    assert not report.exists()


def test_verify_frame_reports_no_relative_error_for_a_zero_grid(tmp_path, capsys):
    grid, report = tmp_path / "f.grid", tmp_path / "frame.json"
    sio.write_grid(grid, sw.GridFunction(1, 8.0, np.zeros(128, dtype=complex)))
    assert main(["verify-frame", "--grid", str(grid), "--report", str(report)]) == 0
    obj = loads(report.read_text())
    assert obj["roundtrip_rel_error"] is None and obj["corrected_rel_error"] is None
    assert obj["besov_ratio_continuous_over_discrete"] is None
    assert obj["frame_iterations"] == 0 and capsys.readouterr().err == ""


def test_norms_command(tmp_path):
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    c = field_of(gs, {sw.AtomIndex(0, (0,)): 3.0 + 0j, sw.AtomIndex(1, (1,)): 4.0 + 0j},
                 sw.L1_ATOMS)
    path = tmp_path / "c.jsonl"
    sio.write_field(path, c)
    report = tmp_path / "n.json"
    assert main(["norms", "--in", str(path), "--s", "0.0", "--p", "2.0",
                 "--q", "2.0", "--report", str(report)]) == 0
    obj = loads(report.read_text())
    assert obj["discrete_besov_norm"] == pytest.approx(np.sqrt(17.0))
    assert obj["sobolev_seq_norm"] == pytest.approx(np.sqrt(17.0))


def write_track(tmp_path, name, js, gammas):
    path = tmp_path / name
    path.write_text(json.dumps({"group": {"kind": "abelian", "d": 1}, "beta": 1.0,
                                "js": js, "gammas": gammas}))
    return path


def test_classify_command(tmp_path):
    n = 16
    a = write_track(tmp_path, "a.json", [0] * n, [[0]] * n)
    b = write_track(tmp_path, "b.json", [0] * n, [[3 * k] for k in range(n)])
    report = tmp_path / "v.json"
    assert main(["classify", "--a", str(a), "--b", str(b),
                 "--report", str(report)]) == 0
    assert loads(report.read_text())["verdict"] == "CoreOrthogonal"
    wobble = write_track(tmp_path, "w.json", [0] * n,
                         [[int(2 * np.cos(k))] for k in range(n)])
    assert main(["classify", "--a", str(a), "--b", str(wobble),
                 "--report", str(report)]) == 2
    assert loads(report.read_text())["verdict"] == "Undecided"


def test_exit_code_io_error(tmp_path):
    params = write_params(tmp_path)
    assert main(["decompose", "--in", str(tmp_path / "missing.jsonl"),
                 "--params", str(params)]) == 3


def test_exit_code_validation(tmp_path):
    spec = write_spec(tmp_path)
    snaps = tmp_path / "snaps.jsonl"
    main(["generate", "--spec", str(spec), "--out", str(snaps)])
    bad_params = write_params(tmp_path, tail=64)  # longer than the horizon
    assert main(["decompose", "--in", str(snaps), "--params", str(bad_params)]) == 1
    bad_mode = write_params(tmp_path, mode="yolo")
    assert main(["decompose", "--in", str(snaps), "--params", str(bad_mode)]) == 1


def test_exit_code_undecidable(tmp_path):
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    per_n = [{sw.AtomIndex(0, (0,)): 1.0 + 0j,
              sw.AtomIndex(0, (3 + int(np.round(1.4 * np.cos(3 * n))),)): 0.5 + 0j}
             for n in range(16)]
    snaps = sw.SequenceSnapshots(
        sampling=gs, n_values=tuple(range(16)),
        fields=tuple(field_of(gs, e, sw.lp_atoms(2.0)) for e in per_n))
    path = tmp_path / "snaps.jsonl"
    sio.write_snapshots(path, snaps)
    params = write_params(tmp_path)
    assert main(["decompose", "--in", str(path), "--params", str(params)]) == 2


def test_generate_invalid_spec_exit(tmp_path):
    path = tmp_path / "spec.json"
    obj = spec_to_json(two_profile_spec(1))
    obj["group"] = {"kind": "abelian", "d": 1}
    obj["kind"] = "sideways"
    path.write_text(json.dumps(obj))
    assert main(["generate", "--spec", str(path),
                 "--out", str(tmp_path / "o.jsonl")]) == 1


def test_custom_group_generate_decompose_classify_round_trip(tmp_path):
    # the two-profile mixture on custom_3_2, with the core track and a bundle
    # atom off the e0 axis so that the bracket moves the atoms' V2 coordinates
    snaps = tmp_path / "snaps.jsonl"
    gen, dec = tmp_path / "gen.json", tmp_path / "dec.json"
    assert main(["generate", "--spec", str(DATA / "golden_custom_spec.json"),
                 "--out", str(snaps), "--report", str(gen)]) == 0
    assert main(["decompose", "--in", str(snaps),
                 "--params", str(DATA / "golden_custom_params.json"),
                 "--report", str(dec)]) == 0
    _assert_same_report(gen.read_bytes(), (DATA / "golden_custom_gen.json").read_bytes())
    _assert_same_report(dec.read_bytes(), (DATA / "golden_custom_dec.json").read_bytes())
    report = loads(dec.read_text())
    assert report["nu"] == 2
    assert max(abs(v) for row in report["energy_defects"].values() for v in row) <= 1e-10
    assert [p["atoms"][1]["gamma_rel"] for p in report["profiles"]] == [[1, 1, 0, 0, 0],
                                                                         [2, 1, 1, 0, 0]]
    group = loads((DATA / "golden_custom_spec.json").read_text())["group"]
    tracks = []
    for p in report["profiles"]:
        tracks.append(tmp_path / f"track{p['index']}.json")
        tracks[-1].write_text(json.dumps({"group": group,
                                          "js": [a["j"] for a in p["core_track"]],
                                          "gammas": [a["gamma"] for a in p["core_track"]]}))
    verdict = tmp_path / "v.json"
    assert main(["classify", "--a", str(tracks[0]), "--b", str(tracks[1]),
                 "--report", str(verdict)]) == 0
    assert loads(verdict.read_text())["verdict"] == "ScaleOrthogonal"


def test_decompose_unknown_param_key_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path)
    snaps = tmp_path / "snaps.jsonl"
    main(["generate", "--spec", str(spec), "--out", str(snaps)])
    params = write_params(tmp_path, M_maks=3)
    assert main(["decompose", "--in", str(snaps), "--params", str(params)]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "M_maks" in err


def _snapshots_with_line(tmp_path, line):
    spec = write_spec(tmp_path)
    snaps = tmp_path / "snaps.jsonl"
    main(["generate", "--spec", str(spec), "--out", str(snaps)])
    with open(snaps, "a") as fh:
        fh.write(line + "\n")
    return snaps


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "expected a JSON object"),
    ('{"n": [0], "j": 0, "gamma": [0], "re": 1.0}', "not in header list"),
], ids=["not-an-object", "unhashable-n"])
def test_decompose_malformed_snapshot_line_exits_1(tmp_path, capsys, line, message):
    snaps = _snapshots_with_line(tmp_path, line)
    params = write_params(tmp_path)
    assert main(["decompose", "--in", str(snaps), "--params", str(params)]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and message in err


def test_decompose_accepts_a_sequence_with_an_empty_snapshot(tmp_path):
    # n = 2 has no entries: M_eff = 0, so no rank and no profile; the
    # remainder split at the last n is taken at M = M_eff = 0, not at 1
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    per_n = [{(0, (0,)): 1.0, (1, (3,)): 0.5}, {(0, (1,)): 1.0}, {}, {(0, (2,)): 1.0,
                                                                     (2, (5,)): 0.25}]
    fields = tuple(field_of(gs, entries, sw.lp_atoms(2.0)) for entries in per_n)
    snaps, report = tmp_path / "snaps.jsonl", tmp_path / "dec.json"
    sio.write_snapshots(snaps, sw.SequenceSnapshots(gs, range(4), fields))
    params = write_params(tmp_path, tail=2)
    assert main(["decompose", "--in", str(snaps), "--params", str(params),
                 "--report", str(report)]) == 0
    got = loads(report.read_text())
    assert got["nu"] == 0 and got["M_eff"] == 0 and got["profiles"] == []
    assert got["energy_defects"] == {"0": [0.0] * 4}
    assert got["remainder_split_at_last_n"] == {
        "0": {"r1_norm_Hs": 0.0, "r2_norm_Lp_proxy": float(np.hypot(1.0, 0.25))}}


def test_generate_on_three_strata_group_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path, dim=3, group={"kind": "custom", "strata_dims": [1, 1, 1],
                                              "coefficients": []})
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "step-2" in err


@pytest.mark.parametrize("n_values", [5, [0, "1"], [0, 1.5]], ids=["int", "str", "float"])
def test_decompose_bad_n_values_exits_1(tmp_path, capsys, n_values):
    snaps = _snapshots_with_line(tmp_path, "")
    lines = snaps.read_text().splitlines()
    header = loads(lines[0])
    header["n_values"] = n_values
    snaps.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    params = write_params(tmp_path)
    assert main(["decompose", "--in", str(snaps), "--params", str(params)]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "n_values" in err


# -- golden reports ----------------------------------------------------------

DATA = Path(__file__).parent / "data"
# floats whose last bits depend on the summation order inside a field
ORDER_SENSITIVE = {"K_bound", "remainder_split_at_last_n"}


def _assert_same_report(got: bytes, want: bytes):
    """Byte identity, except the order-sensitive floats, which agree to 1e-14."""
    if got == want:
        return
    g, w = loads(got), loads(want)
    assert set(g) == set(w)
    for key in w:
        if key not in ORDER_SENSITIVE:
            assert json.dumps(g[key], sort_keys=True) == json.dumps(w[key], sort_keys=True), key
    for key in ORDER_SENSITIVE & set(w):
        a, b = np.array(_floats(g[key])), np.array(_floats(w[key]))
        assert a.shape == b.shape and np.all(np.abs(a - b) <= 1e-14 * np.abs(b)), key


def _floats(x):
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _floats(x[k])]
    return [float(x)]


@pytest.mark.parametrize("name", ["h1", "noise"])
def test_golden_generate_decompose_reports(tmp_path, name):
    snaps = tmp_path / "snaps.jsonl"
    gen, dec = tmp_path / "gen.json", tmp_path / "dec.json"
    assert main(["generate", "--spec", str(DATA / f"golden_{name}_spec.json"),
                 "--out", str(snaps), "--report", str(gen)]) == 0
    assert main(["decompose", "--in", str(snaps),
                 "--params", str(DATA / f"golden_{name}_params.json"),
                 "--report", str(dec)]) == 0
    _assert_same_report(gen.read_bytes(), (DATA / f"golden_{name}_gen.json").read_bytes())
    # the report's input digest pins the snapshot file bytes
    _assert_same_report(dec.read_bytes(), (DATA / f"golden_{name}_dec.json").read_bytes())


def test_golden_norms_report_and_field_roundtrip(tmp_path):
    field = DATA / "golden_field.jsonl"
    out = tmp_path / "norms.json"
    assert main(["norms", "--in", str(field), "--s", "0.25", "--p", "4", "--q", "2",
                 "--report", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_norms.json").read_bytes()
    sio.write_field(tmp_path / "again.jsonl", sio.read_field(field))
    assert (tmp_path / "again.jsonl").read_bytes() == field.read_bytes()



AB1, H1 = {"kind": "abelian", "d": 1}, {"kind": "heisenberg", "d": 1}
# one pair per verdict kind: (group, track a (js, gammas), track b, exit code)
CLASSIFY_CASES = {
    "scale": (AB1, ([0] * 16, [[0]] * 16), (list(range(16)), [[0]] * 16), 0),
    "core": (H1, ([0] * 16, [[0, 0, 0]] * 16), ([0] * 16, [[0, 0, 40 * k] for k in range(16)]), 0),
    "not": (H1, ([1] * 16, [[1, -1, 1]] * 16), ([2] * 16, [[2, 1, -1]] * 16), 0),
    "drift": (AB1, ([0] * 16, [[0]] * 16),
              ([0] * 16, [[int(2 * np.cos(k))] for k in range(16)]), 2),
    "wobble": (AB1, ([0] * 16, [[0]] * 16), ([k % 2 for k in range(16)], [[0]] * 16), 2),
}


def write_classify_case(tmp_path, name):
    group, *tracks, code = CLASSIFY_CASES[name]
    paths = []
    for label, (js, gammas) in zip("ab", tracks):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps({"group": group, "js": js, "gammas": gammas}))
    return paths, code


@pytest.mark.parametrize("name", sorted(CLASSIFY_CASES))
def test_golden_classify_reports(tmp_path, name):
    (a, b), code = write_classify_case(tmp_path, name)
    out = tmp_path / "v.json"
    assert main(["classify", "--a", str(a), "--b", str(b), "--report", str(out)]) == code
    assert out.read_bytes() == (DATA / f"golden_classify_{name}.json").read_bytes()


# verify-frame on the band grid of write_benchmark_band_grid (seed 1) and on a
# 2-D ring: each case's grid, arguments, exit code and stderr
FRAME_CASES = loads((DATA / "golden_frame_cases.json").read_text())


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_golden_verify_frame_reports(tmp_path, capsys, name):
    case, report = FRAME_CASES[name], tmp_path / "frame.json"
    assert main(["verify-frame", "--grid", str(DATA / case["grid"]), *case["args"],
                 "--report", str(report)]) == case["exit"]
    assert capsys.readouterr().err == case["stderr"]
    assert report.read_bytes() == (DATA / f"golden_frame_{name}.json").read_bytes()


def test_reports_digest_the_bytes_they_parsed(tmp_path, monkeypatch):
    # every input is replaced right after the command has parsed it: each
    # report still names the digest of the bytes it read, with no second read
    def replaced_after(name, *paths):
        fn = getattr(cli, name)

        def replacing(*args, **kwargs):
            out = fn(*args, **kwargs)
            for path in paths:
                path.write_bytes(b"replaced")
            return out
        monkeypatch.setattr(cli, name, replacing)

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    spec, params, snaps = write_spec(tmp_path), write_params(tmp_path), tmp_path / "snaps.jsonl"
    (a, b), _ = write_classify_case(tmp_path, "core")
    grid = tmp_path / "f.grid"
    grid.write_bytes((DATA / "golden_frame_band.grid").read_bytes())
    want = {path: digest(path) for path in (spec, params, a, b, grid)}
    replaced_after("spec_from_json", spec)
    assert main(["generate", "--spec", str(spec), "--out", str(snaps),
                 "--report", str(tmp_path / "gen.json")]) == 0
    replaced_after("extract", params)
    assert main(["decompose", "--in", str(snaps), "--params", str(params),
                 "--report", str(tmp_path / "dec.json")]) == 0
    replaced_after("classify_pair", a, b)
    assert main(["classify", "--a", str(a), "--b", str(b),
                 "--report", str(tmp_path / "v.json")]) == 0
    replaced_after("verify_frame", grid)
    assert main(["verify-frame", "--grid", str(grid), "--jmin", "-1", "--jmax", "4",
                 "--report", str(tmp_path / "frame.json")]) == 0
    inputs = {name: loads((tmp_path / name).read_text())["inputs"]
              for name in ("gen.json", "dec.json", "v.json", "frame.json")}
    assert inputs["gen.json"] == {"spec": want[spec]}
    assert inputs["dec.json"]["params"] == want[params]
    assert inputs["v.json"] == {"a": want[a], "b": want[b]}
    assert inputs["frame.json"] == {"grid": want[grid]}


# -- malformed inputs exit 1 -------------------------------------------------

def test_norms_on_header_with_scalar_sampling_exits_1(tmp_path, capsys):
    lines = (DATA / "golden_field.jsonl").read_text().splitlines()
    header = loads(lines[0])
    header["sampling"] = 3
    path = tmp_path / "field.jsonl"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["norms", "--in", str(path), "--s", "0.25", "--p", "4", "--q", "2"]) == 1
    err = capsys.readouterr().err
    assert "validation error: line 1: bad sampling set" in err and "Traceback" not in err


@pytest.mark.parametrize("extent", [-2.0, float("nan")], ids=["negative", "nan"])
def test_verify_frame_on_grid_with_bad_extent_exits_1(tmp_path, capsys, extent):
    f = sw.GridFunction(1, 4.0, np.exp(-np.linspace(-4, 4, 64, endpoint=False) ** 2) + 0j)
    path = tmp_path / "f.grid"
    sio.write_grid(path, f)
    raw = bytearray(path.read_bytes())
    raw[8:16] = np.float64(extent).tobytes()  # the header's R
    path.write_bytes(bytes(raw))
    assert main(["verify-frame", "--grid", str(path), "--density", "0.25"]) == 1
    err = capsys.readouterr().err
    assert "validation error:" in err and "extent" in err


def _set(obj, path, value):
    """A copy of obj with the entry at path (keys and list indices) set to value."""
    obj = loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


@pytest.mark.parametrize("path, value", [
    (("allow_overlap",), "false"),
    (("allow_overlap",), 0),
    (("tracks", 0, "j0"), 2.9),
    (("tracks", 0, "j0"), True),
    (("horizon",), 12.7),
    (("check_tail",), "8"),
    (("check_tail",), 8.5),
    (("check_tail",), False),
    (("tracks", 0, "bundle", 0, "re"), "1.5"),
    (("tracks", 0, "bundle", 0, "im"), None),
    (("p",), True),
    (("noise_count",), 1.0),
    (("tracks",), {"0": []}),
    (("tracks", 1), [0, 1]),
    (("tracks", 0, "gamma0"), "7"),
    (("tracks", 0, "gamma_slope", 0), 0.5),
    (("tracks", 0, "bundle"), 5),
    (("tracks", 0, "bundle", 0), 1.0),
    (("tracks", 0, "bundle", 1, "dgamma"), [1.0]),
    (("density",), "1.0"),
    (("check_T_div",), 10**400),
], ids=lambda x: str(x)[:40])
def test_generate_refuses_mistyped_spec_fields(tmp_path, capsys, path, value):
    # a two-track mixture, so that a valid check_tail would reach the track check
    obj = _set(loads(write_spec(tmp_path).read_text()), path, value)
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(obj))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and ("must be a JSON" in err or "range" in err)


def test_generate_accepts_json_integers_for_number_fields(tmp_path):
    obj = loads(write_spec(tmp_path).read_text())
    obj.update(p=2, check_T_div=5, check_tail=8)
    obj["tracks"][0]["bundle"][0].update(re=1, im=0)
    spec = tmp_path / "ints.json"
    spec.write_text(json.dumps(obj))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o.jsonl")]) == 0


@pytest.mark.parametrize("key, value", [
    ("js", [0.9] * 16),
    ("js", [True] * 16),
    ("js", "0"),
    ("gammas", [[0.5]] * 16),
    ("gammas", [0] * 16),
    ("gammas", {"0": [0]}),
    ("js", [2**60] * 16),
    ("beta", "1.0"),
])
def test_classify_refuses_mistyped_tracks(tmp_path, capsys, key, value):
    (a, b), _ = write_classify_case(tmp_path, "drift")
    a.write_text(json.dumps(_set(loads(a.read_text()), (key,), value)))
    assert main(["classify", "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr().err.startswith("validation error:")


def test_classify_refuses_a_core_beyond_the_lattice_bound(tmp_path, capsys):
    # 2^53 + 1 is an integer JSON number the typed reader accepts; the track refuses it
    (a, b), _ = write_classify_case(tmp_path, "drift")
    a.write_text(json.dumps(_set(loads(a.read_text()), ("gammas",), [[2**53 + 1]] * 16)))
    assert main(["classify", "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert err == "validation error: lattice coordinate beyond the bound 9007199254740992 = 2^53\n"


def test_classify_answers_a_pair_beyond_float64(tmp_path, capsys):
    # two H^1 tracks at j = 1000..1019: 2^(2 j) overflows float64, but the
    # relative index is formed on the lattice and needs no absolute scale
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, gamma in ((a, [0, 0, 0]), (b, [0, 1, 0])):
        path.write_text(json.dumps({"group": H1, "js": list(range(1000, 1020)),
                                    "gammas": [gamma] * 20}))
    assert main(["classify", "--a", str(a), "--b", str(b)]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["verdict"] == "NotOrthogonal"
    assert (report["j_rel"], report["gamma_rel"]) == (0, [0.0, 1.0, 0.0])


def test_classify_refuses_a_relative_index_beyond_the_int64_law(tmp_path, capsys):
    # at scale gap 5 the coarser track's V2 coordinate 2^53 lifts to 2^63,
    # beyond the law, so the pair gets no verdict
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, j, gamma in ((a, 0, [0, 0, 2**53]), (b, 5, [0, 0, 0])):
        path.write_text(json.dumps({"group": H1, "js": [j] * 16, "gammas": [gamma] * 16}))
    assert main(["classify", "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr() == (
        "", "validation error: a lattice dilation leaves the range +-2^62 of the int64 law\n")


def test_generate_runs_the_golden_h1_spec_beyond_float64_scales(tmp_path, capsys):
    # cores at 2^-j underflow float64 beyond j = 1074, but the mixture check
    # reads lattice points, and the concentrating track is scale orthogonal
    spec = json.loads((DATA / "golden_h1_spec.json").read_text())
    path, out = tmp_path / "spec.json", tmp_path / "snaps.jsonl"
    for horizon in (1100, 2000):
        path.write_text(json.dumps(dict(spec, horizon=horizon)))
        assert main(["generate", "--spec", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        snaps = sio.read_snapshots(out)
        assert snaps.horizon == horizon and int(snaps.js.max()) == horizon


# -- one typed reader for every JSON input -----------------------------------

@pytest.fixture(scope="module")
def snapshots_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snapshots")
    snaps = tmp / "snaps.jsonl"
    assert main(["generate", "--spec", str(write_spec(tmp)), "--out", str(snaps),
                 "--report", str(tmp / "gen.json")]) == 0
    return snaps


def _rewrite_header(source, path, value, out):
    lines = source.read_text().splitlines()
    out.write_text("\n".join([json.dumps(_set(loads(lines[0]), path, value))] + lines[1:])
                   + "\n")
    return out


@pytest.mark.parametrize("key, value, message", [
    ("M_max", 2.5, "M_max must be a JSON integer, got 2.5"),
    ("T_div", "5", "T_div must be a JSON number, got '5'"),
    ("tail", True, "tail must be a JSON integer, got True"),
], ids=["float-M_max", "string-T_div", "bool-tail"])
def test_decompose_refuses_mistyped_params(tmp_path, capsys, snapshots_file, key, value,
                                           message):
    params = write_params(tmp_path, **{key: value})
    assert main(["decompose", "--in", str(snapshots_file), "--params", str(params)]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_decompose_reports_integer_literals_in_number_params_as_floats(tmp_path, snapshots_file):
    report = tmp_path / "dec.json"
    params = write_params(tmp_path, T_div=5)
    assert main(["decompose", "--in", str(snapshots_file), "--params", str(params),
                 "--report", str(report)]) == 0
    assert loads(report.read_text())["params"]["T_div"] == 5.0
    assert '"T_div": 5.0,' in report.read_text()


BAD_GROUPS = {"float-d": {"kind": "heisenberg", "d": 1.9}, "bool-d": {"kind": "abelian", "d": True},
              "string-d": {"kind": "abelian", "d": "2"}}


@pytest.mark.parametrize("name", sorted(BAD_GROUPS))
def test_spec_and_track_refuse_mistyped_groups(tmp_path, capsys, name):
    spec = write_spec(tmp_path, group=BAD_GROUPS[name])
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o.jsonl")]) == 1
    (a, b), _ = write_classify_case(tmp_path, "scale")
    a.write_text(json.dumps(_set(loads(a.read_text()), ("group",), BAD_GROUPS[name])))
    assert main(["classify", "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("validation error: d must be a JSON integer")
                                 for e in err)


@pytest.mark.parametrize("path, value", [
    (("group", "d"), 1.9), (("group", "d"), True), (("group", "d"), "2"),
    (("beta",), "1.0"), (("beta",), True), (("tile", 0, 0), "0.0"), (("tile", 0, 1), "1.0"),
], ids=["float-d", "bool-d", "string-d", "string-beta", "bool-beta", "string-lo", "string-hi"])
@pytest.mark.parametrize("kind", ["field", "snapshots"])
def test_header_refuses_mistyped_sampling_set(tmp_path, snapshots_file, kind, path, value):
    source = DATA / "golden_field.jsonl" if kind == "field" else snapshots_file
    bad = _rewrite_header(source, ("sampling",) + path, value, tmp_path / "bad.jsonl")
    with pytest.raises(sio.IngestionError, match=r"^line 1: bad sampling set \("):
        (sio.read_field if kind == "field" else sio.read_snapshots)(bad)


@pytest.mark.parametrize("group", [{"kind": "abelian", "d": 7}, {"kind": "heisenberg", "d": 1}],
                         ids=["abelian7", "heisenberg1"])
@pytest.mark.parametrize("kind", ["field", "snapshots"])
def test_header_group_must_be_the_sampling_sets_group(tmp_path, snapshots_file, kind, group):
    # both sources sample R^1
    source = DATA / "golden_field.jsonl" if kind == "field" else snapshots_file
    bad = _rewrite_header(source, ("group",), group, tmp_path / "bad.jsonl")
    with pytest.raises(sio.IngestionError,
                       match="^line 1: the header group differs from the sampling set's group"):
        (sio.read_field if kind == "field" else sio.read_snapshots)(bad)


@pytest.mark.parametrize("command", ["generate", "decompose", "classify"])
def test_deeply_nested_json_exits_1(tmp_path, capsys, snapshots_file, command):
    deep = tmp_path / "deep.json"
    deep.write_text('{"a":' * 200_000)
    argv = {"generate": ["--spec", str(deep), "--out", str(tmp_path / "o.jsonl")],
            "decompose": ["--in", str(snapshots_file), "--params", str(deep)],
            "classify": ["--a", str(deep), "--b", str(deep)]}[command]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == "validation error: invalid JSON (nested too deeply)\n"


# wrong values for each JSON kind: a neighbouring kind and a string or null
MISTYPED = {"integer": (1.5, True), "number": ("1.0", True), "bool": (0, "false"),
            "string": (5, None), "list": ({}, "0"), "object": ([], 1),
            "integer or null": (8.5, "8")}
# every field each input's reader reads: key path and JSON kind
FIELDS = {
    "params": [(("M_max",), "integer"), (("L_max",), "integer"), (("eps_conv",), "number"),
               (("T_div",), "number"), (("eps_stable",), "number"), (("tail",), "integer"),
               (("mode",), "string")],
    "spec": [(("kind",), "string"), (("horizon",), "integer"), (("p",), "number"),
             (("noise_amplitude",), "number"), (("noise_count",), "integer"),
             (("noise_seed",), "integer"), (("allow_overlap",), "bool"),
             (("check_tail",), "integer or null"), (("check_T_div",), "number"),
             (("check_eps_stable",), "number"), (("tracks",), "list"), (("tracks", 1), "object"),
             (("tracks", 0, "j0"), "integer"), (("tracks", 0, "j_slope"), "integer"),
             (("tracks", 0, "gamma0"), "list"), (("tracks", 0, "gamma0", 0), "integer"),
             (("tracks", 0, "gamma_slope"), "list"), (("tracks", 0, "gamma_slope", 0), "integer"),
             (("tracks", 0, "bundle"), "list"), (("tracks", 0, "bundle", 1), "object"),
             (("tracks", 0, "bundle", 1, "dj"), "integer"),
             (("tracks", 0, "bundle", 1, "dgamma"), "list"),
             (("tracks", 0, "bundle", 1, "dgamma", 0), "integer"),
             (("tracks", 0, "bundle", 1, "re"), "number"),
             (("tracks", 0, "bundle", 1, "im"), "number"),
             (("group",), "object"), (("group", "kind"), "string"), (("group", "d"), "integer"),
             (("density",), "number")],
    "track": [(("group",), "object"), (("group", "kind"), "string"), (("group", "d"), "integer"),
              (("beta",), "number"), (("js",), "list"), (("js", 3), "integer"),
              (("gammas",), "list"), (("gammas", 3), "list"), (("gammas", 3, 0), "integer")],
    "header": [(("type",), "string"), (("group",), "object"), (("group", "d"), "integer"),
               (("sampling",), "object"), (("sampling", "group"), "object"),
               (("sampling", "group", "kind"), "string"), (("sampling", "group", "d"), "integer"),
               (("sampling", "beta"), "number"), (("sampling", "tile"), "list"),
               (("sampling", "tile", 0), "list"), (("sampling", "tile", 0, 0), "number"),
               (("normalization",), "object"), (("normalization", "kind"), "string"),
               (("normalization", "p"), "number")],
    "snapshot header": [(("n_values",), "list"), (("n_values", 1), "integer")],
}


@pytest.mark.parametrize("source, path, value", [
    pytest.param(source, path, value, id=f"{source}:{'.'.join(map(str, path))}={value!r}")
    for source, fields in FIELDS.items() for path, kind in fields for value in MISTYPED[kind]])
def test_every_mistyped_field_exits_1(tmp_path, capsys, snapshots_file, source, path, value):
    bad = tmp_path / "bad.json"
    if source == "params":
        bad.write_text(json.dumps(_set(loads(write_params(tmp_path).read_text()), path,
                                       value)))
        runs = [["decompose", "--in", str(snapshots_file), "--params", str(bad)]]
    elif source == "spec":
        bad.write_text(json.dumps(_set(loads(write_spec(tmp_path).read_text()), path, value)))
        runs = [["generate", "--spec", str(bad), "--out", str(tmp_path / "o.jsonl")]]
    elif source == "track":
        (a, b), _ = write_classify_case(tmp_path, "scale")
        bad.write_text(json.dumps(_set(loads(a.read_text()), path, value)))
        runs = [["classify", "--a", str(bad), "--b", str(b)]]
    else:
        runs = [["decompose", "--in", str(_rewrite_header(snapshots_file, path, value, bad)),
                 "--params", str(write_params(tmp_path))]]
        if source == "header":
            field = _rewrite_header(DATA / "golden_field.jsonl", path, value,
                                    tmp_path / "field.jsonl")
            runs.append(["norms", "--in", str(field), "--s", "0.25", "--p", "4", "--q", "2"])
    for argv in runs:
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1, err


def _paths(obj, path=()):
    """The key path of every value inside a JSON object or list."""
    out = []
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        out.append(path + (key,))
        if isinstance(value, (dict, list)):
            out += _paths(value, path + (key,))
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                   max_size=3),
    max_leaves=5)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), source=st.sampled_from(["params", "spec", "track"]))
def test_mutated_json_inputs_never_raise(tmp_path_factory, snapshots_file, data, source):
    # one field of a valid input deleted or replaced: main returns an exit
    # code, and any exception that escapes it fails the test
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "input.json"
    if source == "params":
        obj = loads(write_params(tmp).read_text())
        argv = ["decompose", "--in", str(snapshots_file), "--params", str(path)]
    elif source == "spec":
        obj = loads(write_spec(tmp).read_text())
        argv = ["generate", "--spec", str(path), "--out", str(tmp / "o.jsonl")]
    else:
        (a, b), _ = write_classify_case(tmp, "core")
        obj = loads(a.read_text())
        argv = ["classify", "--a", str(path), "--b", str(b)]
    keys = data.draw(st.sampled_from(_paths(obj)))
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = data.draw(json_values)
    path.write_text(json.dumps(obj))
    assert main(argv + ["--report", str(tmp / "report.json")]) in (0, 1, 2)


# -- one lattice per input, and no option accepted only to be ignored --------

@pytest.mark.parametrize("key", ["eps_conv", "T_div", "eps_stable"])
def test_decompose_refuses_negative_tolerances(tmp_path, capsys, snapshots_file, key):
    params = write_params(tmp_path, **{key: -1.0})
    assert main(["decompose", "--in", str(snapshots_file), "--params", str(params)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: {key} must be finite and >= 0, got -1.0\n")


def test_generate_refuses_negative_noise_count(tmp_path, capsys):
    spec = write_spec(tmp_path)
    spec.write_text(json.dumps(dict(loads(spec.read_text()), noise_amplitude=0.1,
                                    noise_count=-5)))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "s.jsonl")]) == 1
    assert capsys.readouterr().err == "validation error: noise_count must be >= 0, got -5\n"


def test_classify_refuses_tracks_on_opposite_brackets(tmp_path, capsys):
    b = custom_3_2().bracket
    paths = []
    for name, sign in (("a.json", 1.0), ("b.json", -1.0)):
        group = {"kind": "custom", "strata_dims": [3, 2], "coefficients": (sign * b).tolist()}
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"group": group, "js": [0] * 16,
                                         "gammas": [[k, 0, 0, 0, 0] for k in range(16)]}))
    assert main(["classify", "--a", str(paths[0]), "--b", str(paths[1])]) == 1
    assert capsys.readouterr().err == "validation error: tracks live on different sampling sets\n"


def test_classify_refuses_tracks_on_different_lattices(tmp_path, capsys):
    n = 16
    a = write_track(tmp_path, "a.json", [0] * n, [[k] for k in range(n)])
    b = write_track(tmp_path, "b.json", [0] * n, [[k] for k in range(n)])
    b.write_text(json.dumps(dict(loads(b.read_text()), beta=0.5)))
    assert main(["classify", "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr().err == "validation error: tracks live on different sampling sets\n"


@pytest.mark.parametrize("command", ["verify-window", "verify-frame"])
def test_narrow_window_refuses_sharpness(tmp_path, capsys, command):
    argv = [command] + (["--grid", str(write_band_grid(tmp_path)), "--density", "0.25"]
                        if command == "verify-frame" else [])
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == 0
    if command == "verify-window":
        assert loads(report.read_text())["sharpness"] == 1.0
    assert main(argv + ["--narrow", "--sharpness", "7.5"]) == 1
    assert capsys.readouterr().err == (
        "validation error: --sharpness does not apply to the --narrow window\n")


def write_parallel_spec(tmp_path, **overrides):
    """Two abelian(1) tracks translating side by side at relative offset 3,
    which are not orthogonal at any valid T_div."""
    tracks = tuple(sw.TrackSpec(j0=0, j_slope=0, gamma0=(g0,), gamma_slope=(2,),
                                bundle=(sw.BundleAtom(0, (0,), d),))
                   for g0, d in ((0, 1.0), (3, 0.5)))
    obj = dict(spec_to_json(sw.GeneratorSpec(kind="mixture", tracks=tracks, horizon=8)),
               group={"kind": "abelian", "d": 1}, density=1.0, **overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("key, value", [("check_T_div", -5.0), ("check_eps_stable", -1.0)])
def test_generate_refuses_a_negative_check_threshold(tmp_path, capsys, key, value):
    out = tmp_path / "s.jsonl"
    assert main(["generate", "--spec", str(write_parallel_spec(tmp_path)), "--out", str(out)]) == 1
    assert "not orthogonal" in capsys.readouterr().err
    spec = write_parallel_spec(tmp_path, **{key: value})
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: {key} must be finite and >= 0, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, name, value", [
    ("--T-div", "T_div", "-5"), ("--T-div", "T_div", "nan"), ("--T-div", "T_div", "inf"),
    ("--eps-stable", "eps_stable", "-1"), ("--eps-stable", "eps_stable", "nan")])
def test_classify_refuses_a_bad_threshold(tmp_path, capsys, flag, name, value):
    n = 16
    a = write_track(tmp_path, "a.json", [0] * n, [[k] for k in range(n)])
    b = write_track(tmp_path, "b.json", [0] * n, [[k + 3] for k in range(n)])
    report = tmp_path / "v.json"
    assert main(["classify", "--a", str(a), "--b", str(b), flag, value,
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: {name} must be finite and >= 0, got {float(value)!r}\n")
    assert not report.exists()


@pytest.mark.parametrize("argv, band", [(["--J", "-1"], "[4, 0.25]"),
                                        (["--grid-points", "0"], "[1.53e-05, 6.55e+04]")],
                         ids=["empty-band", "no-points"])
def test_verify_window_refuses_to_check_nothing(tmp_path, capsys, argv, band):
    report = tmp_path / "w.json"
    assert main(["verify-window", *argv, "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: no grid point lies in the covered band {band}\n")
    assert not report.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
def test_verify_window_refuses_a_bad_tol(tmp_path, capsys, tol):
    report = tmp_path / "w.json"
    assert main(["verify-window", "--tol", tol, "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: --tol must be finite and >= 0, got {float(tol)!r}\n")
    assert not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["--J", "512"], "the covered band [4^(-J), 4^J] overflows float64 at J = 512"),
    (["--grid-points", "100000000000"],
     "100000000000 grid points need 1600001310752 B, over the 268435456 B budget"),
], ids=["band-overflows", "grid-over-budget"])
def test_verify_window_refuses_a_band_or_grid_it_cannot_hold(tmp_path, capsys, argv, message):
    report = tmp_path / "w.json"
    assert main(["verify-window", *argv, "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("sharpness", ["nan", "inf"])
def test_verify_window_refuses_a_non_finite_sharpness(tmp_path, capsys, sharpness):
    report = tmp_path / "w.json"
    assert main(["verify-window", "--sharpness", sharpness, "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"validation error: sharpness must be positive and finite, got {float(sharpness)!r}\n")
    assert not report.exists()


@pytest.mark.parametrize("p, q", [("2", "nan"), ("nan", "2"), ("nan", "nan")])
def test_norms_refuses_a_nan_exponent_as_not_a_number(tmp_path, capsys, p, q):
    path = tmp_path / "c.jsonl"
    sio.write_field(path, field_of(sw.SamplingSet(sw.abelian(1), 1.0),
                                   {sw.AtomIndex(0, (0,)): 3.0}, sw.L1_ATOMS))
    report = tmp_path / "n.json"
    assert main(["norms", "--in", str(path), "--s", "0", f"--p={p}", f"--q={q}",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == (f"validation error: p and q must be numbers >= 1, "
                                       f"got p = {float(p)!r}, q = {float(q)!r}\n")
    assert not report.exists()


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_norms_refuses_a_non_finite_s(tmp_path, capsys, s):
    path = tmp_path / "c.jsonl"
    sio.write_field(path, field_of(sw.SamplingSet(sw.abelian(1), 1.0),
                                   {sw.AtomIndex(0, (0,)): 3.0}, sw.L1_ATOMS))
    report = tmp_path / "n.json"
    assert main(["norms", "--in", str(path), f"--s={s}", "--p", "2", "--q", "2",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"validation error: s must be finite, got {float(s)!r}\n"
    assert not report.exists()


def test_norms_refuses_a_scale_whose_conversion_weight_overflows(tmp_path, capsys):
    # converting Lp(2) to L1 on R^1 at j = 5000 multiplies by 2^2500
    path = tmp_path / "c.jsonl"
    sio.write_field(path, field_of(sw.SamplingSet(sw.abelian(1), 1.0),
                                   {sw.AtomIndex(5000, (1,)): 1.0}, sw.lp_atoms(2.0)))
    report = tmp_path / "n.json"
    assert main(["norms", "--in", str(path), "--s", "0.5", "--p", "2", "--q", "2",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == ("validation error: the scale weight 2^(5000 * 0.5) "
                                       "overflows float64 at scale j = 5000\n")
    assert not report.exists()


# -- a report holds finite numbers only --------------------------------------

ENERGY_OVERFLOW = ("validation error: the total energy sum_n ||u_n||^2 of the snapshots "
                   "overflows float64\n")


@pytest.mark.filterwarnings("error")  # an overflow warning would reach stderr too
def test_generate_refuses_a_sequence_of_infinite_energy(tmp_path, capsys):
    # an atom of 1e300 has a squared modulus beyond float64
    spec, out, report = write_spec(tmp_path), tmp_path / "o.jsonl", tmp_path / "gen.json"
    spec.write_text(json.dumps(_set(loads(spec.read_text()), ("tracks", 0, "bundle", 0, "re"),
                                    1e300)))
    assert main(["generate", "--spec", str(spec), "--out", str(out),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == ENERGY_OVERFLOW
    assert not out.exists() and not report.exists()


@pytest.mark.filterwarnings("error")
def test_decompose_refuses_snapshots_of_infinite_energy(tmp_path, capsys, snapshots_file):
    header, *entries = snapshots_file.read_text().splitlines()
    bad, report = tmp_path / "bad.jsonl", tmp_path / "dec.json"
    bad.write_text("\n".join([header] + [json.dumps(dict(loads(e), re=1e300)) for e in entries]))
    assert main(["decompose", "--in", str(bad), "--params", str(write_params(tmp_path)),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == ENERGY_OVERFLOW
    assert not report.exists()


@pytest.mark.filterwarnings("error")
def test_norms_refuses_to_report_an_infinite_norm(tmp_path, capsys):
    # two Lp(2) entries of 1e300 have an l2 norm beyond float64
    path, report = tmp_path / "c.jsonl", tmp_path / "n.json"
    sio.write_field(path, field_of(sw.SamplingSet(sw.abelian(1), 1.0),
                                   {sw.AtomIndex(0, (0,)): 1e300, sw.AtomIndex(0, (1,)): 1e300},
                                   sw.lp_atoms(2.0)))
    assert main(["norms", "--in", str(path), "--s", "0.5", "--p", "2", "--q", "2",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        "validation error: discrete_besov_norm at (s, p, q) = (0.5, 2, 2) overflows float64\n")
    assert not report.exists()
