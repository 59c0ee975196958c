"""Acceptance gate: quantitative desk-scale checks, one verdict line each."""

import functools
import json
import time
import warnings

import numpy as np
import pytest

import stratwave as sw
from stratwave import io as sio
from stratwave.cli import main as cli_main
from stratwave.generators import spec_to_json
from stratwave.transform import grid_ifft
from conftest import check_bookkeeping, corpus_1d, field_of, gaussian_1d, two_profile_spec


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- shared constructions (cached so later criteria reuse earlier runs) ------

@functools.lru_cache(maxsize=None)
def _corpus_coefficients():
    """Corpus analyzed at lattice density 1/2; returns (functions, fields, ks, gs)."""
    funcs = corpus_1d(n=256, extent=8.0)
    gs = sw.preset_sampling_set(sw.abelian(1), 0.5)
    ks = sw.build_kernel_set(sw.build_window(1.0), funcs[0].descriptor(), (-4, 4))
    fields = [sw.analyze(f, ks, gs, 2.0) for f in funcs]
    return funcs, fields, ks, gs


@functools.lru_cache(maxsize=None)
def _ground_truth_decomposition(kind: str):
    g = sw.abelian(1) if kind == "abelian" else sw.heisenberg(1)
    gs = sw.preset_sampling_set(g, 1.0)
    snaps = sw.generate(two_profile_spec(g.dim, horizon=32), gs)
    params = sw.ExtractParams(M_max=64, L_max=8, eps_conv=1e-10, T_div=5.0,
                              eps_stable=1e-9, tail=8, mode="strict")
    return snaps, sw.extract(snaps, params)


@functools.lru_cache(maxsize=None)
def _adversarial_decomposition():
    """Two same-scale tracks whose cores start adjacent and separate linearly,
    with the second amplitude settling toward its limit."""
    g = sw.abelian(1)
    gs = sw.preset_sampling_set(g, 1.0)
    horizon = 32
    fields = []
    for n in range(horizon):
        entries = {sw.AtomIndex(0, (0,)): 1.0 + 0j,
                   sw.AtomIndex(0, (n + 1,)): 0.7 + 0.3 / (n + 1.0) + 0j}
        fields.append(field_of(gs, entries, sw.lp_atoms(2.0)))
    snaps = sw.SequenceSnapshots(sampling=gs,
                                 n_values=tuple(range(horizon)), fields=tuple(fields))
    params = sw.ExtractParams(M_max=64, L_max=8, eps_conv=0.05, T_div=5.0,
                              eps_stable=1e-9, tail=8, mode="strict")
    return sw.extract(snaps, params)


# -- criteria ----------------------------------------------------------------

def test_criterion_01_group_axioms(capsys):
    t0 = time.perf_counter()
    g = sw.heisenberg(1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x, y, z = rng.normal(size=(3, 3))
        alpha = float(rng.uniform(0.25, 4.0))
        a = sw.multiply(g, sw.multiply(g, x, y), z)
        b = sw.multiply(g, x, sw.multiply(g, y, z))
        worst = max(worst, float(np.max(np.abs(a - b))))
        worst = max(worst, float(np.max(np.abs(
            sw.multiply(g, x, sw.inverse(g, x))))))
        da = sw.dilate(g, alpha, sw.multiply(g, x, y))
        db = sw.multiply(g, sw.dilate(g, alpha, x), sw.dilate(g, alpha, y))
        worst = max(worst, float(np.max(np.abs(da - db))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    _verdict(capsys, 1, "group axioms", ok,
             f"max defect {worst:.2e} over 1000 triples in {dt:.2f}s")


def test_criterion_02_window_partition(capsys):
    t0 = time.perf_counter()
    w = sw.build_window(1.0)
    grid = np.geomspace(4.0**-8, 4.0**8, 512)
    dev = sw.verify_partition(w, 8, grid)
    dt = time.perf_counter() - t0
    ok = dev <= 1e-12 and dt < 1.0
    _verdict(capsys, 2, "window partition", ok,
             f"max deviation {dev:.2e} on 512-point log grid in {dt:.2f}s")


def test_criterion_03_annihilation_and_reconstruction(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    f = sw.GridFunction(1, 16.0, rng.normal(size=1024) + 1j * rng.normal(size=1024))
    w = sw.build_window(1.0)
    ks = sw.build_kernel_set(w, f.descriptor(), (-6, 6))
    norm = sw.lebesgue_norm(f, 2.0)
    worst = 0.0
    for j in range(-6, 7):
        for ell in range(-6, 7):
            if abs(j - ell) in (2, 3):
                g2 = sw.lp_block(sw.lp_block(f, ks, j), ks, ell)
                worst = max(worst, sw.lebesgue_norm(g2, 2.0))
    annihilation_ok = worst <= 1e-12 * norm

    blank = sw.GridFunction(1, 16.0, np.zeros(1024, dtype=complex))
    nu = blank.freq_axis()
    spec = np.exp(-8.0 * (np.abs(nu) - 2.0) ** 2).astype(complex)
    bump = grid_ifft(blank, spec)
    rec = sw.calderon_reconstruct(bump, ks)
    err = sw.lebesgue_norm(
        sw.GridFunction(1, 16.0, bump.samples - rec.samples), 2.0
    ) / sw.lebesgue_norm(bump, 2.0)
    dt = time.perf_counter() - t0
    ok = annihilation_ok and err <= 1e-8 and dt < 5.0
    _verdict(capsys, 3, "annihilation + reconstruction", ok,
             f"cross-block residual {worst / norm:.2e}, "
             f"reconstruction error {err:.2e} in {dt:.2f}s")


def test_criterion_04_norm_invariance(capsys):
    t0 = time.perf_counter()
    g = sw.abelian(1)
    s = g.Q / 4.0
    p = sw.critical_exponent(g, s)
    # a smooth bump with spectrum vanishing near zero frequency: the
    # fractional multiplier |nu|^{2s} has a cusp at 0, and quadrature of
    # that cusp on two different dilated grids would otherwise dominate
    blank = sw.GridFunction(1, 8.0, np.zeros(512, dtype=complex))
    nu = blank.freq_axis()
    f = grid_ifft(blank, np.exp(-8.0 * (np.abs(nu) - 2.0) ** 2).astype(complex))
    h = 2.0
    fh = sw.dilate_grid(f, h)
    lp_dev = abs(h ** (g.Q / p) * sw.lebesgue_norm(fh, p)
                 - sw.lebesgue_norm(f, p)) / sw.lebesgue_norm(f, p)
    hs_dev = abs(h ** (g.Q / p) * sw.sobolev_norm(fh, s)
                 - sw.sobolev_norm(f, s)) / sw.sobolev_norm(f, s)
    dt = time.perf_counter() - t0
    ok = lp_dev <= 1e-6 and hs_dev <= 1e-6 and dt < 5.0
    _verdict(capsys, 4, "dilation norm invariance", ok,
             f"L^{p:g} deviation {lp_dev:.2e}, "
             f"Hdot^{s:g} deviation {hs_dev:.2e} in {dt:.2f}s")


def test_criterion_05_norm_equivalence(capsys):
    t0 = time.perf_counter()
    funcs, fields, ks, gs = _corpus_coefficients()
    s = 0.25
    np_ = sw.NormParams(s, 2.0, 2.0)

    def ratio(f, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # DC mass sits outside every dyadic band
            cont = sw.besov_norm_continuous(f, ks, s, 2.0, 2.0)
        disc = sw.discrete_besov_norm(c, np_)
        return cont / disc

    ratios = [ratio(f, c) for f, c in zip(funcs, fields)]
    shift_step = int(round(gs.beta / funcs[0].spacing))
    for k in range(1, 6):
        for f in funcs:
            ft = sw.GridFunction(1, f.extent, np.roll(f.samples, k * shift_step))
            ratios.append(ratio(ft, sw.analyze(ft, ks, gs, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f in funcs:
            fd = sw.dilate_grid(f, 2.0)
            ratios.append(ratio(fd, sw.analyze(fd, ks, gs, 2.0)))
    ratios = np.asarray(ratios)
    C = float(max(np.max(ratios), 1.0 / np.min(ratios)))
    dt = time.perf_counter() - t0
    ok = np.all(ratios > 0) and C <= 10.0 and dt < 60.0
    _verdict(capsys, 5, "norm equivalence", ok,
             f"measured constant C = {C:.3f} over {len(ratios)} variants "
             f"(20 functions x [base, 5 translates, dilate]) in {dt:.1f}s")


def test_criterion_06_mterm_decay(capsys):
    t0 = time.perf_counter()
    _, fields, _, _ = _corpus_coefficients()
    np_ = sw.NormParams(0.0, 2.0, 2.0)
    worst_increase = 0.0
    terminal = 0.0
    for c in fields:
        card = len(c)
        ms = sorted(set(np.geomspace(1, card, 16).astype(int)) | {card})
        curve = sw.mterm_error_curve(c, np_, ms)
        errs = [e for _, e in curve]
        worst_increase = max(worst_increase,
                             max((b - a for a, b in zip(errs, errs[1:])), default=0.0))
        terminal = max(terminal, errs[-1])
    dt = time.perf_counter() - t0
    ok = worst_increase <= 0.0 and terminal == 0.0 and dt < 10.0
    _verdict(capsys, 6, "M-term decay", ok,
             f"worst increase {worst_increase:.2e}, terminal error {terminal:.2e} "
             f"in {dt:.1f}s")


def test_criterion_07_extraction_ground_truth(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind in ("abelian", "heisenberg"):
        snaps, dec = _ground_truth_decomposition(kind)
        gs = snaps.sampling
        dim = gs.group.dim
        zero = (0.0,) * dim
        spec = two_profile_spec(dim)
        expected = []
        for t in spec.tracks:
            expected.append([(a.dj, tuple(gs.decode(a.dgamma)), complex(a.d))
                             for a in t.bundle])
        ok &= len(dec.profiles) == 2
        coeff_err = 0.0
        for prof, exp in zip(dec.profiles, expected):
            got = sorted(prof.atoms, key=lambda a: -abs(a[2]))
            want = sorted(exp, key=lambda a: -abs(a[2]))
            ok &= len(got) == len(want)
            for (jg, gg, dg), (jw, gw, dw) in zip(got, want):
                ok &= jg == jw
                coeff_err = max(coeff_err, abs(dg - dw),
                                float(np.max(np.abs(np.asarray(gg) - np.asarray(gw)))))
        defect = float(np.max(sw.energy_ledger(dec, 2)[2]))
        kinds = {v for entry in dec.classification_log for _, v in entry["verdicts"]}
        escapes = {p.escape for p in dec.profiles}
        # the core-escaping track is orthogonal to a static copy by core escape
        static = sw.ScaleCorePair(sampling=gs, js=(0,) * 32,
                                  gammas=((0,) * dim,) * 32)
        core_track = sw.ScaleCorePair(
            sampling=gs, js=(0,) * 32,
            gammas=tuple(spec.tracks[1].core_at(n)[1] for n in range(32)))
        v_core = sw.classify_pair(static, core_track, 8, 5.0, 1e-9)
        ok &= coeff_err <= 1e-10 and defect <= 1e-10
        ok &= "ScaleOrthogonal" in kinds
        ok &= v_core.kind == "CoreOrthogonal"
        ok &= escapes == {"scale", "core"}
        details.append(f"{kind}: coeff err {coeff_err:.1e}, "
                       f"energy defect {defect:.1e}, escapes {sorted(escapes)}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _verdict(capsys, 7, "extraction ground truth", ok,
             "; ".join(details) + f" in {dt:.1f}s")


def test_criterion_08_energy_identity_trend(capsys):
    t0 = time.perf_counter()
    dec = _adversarial_decomposition()
    defects = sw.energy_ledger(dec, len(dec.profiles))[-1]
    q = len(defects) // 4
    first, last = float(np.median(defects[:q])), float(np.median(defects[-q:]))
    dt = time.perf_counter() - t0
    ok = last < first and dt < 30.0
    _verdict(capsys, 8, "energy identity trend", ok,
             f"median defect first quarter {first:.2e} -> last quarter {last:.2e} "
             f"in {dt:.1f}s")


def test_criterion_09_bookkeeping_invariants(capsys):
    decs = [_ground_truth_decomposition("abelian")[1],
            _ground_truth_decomposition("heisenberg")[1],
            _adversarial_decomposition()]
    for dec in decs:
        check_bookkeeping(dec, atol=1e-12)
    _verdict(capsys, 9, "bookkeeping invariants", True,
             f"membership partition, unit profile-count growth, nesting, and "
             f"M-independent remainder verified on {len(decs)} decompositions")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    obj = spec_to_json(two_profile_spec(1))
    obj["group"] = {"kind": "abelian", "d": 1}
    obj["density"] = 1.0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"M_max": 64, "L_max": 4, "eps_conv": 1e-8,
                                  "T_div": 5.0, "eps_stable": 1e-9, "tail": 8,
                                  "mode": "strict"}))
    reports = []
    for run in ("a", "b"):
        # identical filenames per run: reports echo the output path
        rundir = tmp_path / run
        rundir.mkdir()
        snaps = rundir / "snaps.jsonl"
        gen_report = rundir / "gen.json"
        dec_report = rundir / "dec.json"
        win_report = rundir / "win.json"
        assert cli_main(["generate", "--spec", str(spec), "--out", str(snaps),
                         "--report", str(gen_report)]) == 0
        assert cli_main(["decompose", "--in", str(snaps), "--params", str(params),
                         "--report", str(dec_report)]) == 0
        assert cli_main(["verify-window", "--report", str(win_report)]) == 0
        reports.append((snaps.read_bytes(), gen_report.read_bytes(),
                        dec_report.read_bytes(), win_report.read_bytes()))
    ok = reports[0] == reports[1]
    _verdict(capsys, 10, "deterministic reports", ok,
             "generate + decompose + verify-window reports byte-identical "
             "across reruns")
