"""Seeded inputs, one operation and its correctness check for each workload.

Every workload is built from `--seed` alone, through stratwave's public
constructors and file formats, and exposes the same four things:

    SETUP[name](seed, size, workdir)        -> Workload
    Workload.op()                           -> one operation's result
    CHECK[name](result, reference, expected) -> problems, empty when correct
    result_digest(result)                   -> sha256 of what must repeat across ops

The checkers use their own exact arithmetic where they can, so that a
wrong answer from the program is not confirmed by the same code.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import stratwave as sw
from stratwave import cli, generators, groups
from stratwave import io as sio

# Sizes per workload.  "full" is what the benchmark measures; "tiny" only
# exercises every code path, for the benchmark's own smoke test.
SIZES = {
    "full": {
        "decompose": dict(tracks=5, bundle=8, horizon=20, noise=120, tail=8),
        "frame": dict(N=256, extent=4.0, density=0.25, jmin=-1, jmax=4, p=4.0),
        "lattice": dict(heis_certs=((0, 0), (1, 1), (2, 2)), heis_n=16, heis_shells=6,
                        ab_certs=(6, 8), ab_shells=9, tiling_res=4),
    },
    "tiny": {
        "decompose": dict(tracks=3, bundle=3, horizon=12, noise=20, tail=4),
        "frame": dict(N=64, extent=2.0, density=0.25, jmin=-1, jmax=4, p=4.0),
        "lattice": dict(heis_certs=((0, 0),), heis_n=16, heis_shells=3,
                        ab_certs=(6,), ab_shells=3, tiling_res=2),
    },
}

ENERGY_TOL = 1e-10
ATOM_TOL = 1e-10
# corrected verify-frame error must stay below this; the full size reaches ~4e-9
FRAME_ERROR_BOUND = 1e-5
FRAME_TOL = 1e-6        # frame_reconstruct's default tolerance, used by the CLI
FRAME_MAX_ITER = 50     # frame_reconstruct's default iteration cap
SUM_RTOL = 1e-12        # lattice partial sums against the checker's own recomputation


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Workload:
    op: object                      # zero-argument callable
    digests: dict                   # input name -> sha256 hex
    expected: dict = field(default_factory=dict)


# -- decompose: `stratwave generate` then `stratwave decompose` ---------------

# bundle offsets: dj in {0, 1}, horizontal lattice offset in [-1, 1]^2; the
# relative cores then stay below T_div = 5, so a bundle is never split
_OFFSETS = [(dj, a, b) for dj in (0, 1) for a in (-1, 0, 1) for b in (-1, 0, 1)]
_SLOPES = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]


def decompose_spec(seed: int, tracks: int, bundle: int, horizon: int, noise: int):
    """One concentrating and `tracks - 1` translating H^1 tracks plus noise.

    Translating cores sit at s_k * (n0 + n) with distinct integer slopes s_k,
    so every pair separates linearly in n and the tracks never collide.
    """
    rng = np.random.default_rng([seed, 11])
    moduli = rng.uniform(0.1, 1.0, size=tracks * bundle)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=tracks * bundle)
    n0 = int(rng.integers(8, 17))
    slopes = [_SLOPES[i] for i in rng.choice(len(_SLOPES), size=tracks - 1, replace=False)]
    out = []
    for k in range(tracks):
        picks = rng.choice(len(_OFFSETS), size=bundle, replace=False)
        atoms = []
        for i, p in enumerate(picks):
            dj, a, b = _OFFSETS[p]
            r, th = moduli[k * bundle + i], phases[k * bundle + i]
            atoms.append(sw.BundleAtom(dj=dj, dgamma=(a, b, 0),
                                       d=complex(r * np.cos(th), r * np.sin(th))))
        if k == 0:
            c = tuple(int(v) for v in rng.integers(-3, 4, size=2))
            t = sw.TrackSpec(j0=0, j_slope=1, gamma0=c + (0,), gamma_slope=(0, 0, 0),
                             bundle=tuple(atoms))
        else:
            sx, sy = slopes[k - 1]
            t = sw.TrackSpec(j0=0, j_slope=0, gamma0=(sx * n0, sy * n0, 0),
                             gamma_slope=(sx, sy, 0), bundle=tuple(atoms))
        out.append(t)
    return sw.GeneratorSpec(kind="mixture", tracks=tuple(out), horizon=horizon, p=2.0,
                            noise_amplitude=1e-3, noise_count=noise,
                            noise_seed=int(rng.integers(0, 2**31)))


def setup_decompose(seed: int, size: dict, workdir: Path) -> Workload:
    spec = decompose_spec(seed, size["tracks"], size["bundle"], size["horizon"],
                          size["noise"])
    obj = generators.spec_to_json(spec)
    obj["group"] = groups.group_to_json(sw.heisenberg(1))
    obj["density"] = 1.0
    M = size["tracks"] * size["bundle"]
    params = {"M_max": M, "L_max": size["tracks"], "eps_conv": 1e-8, "T_div": 5.0,
              "eps_stable": 1e-9, "tail": size["tail"], "mode": "strict"}
    spec_path, params_path = workdir / "spec.json", workdir / "params.json"
    spec_path.write_text(json.dumps(obj, sort_keys=True))
    params_path.write_text(json.dumps(params, sort_keys=True))
    snaps, gen_rep, dec_rep = (workdir / n for n in ("snaps.jsonl", "gen.json", "dec.json"))

    def op():
        rc_gen = cli.main(["generate", "--spec", str(spec_path), "--out", str(snaps),
                           "--report", str(gen_rep)])
        rc_dec = cli.main(["decompose", "--in", str(snaps), "--params", str(params_path),
                           "--report", str(dec_rep)]) if rc_gen == 0 else None
        return {"rc": [rc_gen, rc_dec],
                "gen": gen_rep.read_bytes() if rc_gen == 0 else b"",
                "dec": dec_rep.read_bytes() if rc_dec == 0 else b""}

    return Workload(op,
                    digests={"spec": _sha256(spec_path.read_bytes()),
                             "params": _sha256(params_path.read_bytes())},
                    expected={"atoms": expected_profiles(spec)})


# exact H^1 arithmetic (beta = 1) for the checker: decode (a, b, c) ->
# (a, b, c/2), law (x, y, t)(x', y', t') = (x+x', y+y', t+t' + (xy' - yx')/2)

def _h1_mul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + (p[0] * q[1] - p[1] * q[0]) / 2)


def _h1_dilate(alpha, p):
    return (alpha * p[0], alpha * p[1], alpha * alpha * p[2])


def _h1_core(j: int, gamma) -> tuple:
    """kappa = delta_{2^-j}(decode(gamma)), exactly."""
    return _h1_dilate(Fraction(1, 2**j),
                      (Fraction(gamma[0]), Fraction(gamma[1]), Fraction(gamma[2], 2)))


def _lat_abs(core, dj, dgamma):
    """Absolute lattice index of a bundle atom: delta_{2^dj}(core) . dgamma."""
    a, b, c = core[0] * 2**dj, core[1] * 2**dj, core[2] * 4**dj
    x, y, z = dgamma
    return (a + x, b + y, c + z + a * y - b * x)


def expected_profiles(spec) -> list:
    """Per track, its atoms as the extraction must report them.

    The founder is the largest-modulus atom; members follow in decreasing
    modulus with j_rel = dj_m - dj_f and gamma_rel = 2^{j_m} (kappa_f^-1 kappa_m)
    at the last observed n.
    """
    n = spec.horizon - 1
    out = []
    for t in spec.tracks:
        j_core, core = t.core_at(n)
        ranked = sorted(t.bundle, key=lambda a: -abs(a.d))
        f = ranked[0]
        kf = _h1_core(j_core + f.dj, _lat_abs(core, f.dj, f.dgamma))
        inv_f = tuple(-v for v in kf)
        atoms = []
        for m in ranked:
            jm = j_core + m.dj
            km = _h1_core(jm, _lat_abs(core, m.dj, m.dgamma))
            rel = _h1_dilate(Fraction(2) ** jm, _h1_mul(inv_f, km))
            atoms.append((m.dj - f.dj, tuple(float(v) for v in rel), m.d))
        out.append(atoms)
    return out


def check_decompose(result: dict, reference, expected: dict) -> list:
    problems = []
    if result["rc"] != [0, 0]:
        return [f"exit codes {result['rc']}"]
    try:
        rep = json.loads(result["dec"])
    except ValueError as exc:
        return [f"decompose report is not JSON ({exc})"]
    want = expected["atoms"]
    if rep.get("nu") != len(want):
        problems.append(f"nu = {rep.get('nu')}, expected {len(want)} tracks")
    unmatched = list(range(len(want)))
    for prof in rep.get("profiles", []):
        got = [(a["j_rel"], a["gamma_rel"], complex(a["re"], a["im"])) for a in prof["atoms"]]
        k = next((k for k in unmatched if len(want[k]) == len(got) and all(
            jg == jw and len(gg) == len(gw)
            and max(abs(u - v) for u, v in zip(gg, gw)) <= ATOM_TOL
            and abs(dg - dw) <= ATOM_TOL
            for (jg, gg, dg), (jw, gw, dw) in zip(got, want[k]))), None)
        if k is None:
            problems.append(f"profile {prof['index']} matches no track of the spec")
        else:
            unmatched.remove(k)
    if unmatched:
        problems.append(f"tracks {unmatched} were not recovered")
    defects = [v for row in rep.get("energy_defects", {}).values() for v in row]
    worst = max(defects, default=math.inf)
    if not worst <= ENERGY_TOL:
        problems.append(f"energy defect {worst:.3e} > {ENERGY_TOL:g}")
    if reference is not None and result_digest(result) != result_digest(reference):
        problems.append("report bytes differ from the first op")
    return problems


# -- frame: `stratwave verify-frame` on a band-limited 1-D grid --------------

def frame_grid(seed: int, N: int, extent: float) -> sw.GridFunction:
    """Band-limited noise: a seeded complex spectrum under a fixed envelope.

    The envelope sin^2 on 0.3 < |nu| < 12 keeps the signal inside the
    band of the scales j in [-1, 4] except for the partly covered stretch
    below |nu| = 1/2, where the frame operator is not the identity, so
    the CG correction has work to do.  The signal spreads over the whole
    torus, so no coefficient falls below the sparsity floor and every
    seed yields the same number of atoms.
    """
    rng = np.random.default_rng([seed, 12])
    blank = sw.GridFunction(1, extent, np.zeros(N, dtype=complex))
    a = np.abs(blank.freq_axis())
    lo, hi = 0.3, 12.0
    env = np.where((a > lo) & (a < hi), np.sin(np.pi * (a - lo) / (hi - lo)) ** 2, 0.0)
    spec = env * (rng.normal(size=N) + 1j * rng.normal(size=N))
    samples = np.fft.ifft(spec)
    return sw.GridFunction(1, extent, samples / np.max(np.abs(samples)))


def setup_frame(seed: int, size: dict, workdir: Path) -> Workload:
    grid_path, rep = workdir / "f.grid", workdir / "frame.json"
    sio.write_grid(grid_path, frame_grid(seed, size["N"], size["extent"]))
    argv = ["verify-frame", "--grid", str(grid_path), "--density", str(size["density"]),
            "--p", str(size["p"]), "--jmin", str(size["jmin"]), "--jmax", str(size["jmax"]),
            "--report", str(rep)]

    def op():
        rc = cli.main(argv)
        return {"rc": rc, "report": rep.read_bytes() if rc == 0 else b""}

    return Workload(op, digests={"grid": _sha256(grid_path.read_bytes())})


def check_frame(result: dict, reference, expected: dict) -> list:
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    try:
        rep = json.loads(result["report"])
    except ValueError as exc:
        return [f"verify-frame report is not JSON ({exc})"]
    problems = []
    res, it = rep.get("frame_residual"), rep.get("frame_iterations")
    if not (isinstance(res, float) and res <= FRAME_TOL):
        problems.append(f"CG residual {res} > {FRAME_TOL:g}")
    if not (isinstance(it, int) and it < FRAME_MAX_ITER):
        problems.append(f"CG used {it} iterations, cap is {FRAME_MAX_ITER}")
    err = rep.get("corrected_rel_error")
    if not (isinstance(err, float) and err <= FRAME_ERROR_BOUND):
        problems.append(f"corrected error {err} > {FRAME_ERROR_BOUND:g}")
    if not all(math.isfinite(rep.get(k) or math.nan)
               for k in ("roundtrip_rel_error", "besov_ratio_continuous_over_discrete")):
        problems.append("non-finite round-trip error or Besov ratio")
    if reference is not None and result_digest(result) != result_digest(reference):
        problems.append("report bytes differ from the first op")
    return problems


# -- lattice: decay certificates and a tiling check -------------------------

# rel_tail as in the uniformity test of tests/test_sampling.py.  None of these certificates
# reaches it within its shell cap, so each sums exactly `max_shells` shells:
# x (and every value) is seeded, but the work per op is the same for every
# seed, where a stopping shell that moved with x would vary it by 2x.
LATTICE_REL_TAIL = 1e-8


def setup_lattice(seed: int, size: dict, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 13])
    gs_h = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    gs_r = sw.preset_sampling_set(sw.abelian(2), 0.5)
    certs = []  # (label, sampling set, eta, j, n, max_shells, x in the tile)
    for eta, j in size["heis_certs"]:
        x = [rng.uniform(lo, hi) for lo, hi in gs_h.tile]
        certs.append(("H1", gs_h, eta, j, size["heis_n"], size["heis_shells"], x))
    for n in size["ab_certs"]:
        x = [rng.uniform(lo, hi) for lo, hi in gs_r.tile]
        certs.append(("R2", gs_r, 0, 0, n, size["ab_shells"], x))
    box = [(-2.0, 2.0)] * 3
    res = size["tiling_res"]
    described = {"certs": [[label, eta, j, n, cap, [float(v).hex() for v in x]]
                           for label, _, eta, j, n, cap, x in certs],
                 "rel_tail": LATTICE_REL_TAIL,
                 "tiling": {"box": box, "grid_res": res}}

    def op():
        out = {"certs": [], "tiling": None}
        for label, gs, eta, j, n, cap, x in certs:
            value, details = sw.column_decay_certificate(
                gs, eta, j, n, np.asarray(x), rel_tail=LATTICE_REL_TAIL,
                max_shells=cap, return_details=True)
            out["certs"].append([label, eta, j, n, float(value), int(details["shells"]),
                                 float(details["partial_sum"]),
                                 float(details["cut_distance"])])
        rep = sw.verify_tiling(gs_h, box, grid_res=res)
        out["tiling"] = [rep.max_overlap_fraction, rep.uncovered_fraction, rep.n_samples]
        return out

    return Workload(op,
                    digests={"inputs": _sha256(json.dumps(described, sort_keys=True).encode())},
                    expected={"shells": [c[5] for c in certs], "n_samples": res**3,
                              "sums": [lattice_partial_sum(gs.group.kind, gs.beta, eta, j,
                                                           n, cap, x)
                                       for _, gs, eta, j, n, cap, x in certs]})


def lattice_partial_sum(kind: str, beta: float, eta: int, j: int, n: int, shells: int,
                        x) -> tuple:
    """(partial sum, cut distance) of `shells` lattice shells, in plain numpy.

    The shells r < `shells` around the lattice point nearest x make up the
    full cube of radius shells - 1, so the partial sum is
    2^{eta Q} sum_gamma 2^{-jQ} (1 + 2^eta |2^{-j}.(decode(gamma)^{-1} x)|)^{-n}
    over that cube; the cut distance is the least norm on its outer shell.
    H^1 law as in _h1_mul, with decode (a, b, c) -> beta (a, b, beta c / 2).
    """
    x = np.asarray(x, dtype=float)
    center = np.rint(x / beta).astype(int)
    if kind == "heisenberg":
        center[-1] = int(np.rint(2.0 * x[-1] / beta**2))
    r = shells - 1
    axes = [np.arange(c - r, c + r + 1) for c in center]
    gam = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = beta * gam.astype(float)
    alpha = 2.0 ** (-j)
    if kind == "heisenberg":
        pts[:, 2] = gam[:, 2] * beta * beta / 2.0
        rel = x - pts
        rel[:, 2] += (pts[:, 1] * x[0] - pts[:, 0] * x[1]) / 2.0
        h, t = alpha * rel[:, :2], alpha * alpha * rel[:, 2]
        v1 = np.sum(h * h, axis=1)
        dist = (v1 * v1 + 16.0 * t * t) ** 0.25
        Q = 4
    else:
        dist = np.sqrt(np.sum((alpha * (x - pts)) ** 2, axis=1))
        Q = gam.shape[1]
    total = np.sum(2.0 ** (-j * Q) / (1.0 + 2.0**eta * dist) ** n)
    outer = np.max(np.abs(gam - center), axis=1) == r
    return float(total * 2.0 ** (eta * Q)), float(np.min(dist[outer]))


def check_lattice(result: dict, reference, expected: dict) -> list:
    problems = []
    certs = result["certs"]
    if [c[5] for c in certs] != expected["shells"]:
        problems.append(f"shells summed {[c[5] for c in certs]}, "
                        f"expected {expected['shells']}")
    for (label, eta, j, n, value, _, partial, cut), (want, want_cut) in zip(
            certs, expected["sums"]):
        where = f"{label} certificate (eta={eta}, j={j}, n={n})"
        if not (math.isfinite(value) and value >= partial > 0):
            problems.append(f"{where} = {value}, partial sum {partial}")
        if not (abs(partial - want) <= SUM_RTOL * want
                and abs(cut - want_cut) <= SUM_RTOL * max(want_cut, 1.0)):
            problems.append(f"{where}: partial sum {partial}, cut distance {cut}; "
                            f"recomputed {want}, {want_cut}")
    overlap, uncovered, n_samples = result["tiling"]
    if overlap != 0.0 or uncovered != 0.0 or n_samples != expected["n_samples"]:
        problems.append(f"tiling overlap {overlap}, uncovered {uncovered}, "
                        f"{n_samples} samples")
    if reference is not None and result_digest(result) != result_digest(reference):
        problems.append("results differ from the first op")
    return problems


# -- registry ----------------------------------------------------------------

SETUP = {"decompose": setup_decompose, "frame": setup_frame, "lattice": setup_lattice}
CHECK = {"decompose": check_decompose, "frame": check_frame, "lattice": check_lattice}


def result_digest(result: dict) -> str:
    """sha256 over a result's exact bytes; floats enter by their hex form."""
    def enc(v):
        if isinstance(v, bytes):
            return v.hex()
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, (list, tuple)):
            return [enc(u) for u in v]
        if isinstance(v, dict):
            return {k: enc(u) for k, u in v.items()}
        return v
    return _sha256(json.dumps(enc(result), sort_keys=True).encode())
