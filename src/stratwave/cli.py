"""Command-line workbench: generation, decomposition, verification, norms.

Every subcommand emits a deterministic JSON report (sorted keys, no
timestamps) embedding the full parameter set and SHA-256 digests of its
inputs, so identical inputs reproduce byte-identical reports.

Exit codes: 0 success, 1 validation failure (including a failed
verify-window check and a frame operator singular on the covered band in
verify-frame), 2 undecidable or non-convergent extraction, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import groups as _groups
from . import io as _io
from .transform import verify_frame
from .coeffs import NormParams, convert, discrete_besov_norm, lp_atoms, sobolev_seq_norm
from ._json import json_fields, load_json
from .generators import GeneratorError, generate, spec_from_json
from .profiles import (
    ExtractParams,
    NonconvergentCoefficient,
    ScaleCorePair,
    UndecidableOrthogonality,
    classify_pair,
    energy_ledger,
    extract,
    remainder_split,
)
from .sampling import MAX_ARRAY_BYTES, SamplingSet
from .windows import (_PARTITION_CHUNK_BYTES, NarrowWindow, build_window, coverage_interval,
                      verify_partition)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDECIDABLE = 2
EXIT_IO = 3


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(report: dict, out_path) -> None:
    # a report is a fresh tree, so the encoder's reference-cycle scan has nothing to find
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                      check_circular=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _load_json(path) -> tuple:
    """The JSON value of a file and the digest of the bytes it is parsed from."""
    raw = Path(path).read_bytes()
    return load_json(raw), hashlib.sha256(raw).hexdigest()


# decompose --params: JSON kind and default of each ExtractParams field
_PARAM_FIELDS = {"M_max": ("integer",), "L_max": ("integer",), "eps_conv": ("number",),
                 "T_div": ("number",), "eps_stable": ("number",), "tail": ("integer",),
                 "mode": ("string", "strict")}
# classify --a/--b: a track and the lattice it lives on
_PAIR_FIELDS = {"group": ("object",), "beta": ("number", 1.0), "js": ("list of integer",),
                "gammas": ("list of list of integer",)}


# -- subcommands -------------------------------------------------------------

def cmd_generate(args) -> int:
    obj, digest = _load_json(args.spec)
    spec = spec_from_json(obj)
    f = json_fields(obj, {"group": ("object",), "density": ("number", 1.0)}, "spec")
    snaps = generate(spec, SamplingSet(_groups.group_from_json(f["group"]), f["density"]))
    _io.write_snapshots(args.out, snaps)
    _emit({
        "command": "generate",
        "inputs": {"spec": digest},
        "horizon": snaps.horizon,
        "K_bound": snaps.K_bound,
        "out": Path(args.out).name,
    }, args.report)
    return EXIT_OK


def _profile_to_json(p) -> dict:
    return {
        "index": p.index,
        "escape": p.escape,
        "members": list(p.members),
        "atoms": [{"j_rel": j, "gamma_rel": list(gamma), "re": d.real, "im": d.imag}
                  for j, gamma, d in p.atoms],
        "core_track": [{"j": j, "gamma": list(gamma)}
                       for j, gamma in zip(p.core_track.js, p.core_track.gammas)],
        "energy": p.energy(),
    }


def cmd_decompose(args) -> int:
    snaps = _io.read_snapshots(args.infile)
    obj, params_digest = _load_json(args.params)
    params = ExtractParams(**json_fields(obj, _PARAM_FIELDS, "params"))
    if unknown := sorted(set(obj) - set(_PARAM_FIELDS)):
        raise ValueError(f"params has unknown fields {unknown}")
    dec = extract(snaps, params)
    L = min(params.L_max, len(dec.profiles))
    energy = {str(ell): row.tolist() for ell, row in enumerate(energy_ledger(dec, L))}
    last = snaps.horizon - 1
    splits = {}
    for M in sorted({min(max(L, 1), dec.M_eff), dec.M_eff}):  # M_eff is 0 at an empty snapshot
        sp = remainder_split(dec, last, L, M)
        splits[str(M)] = {"r1_norm_Hs": sp["r1_norm_Hs"],
                          "r2_norm_Lp_proxy": sp["r2_norm_Lp_proxy"]}
    report = {
        "command": "decompose",
        "inputs": {"snapshots": _digest(args.infile), "params": params_digest},
        "params": dataclasses.asdict(params),
        "M_eff": dec.M_eff,
        "nu": len(dec.profiles),
        "nu_curve": dec.nu_curve,
        "profiles": [_profile_to_json(p) for p in dec.profiles],
        "d_limits": {str(m): [v.real, v.imag] for m, v in dec.d_limits.items()},
        "classification_log": dec.classification_log,
        "nonconvergent_ranks": dec.nonconvergent,
        "energy_defects": energy,
        "remainder_split_at_last_n": splits,
        "diagnostics": {k: v for k, v in dec.diagnostics.items()},
    }
    _emit(report, args.report)
    return EXIT_OK


def _window(args):
    """The --narrow window, or the smooth one at --sharpness (1.0 when not given)."""
    if not args.narrow:
        return build_window(1.0 if args.sharpness is None else args.sharpness)
    if args.sharpness is not None:
        raise ValueError("--sharpness does not apply to the --narrow window")
    return NarrowWindow()


def cmd_verify_window(args) -> int:
    if not 0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
    w = _window(args)
    lo, hi = coverage_interval(args.J)
    # np.geomspace holds the grid and a working copy, the check the grid and one chunk
    need = 16 * (args.grid_points + 2) + _PARTITION_CHUNK_BYTES
    if need > MAX_ARRAY_BYTES:
        raise _groups.DomainError(f"{args.grid_points} grid points need {need} B, over the "
                                  f"{MAX_ARRAY_BYTES} B budget")
    # sample strictly inside the covered band: at the exact endpoints the
    # truncated sum is missing its |j| = J+1 partner for edge-supported windows
    grid = np.geomspace(lo, hi, args.grid_points + 2)[1:-1]
    dev = verify_partition(w, args.J, grid)
    report = {
        "command": "verify-window",
        "window": "narrow" if args.narrow else "smooth",
        "sharpness": None if args.narrow else w.sharpness,
        "J": args.J,
        "grid_points": args.grid_points,
        "max_partition_deviation": dev,
        "pass": bool(dev <= args.tol),
        "tol": args.tol,
    }
    _emit(report, args.report)
    return EXIT_OK if dev <= args.tol else EXIT_VALIDATION


def cmd_verify_frame(args) -> int:
    f = _io.read_grid(args.grid)
    gs = SamplingSet(_groups.abelian(f.dim), args.density)
    check = verify_frame(f, _window(args), gs, (args.jmin, args.jmax), args.p)
    _emit({"command": "verify-frame",
           "inputs": {"grid": _io._grid_digest(f)},  # of the bytes analysed: no second read
           "density": args.density, "p": args.p, "j_range": [args.jmin, args.jmax],
           **check.numbers}, args.report)
    if check.singular is not None:
        print(f"validation error: {check.singular}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_norms(args) -> int:
    c = _io.read_field(args.infile)
    np_ = NormParams(args.s, args.p, args.q)
    report = {
        "command": "norms",
        "inputs": {"field": _digest(args.infile)},
        "s": args.s, "p": args.p, "q": args.q,
        "normalization": c.normalization.label(),
        "entries": len(c),
        "discrete_besov_norm": discrete_besov_norm(c, np_),
    }
    if np_.is_critical(c.sampling.group.Q):
        report["sobolev_seq_norm"] = sobolev_seq_norm(convert(c, lp_atoms(args.p)))
    _emit(report, args.report)
    return EXIT_OK


def _pair_from_json(path) -> tuple[ScaleCorePair, str]:
    """The track of a file, and its digest."""
    obj, digest = _load_json(path)
    f = json_fields(obj, _PAIR_FIELDS, "track")
    gs = SamplingSet(_groups.group_from_json(f["group"]), f["beta"])
    # DomainError beyond 2^53
    return ScaleCorePair(sampling=gs, js=f["js"], gammas=f["gammas"]), digest


def cmd_classify(args) -> int:
    a, a_digest = _pair_from_json(args.a)
    b, b_digest = _pair_from_json(args.b)
    v = classify_pair(a, b, args.tail, args.T_div, args.eps_stable)
    report = {
        "command": "classify",
        "inputs": {"a": a_digest, "b": b_digest},
        "tail": args.tail, "T_div": args.T_div, "eps_stable": args.eps_stable,
        "verdict": v.kind,
        "j_rel": v.j_rel,
        "gamma_rel": list(v.gamma_rel) if v.gamma_rel is not None else None,
        "detail": v.detail,
    }
    _emit(report, args.report)
    return EXIT_UNDECIDABLE if v.kind == "Undecided" else EXIT_OK


# -- parser ------------------------------------------------------------------

@functools.cache  # built once per process: rebuilding per call churns the heap
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stratwave",
                                 description="Wavelet workbench on stratified groups")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="realize a generator spec as snapshots")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--report", default=None)
    g.set_defaults(fn=cmd_generate)

    d = sub.add_parser("decompose", help="run profile extraction on snapshots")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--params", required=True)
    d.add_argument("--report", default=None)
    d.set_defaults(fn=cmd_decompose)

    w = sub.add_parser("verify-window", help="check the dyadic partition identity")
    w.add_argument("--sharpness", type=float, default=None)
    w.add_argument("--J", type=int, default=8)
    w.add_argument("--grid-points", type=int, default=512)
    w.add_argument("--tol", type=float, default=1e-12)
    w.add_argument("--narrow", action="store_true")
    w.add_argument("--report", default=None)
    w.set_defaults(fn=cmd_verify_window)

    vf = sub.add_parser("verify-frame", help="analyze/synthesize round trip on a grid")
    vf.add_argument("--grid", required=True)
    vf.add_argument("--density", type=float, default=0.25,
                    help="lattice spacing beta (default 0.25, the largest whose scale-j "
                         "step beta 2^-j samples the band of psi_hat_j without aliasing)")
    vf.add_argument("--p", type=float, default=4.0)
    vf.add_argument("--jmin", type=int, default=-2)
    vf.add_argument("--jmax", type=int, default=5)
    vf.add_argument("--sharpness", type=float, default=None)
    vf.add_argument("--narrow", action="store_true")
    vf.add_argument("--report", default=None)
    vf.set_defaults(fn=cmd_verify_frame)

    n = sub.add_parser("norms", help="sequence-space norms of a coefficient field")
    n.add_argument("--in", dest="infile", required=True)
    n.add_argument("--s", type=float, required=True)
    n.add_argument("--p", type=float, required=True)
    n.add_argument("--q", type=float, required=True)
    n.add_argument("--report", default=None)
    n.set_defaults(fn=cmd_norms)

    c = sub.add_parser("classify", help="orthogonality verdict for two tracks")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--tail", type=int, default=8)
    c.add_argument("--T-div", dest="T_div", type=float, default=5.0)
    c.add_argument("--eps-stable", dest="eps_stable", type=float, default=1e-9)
    c.add_argument("--report", default=None)
    c.set_defaults(fn=cmd_classify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UndecidableOrthogonality, NonconvergentCoefficient) as exc:
        print(f"extraction not decidable: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_io.IngestionError, GeneratorError, ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
