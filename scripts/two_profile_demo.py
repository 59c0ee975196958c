#!/usr/bin/env python3
"""End-to-end demo: generate a two-profile mixture and extract it back.

Builds a bounded coefficient sequence from a concentrating track (scale
escape) and a translating track (core escape), runs the extraction
induction, and prints the recovered bundles, energy ledger, and remainder
split.
"""

import argparse

import numpy as np

import stratwave as sw


def build_spec(dim: int, horizon: int) -> sw.GeneratorSpec:
    zero = (0,) * dim
    e1 = (1,) + (0,) * (dim - 1)
    e2 = (2,) + (0,) * (dim - 1)
    track_scale = sw.TrackSpec(
        j0=0, j_slope=1, gamma0=zero, gamma_slope=zero,
        bundle=(sw.BundleAtom(0, zero, 1.0), sw.BundleAtom(1, e1, 0.5)))
    track_core = sw.TrackSpec(
        j0=0, j_slope=0, gamma0=(7,) + (0,) * (dim - 1),
        gamma_slope=tuple(4 * v for v in e1),
        bundle=(sw.BundleAtom(0, zero, 0.8), sw.BundleAtom(0, e2, 0.3)))
    return sw.GeneratorSpec(kind="mixture", tracks=(track_scale, track_core),
                            horizon=horizon, p=2.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", choices=["abelian", "heisenberg"], default="heisenberg")
    ap.add_argument("--horizon", type=int, default=32)
    ap.add_argument("--M-max", dest="m_max", type=int, default=64)
    args = ap.parse_args()

    g = sw.abelian(1) if args.group == "abelian" else sw.heisenberg(1)
    gs = sw.preset_sampling_set(g, 1.0)
    snaps = sw.generate(build_spec(g.dim, args.horizon), gs)
    print(f"group: {args.group} (dim {g.dim}, Q = {g.Q})")
    print(f"horizon: {snaps.horizon}, sequence bound K = {snaps.K_bound:.6f}")

    params = sw.ExtractParams(M_max=args.m_max, L_max=8, eps_conv=1e-10,
                              T_div=5.0, eps_stable=1e-9, tail=8, mode="strict")
    dec = sw.extract(snaps, params)
    print(f"\nextracted {len(dec.profiles)} profiles (M_eff = {dec.M_eff})")
    for prof in dec.profiles:
        print(f"  profile {prof.index}: escape = {prof.escape}, "
              f"energy = {prof.energy():.6f}")
        for j_rel, gamma_rel, d in prof.atoms:
            print(f"    atom: j_rel = {j_rel}, position = "
                  f"{np.round(gamma_rel, 6).tolist()}, d = {d:.6f}")

    for L, row in enumerate(sw.energy_ledger(dec, len(dec.profiles))):
        print(f"energy defect at L = {L}: {float(np.max(row)):.3e}")

    last = snaps.horizon - 1
    sp = sw.remainder_split(dec, last, len(dec.profiles), dec.M_eff)
    print(f"remainder split at the last snapshot: "
          f"||r1|| = {sp['r1_norm_Hs']:.3e}, ||r2|| = {sp['r2_norm_Lp_proxy']:.3e}")


if __name__ == "__main__":
    main()
