#!/usr/bin/env python3
"""Measure the empirical constants left unquantified by the qualitative theory.

Reports:
  - the norm-equivalence constant C between the continuous Besov norm and
    the discrete sequence norm over a bump corpus, per lattice density;
  - the uniform bound on the lattice decay sum over (eta, j, x) samples;
  - the same-scale and cross-scale Gram couplings of the sharp window's
    integer-lattice atoms;
  - the frame bounds A and B of the smooth window's frame operator on its
    covered band, on a 1-D and a 2-D grid per lattice density (A at most
    1e-12 B means no frame on the band).
"""

import argparse
import warnings

import numpy as np

import stratwave as sw


def corpus(n: int, extent: float):
    desc = sw.GridDescriptor(1, n, extent)
    out = []
    for sigma in (0.4, 0.7, 1.0, 1.6):
        out.append(sw.GridFunction.from_callable(
            desc, lambda x, s=sigma: np.exp(-np.pi * (x / s) ** 2)))
    for freq in (0.5, 1.5, 2.5):
        out.append(sw.GridFunction.from_callable(
            desc, lambda x, f=freq:
            np.exp(-np.pi * x**2) * np.exp(2j * np.pi * f * x)))
    return out


def equivalence_constant(density: float, n: int, extent: float, s: float) -> float:
    gs = sw.preset_sampling_set(sw.abelian(1), density)
    funcs = corpus(n, extent)
    ks = sw.build_kernel_set(sw.build_window(1.0), funcs[0].descriptor(), (-4, 4))
    np_ = sw.NormParams(s, 2.0, 2.0)
    ratios = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f in funcs:
            cont = sw.besov_norm_continuous(f, ks, s, 2.0, 2.0)
            disc = sw.discrete_besov_norm(sw.analyze(f, ks, gs, 2.0), np_)
            ratios.append(cont / disc)
    ratios = np.asarray(ratios)
    return float(max(np.max(ratios), 1.0 / np.min(ratios)))


def decay_bound(samples: int, seed: int) -> float:
    gs = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        j = int(rng.integers(0, 3))
        eta = int(rng.integers(0, j + 1))
        x = rng.uniform(-2, 2, size=3)
        worst = max(worst, sw.column_decay_certificate(
            gs, eta, j, 16, x, rel_tail=1e-6, max_shells=40))
    return worst


def gram_couplings(n: int, extent: float):
    gs = sw.preset_sampling_set(sw.abelian(1), 1.0)
    desc = sw.GridDescriptor(1, n, extent)
    ks = sw.build_kernel_set(sw.NarrowWindow(), desc, (0, 3))
    c0 = sw.CoefficientField(gs, sw.lp_atoms(2.0), js=[1], gammas=[[0]], values=[1.0])
    c = sw.analyze(sw.synthesize(c0, ks, gs, desc), ks, gs, 2.0)
    on_scale = c.js == 1
    same = np.max(c.moduli()[on_scale & (c.gammas[:, 0] != 0)], initial=0.0)
    cross = np.max(c.moduli()[~on_scale], initial=0.0)
    return same, cross


# (dim, N, R, j range) of the frame-bound grids
FRAME_GRIDS = [(1, 256, 4.0, (-1, 4)), (2, 32, 4.0, (-1, 2))]


def frame_bounds(dim: int, n: int, extent: float, j_range, density: float):
    desc = sw.GridDescriptor(dim, n, extent)
    gs = sw.SamplingSet(sw.abelian(dim), density)
    ks = sw.build_kernel_set(sw.build_window(1.0), desc, j_range)
    blank = sw.GridFunction(dim, extent, np.zeros((n,) * dim))
    _, info = sw.frame_reconstruct(blank, ks, gs)
    return info["lower_bound"], info["upper_bound"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--extent", type=float, default=8.0)
    ap.add_argument("--s", type=float, default=0.25)
    ap.add_argument("--decay-samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("norm-equivalence constant C (continuous vs discrete Besov):")
    for density in (1.0, 0.5, 0.25):
        C = equivalence_constant(density, args.n, args.extent, args.s)
        print(f"  density {density:5.2f}: C = {C:.3f}")

    worst = decay_bound(args.decay_samples, args.seed)
    print(f"\nlattice decay sum, uniform bound over {args.decay_samples} "
          f"(eta, j, x) samples: {worst:.4f}")

    same, cross = gram_couplings(args.n, args.extent)
    dnu = 1.0 / (2.0 * args.extent)
    print(f"\nsharp-window atom Gram at grid step {dnu:g}:")
    print(f"  same-scale off-diagonal max  {same:.3e} (exactly diagonal)")
    print(f"  cross-scale coupling max     {cross:.3e} "
          f"(band-edge effect, O(grid step))")

    print("\nframe bounds on the covered band (smooth window):")
    for dim, n, extent, j_range in FRAME_GRIDS:
        for density in (0.125, 0.25, 0.5):
            lower, upper = frame_bounds(dim, n, extent, j_range, density)
            print(f"  {dim}-D N = {n}, R = {extent:g}, j in {list(j_range)}, density "
                  f"{density:5.3f}: A = {lower:.4e}, B = {upper:.4e}")


if __name__ == "__main__":
    main()
