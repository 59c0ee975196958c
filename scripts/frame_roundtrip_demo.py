#!/usr/bin/env python3
"""Frame analysis/synthesis round trips on the 1-d grid model.

Prints `verify_frame`'s numbers at p = 2: the direct synthesize(analyze(.))
error, the corrected error after the exact frame-operator inversion and the
frame bounds A and B on the covered band, for the sharp one-block window at
integer density (A is 0 to rounding: no frame on the band) and the smooth
window at quarter density.
"""

import argparse

import numpy as np

import stratwave as sw
from stratwave.transform import grid_ifft


def band_limited(n: int, extent: float, center: float = 2.0,
                 width: float = 8.0) -> sw.GridFunction:
    blank = sw.GridFunction(1, extent, np.zeros(n, dtype=complex))
    nu = blank.freq_axis()
    spec = np.exp(-width * (np.abs(nu) - center) ** 2).astype(complex)
    return grid_ifft(blank, spec)


def run(label: str, window, density: float, j_range, f: sw.GridFunction) -> None:
    gs = sw.preset_sampling_set(sw.abelian(1), density)
    check = sw.verify_frame(f, window, gs, j_range, 2.0)
    n = check.numbers
    print(f"{label}: density {density}, scales {j_range}, {check.coefficients} coefficients")
    print(f"  direct round-trip error    {n['roundtrip_rel_error']:.3e}")
    print(f"  corrected error            {n['corrected_rel_error']:.3e} "
          f"(residual {n['frame_residual']:.1e})")
    print(f"  frame bounds on the band   A = {check.lower_bound:.3e}, B = {check.upper_bound:.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--extent", type=float, default=8.0)
    args = ap.parse_args()

    f = band_limited(args.n, args.extent)
    run("sharp window", sw.NarrowWindow(), 1.0, (0, 4), f)
    run("smooth window", sw.build_window(1.0), 0.25, (-1, 4), f)


if __name__ == "__main__":
    main()
