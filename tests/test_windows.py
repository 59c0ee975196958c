"""Spectral windows: partition of unity, supports, edge conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratwave as sw
from stratwave.windows import coverage_interval


def test_smooth_partition_machine_exact():
    w = sw.build_window(1.0)
    grid = np.geomspace(*coverage_interval(8), 512)
    assert sw.verify_partition(w, 8, grid) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(xi=st.floats(1e-4, 1e4), sharpness=st.floats(0.3, 4.0))
def test_smooth_partition_pointwise(xi, sharpness):
    w = sw.build_window(sharpness)
    total = sum(float(w.psi_hat(xi * 4.0 ** (-j))) ** 2 for j in range(-12, 13))
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(xi=st.floats(1e-6, 1e6))
def test_smooth_psi_support(xi):
    w = sw.build_window(1.0)
    if xi < 0.25 or xi > 4.0:
        assert float(w.psi_hat(xi)) == 0.0


def test_smooth_phi_plateaus():
    w = sw.build_window(1.0)
    assert float(w.phi_hat(0.2)) == 1.0
    assert float(w.phi_hat(1e-12)) == 1.0
    assert float(w.phi_hat(1.5)) == 0.0
    assert float(w.phi_hat(100.0)) == 0.0
    mid = float(w.phi_hat(0.5))
    assert 0.0 < mid < 1.0


def test_smooth_phi_monotone_on_transition():
    w = sw.build_window(1.0)
    xi = np.geomspace(0.25, 1.0, 200)
    vals = np.asarray(w.phi_hat(xi))
    assert np.all(np.diff(vals) <= 1e-15)


def test_narrow_partition_interior_exact():
    w = sw.NarrowWindow()
    lo, hi = coverage_interval(6)
    # off the shared band edges the indicator sum is exactly 1
    grid = np.geomspace(lo, hi, 4001)[1:-1]
    log4 = np.log(grid) / np.log(4.0)
    interior = grid[np.abs(log4 - np.round(log4)) > 1e-3]
    assert sw.verify_partition(w, 6, interior) == 0.0
    # a grid hitting the edges exactly only picks up the 1-ulp error of
    # squaring sqrt(1/2)
    edges = np.geomspace(lo, hi, 4001)[1:-1]
    assert sw.verify_partition(w, 6, edges) <= 1e-15


def test_narrow_values_and_edges():
    w = sw.NarrowWindow()
    assert float(w.psi_hat(0.5)) == 1.0
    assert float(w.psi_hat(0.26)) == 1.0
    assert float(w.psi_hat(0.25)) == pytest.approx(np.sqrt(0.5), abs=0)
    assert float(w.psi_hat(1.0)) == pytest.approx(np.sqrt(0.5), abs=0)
    assert float(w.psi_hat(0.2)) == 0.0
    assert float(w.psi_hat(1.1)) == 0.0
    # the spectral variable is the squared frequency modulus: a modulus of
    # 1/4 sits at 1/16, far below the band
    assert float(w.psi_hat(0.25**2)) == 0.0


def test_narrow_edge_shared_between_two_scales():
    # at an edge point exactly two dilates are active, each with square 1/2
    w = sw.NarrowWindow()
    active = [j for j in range(-3, 4) if float(w.psi_hat(1.0 * 4.0 ** (-j))) > 0]
    assert active == [0, 1]
    assert sum(float(w.psi_hat(1.0 * 4.0 ** (-j))) ** 2
               for j in active) == pytest.approx(1.0, abs=1e-15)


def test_coverage_interval_values():
    assert coverage_interval(2) == (4.0**-2, 4.0**2)


def test_verify_partition_warns_outside_band():
    w = sw.build_window(1.0)
    with pytest.warns(UserWarning, match="outside covered band"):
        dev = sw.verify_partition(w, 2, np.array([1e-9, 1.0]))
    assert dev <= 1e-12


@pytest.mark.parametrize("J, grid", [(-1, np.geomspace(4.0, 0.25, 8)), (2, np.array([])),
                                     (2, np.array([1e-9, 1e9]))],
                         ids=["empty-band", "no-points", "all-outside"])
def test_verify_partition_refuses_a_grid_with_nothing_to_check(J, grid):
    with pytest.raises(ValueError, match="no grid point lies in the covered band"):
        sw.verify_partition(sw.build_window(1.0), J, grid)


def test_build_window_validation():
    with pytest.raises(ValueError):
        sw.build_window(0.0)
    with pytest.raises(ValueError):
        sw.build_window(-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            sw.build_window(bad)
