"""Divergence lift: exactness, boundary behavior, and estimate ratios."""

from dataclasses import replace

import numpy as np
import pytest

from plateflow.fields import divergence, trace_bottom, zeros_like_field
from plateflow.grid import TorusGrid
from plateflow.lift import lift_divergence, lift_estimate_check
from plateflow.modes import IncompatibleDataError

from conftest import bubble_field

TOL_DIV = 1e-10
TOL_BC = 1e-12

GRID = TorusGrid(5, 5, 12)


def _compatible_datum(grid, seed):
    # the divergence of a field with flat faces has exact zero layer means
    return divergence(bubble_field(grid, seed))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lift_solves_divergence_equation(seed):
    g = _compatible_datum(GRID, seed)
    w = lift_divergence(g)
    assert np.max(np.abs(divergence(w).coeffs - g.coeffs)) < TOL_DIV
    assert np.max(np.abs(w.coeffs[:, (0, GRID.n_z)])) < TOL_BC


def test_lift_vanishes_on_both_faces():
    w = lift_divergence(_compatible_datum(GRID, 7))
    for comp in range(3):
        assert np.max(np.abs(trace_bottom(w, comp).coeffs)) < TOL_BC
        assert np.max(np.abs(w.coeffs[comp, -1])) < TOL_BC


def test_lift_is_linear():
    g = _compatible_datum(GRID, 8)
    w1 = lift_divergence(g)
    w2 = lift_divergence(g * 2.0)
    scale = np.max(np.abs(w1.coeffs))
    assert np.max(np.abs(w2.coeffs - 2.0 * w1.coeffs)) < 1e-12 * scale


def test_zero_datum_gives_zero_lift():
    g = zeros_like_field(GRID)
    w = lift_divergence(g)
    assert np.max(np.abs(w.coeffs)) == 0.0
    assert np.max(np.abs(divergence(w).coeffs - g.coeffs)) == 0.0


def test_incompatible_datum_rejected():
    # a nonzero layer mean, and a mean-free T_{N_z} profile, which no
    # degree-N_z profile vanishing at both faces has as its derivative
    top = (-1.0) ** np.arange(GRID.n_z + 1)
    for profile in (1.0, top - top @ GRID.cheb_weights):
        bad = zeros_like_field(GRID)
        bad.coeffs[:, (GRID.n_t - 1) // 2, (GRID.n_x - 1) // 2,
                   (GRID.n_x - 1) // 2] = profile
        with pytest.raises(IncompatibleDataError):
            lift_divergence(bad)


def test_estimate_ratios_finite_and_refinement_stable():
    fine = replace(GRID, n_z=24)
    for seed in range(5):
        coarse_g = _compatible_datum(GRID, 100 + seed)
        fine_g = _compatible_datum(fine, 100 + seed)
        est_c = lift_estimate_check(coarse_g, lift_divergence(coarse_g))
        est_f = lift_estimate_check(fine_g, lift_divergence(fine_g))
        for key, val in est_c.items():
            assert np.isfinite(val) and val > 0.0, key
            assert abs(est_f[key] / val - 1.0) < 0.2, key
