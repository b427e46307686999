"""Norm layer: exact single-mode values, Parseval, dual and mixed norms.

Expected values are hand computable because the measure is mean power in
the periodic directions and the unit-interval integral across the layer:
a single unit lattice mode has L2 norm exactly 1.
"""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

from plateflow.fields import (PlateField, SpectralField, layer_derivative,
                              zeros_like_field)
from plateflow.grid import TorusGrid
from plateflow.norms import (
    NormSpec,
    grid_l2_norm,
    mixed_lr_lp_norm,
    negative_norm,
    sobolev_norm,
    s_norm,
    x_norm,
    y_norm,
)

from conftest import poly_field, poly_plate

TOL_EXACT = 1e-12
TOL_PARSEVAL = 1e-12

GRID = TorusGrid(5, 5, 8)
HT = HX = 2


def _mode_field(n_t_shift=0, n_x_shift=0, profile=None):
    coeffs = np.zeros((9, 5, 5, 5), complex)
    coeffs[:, HT + n_t_shift, HX + n_x_shift, HX] = \
        1.0 if profile is None else profile
    return SpectralField(GRID, coeffs, 1, False)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(3, 0, 2.0)
    with pytest.raises(ValueError):
        NormSpec(0, -2.0, 2.0)
    with pytest.raises(ValueError):
        NormSpec(0, 0, 1.0)


def test_unsupported_orders():
    with pytest.raises(ValueError):
        sobolev_norm(zeros_like_field(GRID), NormSpec(0, -0.5, 2.0))
    with pytest.raises(ValueError):
        sobolev_norm(zeros_like_field(GRID, plate=True),
                     NormSpec(0, -1.0, 2.0))


def test_l2_of_constant_and_single_mode():
    const = _mode_field()
    assert abs(sobolev_norm(const, NormSpec()) - 1.0) < TOL_EXACT
    mode = _mode_field(1, 1)
    assert abs(sobolev_norm(mode, NormSpec()) - 1.0) < TOL_EXACT


def test_parseval_grid_agreement():
    f = poly_field(GRID, 21, components=3, band_t=2, band_x=2, degree=5)
    a = sobolev_norm(f, NormSpec())
    b = grid_l2_norm(f)
    assert abs(a - b) / a < TOL_PARSEVAL


def test_time_weight_single_mode():
    mode = _mode_field(1, 1)
    want = np.sqrt(1.0 + 1.0)          # (1 + k^2)^(1/2) with k = 1
    assert abs(sobolev_norm(mode, NormSpec(1, 0, 2.0)) - want) < TOL_EXACT


def test_spatial_weight_single_mode():
    mode = _mode_field(0, 1)           # e^{i x1}, constant across the layer
    # order 2: sum_j C(2,j) (1 + |xi|^2)^(2-j) |d3^j u|^2 = (1+1)^2
    assert abs(sobolev_norm(mode, NormSpec(0, 2, 2.0)) - 2.0) < TOL_EXACT


def test_layer_derivative_term():
    lin = _mode_field(profile=GRID.nodes)  # u = x3 on the mean column
    want = np.sqrt(1.0 / 3.0 + 1.0)        # |x3|^2 integral + |d3 x3|^2
    assert abs(sobolev_norm(lin, NormSpec(0, 1, 2.0)) - want) < TOL_EXACT


@pytest.mark.parametrize("time_order,spatial_order",
                         [(0, 0.0), (1, 0.0), (0, 2.0), (2, 1.0), (0, 1.5)])
@pytest.mark.parametrize("components", [1, 3])
def test_q2_slab_norm_equals_the_weighted_coefficient_sum(time_order,
                                                          spatial_order,
                                                          components):
    # bit for bit the sum with every weight multiplied in, order 0 included
    f = poly_field(GRID, 22, components=components, degree=5)
    c = f.coeffs
    wt = ((1.0 + GRID.k_phys ** 2) ** (0.5 * time_order)).reshape((-1, 1, 1))
    w3 = GRID.cheb_weights.reshape((-1, 1, 1, 1))
    m = int(np.floor(spatial_order + 1e-12))
    total = 0.0
    for j in range(m + 1):
        wx = (1.0 + GRID.xi_norm_sq()) ** (spatial_order - j)
        dj = c if j == 0 else layer_derivative(GRID, c, j)
        total += comb(m, j) * float(np.sum(np.abs(wt * dj) ** 2 * wx * w3))
    got = sobolev_norm(f, NormSpec(time_order, spatial_order, 2.0))
    assert got == float(np.sqrt(total))


def test_plate_norm_single_mode():
    coeffs = np.zeros((5, 5, 5), complex)
    coeffs[HT + 1, HX + 1, HX] = 1.0
    eta = PlateField(GRID, coeffs, False)
    want = (1.0 + 1.0) ** 1.5
    assert abs(sobolev_norm(eta, NormSpec(0, 3, 2.0)) - want) \
        < TOL_EXACT


def test_lq_quadrature_against_closed_form():
    coeffs = np.zeros((9, 5, 5, 5), complex)
    coeffs[:, HT, HX + 1, HX] = 0.5
    coeffs[:, HT, HX - 1, HX] = 0.5    # cos(x1)
    f = SpectralField(GRID, coeffs, 1, True)
    want = (3.0 / 8.0) ** 0.25         # mean of cos^4 over one period
    assert abs(sobolev_norm(f, NormSpec(0, 0, 4.0)) - want) < 1e-10


@pytest.mark.parametrize("amplitude", [1e-8, 1e6])
def test_lq_quadrature_scales_linearly_at_large_q(amplitude):
    # |f|^100 of these amplitudes under- or overflows in double precision
    f = poly_field(GRID, 3, components=3)
    spec = NormSpec(0, 2, 100.0)
    unit = sobolev_norm(f, spec)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        scaled = sobolev_norm(f * amplitude, spec)
    assert unit > 0.0
    assert abs(scaled / (amplitude * unit) - 1.0) < 1e-13


def test_real_fields_take_the_real_synthesis_at_q3():
    # the real half-lattice path must give the complex path's q != 2 norms
    grid = TorusGrid(5, 7, 8)
    u = poly_field(grid, 41, components=3, band_x=2)
    g = poly_field(grid, 42, components=1, band_x=2)
    eta = poly_plate(grid, 43, band_x=2)
    cases = [
        (lambda f: sobolev_norm(f, NormSpec(1, 2, 3.0)), u),
        (lambda f: sobolev_norm(f, NormSpec(2, 2.0 / 3.0, 3.0)), eta),
        (lambda f: negative_norm(f, q=3.0, time_order=1), g),
        (lambda f: mixed_lr_lp_norm(f, 3.0, 3.0), u),
    ]
    for norm, field in cases:
        real, cplx = norm(field), norm(replace(field, real=False))
        assert real > 0.0
        assert abs(real - cplx) / cplx < 1e-14


def test_mixed_norm_matches_l2_and_sup():
    mode = _mode_field(0, 1)
    assert abs(mixed_lr_lp_norm(mode, 2.0, 2.0) - 1.0) < TOL_EXACT
    coeffs = np.zeros((9, 5, 5, 5), complex)
    for st, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        coeffs[:, HT + st, HX + sx, HX] = 0.25     # cos(t) cos(x1)
    f = SpectralField(GRID, coeffs, 1, True)
    assert abs(mixed_lr_lp_norm(f, np.inf, np.inf) - 1.0) < TOL_EXACT


def test_mixed_norm_plate_sup():
    coeffs = np.zeros((5, 5, 5), complex)
    for st, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        coeffs[HT + st, HX + sx, HX] = 0.25
    eta = PlateField(GRID, coeffs, True)
    assert abs(mixed_lr_lp_norm(eta, np.inf, np.inf) - 1.0) < TOL_EXACT


def test_negative_norm_sharp_values():
    # -Lap psi = e^{i n x1} gives psi = f / n^2 and |f|_{-1} = 1/n
    assert abs(negative_norm(_mode_field(0, 1)) - 1.0) < 1e-10
    assert abs(negative_norm(_mode_field(0, 2)) - 0.5) < 1e-10


def test_negative_norm_time_weight():
    mode = _mode_field(1, 1)
    ratio = negative_norm(mode, time_order=1) / negative_norm(mode)
    assert abs(ratio - np.sqrt(2.0)) < 1e-10


def test_negative_norm_layer_mode():
    prof = np.cos(np.pi * GRID.nodes)
    f = _mode_field(0, 1, profile=prof)
    want = sobolev_norm(f, NormSpec()) / np.sqrt(1.0 + np.pi ** 2)
    assert abs(negative_norm(f) - want) / want < 1e-4


def test_negative_norm_mean_gauge():
    f = poly_field(GRID, 22, components=1)
    shifted = SpectralField(GRID, f.coeffs.copy(), 1, True)
    shifted.coeffs[:, HT, HX, HX] += 2.0   # constant offset
    assert abs(negative_norm(f) - negative_norm(shifted)) < 1e-10


def test_negative_norm_scales_linearly():
    f = poly_field(GRID, 23, components=1)
    assert abs(negative_norm(f * 2.0) - 2.0 * negative_norm(f)) < 1e-10


def test_negative_norm_refinement_stable():
    fine = TorusGrid(5, 5, 16)
    a = negative_norm(poly_field(GRID, 24, components=1))
    b = negative_norm(poly_field(fine, 24, components=1))
    assert abs(a - b) / a < 1e-8


def test_negative_norm_time_modes_are_independent():
    # the batched solve must give each time mode its own dual norm
    rng = np.random.default_rng(31)
    coeffs = np.moveaxis(rng.standard_normal((5, 5, 5, 9))
                         + 1j * rng.standard_normal((5, 5, 5, 9)), -1, 0)
    f = SpectralField(GRID, coeffs, 1, False)
    per_mode = []
    for it in range(GRID.n_t):
        only_k = np.zeros_like(coeffs)
        only_k[:, it] = coeffs[:, it]
        per_mode.append(negative_norm(SpectralField(GRID, only_k, 1, False)) ** 2)
    for t in (0, 1):
        want = np.sum((1.0 + GRID.k_phys ** 2) ** t * np.array(per_mode))
        assert abs(negative_norm(f, time_order=t) ** 2 - want) / want < 1e-12


def test_negative_norm_entry_through_norm_spec():
    f = poly_field(GRID, 25, components=1)
    assert sobolev_norm(f, NormSpec(0, -1.0, 2.0)) == negative_norm(f)


def test_solution_norm_homogeneity():
    u = poly_field(GRID, 26, components=3)
    p = poly_field(GRID, 27, components=1)
    eta = poly_plate(GRID, 28)
    base = x_norm(u, p, eta)
    assert base > 0.0
    assert abs(x_norm(u * 2.0, p * 2.0, eta * 2.0) - 2.0 * base) < 1e-10 * base
    assert s_norm(eta) <= base


def test_data_norm_ignores_vanished_divergence_term():
    f = poly_field(GRID, 29, components=3)
    h = poly_plate(GRID, 30)
    with_zero = y_norm(f, zeros_like_field(GRID), h)
    without = y_norm(f, None, h)
    assert abs(with_zero - without) < TOL_EXACT


def test_pressure_term_isolated_in_x_norm():
    p = poly_field(GRID, 31, components=1, degree=4)
    u0 = zeros_like_field(GRID, components=3)
    eta0 = zeros_like_field(GRID, plate=True)
    only_p = x_norm(u0, p, eta0)
    assert abs(only_p - sobolev_norm(p, NormSpec(0, 1, 2.0))) < TOL_EXACT
    assert only_p > 0.0
