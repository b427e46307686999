"""Layer discretization: nodes, differentiation, quadrature, transforms."""

from dataclasses import replace

import numpy as np
import pytest

from plateflow.grid import (
    TorusGrid,
    cheb_diff_matrix,
    cheb_eval,
    cheb_nodes,
    cheb_values_to_coeffs,
    clencurt_weights,
)

TOL_EXACT = 1e-12


def test_nodes_ascend_from_plate_face():
    z = cheb_nodes(16)
    assert z[0] == 0.0
    assert z[-1] == 1.0
    assert np.all(np.diff(z) > 0)
    # Gauss-Lobatto clustering: end spacing much finer than the middle
    assert z[1] - z[0] < 0.25 * (z[9] - z[8])


@pytest.mark.parametrize("n_z", [8, 12, 17])
def test_diff_matrix_exact_on_polynomials(n_z):
    z = cheb_nodes(n_z)
    d1 = cheb_diff_matrix(n_z)
    for j in range(n_z + 1):
        want = j * z ** (j - 1) if j > 0 else np.zeros_like(z)
        assert np.max(np.abs(d1 @ z ** j - want)) < TOL_EXACT * max(1.0, j * j)


def test_second_derivative_matrix():
    grid = TorusGrid(3, 3, 14)
    z = grid.nodes
    d2 = grid.dmat(2)
    assert np.max(np.abs(d2 @ z ** 5 - 20.0 * z ** 3)) < 1e-10
    assert np.array_equal(grid.dmat(2), grid.dmat(2))  # cached copy is stable


def test_dmat_rejects_order_zero():
    grid = TorusGrid(3, 3, 8)
    with pytest.raises(ValueError):
        grid.dmat(0)


@pytest.mark.parametrize("n_z", [6, 11, 20])
def test_clencurt_integrates_polynomials(n_z):
    z = cheb_nodes(n_z)
    w = clencurt_weights(n_z)
    for j in range(n_z + 1):
        assert abs(w @ z ** j - 1.0 / (j + 1)) < TOL_EXACT


def test_cheb_series_round_trip():
    rng = np.random.default_rng(5)
    z = cheb_nodes(12)
    vals = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    series = cheb_values_to_coeffs(vals)
    assert np.max(np.abs(cheb_eval(series, z) - vals)) < TOL_EXACT


def test_cheb_eval_matches_polynomial_off_nodes():
    rng = np.random.default_rng(9)
    pc = rng.standard_normal(6)
    z = cheb_nodes(10)
    series = cheb_values_to_coeffs(np.polynomial.polynomial.polyval(z, pc))
    probe = np.linspace(0.0, 1.0, 41)
    want = np.polynomial.polynomial.polyval(probe, pc)
    assert np.max(np.abs(cheb_eval(series, probe) - want)) < TOL_EXACT


def _clenshaw(coeffs, x3):
    """The recurrence in two lines, series along the last axis."""
    x = 1.0 - 2.0 * np.asarray(x3)
    b1 = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], x.shape), dtype=coeffs.dtype)
    b2 = np.zeros_like(b1)
    for m in range(coeffs.shape[-1] - 1, 0, -1):
        b1, b2 = 2.0 * x * b1 - b2 + coeffs[..., m], b1
    return x * b1 - b2 + coeffs[..., 0]


def test_cheb_eval_equals_the_two_line_recurrence():
    rng = np.random.default_rng(11)
    probe = rng.uniform(-0.05, 1.05, (5, 1))
    real = rng.standard_normal((3, 7))
    cases = [real, real + 1j * rng.standard_normal((3, 7)),
             rng.integers(-5, 6, (3, 7)), real[:1, :1]]
    for coeffs in cases:
        want = _clenshaw(coeffs, probe)
        got = cheb_eval(coeffs, probe)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # series axis first, as the forcing pullback lays it out
        series_first = np.ascontiguousarray(np.moveaxis(coeffs, -1, 0))
        assert np.array_equal(cheb_eval(series_first, probe, axis=0), want)


def test_cheb_values_to_coeffs_axis_argument():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, 9))
    by_axis = cheb_values_to_coeffs(vals, axis=1)
    rows = np.stack([cheb_values_to_coeffs(v) for v in vals])
    assert np.max(np.abs(by_axis - rows)) < TOL_EXACT


@pytest.mark.parametrize("n_t,n_x,n_z", [(4, 5, 8), (5, 4, 8), (2, 3, 8),
                                         (5, 5, 3)])
def test_size_validation(n_t, n_x, n_z):
    with pytest.raises(ValueError):
        TorusGrid(n_t, n_x, n_z)


def test_period_validation():
    with pytest.raises(ValueError):
        TorusGrid(5, 5, 8, t_period=0.0)


def test_frequency_lattices():
    grid = TorusGrid(7, 5, 8, t_period=np.pi, l_period=4.0 * np.pi)
    assert np.array_equal(grid.k_int, np.arange(-3, 4))
    assert np.array_equal(grid.xi_int, np.arange(-2, 3))
    assert np.allclose(grid.k_phys, grid.k_int * 2.0)
    assert np.allclose(grid.xi_phys, grid.xi_int * 0.5)
    a2 = grid.xi_norm_sq()
    assert a2.shape == (5, 5)
    assert a2[2, 2] == 0.0
    assert abs(a2[4, 3] - (1.0 ** 2 + 0.5 ** 2)) < TOL_EXACT
    # the |xi'|^2 groups partition the lattice, strictly ascending
    seen = np.zeros(a2.shape, int)
    values = []
    for val, i1, i2 in grid.xi_groups():
        assert np.all(a2[i1, i2] == val)
        seen[i1, i2] += 1
        values.append(val)
    assert np.all(seen == 1)
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_sample_lattices_cover_one_period():
    grid = TorusGrid(5, 7, 8)
    assert grid.t_samples[0] == 0.0
    assert len(grid.t_samples) == 5
    assert abs(grid.t_samples[1] - grid.t_period / 5) < TOL_EXACT
    assert len(grid.x_samples) == 7


def test_with_sizes_keeps_periods():
    grid = TorusGrid(5, 5, 8, t_period=1.5, l_period=2.5)
    # a grid is resized with dataclasses.replace, which reruns __post_init__
    fine = replace(grid, n_z=16)
    assert (fine.n_t, fine.n_x, fine.n_z) == (5, 5, 16)
    assert fine.t_period == 1.5 and fine.l_period == 2.5
    assert fine.nodes.shape == (17,) and fine.dmat(2).shape == (17, 17)
    with pytest.raises(ValueError, match="N_z"):
        replace(grid, n_z=3)


def test_quadrature_weights_attached_to_grid():
    grid = TorusGrid(3, 3, 10)
    assert abs(np.sum(grid.cheb_weights) - 1.0) < TOL_EXACT
    assert np.array_equal(grid.nodes, cheb_nodes(10))
