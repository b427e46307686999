"""Spectral field containers, transforms, and exact derivative operators."""

import tracemalloc

import numpy as np
import pytest

from plateflow.fields import (
    DEALIAS,
    OVERSAMPLE,
    PlateField,
    SpectralField,
    divergence,
    dt,
    dx,
    dx3,
    forward_transform,
    gradient,
    inverse_transform,
    is_conjugate_symmetric,
    laplacian,
    layer_derivative,
    pad_coeffs,
    pad_to_samples,
    padded_sizes,
    physical_samples,
    samples_to_truncated,
    trace_bottom,
    truncate_coeffs,
    zeros_like_field,
)
from plateflow.fields import _symmetrize, _to_coeffs
from plateflow.nonlinear import _layer_rows
from plateflow.grid import TorusGrid

from conftest import poly_field, poly_plate

TOL_ROUND = 1e-13
TOL_DERIV = 1e-12

GRID = TorusGrid(5, 5, 8)
HT = (GRID.n_t - 1) // 2
HX = (GRID.n_x - 1) // 2


def _lattice(grid):
    t = grid.t_samples[:, None, None, None]
    x1 = grid.x_samples[None, :, None, None]
    x2 = grid.x_samples[None, None, :, None]
    x3 = grid.nodes[None, None, None, :]
    return t, x1, x2, x3


# the transforms and the derivatives take plate (rank 3) and slab samples alike
def test_sample_round_trip_real():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((5, 5, 5, 9, 3))
    for kind, vals in ((SpectralField, samples), (PlateField, samples[..., 0, 0])):
        field = forward_transform(GRID, vals)
        assert isinstance(field, kind) and field.real
        assert is_conjugate_symmetric(field.coeffs)
        back = physical_samples(field)
        assert np.isrealobj(back)
        assert np.max(np.abs(back - vals)) < TOL_ROUND


def test_sample_round_trip_complex():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((5, 5, 5, 9)) \
        + 1j * rng.standard_normal((5, 5, 5, 9))
    for kind, vals in ((SpectralField, samples), (PlateField, samples[..., 0])):
        field = forward_transform(GRID, vals)
        assert isinstance(field, kind) and not field.real
        assert np.max(np.abs(inverse_transform(field) - vals)) < TOL_ROUND


def test_plate_round_trip():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((5, 5, 5))
    field = forward_transform(GRID, samples)
    assert isinstance(field, PlateField)
    assert np.max(np.abs(inverse_transform(field) - samples)) < TOL_ROUND
    with pytest.raises(ValueError, match="expected 5-d samples"):
        forward_transform(GRID, samples, components=3)


def test_shape_strictness():
    with pytest.raises(ValueError):
        SpectralField(GRID, np.zeros((5, 5, 5, 8), complex))  # n_z+1 expected
    with pytest.raises(ValueError):
        SpectralField(GRID, np.zeros((5, 5, 5, 9), complex), components=3)
    with pytest.raises(ValueError):
        PlateField(GRID, np.zeros((5, 3, 5), complex))


def test_plate_field_rejects_trailing_axis():
    # a plate field is one scalar on the torus; vectors are separate fields
    PlateField(GRID, np.zeros((5, 5, 5), complex))
    for shape in ((5, 5, 5, 3), (5, 5, 5, 1)):
        with pytest.raises(ValueError, match="does not match grid"):
            PlateField(GRID, np.zeros(shape, complex))


def test_time_derivative_single_mode():
    t, x1, _, _ = _lattice(GRID)
    shape = (5, 5, 5, 9)
    samples = np.broadcast_to(np.cos(t + x1), shape).copy()
    want = np.broadcast_to(-np.sin(t + x1), shape)
    for layer in (slice(None), 0):     # slab, then its bottom-node plate
        field = forward_transform(GRID, samples[..., layer])
        assert np.max(np.abs(physical_samples(dt(field)) - want[..., layer])) \
            < TOL_DERIV


def test_lateral_derivative_single_mode():
    _, x1, x2, _ = _lattice(GRID)
    shape = (5, 5, 5, 9)
    samples = np.broadcast_to(np.sin(x1) * np.cos(2.0 * x2), shape).copy()
    want1 = np.broadcast_to(np.cos(x1) * np.cos(2.0 * x2), shape)
    want2 = np.broadcast_to(-2.0 * np.sin(x1) * np.sin(2.0 * x2), shape)
    for layer in (slice(None), 0):     # slab, then its bottom-node plate
        field = forward_transform(GRID, samples[..., layer])
        d1 = physical_samples(dx(field, 1))
        d2 = physical_samples(dx(field, 2))
        assert np.max(np.abs(d1 - want1[..., layer])) < TOL_DERIV
        assert np.max(np.abs(d2 - want2[..., layer])) < TOL_DERIV


def test_dx_direction_is_one_based():
    field = zeros_like_field(GRID)
    with pytest.raises(ValueError):
        dx(field, 0)
    with pytest.raises(ValueError):
        dx(field, 3)


def test_layer_derivative_on_polynomial():
    coeffs = np.zeros((5, 5, 5, 9), complex)
    coeffs[HT, HX, HX] = GRID.nodes ** 3
    field = SpectralField(GRID, coeffs, 1, True)
    out = dx3(field).coeffs[HT, HX, HX]
    assert np.max(np.abs(out - 3.0 * GRID.nodes ** 2)) < TOL_DERIV
    out2 = dx3(field, 2).coeffs[HT, HX, HX]
    assert np.max(np.abs(out2 - 6.0 * GRID.nodes)) < 1e-10

    # vector field: node axis before the component axis
    z = GRID.nodes
    vec = np.zeros((5, 5, 5, 9, 3), complex)
    vec[HT, HX, HX] = np.stack([z ** 2, z ** 3, z ** 4], axis=-1)
    vfield = SpectralField(GRID, vec, 3, True)
    want1 = np.stack([2.0 * z, 3.0 * z ** 2, 4.0 * z ** 3], axis=-1)
    want2 = np.stack([np.full_like(z, 2.0), 6.0 * z, 12.0 * z ** 2], axis=-1)
    assert np.max(np.abs(dx3(vfield).coeffs[HT, HX, HX] - want1)) < TOL_DERIV
    assert np.max(np.abs(dx3(vfield, 2).coeffs[HT, HX, HX] - want2)) < 1e-10

    # raw kernel on a batch of profiles with the node axis last
    batch = np.stack([z ** j for j in range(1, 5)])
    want = np.stack([j * z ** (j - 1) for j in range(1, 5)])
    assert np.max(np.abs(layer_derivative(GRID, batch) - want)) < TOL_DERIV


def test_traces_pick_face_nodes():
    f = poly_field(GRID, 11, components=3)
    samples = physical_samples(f)
    bot = inverse_transform(trace_bottom(f, 0))
    top = inverse_transform(PlateField(GRID, f.coeffs[..., -1, 2], f.real))
    assert np.max(np.abs(bot - samples[..., 0, 0])) < TOL_ROUND
    assert np.max(np.abs(top - samples[..., -1, 2])) < TOL_ROUND


def test_div_grad_is_laplacian():
    phi = poly_field(GRID, 13, components=1, degree=4)
    lhs = divergence(gradient(phi))
    rhs = laplacian(phi)
    scale = np.max(np.abs(rhs.coeffs)) + 1.0
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11 * scale


def test_plate_operators_single_mode():
    coeffs = np.zeros((5, 5, 5), complex)
    coeffs[HT + 1, HX + 1, HX] = 0.5
    coeffs[HT - 1, HX - 1, HX] = 0.5          # cos(t + x1)
    eta = PlateField(GRID, coeffs, True)
    t = GRID.t_samples[:, None, None]
    x1 = GRID.x_samples[None, :, None]
    shape = (5, 5, 5)
    want_dt = np.broadcast_to(-np.sin(t + x1), shape)
    assert np.max(np.abs(inverse_transform(dt(eta)) - want_dt)) < TOL_DERIV
    assert np.max(np.abs(inverse_transform(dx(eta, 1)) - want_dt)) < TOL_DERIV
    assert np.max(np.abs(inverse_transform(dx(eta, 2)))) < TOL_DERIV
    lap = inverse_transform(laplacian(eta))
    assert np.max(np.abs(lap + np.broadcast_to(np.cos(t + x1), shape))) \
        < TOL_DERIV


def test_pad_truncate_round_trip_exact():
    f = poly_field(GRID, 14, components=3, band_t=2, band_x=2)
    m_t, m_x = padded_sizes(GRID, 1.5)
    assert m_t > GRID.n_t and m_x > GRID.n_x
    padded = pad_coeffs(f.coeffs, GRID, m_t, m_x)
    assert padded.shape[:3] == (m_t, m_x, m_x)
    assert np.array_equal(truncate_coeffs(padded, GRID), f.coeffs)


def test_dealias_sampling_pair():
    f = poly_field(GRID, 15, components=1, band_t=2, band_x=2)
    samples = pad_to_samples(f.coeffs, GRID, OVERSAMPLE)
    back = samples_to_truncated(samples, GRID, real=True)
    assert np.max(np.abs(back - f.coeffs)) < TOL_ROUND


@pytest.mark.parametrize("factor", [DEALIAS, OVERSAMPLE])
def test_plate_synthesis_is_the_singleton_slab_synthesis(factor):
    eta = poly_plate(GRID, 16)
    plate = pad_to_samples(eta.coeffs, GRID, factor)
    slab = pad_to_samples(eta.coeffs[..., None], GRID, factor)
    m_t, m_x = padded_sizes(GRID, factor)
    assert plate.shape == (m_t, m_x, m_x)
    assert np.array_equal(plate, slab[..., 0])


def test_padded_real_part():
    coeffs = poly_field(GRID, 17, components=3).coeffs * (0.6 + 0.8j)
    samples = pad_to_samples(coeffs, GRID)
    assert np.max(np.abs(samples.imag)) > 0.1
    real = pad_to_samples(coeffs, GRID, real=True)
    assert np.isrealobj(real)
    # the real half-lattice transform matches the real part to round-off
    assert np.max(np.abs(real - samples.real)) <= 1e-15 * np.max(np.abs(samples.real))


HALF_LATTICE_CASES = [
    (grid, factor, tail)
    for grid in (TorusGrid(3, 3, 4), GRID, TorusGrid(7, 5, 6), TorusGrid(3, 7, 4))
    for factor in (DEALIAS, OVERSAMPLE)
    for tail in ((), (grid.n_z + 1,), (grid.n_z + 1, 3))
]


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_half_lattice_synthesis_is_the_real_part(grid, factor, tail):
    rng = np.random.default_rng(len(tail))
    shape = (grid.n_t, grid.n_x, grid.n_x) + tail
    # not conjugate symmetric, so the real part is a genuine projection
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    real = pad_to_samples(coeffs, grid, factor, real=True)
    want = pad_to_samples(coeffs, grid, factor).real
    assert np.isrealobj(real) and real.shape == want.shape
    assert np.max(np.abs(real - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_half_lattice_analysis_matches_the_complex_path(grid, factor, tail):
    m_t, m_x = padded_sizes(grid, factor)
    samples = np.random.default_rng(len(tail)).standard_normal((m_t, m_x, m_x) + tail)
    coeffs = samples_to_truncated(samples, grid, real=True)
    want = _symmetrize(truncate_coeffs(_to_coeffs(samples), grid))
    assert coeffs.shape == (grid.n_t, grid.n_x, grid.n_x) + tail
    assert np.max(np.abs(coeffs - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(coeffs, np.conj(coeffs[::-1, ::-1, ::-1]))


def _half_lattice_index(grid, m_t, m_x):
    hx = (grid.n_x - 1) // 2
    return ((grid.k_int % m_t)[:, None, None], (grid.xi_int % m_x)[None, :, None],
            np.arange(hx + 1))


def _irfftn_synthesis(coeffs, grid, factor):
    """The real half-lattice synthesis as one irfftn of the filled half lattice."""
    m_t, m_x = padded_sizes(grid, factor)
    hx = (grid.n_x - 1) // 2
    half = np.zeros((m_t, m_x, m_x // 2 + 1) + coeffs.shape[3:], complex)
    half[_half_lattice_index(grid, m_t, m_x)] = 0.5 * (
        coeffs[:, :, hx:] + np.conj(coeffs[::-1, ::-1, hx::-1]))
    return np.fft.irfftn(half, s=(m_t, m_x, m_x), axes=(0, 1, 2), norm="forward")


def _rfftn_analysis(samples, grid):
    """The real half-lattice analysis as one rfftn, gathered and reflected."""
    m_t, m_x = samples.shape[:2]
    hx = (grid.n_x - 1) // 2
    spec = np.fft.rfftn(samples, axes=(0, 1, 2), norm="forward")
    half = spec[_half_lattice_index(grid, m_t, m_x)]
    return _symmetrize(np.concatenate([np.conj(half[::-1, ::-1, hx:0:-1]), half], axis=2))


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_pruned_half_lattice_passes_equal_irfftn_and_rfftn(grid, factor, tail):
    # the pruned passes run in irfftn's / rfftn's order, so every bit agrees
    rng = np.random.default_rng(7 + len(tail))
    shape = (grid.n_t, grid.n_x, grid.n_x) + tail
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(pad_to_samples(coeffs, grid, factor, real=True),
                          _irfftn_synthesis(coeffs, grid, factor))
    m_t, m_x = padded_sizes(grid, factor)
    samples = rng.standard_normal((m_t, m_x, m_x) + tail)
    assert np.array_equal(samples_to_truncated(samples, grid, True),
                          _rfftn_analysis(samples, grid))


@pytest.mark.parametrize("order", [1, 2])
def test_layer_derivative_equals_the_per_mode_products(order):
    grid = TorusGrid(7, 5, 12)
    rng = np.random.default_rng(order)
    d = grid.dmat(order)

    def field(*tail):
        shape = (grid.n_t, grid.n_x, grid.n_x, grid.n_z + 1) + tail
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    vec, scal = field(3), field()
    assert np.array_equal(layer_derivative(grid, vec, order, vector=True), d @ vec)
    assert np.array_equal(layer_derivative(grid, scal, order), scal @ d.T)
    # a strided component, one lateral plane and a batch of profiles
    assert np.array_equal(layer_derivative(grid, vec[..., 2], order), vec[..., 2] @ d.T)
    assert np.array_equal(layer_derivative(grid, vec[0], order, vector=True), d @ vec[0])
    assert np.array_equal(layer_derivative(grid, scal[0, 0], order), scal[0, 0] @ d.T)
    # the Picard blocks take rows of the same matrix through the same kernel
    rows = slice(5, 10)
    assert np.array_equal(_layer_rows(grid, vec, order, rows, True), d[rows] @ vec)
    assert np.array_equal(_layer_rows(grid, scal, order, rows, False), scal @ d[rows].T)


def test_layer_derivative_holds_one_time_plane_of_temporaries():
    grid = TorusGrid(17, 17, 32)
    shape = (17, 17, 17, 33, 3)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    layer_derivative(grid, coeffs, 2, vector=True)  # builds and caches dmat(2)
    tracemalloc.start()
    try:
        out = layer_derivative(grid, coeffs, 2, vector=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one plane's transposed operand and its product, plus under 64 KiB for
    # the complex cast of the (33, 33) matrix and einsum's bookkeeping (20 KB
    # measured); a whole-field contraction would add a field (17 planes)
    assert peak <= out.nbytes + 2 * coeffs[0].nbytes + (64 << 10)


def test_zeros_like_shapes():
    assert zeros_like_field(GRID).coeffs.shape == (5, 5, 5, 9)
    assert zeros_like_field(GRID, components=3).coeffs.shape == (5, 5, 5, 9, 3)
    assert zeros_like_field(GRID, plate=True).coeffs.shape == (5, 5, 5)


def test_component_and_arithmetic():
    a = poly_field(GRID, 16, components=3)
    b = poly_field(GRID, 17, components=3)
    u2 = a.component(2)
    assert u2.components == 1
    assert np.array_equal(u2.coeffs, a.coeffs[..., 2])
    s = a + b
    d = a - b
    assert np.max(np.abs(s.coeffs - (a.coeffs + b.coeffs))) == 0.0
    assert np.max(np.abs(d.coeffs - (a.coeffs - b.coeffs))) == 0.0
    scaled = a * 2.5
    assert np.max(np.abs(scaled.coeffs - 2.5 * a.coeffs)) == 0.0


def test_grid_mismatch_rejected():
    other = TorusGrid(5, 5, 10)
    with pytest.raises(ValueError):
        poly_field(GRID, 18) + poly_field(other, 18)


def test_plate_arithmetic_and_real_flag():
    a = poly_plate(GRID, 19)
    b = poly_plate(GRID, 20)
    assert (a + b).real and (a - b).real
    assert np.max(np.abs((a * 3.0).coeffs - 3.0 * a.coeffs)) == 0.0
