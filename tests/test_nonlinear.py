"""Interaction terms, straightening geometry, and the fixed-point solver."""

import sys
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from plateflow import nonlinear
from plateflow.fields import (
    DEALIAS,
    OVERSAMPLE,
    PlateField,
    SpectralField,
    dx,
    forward_transform,
    pad_to_samples,
    padded_sizes,
    samples_to_truncated,
    trace_bottom,
    zeros_like_field,
)
from plateflow.grid import TorusGrid
from plateflow.lift import lift_divergence, solve_by_lift
from plateflow.modes import solve_linear_full
from plateflow.nonlinear import (
    DegenerateDeformationError,
    PicardConfig,
    PicardDivergenceError,
    compose_forcing,
    compute_nonlinear_terms,
    e_matrix,
    nonlinear_residual,
    picard_solve,
)
from plateflow.norms import NormSpec, sobolev_norm, x_norm
from plateflow.oracles import make_manufactured, nonlinear_bound_ratios

from conftest import bubble_field, count_calls, poly_field, poly_plate

GRID = TorusGrid(5, 5, 8)
HT = HX = 2

ETA_SMALL = 1e-2


def _state(seed, scale=ETA_SMALL):
    u = bubble_field(GRID, seed, components=3, scale=scale)
    p = poly_field(GRID, seed + 500, components=1, scale=scale)
    eta = poly_plate(GRID, seed + 900, scale=scale, zero_mean=True)
    return u, p, eta


def test_flat_plate_annihilates_every_correction():
    u, p, _ = _state(1, scale=1.0)
    flat = zeros_like_field(GRID, plate=True)
    assert np.max(np.abs(e_matrix(flat))) == 0.0
    terms = compute_nonlinear_terms(u, p, flat)
    assert np.max(np.abs(nonlinear._deformation_momentum(u, p, flat))) == 0.0
    assert np.max(np.abs(terms.rd_vector.coeffs)) == 0.0
    assert np.max(np.abs(terms.rd_tilde.coeffs)) == 0.0
    assert np.max(np.abs(terms.r_eta.coeffs)) == 0.0
    # what survives is the convective term, quadratic in the velocity alone
    assert np.max(np.abs(terms.rf_tilde.coeffs)) > 0.0


def test_flat_plate_convective_term_is_quadratic():
    u, p, _ = _state(2, scale=1.0)
    flat = zeros_like_field(GRID, plate=True)
    t1 = compute_nonlinear_terms(u, p, flat)
    t2 = compute_nonlinear_terms(u * 2.0, p * 2.0, flat)
    dev = np.max(np.abs(t2.rf_tilde.coeffs - 4.0 * t1.rf_tilde.coeffs))
    assert dev < 1e-14 * np.max(np.abs(t2.rf_tilde.coeffs))


def test_corrections_scale_quadratically():
    u, p, eta = _state(3, scale=1.0)
    # the bubble velocity vanishes on the plate face, and so does its r_eta;
    # a velocity that does not drives the plate row too
    u_face = poly_field(GRID, 3, components=3)
    ratios = {"rf_tilde": [], "r_eta": []}
    for alpha in (1e-3, 1e-4):
        terms = compute_nonlinear_terms(u * alpha, p * alpha, eta * alpha)
        face = compute_nonlinear_terms(u_face * alpha, p * alpha, eta * alpha)
        for name, field in (("rf_tilde", terms.rf_tilde), ("r_eta", face.r_eta)):
            ratios[name].append(sobolev_norm(field, NormSpec(0, 0, 2.0)) / alpha ** 2)
    for name, (coarse, fine) in ratios.items():
        assert abs(fine / coarse - 1.0) < 0.05, name


def test_divergence_correction_is_mean_free():
    u, p, eta = _state(4)
    terms = compute_nonlinear_terms(u, p, eta)
    means = GRID.cheb_weights @ terms.rd_tilde.coeffs[:, :, HX, HX]
    scale = max(np.max(np.abs(terms.rd_tilde.coeffs)), 1e-30)
    assert np.max(np.abs(means)) < 1e-13 * scale


def test_divergence_vector_vanishes_on_faces():
    u, p, eta = _state(5)
    terms = compute_nonlinear_terms(u, p, eta)
    scale = max(np.max(np.abs(terms.rd_vector.coeffs)), 1e-30)
    for comp in range(3):
        bot = np.max(np.abs(trace_bottom(terms.rd_vector, comp).coeffs))
        top = np.max(np.abs(terms.rd_vector.coeffs[comp, -1]))
        assert bot < 1e-12 * scale and top < 1e-12 * scale


@pytest.mark.parametrize("n_z,block", [(4, 6), (4, 5), (9, 5), (11, 5)])
def test_node_blocks_join_without_seams(monkeypatch, n_z, block):
    # fewer nodes than one block, exactly one, an exact multiple, a remainder
    monkeypatch.setattr(nonlinear, "NODE_BLOCK", block)
    grid = TorusGrid(5, 5, n_z)
    u = poly_field(grid, 40, components=3, scale=ETA_SMALL)
    p = poly_field(grid, 41, components=1, scale=ETA_SMALL)
    eta = poly_plate(grid, 42, scale=ETA_SMALL, zero_mean=True)
    terms = compute_nonlinear_terms(u, p, eta)

    # rd_vector analysed from the whole padded slab at once, node-major
    eta_s, g1_s, g2_s = (pad_to_samples(c.coeffs, grid, real=True)
                         for c in (eta, dx(eta, 1), dx(eta, 2)))
    u_s = pad_to_samples(u.coeffs, grid, real=True)
    rho = (1.0 - grid.nodes)[:, None, None, None]
    rd = np.stack([-eta_s * u_s[0], -eta_s * u_s[1],
                   -(g1_s * u_s[0] + g2_s * u_s[1]) * rho])
    want = samples_to_truncated(rd, grid, True)
    assert np.max(np.abs(terms.rd_vector.coeffs - want)) <= 1e-14 * np.max(np.abs(want))

    # the plate row reads u and d3 u at node 0 only: a change that vanishes
    # there with its slope leaves it alone, though it moves every other block
    moved = u.copy()
    moved.coeffs += (poly_field(grid, 43, components=3, degree=1, scale=ETA_SMALL).coeffs
                     * grid.nodes[:, None, None, None] ** 2)
    other = compute_nonlinear_terms(moved, p, eta)
    top, top_moved = terms.rf_tilde.coeffs[:, -1], other.rf_tilde.coeffs[:, -1]
    assert np.max(np.abs(top_moved - top)) > 0.1 * np.max(np.abs(top))
    a, b = terms.r_eta.coeffs, other.r_eta.coeffs
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))

    # every blocked output against one block holding all the nodes
    f = poly_field(grid, 44, components=3)
    blocked = compose_forcing(f, eta)
    blocked_def = nonlinear._deformation_momentum(u, p, eta)
    monkeypatch.setattr(nonlinear, "NODE_BLOCK", grid.n_z + 1)
    whole = compute_nonlinear_terms(u, p, eta)
    pairs = [(getattr(terms, name).coeffs, getattr(whole, name).coeffs)
             for name in ("rf_tilde", "rd_tilde")]
    pairs.append((blocked_def, nonlinear._deformation_momentum(u, p, eta)))
    pairs.append((blocked.coeffs, compose_forcing(f, eta).coeffs))
    for a, b in pairs:
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


def test_e_matrix_structure():
    eta = poly_plate(GRID, 6, scale=ETA_SMALL, zero_mean=True)
    es = e_matrix(eta)
    assert es.shape == (3, 3, 9, 5, 5, 5)
    assert np.max(np.abs(es[0])) == 0.0
    assert np.max(np.abs(es[1])) == 0.0
    # the (3,3) entry carries no layer dependence
    spread = np.max(np.abs(es[2, 2] - es[2, 2, :1]))
    assert spread < 1e-15


def test_degenerate_deflection_rejected():
    bad = zeros_like_field(GRID, plate=True)
    bad.coeffs[HT, HX, HX] = -1.05      # layer thickness would vanish
    with pytest.raises(DegenerateDeformationError):
        e_matrix(bad)
    with pytest.raises(DegenerateDeformationError):
        compute_nonlinear_terms(zeros_like_field(GRID, components=3),
                                zeros_like_field(GRID), bad)
    with pytest.raises(DegenerateDeformationError):
        compose_forcing(poly_field(GRID, 13), bad)


def test_smallness_gate_pass_and_fail():
    small = poly_plate(GRID, 7, scale=1e-3, zero_mean=True)
    rep = nonlinear._gate(small, nonlinear.EPS0_DEFAULT, 2.0)[0]
    assert rep.passed and rep.margin > 0.0
    assert rep.sup_eta < 0.5 and rep.reciprocal_sup < 2.0
    big = poly_plate(GRID, 7, scale=5.0, zero_mean=True)
    assert not nonlinear._gate(big, nonlinear.EPS0_DEFAULT, 2.0)[0].passed


def test_deform_map_round_trip():
    eta = poly_plate(GRID, 9, scale=ETA_SMALL, zero_mean=True)
    geo = nonlinear._Geometry(eta, eta.real)
    assert np.max(np.abs(geo.tau * (1.0 + geo.eta_s) - 1.0)) <= 1e-15
    # the straightening map x3 -> x3 - (1 - x3) eta, built from the record's
    # samples, is undone by y3 -> (y3 + eta) tau; the plate face x3 = 0 lands
    # on the interface -eta and the rigid face x3 = 1 stays put
    x3 = GRID.nodes
    e = geo.eta_s[..., None]
    y3 = x3 - (1.0 - x3) * e
    assert np.max(np.abs((y3 + e) * geo.tau[..., None] - x3)) < 1e-12
    assert np.max(np.abs(y3[..., 0] + geo.eta_s)) < 1e-13
    assert np.max(np.abs(y3[..., -1] - 1.0)) < 1e-13


def test_plate_eval_matches_lattice_samples():
    eta = poly_plate(GRID, 10, scale=ETA_SMALL, zero_mean=True)
    geo = nonlinear._Geometry(eta, eta.real)
    assert np.array_equal(geo.eta_s, pad_to_samples(eta.coeffs, GRID, real=True))
    assert np.max(np.abs(samples_to_truncated(geo.eta_s, GRID, True)
                         - eta.coeffs)) < 1e-13
    # the gate reads the record's sup and floor, which must be exactly what
    # a fresh OVERSAMPLE synthesis of the deflection gives
    over = pad_to_samples(eta.coeffs, GRID, OVERSAMPLE)
    rep = nonlinear._gate(eta, nonlinear.EPS0_DEFAULT, 2.0)[0]
    assert rep.sup_eta == float(np.max(np.abs(over)))
    assert rep.reciprocal_sup == float(1.0 / np.min(1.0 + over.real))


def test_compose_forcing_identity_on_flat_plate():
    f = poly_field(GRID, 11, components=3)
    out = compose_forcing(f, zeros_like_field(GRID, plate=True))
    assert np.array_equal(out.coeffs, f.coeffs)


def test_compose_forcing_field_matches_callable():
    prof = GRID.nodes ** 2 - GRID.nodes + 0.5
    coeffs = np.zeros((3, 9, 5, 5, 5), complex)
    for st, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        coeffs[2, :, HT + st, HX + sx, HX] = 0.25 * prof
    f = SpectralField(GRID, coeffs, 3, True)

    eta = poly_plate(GRID, 12, scale=ETA_SMALL, zero_mean=True)
    a = compose_forcing(f, eta)
    # the exact forcing at the displaced nodes of the product lattice
    eta_s = pad_to_samples(eta.coeffs, GRID, real=True)
    m_t, m_x = padded_sizes(GRID)
    t = GRID.t_period * np.arange(m_t)[:, None, None] / m_t
    x1 = GRID.l_period * np.arange(m_x)[:, None] / m_x
    # node-major (comp, node, t, x1, x2) samples, truncated
    exact = np.zeros((3, GRID.n_z + 1) + eta_s.shape)
    x3 = GRID.nodes[:, None, None, None] * (1.0 + eta_s) - eta_s
    exact[2] = np.cos(t) * np.cos(x1) * (x3 ** 2 - x3 + 0.5)
    b = samples_to_truncated(exact, GRID, True)
    assert np.max(np.abs(a.coeffs - b)) < 1e-12
    # composition against a moved interface must differ from the input
    assert np.max(np.abs(a.coeffs - f.coeffs)) > 0.0


@pytest.mark.parametrize("amp", [1e-3, 1e-2, 3e-2, 5e-2])
def test_compose_forcing_continues_deep_series_accurately(amp):
    # a constant deflection moves every displaced node below the plate face
    # by up to amp; unchopped, the round-off tail of a degree-192 series
    # grows there like T_192(1 + 2 amp)
    grid = TorusGrid(5, 5, 192)
    t = grid.t_period * np.arange(grid.n_t)[:, None, None] / grid.n_t
    x1 = grid.l_period * np.arange(grid.n_x)[:, None] / grid.n_x
    x3 = grid.nodes[:, None, None, None]

    def forcing(x3):
        samples = np.zeros((3,) + x3.shape[:1] + (grid.n_t, grid.n_x, grid.n_x))
        samples[2] = np.cos(t) * np.cos(x1) * np.cos(np.pi * x3)
        return forward_transform(grid, samples)

    eta = zeros_like_field(grid, plate=True)
    eta.coeffs[HT, HX, HX] = amp
    got = compose_forcing(forcing(x3), eta).coeffs
    want = forcing(x3 * (1.0 + amp) - amp).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_pullback_series_drops_its_round_off_tail():
    grid = TorusGrid(5, 5, 32)
    f = poly_field(grid, 17, components=3, degree=3)
    geo = nonlinear._Geometry(poly_plate(grid, 18, scale=ETA_SMALL, zero_mean=True),
                              True)
    # a cubic profile keeps degrees 0..3 of its 33; zero data keeps one
    assert nonlinear._pullback_series(f, geo).shape[0] == 4
    assert nonlinear._pullback_series(0.0 * f, geo).shape[0] == 1


def _flagged_complex(field):
    return type(field)(**{**vars(field), "real": False})


def test_complex_product_path_matches_the_real_path():
    # the same conjugate-symmetric state, flagged complex, takes the full
    # complex lattice instead of the real half lattice
    u, p, eta = _state(15)
    f = poly_field(GRID, 16, components=3)
    uc, pc, etac, fc = (_flagged_complex(x) for x in (u, p, eta, f))
    real, cplx = compute_nonlinear_terms(u, p, eta), compute_nonlinear_terms(uc, pc, etac)
    pairs = [(getattr(real, name), getattr(cplx, name))
             for name in ("rf_tilde", "rd_tilde", "r_eta")]
    pairs.append((compose_forcing(f, eta), compose_forcing(fc, etac)))
    for a, b in pairs:
        assert a.real and not b.real
        assert np.max(np.abs(b.coeffs - a.coeffs)) <= 1e-13 * np.max(np.abs(a.coeffs))


FFT_TRANSFORMS = [name for name in np.fft.__all__
                  if name not in ("fftshift", "ifftshift", "fftfreq", "rfftfreq")]


def test_terms_transform_count(monkeypatch):
    # per block of layer nodes: the u and d3 u families at 6 passes each
    # (one t-pass, two xi1-passes, three real xi2-passes), 3 each for
    # d3 d3 u and d3 p, 3 per analysis of rf_tilde and rd_vector; then
    # the one plate-row analysis.  Two workers count at once, so each count
    # is a locked read-modify-write.
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 2)
    grid = TorusGrid(5, 5, 9)
    u = poly_field(grid, 60, components=3, scale=ETA_SMALL)
    p = poly_field(grid, 61, components=1, scale=ETA_SMALL)
    geo = nonlinear._Geometry(poly_plate(grid, 62, scale=ETA_SMALL, zero_mean=True), True)
    calls, lock = {}, threading.Lock()
    for name in FFT_TRANSFORMS:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            with lock:
                calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    compute_nonlinear_terms(u, p, geo)
    blocks = len(nonlinear._node_blocks(grid))
    # 10 nodes in blocks of 3, 3, 3 and 1
    assert nonlinear.NODE_BLOCK == 3 and blocks == 4
    assert calls == {"ifft": 10 * blocks, "irfft": 8 * blocks,
                     "rfft": 2 * blocks + 1, "fft": 4 * blocks + 2}


def _terms_and_rhs(grid, seed):
    u, p, eta, f, h = _forced_state(grid, seed)
    geo = nonlinear._Geometry(eta, True)
    series = nonlinear._pullback_series(f, geo)
    terms = compute_nonlinear_terms(u, p, geo, mu_f=1.3)
    rhs = nonlinear._map_rhs(u, p, geo, f, h, 1.3, series)[0]
    return [terms.rf_tilde, terms.rd_tilde, terms.rd_vector, terms.r_eta, *rhs]


@pytest.mark.parametrize("n_z,workers", [(9, 2), (10, 2), (24, 2), (24, 8)])
def test_terms_bits_do_not_depend_on_the_workers(monkeypatch, n_z, workers):
    # n_z + 1 nodes leave a last block of 1, 2 and 1 nodes; 8 workers are
    # more than the cores.  Threads switch every microsecond: a lost or
    # misplaced slice would change the bits.
    grid = TorusGrid(5, 5, n_z)
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 1)
    serial = _terms_and_rhs(grid, 90)
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _terms_and_rhs(grid, 90)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded, strict=True):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_terms_workers_keep_the_callers_error_state(monkeypatch):
    # numpy keeps np.errstate in a context variable, which a pool thread
    # does not inherit; the velocity's squares overflow in every block
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 2)
    grid = TorusGrid(5, 5, 9)
    u = poly_field(grid, 92, components=3, scale=1e200)
    p = poly_field(grid, 93, components=1, scale=ETA_SMALL)
    eta = poly_plate(grid, 94, scale=ETA_SMALL, zero_mean=True)
    assert len(nonlinear._node_blocks(grid)) > 1
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        compute_nonlinear_terms(u, p, eta)
    # and what the caller silences stays silent (tier-1 fails on a warning)
    with np.errstate(all="ignore"):
        terms = compute_nonlinear_terms(u, p, eta)
    assert not np.isfinite(terms.rf_tilde.coeffs).all()


def test_compose_forcing_validation():
    eta = zeros_like_field(GRID, plate=True)
    with pytest.raises(ValueError):
        compose_forcing(poly_field(TorusGrid(5, 5, 10), 13), eta)
    with pytest.raises(ValueError):
        compose_forcing(poly_field(GRID, 13, components=1), eta)


def test_picard_zero_data_converges_to_rest():
    res = picard_solve(None, zeros_like_field(GRID, plate=True))
    assert res.converged and res.iterations == 1
    assert np.max(np.abs(res.u.coeffs)) == 0.0
    assert np.max(np.abs(res.eta.coeffs)) == 0.0
    assert max(res.residuals.values()) == 0.0


def _corner_plate(grid, amp):
    h = zeros_like_field(grid, plate=True)
    ht, hx = (grid.n_t - 1) // 2, (grid.n_x - 1) // 2
    for st, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        h.coeffs[ht + st, hx + sx, hx] = 0.25 * amp
    return h


def test_picard_small_data_contracts():
    res = picard_solve(None, _corner_plate(GRID, 1e-3),
                       PicardConfig(eps=1e-3))
    assert res.converged and res.iterations <= 5
    assert res.in_ball
    ratios = [s["ratio"] for s in res.trace if s["ratio"] is not None]
    assert ratios and max(ratios) < 0.5
    assert max(res.residuals.values()) < 1e-9
    for key in ("iteration", "x_norm", "step", "in_ball"):
        assert key in res.trace[0]


def test_picard_result_keeps_the_last_sweep_gate():
    config = PicardConfig(eps=1e-3)
    res = picard_solve(None, _corner_plate(GRID, 1e-3), config)
    gate = nonlinear._gate(res.eta, config.eps0, config.q)[0]
    for name, value in asdict(gate).items():
        assert getattr(res.gate, name) == value, name
    assert res.in_ball == res.trace[-1]["in_ball"]
    assert res.trace[-1]["x_norm"] == x_norm(res.u, res.p, res.eta, q=config.q)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(None, _corner_plate(GRID, 1e-3), PicardConfig(max_iter=0))


def test_picard_builds_each_iterate_geometry_once(monkeypatch):
    terms_calls = []
    plate_syntheses = []
    terms = nonlinear.compute_nonlinear_terms
    pad = nonlinear.pad_to_samples

    def counting_terms(*args, **kwargs):
        terms_calls.append(1)
        return terms(*args, **kwargs)

    def counting_pad(coeffs, grid, factor=DEALIAS, real=False):
        if factor == OVERSAMPLE and coeffs.ndim == 3:
            plate_syntheses.append(coeffs)
        return pad(coeffs, grid, factor, real)

    monkeypatch.setattr(nonlinear, "compute_nonlinear_terms", counting_terms)
    monkeypatch.setattr(nonlinear, "pad_to_samples", counting_pad)
    res = picard_solve(poly_field(GRID, 14, scale=1e-4), _corner_plate(GRID, 1e-3),
                       PicardConfig(eps=1e-3))
    assert res.converged and res.iterations >= 2
    # sweeps 2..N and the final residual; sweep 1 starts from rest
    assert len(terms_calls) == res.iterations
    # each solved iterate, every one synthesized once; the flat rest state
    # needs no geometry
    assert len(plate_syntheses) == res.iterations
    assert len({id(c) for c in plate_syntheses}) == len(plate_syntheses)


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_bytes(grid) -> int:
    """What one more node block in flight can hold, from the shapes: per
    node, the 34 real sample planes `_block_momentum` holds at its peak
    (u, d3 u and their lateral derivatives, d3 d3 u, d3 p, two tensor
    entries, four multiplier planes and two three-component work buffers)
    and the block's complex layer derivatives d3 u, d3 d3 u and d3 p."""
    m_t, m_x = padded_sizes(grid)
    per_node = 34 * m_t * m_x * m_x * 8 + 7 * grid.n_t * grid.n_x ** 2 * 16
    return nonlinear.NODE_BLOCK * per_node


def test_picard_sweep_peak_is_one_terms_call_and_the_state(monkeypatch):
    grid = TorusGrid(9, 9, 16)
    case = make_manufactured(3, grid=grid, band=2, amplitude=3.0)
    f, h = 1e-3 * case.f, 1e-3 * case.h
    config = PicardConfig(eps=1e-3)
    res = picard_solve(f, h, config)  # warm-up: grid caches and matrices
    assert res.converged and res.iterations == 3
    # one block at a time, a traced peak does not depend on a schedule
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 1)
    serial = _traced_peak(picard_solve, f, h, config)
    terms_peak = _traced_peak(compute_nonlinear_terms, res.u, res.p, res.eta)
    # beside the terms call a sweep holds the iterate (u, p), f's pullback
    # series and the solve's bookkeeping, never an earlier sweep's
    # right-hand sides or terms
    field_bytes = res.p.coeffs.nbytes
    assert serial <= terms_peak + 9 * field_bytes, (serial - terms_peak) / field_bytes
    # two workers hold at most one more block however they interleave
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 2)
    peak = _traced_peak(picard_solve, f, h, config)
    assert peak <= serial + _block_bytes(grid), (peak - serial) / _block_bytes(grid)


def _forced_state(grid, seed):
    u = poly_field(grid, seed, components=3, scale=ETA_SMALL)
    p = poly_field(grid, seed + 1, components=1, scale=ETA_SMALL)
    eta = poly_plate(grid, seed + 2, scale=ETA_SMALL, zero_mean=True)
    f = poly_field(grid, seed + 3, components=3, scale=ETA_SMALL)
    h = poly_plate(grid, seed + 4, scale=ETA_SMALL)
    return u, p, eta, f, h


@pytest.mark.parametrize("given", [False, True])
def test_map_rhs_forms_the_momentum_slot_in_one_analysis(given):
    grid = TorusGrid(9, 9, 12)
    u, p, eta, f, h = _forced_state(grid, 70)
    geo = nonlinear._Geometry(eta, True)
    series = nonlinear._pullback_series(f, geo) if given else None
    (rhs_f, rd, rhs_h), kept = nonlinear._map_rhs(u, p, geo, f, h, 1.3, series)
    assert kept is not None and (kept is series or not given)
    # the sum the separate pullback and terms calls give
    terms = compute_nonlinear_terms(u, p, eta, mu_f=1.3)
    want = compose_forcing(f, eta).coeffs + terms.rf_tilde.coeffs
    assert np.max(np.abs(rhs_f.coeffs - want)) <= 1e-14 * np.max(np.abs(want))
    # the divergence and plate slots do not see the forcing
    assert np.array_equal(rd.coeffs, terms.rd_tilde.coeffs)
    assert np.array_equal(rhs_h.coeffs, (h + terms.r_eta).coeffs)


def test_picard_builds_the_pullback_series_once(monkeypatch):
    solves = count_calls(monkeypatch, solve_linear_full)
    build = nonlinear._pullback_series
    built_after = []

    def counting(*args):
        built_after.append(len(solves))
        return build(*args)

    monkeypatch.setattr(nonlinear, "_pullback_series", counting)
    f, h = _low_band_case()
    res = picard_solve(f, h, PicardConfig(eps=1e-3))
    # the rest sweep takes f as it is; the state its solve returns builds
    # the series, and sweeps 2 and 3 and the final residual reuse it
    assert res.converged and res.iterations == 3
    assert built_after == [1]
    rest = (zeros_like_field(f.grid, components=3), zeros_like_field(f.grid),
            zeros_like_field(f.grid, plate=True))
    (rhs_f, rd, rhs_h), series = nonlinear._map_rhs(*rest, f, h, 1.0)
    assert np.array_equal(rhs_f.coeffs, f.coeffs) and rd is None and rhs_h is h
    assert series is None and built_after == [1]


def test_fused_rhs_peak_is_the_terms_peak_and_one_composed_block(monkeypatch):
    grid = TorusGrid(17, 17, 24)
    u, p, eta, f, h = _forced_state(grid, 80)
    geo = nonlinear._Geometry(eta, True)
    series = nonlinear._pullback_series(f, geo)
    nonlinear._map_rhs(u, p, geo, f, h, 1.0, series)  # warm-up
    # one block at a time, a traced peak does not depend on a schedule
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 1)
    fused = _traced_peak(nonlinear._map_rhs, u, p, geo, f, h, 1.0, series)
    terms = _traced_peak(compute_nonlinear_terms, u, p, geo)
    # a separate pullback would hold its f-sized output beside the terms
    m_t, m_x = padded_sizes(grid)
    block = 3 * nonlinear.NODE_BLOCK * m_t * m_x * m_x * 8
    assert fused <= terms + block, (fused - terms) / block
    # two workers hold at most one more block however they interleave
    monkeypatch.setattr(nonlinear, "TERMS_WORKERS", 2)
    threaded = _traced_peak(nonlinear._map_rhs, u, p, geo, f, h, 1.0, series)
    assert threaded <= fused + _block_bytes(grid), \
        (threaded - fused) / _block_bytes(grid)


def _low_band_case():
    grid = TorusGrid(9, 9, 16)
    case = make_manufactured(3, grid=grid, band=2, amplitude=3.0)
    return 1e-3 * case.f, 1e-3 * case.h


def test_picard_sweeps_build_no_divergence_lift(monkeypatch):
    lifts = count_calls(monkeypatch, lift_divergence)
    f, h = _low_band_case()
    res = picard_solve(f, h, PicardConfig(eps=1e-3))
    # sweeps 2 and 3 carry a divergence datum; the mode solves take it
    assert res.converged and res.iterations == 3
    assert lifts == []


def test_picard_direct_route_matches_a_lift_route_reference(monkeypatch):
    f, h = _low_band_case()
    config = PicardConfig(eps=1e-3)
    direct = picard_solve(f, h, config)
    monkeypatch.setattr(nonlinear, "solve_linear_full", solve_by_lift)
    lifted = picard_solve(f, h, config)
    assert direct.iterations == lifted.iterations
    gap = x_norm(direct.u - lifted.u, direct.p - lifted.p, direct.eta - lifted.eta,
                 q=config.q)
    assert gap <= 1e-11 * x_norm(lifted.u, lifted.p, lifted.eta, q=config.q)


def test_picard_stops_on_error_bound():
    grid = TorusGrid(9, 9, 16)
    case = make_manufactured(3, grid=grid, band=2, amplitude=3.0)
    f, h = 1e-3 * case.f, 1e-3 * case.h
    config = PicardConfig(eps=1e-3)
    res = picard_solve(f, h, config)
    # the third step is above picard_tol; the bound it implies is below it
    assert res.converged and res.iterations == 3
    assert res.trace[-1]["step"] >= config.picard_tol
    assert res.error_bound < config.picard_tol
    ref = picard_solve(f, h, PicardConfig(eps=1e-3, picard_tol=1e-15))
    assert ref.converged
    dist = x_norm(res.u - ref.u, res.p - ref.p, res.eta - ref.eta, q=config.q)
    assert dist <= config.picard_tol
    # one sweep from rest on zero data leaves no ratio to bound with
    rest = picard_solve(None, zeros_like_field(GRID, plate=True))
    assert rest.iterations == 1 and rest.error_bound is None


def test_picard_first_step_is_its_x_norm(monkeypatch):
    # the step from rest is the first iterate itself, so sweep 1 takes one
    # x_norm and every later sweep two
    f, h = _low_band_case()
    norms = count_calls(monkeypatch, x_norm)
    res = picard_solve(f, h, PicardConfig(eps=1e-3))
    assert res.converged and res.iterations == 3
    assert res.trace[0]["step"] == res.trace[0]["x_norm"]
    assert len(norms) == 2 * res.iterations - 1


def test_picard_ball_violation_raises():
    with pytest.raises(PicardDivergenceError, match="ball"):
        picard_solve(None, _corner_plate(GRID, 1e-3),
                     PicardConfig(eps=1e-18))


def test_picard_failures_name_their_sweep(monkeypatch):
    with pytest.raises(PicardDivergenceError, match="ball at iteration 1:"):
        picard_solve(None, _corner_plate(GRID, 1e-3),
                     PicardConfig(eps=1e-18))
    # x_norm per sweep, then the step from sweep 2 on (sweep 1's step is
    # its x_norm): the second step doubles the first
    norms = iter([1e-4, 3e-4, 2e-4])
    monkeypatch.setattr(nonlinear, "x_norm", lambda *a, **k: next(norms))
    with pytest.raises(PicardDivergenceError,
                       match="contraction failed at iteration 2: step ratio"):
        picard_solve(None, _corner_plate(GRID, 1e-3), PicardConfig(eps=1e-3))


def test_picard_gate_failure_raises():
    with pytest.raises(DegenerateDeformationError, match="smallness gate"):
        picard_solve(None, _corner_plate(GRID, 40.0),
                     PicardConfig(eps=1.0, max_iter=8))


def test_nonlinear_residual_zero_state():
    u = zeros_like_field(GRID, components=3)
    p = zeros_like_field(GRID)
    eta = zeros_like_field(GRID, plate=True)
    res = nonlinear_residual(u, p, eta)
    assert set(res) == {"momentum", "continuity", "plate", "kinematic",
                        "no_slip", "plate_mean"}
    assert max(res.values()) == 0.0


def test_bound_ratios_zero_and_random():
    u0 = zeros_like_field(GRID, components=3)
    p0 = zeros_like_field(GRID)
    eta0 = zeros_like_field(GRID, plate=True)
    zero = nonlinear_bound_ratios(u0, p0, eta0)
    assert set(zero) == {"momentum", "divergence", "plate"}
    assert max(zero.values()) == 0.0
    for seed in range(5):
        u, p, eta = _state(20 + seed)
        vals = nonlinear_bound_ratios(u, p, eta)
        for name, val in vals.items():
            assert np.isfinite(val) and val >= 0.0, name
