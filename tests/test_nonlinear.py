"""Interaction terms, straightening geometry, and the fixed-point solver."""

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
    pad_to_samples,
    padded_sizes,
    samples_to_truncated,
    trace_bottom,
    zeros_like_field,
)
from plateflow.grid import TorusGrid
from plateflow.lift import lift_divergence
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
from plateflow.oracles import make_manufactured, nonlinear_bound_ratios, solve_by_lift

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
    # the one plate-row analysis
    grid = TorusGrid(5, 5, 9)
    u = poly_field(grid, 60, components=3, scale=ETA_SMALL)
    p = poly_field(grid, 61, components=1, scale=ETA_SMALL)
    geo = nonlinear._Geometry(poly_plate(grid, 62, scale=ETA_SMALL, zero_mean=True), True)
    calls = {}
    for name in FFT_TRANSFORMS:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    compute_nonlinear_terms(u, p, geo)
    blocks = len(nonlinear._node_blocks(grid))
    assert blocks == 2
    assert calls == {"ifft": 10 * blocks, "irfft": 8 * blocks,
                     "rfft": 2 * blocks + 1, "fft": 4 * blocks + 2}


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
    # the rest state and each solved iterate, every one synthesized once
    assert len(plate_syntheses) == res.iterations + 1
    assert len({id(c) for c in plate_syntheses}) == len(plate_syntheses)


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_sweep_peak_is_one_terms_call_and_the_state():
    grid = TorusGrid(9, 9, 16)
    case = make_manufactured(3, grid=grid, band=2, amplitude=3.0)
    f, h = 1e-3 * case.f, 1e-3 * case.h
    config = PicardConfig(eps=1e-3)
    res = picard_solve(f, h, config)  # warm-up: grid caches and matrices
    assert res.converged and res.iterations == 3
    peak = _traced_peak(picard_solve, f, h, config)
    terms_peak = _traced_peak(compute_nonlinear_terms, res.u, res.p, res.eta)
    # beside the terms call a sweep holds the iterate (u, p), the pulled-back
    # forcing and the solve's bookkeeping, never an earlier sweep's
    # right-hand sides or terms
    field_bytes = res.p.coeffs.nbytes
    assert peak <= terms_peak + 9 * field_bytes, (peak - terms_peak) / field_bytes


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


def test_picard_ball_violation_raises():
    with pytest.raises(PicardDivergenceError, match="ball"):
        picard_solve(None, _corner_plate(GRID, 1e-3),
                     PicardConfig(eps=1e-18))


def test_picard_failures_name_their_sweep(monkeypatch):
    with pytest.raises(PicardDivergenceError, match="ball at iteration 1:"):
        picard_solve(None, _corner_plate(GRID, 1e-3),
                     PicardConfig(eps=1e-18))
    # (x_norm, step) per sweep: the second step doubles the first
    norms = iter([1e-4, 1e-4, 3e-4, 2e-4])
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
