"""Acceptance gate: ten pinned criteria, one summary line each.

Each test measures first, records its PASS/FAIL line in the shared
summary (printed by the terminal hook in conftest), and only then
asserts, so the report survives a red run.  Tolerances are module
constants; loosening one here is a contract change, not a tuning knob.
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from plateflow.fields import (
    PlateField,
    SpectralField,
    divergence,
    forward_transform,
    physical_samples,
)
from plateflow.grid import TorusGrid
from plateflow.halfspace import boundedness_scan, lattice_multipliers
from plateflow.lift import lift_divergence, lift_estimate_check
from plateflow.modes import solve_linear_full, solve_mode
from plateflow.nonlinear import (
    PicardConfig,
    _deformation_momentum,
    compute_nonlinear_terms,
    e_matrix,
    picard_solve,
)
from plateflow.norms import NormSpec, sobolev_norm, x_norm, y_norm
from plateflow.oracles import (
    cross_validate_linear,
    energy_estimate_check,
    halfspace_residuals,
    make_manufactured,
    nonlinear_bound_ratios,
    random_test_pair,
    weak_form_B,
    weak_form_rhs,
)

from conftest import ACCEPTANCE_LINES, bubble_field, poly_field, poly_plate, ring_gap

TOL_ROUND_TRIP = 1e-12
TOL_PARSEVAL = 1e-12
SCAN_CHANGE_MAX = 0.01
RESONANT_ABS_M = 0.2921
TOL_RESONANT_ABS = 1e-3
CONTRAST_MIN = 1e3
TOL_HS_EQ = 1e-10
TOL_HS_BC = 1e-13
TOL_MANUFACTURED = 1e-8
MIN_DROP = 1e2                 # two orders per halving of the grid spacing
TOL_WEAK = 1e-9
ENERGY_SPREAD_MAX = 10.0
TOL_LIFT_DIV = 1e-10
TOL_LIFT_BC = 1e-12
REFINE_BAND = 0.2
TOL_PATHS = 1e-9
RATIO_BOUND = 10.0
RATIO_FLOOR = 0.01             # ratios below this carry no stable relative scale
PICARD_EPS = 1e-3
PICARD_MAX_ITERS = 10
CONTRACTION_MAX = 0.5
TOL_NONLINEAR = 1e-9
SLOPE_BAND = (0.8, 1.2)


def record(num, name, ok, detail):
    ACCEPTANCE_LINES.append(
        f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _parseval_gap(grid, fld, vals):
    """Lattice mean power versus mode power from an independent FFT."""
    sq = np.abs(vals) ** 2
    hat = np.fft.fftn(vals, axes=(-3, -2, -1)) / (grid.n_t * grid.n_x ** 2)
    sq_hat = np.abs(hat) ** 2
    if isinstance(fld, PlateField):
        phys = float(np.mean(sq))
        spec = float(np.sum(sq_hat))
    else:
        if fld.components > 1:
            sq = sq.sum(axis=0)
            sq_hat = sq_hat.sum(axis=0)
        # the Clenshaw-Curtis layer quadrature over the leading node axis
        phys = float(np.mean(np.tensordot(grid.cheb_weights, sq, axes=1)))
        spec = float(np.sum(np.tensordot(grid.cheb_weights, sq_hat, axes=1)))
    return abs(phys - spec) / max(phys, 1e-300)


def test_criterion_01_transform_round_trip():
    grid = TorusGrid(17, 17, 32)
    worst_rt = worst_pv = 0.0
    for seed in range(20):
        kind = seed % 3
        if kind == 0:
            fld = poly_field(grid, 100 + seed, components=3,
                             band_t=2, band_x=2, degree=5)
        elif kind == 1:
            a = poly_field(grid, 200 + seed, components=1,
                           band_t=2, band_x=2, degree=5)
            b = poly_field(grid, 300 + seed, components=1,
                           band_t=2, band_x=2, degree=5)
            fld = SpectralField(grid, a.coeffs + 1j * b.coeffs, 1, False)
        else:
            fld = poly_plate(grid, 400 + seed, band_t=2, band_x=2)
        vals = physical_samples(fld)
        back = forward_transform(grid, vals)
        scale = max(1.0, float(np.max(np.abs(fld.coeffs))))
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(back.coeffs - fld.coeffs))) / scale)
        worst_pv = max(worst_pv, _parseval_gap(grid, fld, vals))
    ok = worst_rt < TOL_ROUND_TRIP and worst_pv < TOL_PARSEVAL
    record(1, "transform round trip", ok,
           f"20 fields at (17, 17, 32): worst round trip {worst_rt:.2e}, "
           f"worst Parseval gap {worst_pv:.2e}")


def test_criterion_02_multiplier_boundedness():
    rep = boundedness_scan(10_000, 100)
    wide = boundedness_scan(20_000, 200)
    change = abs(wide.sup_weighted - rep.sup_weighted) / rep.sup_weighted
    ok = (math.isfinite(rep.sup_weighted) and math.isfinite(wide.sup_weighted)
          and change < SCAN_CHANGE_MAX
          and rep.decay_exponent_k < 0.0 and rep.decay_exponent_xi < 0.0)
    record(2, "weighted multiplier bounded", ok,
           f"sup {rep.sup_weighted:.6f} -> {wide.sup_weighted:.6f} on the "
           f"doubled window, change {100.0 * change:.3f}%, ray decay "
           f"exponents {rep.decay_exponent_k:.2f}/{rep.decay_exponent_xi:.2f}")


def test_criterion_03_resonance_contrast():
    k, xi = 1, (1, 0)
    ring = bool(ring_gap(k, xi)[1])
    m = lattice_multipliers(k, xi)[0]
    # independent reassembly: fluid load plus the damped flexural symbol
    root = cmath.sqrt(1 + 1j)
    sym = -1 + 1j * (2 + root)
    reassembly = abs(m - 1 / sym)
    value_gap = abs(abs(m) - RESONANT_ABS_M)
    best, best_at = 0.0, None
    for a, b in ((20, 40), (30, 40), (50, 50), (60, 60), (70, 70),
                 (44, 88), (80, 80)):
        s = a * a + b * b
        for kk in (s - 1, s + 1):       # straddle the ring without touching it
            gap, on_ring = ring_gap(kk, (a, b))
            assert not on_ring
            ratio = abs(1.0 / gap) / abs(lattice_multipliers(kk, (a, b))[0])
            if ratio > best:
                best, best_at = ratio, (kk, (a, b))
    ok = (ring and reassembly < 1e-12 and value_gap < TOL_RESONANT_ABS
          and best > CONTRAST_MIN)
    record(3, "resonance and damping contrast", ok,
           f"|M| at the ring point {abs(m):.4f} (reassembly gap "
           f"{reassembly:.1e}), max undamped/damped ratio {best:.0f} "
           f"at k={best_at[0]}, xi={best_at[1]}")


def test_criterion_04_halfspace_closed_forms():
    ray = np.linspace(0.0, 6.0, 121)
    rng = np.random.default_rng(4)
    worst_eq = worst_bc = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7)) * int(rng.choice((-1, 1)))
        xi = (0, 0)
        while xi == (0, 0):
            xi = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        eta_hat = complex(rng.normal(), rng.normal()) / math.sqrt(2.0)
        res = halfspace_residuals(k, xi, eta_hat, ray)
        worst_eq = max(worst_eq, res["momentum"], res["divergence"])
        worst_bc = max(worst_bc, res["bc"])
    ok = worst_eq < TOL_HS_EQ and worst_bc < TOL_HS_BC
    record(4, "half-space closed forms", ok,
           f"100 random modes: worst field residual {worst_eq:.2e}, "
           f"worst boundary identity {worst_bc:.2e}")


def test_criterion_05_mode_solver_accuracy():
    rel32 = cross_validate_linear(
        make_manufactured(0, n_z=32))["lift_truth_rel"]
    err8 = cross_validate_linear(
        make_manufactured(0, n_z=8))["lift_truth_error"]
    err16 = cross_validate_linear(
        make_manufactured(0, n_z=16))["lift_truth_error"]
    drop = err8 / max(err16, 1e-300)

    grid = TorusGrid(5, 5, 16)
    worst_weak = 0.0
    for k, xi in ((1, (1, 0)), (2, (1, 1)), (3, (0, 2)), (1, (2, 1))):
        rng = np.random.default_rng(50 + k)
        f_hat = np.stack([np.polynomial.polynomial.polyval(
            grid.nodes, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            for _ in range(3)])
        h_hat = complex(rng.standard_normal(), rng.standard_normal())
        sol = solve_mode(grid, k, xi, f_hat, None, h_hat)
        for _ in range(10):
            pair = random_test_pair(grid, k, xi, rng)
            lhs = weak_form_B(sol.u, sol.eta, pair)
            rhs = weak_form_rhs(f_hat, h_hat, pair)
            worst_weak = max(worst_weak,
                             abs(lhs - rhs) / (abs(lhs) + abs(rhs)))

    egrid = TorusGrid(17, 3, 12)
    ratios = []
    for draw in range(100):
        f = poly_field(egrid, 500 + draw, components=3,
                       band_t=8, band_x=1, degree=4)
        h = poly_plate(egrid, 700 + draw, band_t=8)
        sol = solve_linear_full(f, None, h, grid=egrid)
        ratios.extend(energy_estimate_check(sol.u, sol.eta, f, h, k)
                      for k in range(1, 9))
    spread = max(ratios) / min(ratios)

    ok = (rel32 < TOL_MANUFACTURED and drop >= MIN_DROP
          and worst_weak < TOL_WEAK and spread < ENERGY_SPREAD_MAX)
    record(5, "mode solver accuracy", ok,
           f"manufactured rel {rel32:.2e} at n_z=32, error drop 8->16 "
           f"{drop:.1e}, weak-form worst {worst_weak:.2e}, energy constant "
           f"spread {spread:.2f} over 100 draws x 8 frequencies")


def test_criterion_06_divergence_lift():
    grid = TorusGrid(5, 5, 12)
    fine = replace(grid, n_z=24)
    worst_div = worst_bc = worst_ref = 0.0
    for seed in range(50):
        g = divergence(bubble_field(grid, 1000 + seed))
        w = lift_divergence(g)
        worst_div = max(worst_div,
                        float(np.max(np.abs(divergence(w).coeffs - g.coeffs))))
        worst_bc = max(worst_bc, float(np.max(np.abs(w.coeffs[:, (0, grid.n_z)]))))
        est = lift_estimate_check(g, w)
        g_fine = divergence(bubble_field(fine, 1000 + seed))
        est_fine = lift_estimate_check(g_fine, lift_divergence(g_fine))
        for key, val in est.items():
            worst_ref = max(worst_ref, abs(est_fine[key] / val - 1.0))
    ok = (worst_div < TOL_LIFT_DIV and worst_bc < TOL_LIFT_BC
          and worst_ref < REFINE_BAND)
    record(6, "divergence lift", ok,
           f"50 cases: worst div residual {worst_div:.2e}, worst face "
           f"residual {worst_bc:.2e}, estimate drift under doubling "
           f"{worst_ref:.2e}")


def test_criterion_07_route_agreement():
    worst = 0.0
    for seed in range(10):
        case = make_manufactured(seed, n_z=16)
        assert case.g.coeffs.any()      # the datum must exercise both routes
        rep = cross_validate_linear(case)
        worst = max(worst, rep["path_discrepancy"])
    ok = worst < TOL_PATHS
    record(7, "lift and direct routes agree", ok,
           f"10 manufactured cases: worst solution-norm gap {worst:.2e}")


def _bound_ratio(grid, seed):
    """x_norm / y_norm at q = 2 for the criterion-08 draw `seed`."""
    f = poly_field(grid, 2000 + seed, components=3)
    h = poly_plate(grid, 2100 + seed)
    sol = solve_linear_full(f, None, h, grid=grid)
    return x_norm(sol.u, sol.p, sol.eta) / y_norm(f, None, h)


def test_criterion_08_linear_bound_constant():
    grid = TorusGrid(5, 5, 8)
    fine = replace(grid, n_z=16)
    ratios = [_bound_ratio(grid, seed) for seed in range(100)]
    worst_ref = 0.0
    for seed in range(10):
        r = _bound_ratio(fine, seed)
        worst_ref = max(worst_ref, abs(r / ratios[seed] - 1.0))
    ok = (all(np.isfinite(r) and 0.0 < r < RATIO_BOUND for r in ratios)
          and worst_ref < REFINE_BAND)
    record(8, "solution/data norm ratio bounded", ok,
           f"100 draws: ratio range [{min(ratios):.3f}, {max(ratios):.3f}], "
           f"drift under refinement {worst_ref:.2e}")


def _corner_plate(grid, amp):
    """amp * cos(t) * cos(x1) as plate coefficients."""
    c = np.zeros((grid.n_t, grid.n_x, grid.n_x), complex)
    ht, hx = grid.n_t // 2, grid.n_x // 2
    for dt in (-1, 1):
        for dx in (-1, 1):
            c[ht + dt, hx + dx, hx] = 0.25 * amp
    return PlateField(grid, c, real=True)


def test_criterion_09_picard_contraction_and_scaling():
    grid = TorusGrid(5, 5, 12)
    h0 = _corner_plate(grid, 1.0)
    result = picard_solve(None, _corner_plate(grid, PICARD_EPS),
                          config=PicardConfig(eps=PICARD_EPS))
    ratios = [s["ratio"] for s in result.trace if s["ratio"] is not None]
    resid = max(result.residuals.values())

    lin = solve_linear_full(None, None, h0, grid=grid)
    alphas = (1e-2, 1e-3, 1e-4)
    devs = []
    for alpha in alphas:
        res = picard_solve(None, _corner_plate(grid, alpha),
                           config=PicardConfig(eps=alpha))
        devs.append(x_norm((1.0 / alpha) * res.u - lin.u,
                           (1.0 / alpha) * res.p - lin.p,
                           (1.0 / alpha) * res.eta - lin.eta))
    slope = float(np.polyfit(np.log(alphas), np.log(devs), 1)[0])

    ok = (result.converged and result.iterations <= PICARD_MAX_ITERS
          and result.in_ball and all(r < CONTRACTION_MAX for r in ratios)
          and resid < TOL_NONLINEAR
          and SLOPE_BAND[0] <= slope <= SLOPE_BAND[1])
    record(9, "picard contraction and linearization", ok,
           f"{result.iterations} iterations, max contraction "
           f"{max(ratios):.2e}, residual {resid:.2e}, deviation-vs-amplitude "
           f"slope {slope:.3f}")


def test_criterion_10_interaction_term_bounds():
    grid = TorusGrid(5, 5, 10)
    fine = replace(grid, n_z=20)

    def ratios_for(g, seed):
        u = bubble_field(g, 3000 + seed, scale=1e-2)
        p = poly_field(g, 3100 + seed, components=1, scale=1e-2)
        eta = poly_plate(g, 3200 + seed, scale=1e-2, zero_mean=True)
        out = nonlinear_bound_ratios(u, p, eta)
        ec = e_matrix(eta)
        ef = SpectralField(g, ec.reshape((9,) + ec.shape[2:]), 9, True)
        out["e_bound"] = (sobolev_norm(ef, NormSpec(0, 0, 2.0))
                          / sobolev_norm(eta, NormSpec(0, 1, 2.0)))
        return out

    worst = 0.0
    coarse = []
    for seed in range(50):
        vals = ratios_for(grid, seed)
        coarse.append(vals)
        worst = max(worst, max(vals.values()))
    # no-slip states make the plate ratio vanish to roundoff, so relative
    # drift is measured against a floor: a ratio that small is already far
    # inside the bound at both resolutions
    worst_ref = 0.0
    for seed in range(10):
        vals = ratios_for(fine, seed)
        for key, val in vals.items():
            ref = max(coarse[seed][key], RATIO_FLOOR)
            worst_ref = max(worst_ref, abs(val - coarse[seed][key]) / ref)

    u = bubble_field(grid, 3333, scale=1e-2)
    p = poly_field(grid, 3334, components=1, scale=1e-2)
    flat = PlateField(grid, np.zeros((5, 5, 5), complex), real=True)
    terms = compute_nonlinear_terms(u, p, flat)
    annihilated = max(
        float(np.max(np.abs(e_matrix(flat)))),
        float(np.max(np.abs(terms.rd_vector.coeffs))),
        float(np.max(np.abs(terms.rd_tilde.coeffs))),
        float(np.max(np.abs(terms.r_eta.coeffs))),
        float(np.max(np.abs(_deformation_momentum(u, p, flat)))),
    )

    ok = (worst < RATIO_BOUND and worst_ref < REFINE_BAND
          and annihilated == 0.0)
    record(10, "interaction-term bounds", ok,
           f"50 states: max bound ratio {worst:.3f}, drift under refinement "
           f"{worst_ref:.2e}, flat-plate annihilation max {annihilated:.1e}")
