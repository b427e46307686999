"""Validation oracles: manufactured truths, FD probes, embedding ratios."""

import numpy as np
import pytest

from plateflow.fields import PlateField, SpectralField, dx3, zeros_like_field
from plateflow.grid import TorusGrid
from plateflow.norms import NormSpec, mixed_lr_lp_norm, sobolev_norm, x_norm
from plateflow.oracles import (
    cross_validate_linear,
    embedding_ratio,
    fd_check,
    make_manufactured,
)

from conftest import poly_field, poly_plate

TOL_CONSTRAINT = 1e-13
TOL_PATHS = 1e-9
TOL_TRUTH = 1e-8
TOL_FD = 1e-8

GRID = TorusGrid(5, 5, 8)
HT = HX = 2


def test_manufactured_constraints_hold_exactly():
    case = make_manufactured(0, n_z=16)
    res = case.constraint_residuals()
    assert res["kinematic"] < TOL_CONSTRAINT
    assert res["top"] < TOL_CONSTRAINT
    assert res["plate_mean"] == 0.0


def test_manufactured_divergence_datum_is_exactly_compatible():
    case = make_manufactured(1, n_z=12)
    mid = (case.grid.n_x - 1) // 2
    assert np.max(np.abs(case.g.coeffs[:, :, mid, mid])) == 0.0
    assert np.max(np.abs(case.g.coeffs)) > 0.0     # generically nonzero


def test_manufactured_flat_variant_kills_the_plate():
    case = make_manufactured(2, flat_plate=True)
    assert np.max(np.abs(case.eta.coeffs)) == 0.0
    assert np.max(np.abs(case.g.coeffs)) == 0.0
    res = case.constraint_residuals()
    assert res["kinematic"] < TOL_CONSTRAINT


def test_manufactured_is_deterministic_and_normalized():
    a = make_manufactured(3, n_z=12, amplitude=0.7)
    b = make_manufactured(3, n_z=12, amplitude=0.7)
    assert np.array_equal(a.u.coeffs, b.u.coeffs)
    assert np.array_equal(a.f.coeffs, b.f.coeffs)
    size = x_norm(a.u, a.p, a.eta)
    assert abs(size - 0.7) < 1e-12 * 0.7


def test_cross_validation_report():
    rep = cross_validate_linear(make_manufactured(4, n_z=16))
    assert rep["path_discrepancy"] < TOL_PATHS
    assert rep["lift_truth_rel"] < 1e-6
    assert rep["direct_truth_rel"] < 1e-6
    assert max(rep["residuals_lift"].values()) < 1e-9
    assert max(rep["residuals_direct"].values()) < 1e-9


def test_cross_validation_truth_error_at_reference_resolution():
    rep = cross_validate_linear(make_manufactured(0, n_z=32))
    assert rep["lift_truth_rel"] < TOL_TRUTH
    assert rep["direct_truth_rel"] < TOL_TRUTH


def test_truth_error_drops_with_layer_refinement():
    coarse = cross_validate_linear(make_manufactured(0, n_z=8))
    fine = cross_validate_linear(make_manufactured(0, n_z=16))
    assert coarse["lift_truth_rel"] / fine["lift_truth_rel"] > 1e2


def test_path_gap_below_either_truth_error_when_unresolved():
    # at a deliberately coarse layer the discretization error dominates and
    # the two routes must still agree far more closely than either is right
    rep = cross_validate_linear(make_manufactured(5, n_z=8))
    assert rep["path_discrepancy"] < rep["lift_truth_error"]
    assert rep["path_discrepancy"] < rep["direct_truth_error"]


def _constant_slab(value=3.7):
    coeffs = np.zeros((9, 5, 5, 5), complex)
    coeffs[:, HT, HX, HX] = value
    return SpectralField(GRID, coeffs, 1, True)


def _constant_plate(value=-1.3):
    coeffs = np.zeros((5, 5, 5), complex)
    coeffs[HT, HX, HX] = value
    return PlateField(GRID, coeffs, True)


def test_fd_check_constant_fields():
    const = _constant_slab()
    assert fd_check(const, "t") == 0.0
    assert fd_check(const, "x1") == 0.0
    assert fd_check(const, "x2") == 0.0
    assert fd_check(const, "x3") < 1e-12
    plate = _constant_plate()
    for direction in ("t", "x1", "x2"):
        assert fd_check(plate, direction) == 0.0


def test_fd_check_single_modes():
    coeffs = np.zeros((9, 5, 5, 5), complex)
    coeffs[:, HT + 1, HX + 1, HX - 1] = 0.5
    coeffs[:, HT - 1, HX - 1, HX + 1] = 0.5
    f = SpectralField(GRID, coeffs, 1, True)
    for direction in ("t", "x1", "x2"):
        assert fd_check(f, direction) < TOL_FD
    layered = _constant_slab()
    layered.coeffs[:, HT, HX, HX] = np.sin(np.pi * GRID.nodes)
    assert fd_check(layered, "x3") < TOL_FD


def test_fd_check_plate_mode_and_vector_field():
    eta = poly_plate(GRID, 55, zero_mean=True)
    assert fd_check(eta, "t") < TOL_FD
    u = poly_field(GRID, 56, components=3)
    assert fd_check(u, "x3") < TOL_FD


def test_fd_check_rejects_bad_directions():
    with pytest.raises(ValueError):
        fd_check(_constant_plate(), "x3")
    with pytest.raises(ValueError):
        fd_check(_constant_slab(), "zeta")


def test_embedding_zero_field_and_sup_case():
    assert embedding_ratio(zeros_like_field(GRID), m=2, m_x=(0,),
                           alpha=2.0, r=np.inf, p=np.inf) == 0.0
    u = poly_field(GRID, 57, components=1)
    ratio = embedding_ratio(u, m=2, m_x=(0, 0, 0), alpha=2.0,
                            r=np.inf, p=np.inf)
    assert 0.0 < ratio < 10.0


def test_embedding_rejections_name_the_inequality():
    u = poly_field(GRID, 58, components=1)
    with pytest.raises(ValueError, match=r"M_x \+ 2\*M_t <= 2\*m"):
        embedding_ratio(u, m=1, m_x=(1, 0, 0), M_t=1, alpha=0.0,
                        r=2.0, p=2.0)
    with pytest.raises(ValueError, match=r"0 <= alpha"):
        embedding_ratio(u, m=2, m_x=(0, 0, 0), alpha=5.0, r=2.0, p=2.0)
    with pytest.raises(ValueError, match="r >= q"):
        embedding_ratio(u, m=2, m_x=(0, 0, 0), alpha=1.0, r=1.5, p=2.0)
    with pytest.raises(ValueError, match=r"r <= 2q/\(2 - alpha\*q\)"):
        embedding_ratio(u, m=2, m_x=(0, 0, 0), alpha=0.25, r=4.0, p=2.0)
    with pytest.raises(ValueError, match="r < inf when alpha"):
        embedding_ratio(u, m=2, m_x=(0, 0, 0), alpha=1.0, r=np.inf, p=2.0)
    with pytest.raises(ValueError, match=r"p <= nq/\(n - beta\*q\)"):
        embedding_ratio(u, m=2, m_x=(0, 0, 0), alpha=3.0, r=np.inf, p=np.inf)
    with pytest.raises(ValueError, match="len\\(m_x\\)"):
        embedding_ratio(u, m=2, m_x=(0, 0), alpha=2.0, r=np.inf, p=np.inf)


def test_embedding_high_mode_no_worse_than_low():
    lo = zeros_like_field(GRID)
    lo.coeffs[:, HT + 1, HX + 1, HX] = 1.0
    lo.coeffs[:, HT - 1, HX - 1, HX] = 1.0
    hi = zeros_like_field(GRID)
    hi.coeffs[:, HT + 2, HX + 2, HX - 2] = 1.0
    hi.coeffs[:, HT - 2, HX - 2, HX + 2] = 1.0
    kw = dict(m=2, m_x=(0, 0, 0), alpha=2.0, r=np.inf, p=np.inf)
    assert embedding_ratio(hi, **kw) <= embedding_ratio(lo, **kw)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("axis,m_x,M_t", [(0, (0, 0), 1), (1, (1, 0), 0)])
def test_embedding_derivative_closed_forms(axis, m_x, M_t, n):
    # the plate cos(n t) or cos(n x1): the derivative has n times its norm;
    # W^{1,0} weighs cos(n t) by sqrt(1 + n^2) and cos(n x1) by 1, W^{0,2}
    # weighs them by 1 and 1 + n^2, so at n = 1 the ratios are sqrt 2 - 1
    # and 1/3, and n = 2 tells a derivative from its absence
    want = n / (np.sqrt(1.0 + n * n) + 1.0) if axis == 0 else n / (2.0 + n * n)
    eta = zeros_like_field(GRID, plate=True)
    for sign in (n, -n):
        mode = [HT, HX, HX]
        mode[axis] += sign
        eta.coeffs[tuple(mode)] = 0.5
    ratio = embedding_ratio(eta, m=1, m_x=m_x, M_t=M_t, alpha=0.0,
                            r=2.0, p=2.0, q=2.0)
    assert abs(ratio - want) < 1e-14


def test_embedding_layer_derivative_matches_its_norms():
    u = poly_field(GRID, 60, components=1)
    ratio = embedding_ratio(u, m=1, m_x=(0, 0, 1), alpha=0.0, r=2.0, p=2.0, q=2.0)
    rhs = (sobolev_norm(u, NormSpec(1, 0, 2.0))
           + sobolev_norm(u, NormSpec(0, 2, 2.0)))
    assert ratio == mixed_lr_lp_norm(dx3(u), 2.0, 2.0) / rhs


def test_embedding_plate_domain_arity():
    eta = poly_plate(GRID, 59, zero_mean=True)
    ratio = embedding_ratio(eta, m=2, m_x=(0, 0), alpha=1.0, r=4.0, p=4.0)
    assert np.isfinite(ratio) and ratio > 0.0
