"""Per-mode boundary value solver and the assembled linear system."""

import numpy as np
import pytest

from plateflow import modes
from plateflow.cli import _one_blas_thread, _openblas_thread_calls
from plateflow.fields import PlateField, SpectralField, divergence, zeros_like_field
from plateflow.grid import TorusGrid, _phys
from plateflow.nonlinear import picard_solve
from plateflow.modes import (
    IncompatibleDataError,
    ModeSolution,
    SolverParams,
    _antiderivative_matrix,
    _damped_symbol,
    _residual_parts,
    linear_residuals,
    solve_linear_full,
    solve_mode,
)
from plateflow.oracles import (
    cross_validate_linear,
    energy_estimate_check,
    make_manufactured,
    random_test_pair,
    solve_by_lift,
    weak_form_B,
    weak_form_rhs,
)

from conftest import bubble_field, poly_field, poly_plate

TOL_MODE = 1e-10
TOL_WEAK = 1e-9

GRID = TorusGrid(5, 5, 16)


def _mode_data(grid, seed, with_g=False):
    rng = np.random.default_rng(seed)
    z = grid.nodes
    f_hat = np.stack([
        np.polynomial.polynomial.polyval(
            z, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for _ in range(3)
    ])
    h_hat = complex(rng.standard_normal() + 1j * rng.standard_normal())
    g_hat = None
    if with_g:
        bubble = (z * (1.0 - z)) ** 2
        g_hat = bubble * np.polynomial.polynomial.polyval(
            z, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return f_hat, g_hat, h_hat


def _one_mode_lattice(profiles):
    """One mode's profiles as node-major arrays on a 1 x 1 x 1 lattice."""
    return None if profiles is None else np.reshape(profiles, np.shape(profiles)
                                                    + (1, 1, 1))


def _mode_parts(sol, f_hat, g_hat, h_hat):
    """The five equation residuals of one solved mode, from its profiles."""
    u, p, eta, f, g, h = map(_one_mode_lattice,
                             (sol.u, sol.p, sol.eta, f_hat, g_hat, h_hat))
    kxi = _phys(sol.k, sol.xi, sol.grid.t_period, sol.grid.l_period)
    return _residual_parts(sol.grid, u, p, eta, *kxi, f, g, h, 1.0, 1.0)


def test_plate_symbol_exact_values():
    def symbol(k, xi, mu_s=1.0):
        kp, x1, x2 = _phys(k, xi, 2.0 * np.pi, 2.0 * np.pi)
        return _damped_symbol(kp, x1 * x1 + x2 * x2, mu_s)

    assert symbol(1, (1, 0)) == pytest.approx(1j)
    assert symbol(2, (1, 1)) == pytest.approx(4j)
    assert symbol(0, (1, 0)) == pytest.approx(1.0)
    # damping scales with mu_s in the imaginary part only
    a = symbol(3, (2, 1), mu_s=2.0)
    b = symbol(3, (2, 1), mu_s=1.0)
    assert a.real == b.real and a.imag == 2.0 * b.imag


# the last two cases are steady: one entry point serves k = 0 and k != 0
@pytest.mark.parametrize("k,xi", [(1, (1, 0)), (2, (1, 1)), (3, (0, 2)),
                                  (-1, (2, 1)), (1, (0, 0)), (0, (2, 1)),
                                  (0, (0, 0))])
def test_oscillatory_mode_residuals(k, xi):
    f_hat, g_hat, h_hat = _mode_data(GRID, 50 + k + 7 * sum(xi), with_g=True)
    if xi == (0, 0):
        g_hat = None        # the axis mode carries its own solvability rule
    sol = solve_mode(GRID, k, xi, f_hat, g_hat, h_hat)
    res = _mode_parts(sol, f_hat, g_hat, h_hat)
    assert len(res) == 5
    scale = max(1.0, float(np.max(np.abs(f_hat))))
    for name, val in res.items():
        assert val < TOL_MODE * scale, (name, val)


def test_steady_mode_residuals():
    f_hat, g_hat, h_hat = _mode_data(GRID, 60, with_g=True)
    sol = solve_mode(GRID, 0, (1, 1), f_hat, g_hat, h_hat)
    res = _mode_parts(sol, f_hat, g_hat, h_hat)
    assert len(res) == 5
    assert max(res.values()) < TOL_MODE * 10.0


def _unrotated_matrix(grid, k, xi, mu_f=1.0, mu_s=1.0):
    """Reference assembly in the lattice frame, unknowns [u1; u2; u3; p; eta]."""
    n = grid.n_z
    m = n + 1
    kp = 2.0 * np.pi / grid.t_period * k
    x1, x2 = (2.0 * np.pi / grid.l_period * c for c in xi)
    d1 = grid.d1
    eye = np.eye(m)
    helm = 1j * kp * eye - mu_f * (grid.dmat(2) - (x1 * x1 + x2 * x2) * eye)
    a = np.zeros((4 * m + 1, 4 * m + 1), complex)
    bu3, bp, last = 2 * m, 3 * m, 4 * m
    for off, grad_row in ((0, 1j * x1 * eye[1:n]),
                          (m, 1j * x2 * eye[1:n]),
                          (bu3, d1[1:n])):
        a[off + 1:off + n, off:off + m] = helm[1:n]
        a[off + 1:off + n, bp:bp + m] = grad_row
        a[off, off] = 1.0
        a[off + n, off + n] = 1.0
    a[bu3, last] = 1j * kp
    a[bp:bp + m, 0:m] = 1j * x1 * eye
    a[bp:bp + m, m:2 * m] = 1j * x2 * eye
    a[bp:bp + m, bu3:bu3 + m] = d1
    a[last, last] = _damped_symbol(kp, x1 * x1 + x2 * x2, mu_s)
    a[last, bp] = -1.0
    a[last, bu3:bu3 + m] = 2.0 * mu_f * d1[0]
    return a


def _dense_reference(grid, k, xi, f_hat, g_hat, h_hat, params=SolverParams()):
    """One mode solved through the dense (4 N_z + 5) system of `_unrotated_matrix`."""
    n = grid.n_z
    m = n + 1
    b = np.zeros(4 * m + 1, complex)
    for j in range(3):
        b[j * m + 1:j * m + n] = f_hat[j, 1:n]
    b[3 * m:4 * m] = g_hat
    b[4 * m] = h_hat
    a = _unrotated_matrix(grid, k, xi, params.mu_f, params.mu_s)
    return np.linalg.solve(a, b)


@pytest.mark.parametrize("k", [1, 0, -1, 4])
@pytest.mark.parametrize("xi", [(-1, 2), (2, -3), (-2, -1)],
                         ids=lambda xi: f"{xi[0]},{xi[1]}")
def test_rotated_solve_matches_unrotated(k, xi):
    f_hat, g_hat, h_hat = _mode_data(GRID, 90 + k, with_g=True)
    ref = _dense_reference(GRID, k, xi, f_hat, g_hat, h_hat)
    sol = solve_mode(GRID, k, xi, f_hat, g_hat, h_hat)
    got = np.concatenate([sol.u.ravel(), sol.p, [sol.eta]])
    assert np.max(np.abs(got - ref)) < 1e-11 * np.max(np.abs(ref))


# (3, 0) / (0, -3), (1, 2) / (-2, 1) / (2, -1) and (3, 4) / (-5, 0) share
# their |xi'|^2 groups
SHARED_GROUP_XI = [(3, 0), (0, -3), (1, 2), (-2, 1), (2, -1), (3, 4), (-5, 0),
                   (1, -1)]


@pytest.mark.parametrize("n_z", [8, 16, 32, 64])
def test_block_solve_matches_dense_reference(n_z):
    grid = TorusGrid(9, 11, n_z, t_period=3.0, l_period=5.0)
    params = SolverParams(mu_f=0.7, mu_s=1.3)
    for k in (-3, 0, 1, 4):
        for j, xi in enumerate(SHARED_GROUP_XI):
            f_hat, g_hat, h_hat = _mode_data(grid, 110 + 10 * k + j, with_g=True)
            ref = _dense_reference(grid, k, xi, f_hat, g_hat, h_hat, params)
            sol = solve_mode(grid, k, xi, f_hat, g_hat, h_hat, params)
            got = np.concatenate([sol.u.ravel(), sol.p, [sol.eta]])
            assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref)), (k, xi)


def _recording(store, fn):
    """fn, recording the shape of its first operand in store."""
    def wrapped(a, *args, **kwargs):
        store.append(np.shape(a))
        return fn(a, *args, **kwargs)
    return wrapped


def test_mode_solve_matrices_stay_small(monkeypatch):
    """No matrix of a LAPACK operand of the mode solves exceeds (N_z + 2)^2
    entries: the velocities are eliminated before any solve sees the
    pressure, and a block of groups is a stack of such matrices."""
    grid = TorusGrid(5, 5, 16)
    sizes = []
    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, _recording(sizes, getattr(np.linalg, name)))
    # complex data with a divergence datum on the direct route: both routes
    # of the mode solve, and no lift solve
    f = poly_field(grid, 91, components=3) * (0.6 + 0.8j)
    g = divergence(bubble_field(grid, 92)) * 1j
    h = poly_plate(grid, 93) * (0.8 - 0.6j)
    solve_linear_full(f, g, h, grid=grid)
    matrices = {shape[-2:] for shape in sizes}
    assert max(np.prod(shape) for shape in matrices) <= (grid.n_z + 2) ** 2
    assert (grid.n_z + 2, grid.n_z + 2) in matrices   # the xi' != 0 blocks ran


def test_one_inverse_per_group(monkeypatch):
    """Every solved group inverts its Helmholtz operator once, inside the
    stacked inverse of its block; only xi' != 0 groups solve a
    pressure-plate system, the xi' = 0 groups none."""
    grid = TorusGrid(5, 5, 16)
    # the lift inverts its antiderivative matrix once per grid and caches it:
    # build it before counting, whatever ran before
    _antiderivative_matrix.cache_clear()
    _antiderivative_matrix(grid)
    calls = {"inv": [], "solve": []}
    for name, store in calls.items():
        monkeypatch.setattr(np.linalg, name, _recording(store, getattr(np.linalg, name)))
    # complex data in every mode on the direct route, the divergence datum
    # that of a field vanishing on both faces: every group of every time
    # plane is solved
    rng = np.random.default_rng(94)
    slab = (3, grid.n_z + 1, grid.n_t, grid.n_x, grid.n_x)
    f, w = (rng.standard_normal(slab) + 1j * rng.standard_normal(slab)
            for _ in range(2))
    w[:, [0, grid.n_z]] = 0.0
    plate = slab[2:]
    h = rng.standard_normal(plate) + 1j * rng.standard_normal(plate)
    f, g, h = (SpectralField(grid, f, 3, False),
               divergence(SpectralField(grid, w, 3, False)),
               PlateField(grid, h, False))
    solve_linear_full(f, g, h, grid=grid)
    m = grid.n_z + 1
    assert {shape[-2:] for shape in calls["inv"]} == {(m, m)}
    assert {shape[-2:] for shape in calls["solve"]} == {(m + 1, m + 1)}
    groups = len(grid.xi_groups())
    assert sum(np.prod(shape[:-2]) for shape in calls["inv"]) == grid.n_t * groups
    assert sum(np.prod(shape[:-2]) for shape in calls["solve"]) == grid.n_t * (groups - 1)


def test_padded_blocks_match_the_dense_reference(monkeypatch):
    """One complex-data plane mixes groups of 1, 4 and 8 members with
    zero-data groups between them, cut into two padded blocks."""
    grid = TorusGrid(5, 7, 16, t_period=3.0, l_period=5.0)
    params = SolverParams(mu_f=0.7, mu_s=1.3)
    plane, half_t, half_x = 0, 2, 3
    a2 = grid.xi_norm_sq() * (grid.l_period / (2.0 * np.pi)) ** 2
    # |xi'|^2 = 0, 1 (4 members), 5 and 13 (8 each) carry data; 2, 4, 8, 9,
    # 10 (8 members, between 5 and 13) and 18 do not
    live = np.isin(np.rint(a2), (0, 1, 5, 13))
    rng = np.random.default_rng(95)
    slab = (3, grid.n_z + 1, grid.n_t, grid.n_x, grid.n_x)
    f, w = (np.zeros(slab, complex) for _ in range(2))
    h = np.zeros(slab[2:], complex)
    for c in (f, w):
        c[:, :, plane, live] = (rng.standard_normal((3, grid.n_z + 1, live.sum()))
                                + 1j * rng.standard_normal((3, grid.n_z + 1, live.sum())))
    w[:, [0, grid.n_z]] = 0.0
    h[plane, live] = rng.standard_normal(live.sum()) + 1j * rng.standard_normal(live.sum())
    f, g, h = (SpectralField(grid, f, 3, False),
               divergence(SpectralField(grid, w, 3, False)),
               PlateField(grid, h, False))
    default = solve_linear_full(f, g, h, grid=grid, params=params)

    m = grid.n_z + 1
    groups = len(grid.xi_groups()) - 1
    monkeypatch.setattr(modes, "BLOCK_BYTES", 16 * m * m * ((groups + 1) // 2))
    # two blocks of xi' != 0 groups, then xi' = 0
    assert len(modes._plane_plan(grid, False, modes.BLOCK_BYTES)[plane]) == 3
    inverses = []
    monkeypatch.setattr(np.linalg, "inv", _recording(inverses, np.linalg.inv))
    sol = solve_linear_full(f, g, h, grid=grid, params=params)
    # one inverse per group with data: xi' = 0 and the three off-axis groups
    assert sum(np.prod(shape[:-2]) for shape in inverses) == 4

    k = plane - half_t
    for i1, i2 in zip(*np.nonzero(live)):
        at = (Ellipsis, plane, i1, i2)
        xi = (i1 - half_x, i2 - half_x)
        data = f.coeffs[at], g.coeffs[at], h.coeffs[plane, i1, i2]
        got = sol.u.coeffs[at], sol.p.coeffs[at], sol.eta.coeffs[plane, i1, i2]
        if xi == (0, 0):
            # the dense system is one rank short at xi' = 0, where the
            # T_{N_z} pressure mode has no gradient at interior nodes
            u, p, eta, fa, ga, ha = map(_one_mode_lattice, got + data)
            res = _residual_parts(grid, u, p, eta,
                                  *_phys(k, xi, grid.t_period, grid.l_period),
                                  fa, ga, ha, params.mu_f, params.mu_s)
            assert max(res.values()) < TOL_MODE * np.max(np.abs(data[0]))
            continue
        ref = _dense_reference(grid, k, xi, *data, params)
        got = np.concatenate([got[0].ravel(), got[1], [got[2]]])
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref)), xi
    dead = np.ones(slab[2:], bool)
    dead[plane, live] = False
    for arr in (sol.u.coeffs, sol.p.coeffs, sol.eta.coeffs):
        zeros = arr[..., dead]
        assert np.all(zeros == 0)
        assert not (np.signbit(zeros.real).any() or np.signbit(zeros.imag).any())
    for a, b in zip((sol.u, sol.p, sol.eta), (default.u, default.p, default.eta)):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(b.coeffs))


# Manufactured seed 0 on (5, 5, n_z) under the one-thread BLAS pin: X errors
# of the lift and direct routes and the gap between them, as the dense
# (4 N_z + 5) mode solve read them before block elimination replaced it
# (ROADMAP, "Measured baseline", refinement ladder).
LADDER_DENSE = {  # n_z: (lift, direct, gap)
    16: (1.69e-12, 2.90e-12, 3.31e-12),
    32: (1.20e-11, 4.96e-11, 4.64e-11),
    64: (1.53e-10, 3.65e-10, 4.03e-10),
    128: (1.91e-9, 1.28e-8, 1.31e-8),
    192: (2.79e-8, 7.07e-8, 7.23e-8),
}
LADDER_ROUTE_FACTOR = 2.5


@pytest.mark.parametrize("n_z", sorted(LADDER_DENSE))
def test_refinement_ladder_no_worse_than_dense(n_z):
    lift, direct, gap = LADDER_DENSE[n_z]
    with _one_blas_thread():
        rep = cross_validate_linear(make_manufactured(0, n_z=n_z))
    got_lift, got_direct = rep["lift_truth_error"], rep["direct_truth_error"]
    assert max(got_lift, got_direct) <= max(lift, direct)
    assert rep["path_discrepancy"] <= gap
    assert got_lift <= LADDER_ROUTE_FACTOR * lift
    assert got_direct <= LADDER_ROUTE_FACTOR * direct


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """In process, the batched mode solves give the same bits at 1 and at 2
    OpenBLAS threads, on blocks of 41 (linear) and 14 (Picard) groups."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    setter, getter = calls
    linear = make_manufactured(5, grid=TorusGrid(17, 17, 16), band=8)
    picard = make_manufactured(6, grid=TorusGrid(9, 9, 8), band=2, amplitude=1e-3)
    runs = []
    caller = getter()
    try:
        for threads in (1, 2):
            setter(threads)
            sol = solve_linear_full(linear.f, linear.g, linear.h)
            fixed = picard_solve(picard.f, picard.h)
            runs.append([x.coeffs for x in (sol.u, sol.p, sol.eta,
                                            fixed.u, fixed.p, fixed.eta)])
    finally:
        setter(caller)
    for one, two in zip(*runs):
        np.testing.assert_array_equal(one, two)


def test_test_pair_is_admissible():
    rng = np.random.default_rng(3)
    for k, xi in ((1, (1, 0)), (2, (1, 1)), (1, (0, 0))):
        pair = random_test_pair(GRID, k, xi, rng)
        m = GRID.n_z
        assert np.max(np.abs(pair.w[:, m])) < 1e-12          # top face
        assert abs(pair.w[0, 0]) < 1e-12 and abs(pair.w[1, 0]) < 1e-12
        kp = 2.0 * np.pi / GRID.t_period * k
        assert abs(pair.w[2, 0] + 1j * kp * pair.zeta) < 1e-12
        x1, x2 = (2.0 * np.pi / GRID.l_period * c for c in xi)
        div = 1j * x1 * pair.w[0] + 1j * x2 * pair.w[1] + GRID.d1 @ pair.w[2]
        assert np.max(np.abs(div)) < 1e-10


@pytest.mark.parametrize("k,xi", [(1, (1, 0)), (2, (1, 1)), (3, (0, 2))])
def test_weak_identity_on_solver_output(k, xi):
    f_hat, _, h_hat = _mode_data(GRID, 70 + k)
    sol = solve_mode(GRID, k, xi, f_hat, None, h_hat)
    rng = np.random.default_rng(k)
    for _ in range(3):
        pair = random_test_pair(GRID, k, xi, rng)
        lhs = weak_form_B(sol.u, sol.eta, pair)
        rhs = weak_form_rhs(f_hat, h_hat, pair)
        assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < TOL_WEAK


def test_energy_check_conventions():
    f = poly_field(GRID, 80, components=3)
    h = poly_plate(GRID, 81)
    sol = solve_linear_full(f, None, h, grid=GRID)
    c = energy_estimate_check(sol.u, sol.eta, f, h, 1)
    assert np.isfinite(c) and c > 0.0
    zero = zeros_like_field(GRID, components=3)
    zh = zeros_like_field(GRID, plate=True)
    zs = solve_linear_full(zero, None, zh, grid=GRID)
    assert energy_estimate_check(zs.u, zs.eta, zero, zh, 1) == 0.0
    with pytest.raises(ValueError):
        energy_estimate_check(sol.u, sol.eta, f, h, 0)
    with pytest.raises(ValueError):
        energy_estimate_check(sol.u, sol.eta, f, h, 99)


def test_full_solve_zero_data_is_zero():
    sol = solve_linear_full(grid=GRID)
    assert np.max(np.abs(sol.u.coeffs)) == 0.0
    assert np.max(np.abs(sol.p.coeffs)) == 0.0
    assert np.max(np.abs(sol.eta.coeffs)) == 0.0
    assert max(linear_residuals(sol.u, sol.p, sol.eta).values()) == 0.0


def test_full_residuals_are_worst_mode_residuals():
    f = poly_field(GRID, 87, components=3)
    h = poly_plate(GRID, 88)
    g = divergence(bubble_field(GRID, 84))
    sol = solve_linear_full(f, g, h, grid=GRID)
    # doubled data leaves O(1) residuals in every equation but the faces
    f2, g2, h2 = 2.0 * f, 2.0 * g, 2.0 * h
    full = linear_residuals(sol.u, sol.p, sol.eta, f2, g2, h2)
    worst = dict.fromkeys(
        ("momentum", "continuity", "kinematic", "no_slip", "plate"), 0.0)
    half_t, half_x = (GRID.n_t - 1) // 2, (GRID.n_x - 1) // 2
    for idx in np.ndindex(GRID.n_t, GRID.n_x, GRID.n_x):
        profiles = (Ellipsis,) + idx  # the mode's column of every node
        mode = ModeSolution(GRID, idx[0] - half_t,
                            (idx[1] - half_x, idx[2] - half_x),
                            sol.u.coeffs[profiles], sol.p.coeffs[profiles],
                            sol.eta.coeffs[idx])
        res = _mode_parts(mode, f2.coeffs[profiles], g2.coeffs[profiles],
                          h2.coeffs[idx])
        worst = {key: max(worst[key], res[key]) for key in worst}
    assert full["momentum"] > 1e-3 and full["plate"] > 1e-3
    worst["bc"] = max(worst.pop("kinematic"), worst.pop("no_slip"))
    assert worst.keys() == full.keys()
    for key in full:
        assert full[key] == pytest.approx(worst[key], rel=1e-12, abs=1e-13), key


@pytest.mark.parametrize("route,real", [("lift", True), ("direct", True),
                                        ("lift", False), ("direct", False)],
                         ids=["lift", "direct", "lift-complex", "direct-complex"])
def test_full_solve_residuals_both_routes(route, real):
    f = poly_field(GRID, 82, components=3)
    h = poly_plate(GRID, 83)
    g = divergence(bubble_field(GRID, 84))
    if not real:
        # distinct phases break the conjugate symmetry: every mode is solved
        f, g, h = f * (0.6 + 0.8j), g * 1j, h * (0.8 - 0.6j)
    solve = solve_by_lift if route == "lift" else solve_linear_full
    sol = solve(f, g, h, grid=GRID)
    assert sol.u.real == real
    scale = max(1.0, np.max(np.abs(f.coeffs)))
    for name, val in linear_residuals(sol.u, sol.p, sol.eta, f, g, h).items():
        assert val < 1e-9 * scale, (name, val)


def test_direct_route_rejects_incompatible_datum():
    # a nonzero layer mean, and a mean-free T_{N_z} profile on xi' = 0
    top = (-1.0) ** np.arange(GRID.n_z + 1)
    for profile in (1.0, top - top @ GRID.cheb_weights):
        bad = zeros_like_field(GRID)
        bad.coeffs[:, 2, 2, 2] = profile
        with pytest.raises(IncompatibleDataError):
            solve_linear_full(None, bad, None, grid=GRID)
        with pytest.raises(IncompatibleDataError):
            solve_mode(GRID, 0, (0, 0), None, bad.coeffs[:, 2, 2, 2])


def test_grid_mismatch_between_data_fields():
    other = TorusGrid(5, 5, 8)
    with pytest.raises(ValueError):
        solve_linear_full(poly_field(GRID, 86), None, poly_plate(other, 86),
                          grid=GRID)


def test_single_mode_data_stays_localized():
    f = zeros_like_field(GRID, components=3)
    prof = GRID.nodes * (1.0 - GRID.nodes)
    f.coeffs[0, :, 3, 3, 2] = prof
    f.coeffs[0, :, 1, 1, 2] = prof          # conjugate partner
    sol = solve_linear_full(f, None, None, grid=GRID)
    mask = np.zeros((5, 5, 5), bool)
    mask[3, 3, 2] = mask[1, 1, 2] = True
    assert np.max(np.abs(sol.u.coeffs[..., ~mask])) == 0.0
    assert np.max(np.abs(sol.p.coeffs[..., ~mask])) == 0.0
    res = linear_residuals(sol.u, sol.p, sol.eta, f, None, None)
    assert max(res.values()) < TOL_MODE


def test_solver_params_scale_viscosity():
    f = poly_field(GRID, 89, components=3)
    params = SolverParams(mu_f=2.5, mu_s=0.7)
    sol = solve_linear_full(f, None, None, grid=GRID, params=params)
    res = linear_residuals(sol.u, sol.p, sol.eta, f, None, None, params)
    assert max(res.values()) < 1e-9
    # residuals against the default parameters must NOT vanish
    res_wrong = linear_residuals(sol.u, sol.p, sol.eta, f, None, None)
    assert max(res_wrong.values()) > 1e-3
