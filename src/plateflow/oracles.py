"""Independent validation oracles for the solver stack.

Five families of checks live here, deliberately decoupled from the code
they police:

* manufactured solutions whose data are produced by applying the governing
  operators analytically, so the discrete solver can be measured against a
  known continuum truth rather than against itself, together with the lift
  route of the linear solve (`solve_by_lift`), the second path the
  solver's direct route is cross-checked against;
* the weak form of one mode problem against random admissible test pairs,
  with the plate symbol written out rather than taken from the solver,
  and the empirical constant of the per-k energy bound;
* the empirical quotients of the three interaction-term bounds;
* finite-difference derivative probes on refined grids, the only
  derivative route in the package that does not share code with the
  spectral one;
* empirical ratio experiments for the mixed-norm embedding inequality,
  with the inequality's parameter constraints enforced up front.

Manufactured layer profiles are closed-form (polynomial blends plus
sin(pi x3) and exponential bumps) with hand-coded derivatives.  Data built
this way are *not* collocation-exact, which is the point: solving them at
increasing layer resolution exposes genuine spectral convergence instead
of the trivial exact recovery a polynomial truth would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (PlateField, SpectralField, dt, dx, dx3, gradient, laplacian,
                     layer_derivative, trace_bottom, zeros_like_field, _symmetrize)
from .grid import (TorusGrid, _phys, cheb_eval, cheb_nodes, cheb_values_to_coeffs,
                   clencurt_weights)
from .lift import lift_divergence
from .modes import (SolverParams, DEFAULT_PARAMS, LinearSolution, linear_residuals,
                    solve_linear_full)
from .nonlinear import EPS0_DEFAULT, compute_nonlinear_terms
from .norms import (NormSpec, sobolev_norm, mixed_lr_lp_norm, negative_norm, s_norm,
                    x_norm)

# 6th-order centered first-derivative stencil, stored as antisymmetric pairs
# (offset, weight): sum of w * (f(x + o h) - f(x - o h)) / h.  The paired form
# cancels exactly on constant samples instead of leaving weight roundoff.
FD6_PAIRS = ((1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0))
# points per grid interval of the FD probes' fine lattices
FD_REFINEMENT = 64
# degree of the random polynomial factors of a test pair
TEST_PAIR_DEGREE = 2


# ---- closed-form layer profiles ---------------------------------------------------
#
# Each profile is (value, first derivative, second derivative) as callables of
# the layer coordinate.  blend carries the plate trace into the layer with a
# flat start (value 1, slope 0 at the plate; value and slope 0 at the top);
# the bumps vanish at both faces.


def _blend(z):
    return (1.0 - z) ** 2 * (1.0 + 2.0 * z)


def _blend_d1(z):
    return -6.0 * z * (1.0 - z)


def _blend_d2(z):
    return -6.0 * (1.0 - 2.0 * z)


def _bump_sin(z):
    return np.sin(np.pi * z)


def _bump_sin_d1(z):
    return np.pi * np.cos(np.pi * z)


def _bump_sin_d2(z):
    return -np.pi * np.pi * np.sin(np.pi * z)


def _bump_exp(z):
    return z * (1.0 - z) * np.exp(z)


def _bump_exp_d1(z):
    return (1.0 - z - z * z) * np.exp(z)


def _bump_exp_d2(z):
    return -z * (3.0 + z) * np.exp(z)


def _press_prof(z):
    return np.cos(np.pi * z) + 0.5 * z * z


def _press_prof_d1(z):
    return -np.pi * np.sin(np.pi * z) + z


def _press_prof_d2(z):
    return -np.pi * np.pi * np.cos(np.pi * z) + 1.0


BLEND = (_blend, _blend_d1, _blend_d2)
BUMP_SIN = (_bump_sin, _bump_sin_d1, _bump_sin_d2)
BUMP_EXP = (_bump_exp, _bump_exp_d1, _bump_exp_d2)
PRESS_PROF = (_press_prof, _press_prof_d1, _press_prof_d2)


def _random_lattice(grid: TorusGrid, rng, band: int, scale: float,
                    zero_lateral_mean: bool = False) -> np.ndarray:
    """Conjugate-symmetric coefficient array supported on |k|,|xi| <= band."""
    half_t = (grid.n_t - 1) // 2
    half_x = (grid.n_x - 1) // 2
    bt = min(band, half_t)
    bx = min(band, half_x)
    c = np.zeros((grid.n_t, grid.n_x, grid.n_x), complex)
    sl_t = slice(half_t - bt, half_t + bt + 1)
    sl_x = slice(half_x - bx, half_x + bx + 1)
    shape = (2 * bt + 1, 2 * bx + 1, 2 * bx + 1)
    c[sl_t, sl_x, sl_x] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = _symmetrize(c)
    if zero_lateral_mean:
        c[:, half_x, half_x] = 0.0
    return scale * c


@dataclass
class ManufacturedCase:
    """Closed-form truth with the data it induces under the linear operators.

    The truth satisfies the coupling constraints exactly by construction:
    the fluid matches the plate velocity on the bottom face, vanishes on the
    top face, and the deflection has zero lateral mean at every time.
    """

    grid: TorusGrid
    u: SpectralField
    p: SpectralField
    eta: PlateField
    f: SpectralField
    g: SpectralField
    h: PlateField
    params: SolverParams

    def constraint_residuals(self) -> dict[str, float]:
        """Max-magnitude residuals of the built-in coupling constraints."""
        kin = self.u.coeffs[2, 0] + dt(self.eta).coeffs
        top = self.u.coeffs[:, -1]
        mid = (self.grid.n_x - 1) // 2
        mean = self.eta.coeffs[:, mid, mid]
        return {
            "kinematic": float(np.max(np.abs(kin))),
            "top": float(np.max(np.abs(top))),
            "plate_mean": float(np.max(np.abs(mean))),
        }


def make_manufactured(seed: int, *,
                      grid: TorusGrid | None = None,
                      n_z: int = 16,
                      band: int = 1,
                      amplitude: float = 1.0,
                      flat_plate: bool = False,
                      params: SolverParams = DEFAULT_PARAMS) -> ManufacturedCase:
    """Draw a band-limited manufactured truth and derive its data.

    The velocity interpolates between the plate trace and the resting top
    face through smooth layer profiles; the pressure is unconstrained.  The
    data (f, g, h) come from the momentum, continuity and plate operators
    applied analytically, so g is generically nonzero while its layer
    integral vanishes identically in time.

    The whole case is rescaled so the solution-space norm of the truth
    equals `amplitude`; error tolerances quoted against these cases are
    therefore relative in substance even when stated absolutely.

    flat_plate swaps in the degenerate configuration: zero deflection and a
    divergence-free wall-vanishing stream-function velocity, giving g = 0.
    """
    if grid is None:
        grid = TorusGrid(5, 5, n_z)
    rng = np.random.default_rng(seed)
    # node-major: every lattice array broadcasts against (node, t, x1, x2)
    z = grid.nodes[:, None, None, None]
    half_x = (grid.n_x - 1) // 2
    ik = 1j * grid.k_phys[:, None, None]
    ix1 = 1j * grid.xi_phys[:, None]
    ix2 = 1j * grid.xi_phys
    xi_sq = grid.xi_norm_sq()

    def scalar(lattice, prof):
        """Value/derivative tuple of prof(x3) * lattice[k,xi] on the nodes."""
        val, d1v, d2v = prof
        return lattice * val(z), lattice * d1v(z), lattice * d2v(z)

    if flat_plate:
        eta_c = np.zeros((grid.n_t, grid.n_x, grid.n_x), complex)
        psi = _random_lattice(grid, rng, band, 1.0, zero_lateral_mean=False)
        # u = (d2 psi, -d1 psi, 0) * bump: laterally solenoidal at every node
        a1 = psi * ix2
        a2 = -psi * ix1
        parts_u = [
            [(a1, BUMP_SIN)],
            [(a2, BUMP_SIN)],
            [],
        ]
    else:
        eta_c = _random_lattice(grid, rng, band, 0.1, zero_lateral_mean=True)
        trace = -(ik * eta_c)
        a3 = _random_lattice(grid, rng, band, 1.0)
        a3[:, half_x, half_x] = 0.0  # keep the mean column divergence-free
        parts_u = [
            [(_random_lattice(grid, rng, band, 1.0), BUMP_SIN),
             (_random_lattice(grid, rng, band, 1.0), BUMP_EXP)],
            [(_random_lattice(grid, rng, band, 1.0), BUMP_SIN)],
            [(trace, BLEND), (a3, BUMP_SIN)],
        ]
    parts_p = [(_random_lattice(grid, rng, band, 1.0), PRESS_PROF),
               (_random_lattice(grid, rng, band, 1.0), BUMP_EXP)]

    shape = (grid.n_z + 1, grid.n_t, grid.n_x, grid.n_x)
    u_val = np.zeros((3,) + shape, complex)
    u_d1 = np.zeros_like(u_val)
    u_d2 = np.zeros_like(u_val)
    for c, parts in enumerate(parts_u):
        for lattice, prof in parts:
            v, d1v, d2v = scalar(lattice, prof)
            u_val[c] += v
            u_d1[c] += d1v
            u_d2[c] += d2v
    p_val = np.zeros(shape, complex)
    p_d1 = np.zeros_like(p_val)
    for lattice, prof in parts_p:
        v, d1v, _ = scalar(lattice, prof)
        p_val += v
        p_d1 += d1v

    # momentum datum: du/dt - mu_f (Delta' + d33) u + grad p, all analytic
    lap_u = -xi_sq * u_val + u_d2
    f_val = ik * u_val - params.mu_f * lap_u
    f_val[0] += ix1 * p_val
    f_val[1] += ix2 * p_val
    f_val[2] += p_d1

    # continuity datum; the stream-function build is divergence-free in exact
    # arithmetic, so its roundoff-sized remainder is construction noise
    g_val = ix1 * u_val[0] + ix2 * u_val[1] + u_d1[2]
    if flat_plate:
        g_val[:] = 0.0

    # plate datum from the damped fourth-order symbol
    kp = grid.k_phys[:, None, None]
    sym = xi_sq * xi_sq - kp * kp + 1j * kp * params.mu_s * xi_sq
    h_val = sym * eta_c - p_val[0] + 2.0 * params.mu_f * u_d1[2, 0]

    u = SpectralField(grid, u_val, components=3, real=True)
    p = SpectralField(grid, p_val, components=1, real=True)
    eta = PlateField(grid, eta_c, real=True)
    scale = amplitude / x_norm(u, p, eta)
    u = scale * u
    p = scale * p
    eta = scale * eta
    f = scale * SpectralField(grid, f_val, components=3, real=True)
    g = scale * SpectralField(grid, g_val, components=1, real=True)
    h = scale * PlateField(grid, h_val, real=True)
    return ManufacturedCase(grid, u, p, eta, f, g, h, params)


def solve_by_lift(f, g, h, *, grid=None, params=DEFAULT_PARAMS) -> LinearSolution:
    """The lift route of the linear solve, the reference `cross_validate_linear`
    compares with `solve_linear_full`: with w the divergence lift of g, solve
    for u - w on f - dt w + mu_f lap w, zero divergence and h - 2 mu_f trace g,
    then add w back.  A zero or absent g is a plain solve_linear_full."""
    if g is None or not g.coeffs.any():
        return solve_linear_full(f, g, h, grid=grid, params=params)
    f = zeros_like_field(g.grid, 3) if f is None else f
    h = zeros_like_field(g.grid, plate=True) if h is None else h
    w = lift_divergence(g, compat_tol=params.compat_tol)
    sol = solve_linear_full(f - dt(w) + params.mu_f * laplacian(w), None,
                            h - 2.0 * params.mu_f * trace_bottom(g),
                            grid=grid, params=params)
    return LinearSolution(sol.u + w, sol.p, sol.eta)


def cross_validate_linear(case: ManufacturedCase, *, q: float = 2.0) -> dict:
    """Solve the case along both linear routes and report all discrepancies.

    The lift route (`solve_by_lift`) removes the divergence datum first; the
    direct route (`solve_linear_full`) feeds it straight into the per-mode
    continuity rows.  Uniqueness of the solution demands the two coincide,
    and both must converge to the manufactured truth.  Both routes pin the
    pressure through the plate row at the bottom face, and the manufactured
    plate datum is built with the same pinning, so the routes and the truth
    share one normalization and no mean adjustment is applied.
    """
    g_arg = case.g if case.g.coeffs.any() else None
    lift = solve_by_lift(case.f, g_arg, case.h, grid=case.grid, params=case.params)
    direct = solve_linear_full(case.f, g_arg, case.h, grid=case.grid,
                               params=case.params)

    def residuals(sol):
        return linear_residuals(sol.u, sol.p, sol.eta, case.f, g_arg, case.h,
                                case.params)

    def xerr(sol):
        return x_norm(sol.u - case.u, sol.p - case.p, sol.eta - case.eta, q)

    truth = x_norm(case.u, case.p, case.eta, q)
    gap = x_norm(lift.u - direct.u, lift.p - direct.p,
                 lift.eta - direct.eta, q)
    lift_err = xerr(lift)
    direct_err = xerr(direct)
    return {
        "path_discrepancy": gap,
        "lift_truth_error": lift_err,
        "direct_truth_error": direct_err,
        "lift_truth_rel": lift_err / truth if truth > 0 else 0.0,
        "direct_truth_rel": direct_err / truth if truth > 0 else 0.0,
        "residuals_lift": residuals(lift),
        "residuals_direct": residuals(direct),
    }


# ---- weak form and energy oracles -------------------------------------------


@dataclass
class TestPair:
    """Divergence-free velocity profile and plate amplitude for one mode.

    Members satisfy w(1) = 0, w'(0) = w'(1) = 0 laterally, w3(0) = -ik zeta,
    and i xi . w' + w3' = 0 at every node, so they pair admissibly with any
    candidate in the weak identity.
    """

    grid: TorusGrid
    k: int
    xi: tuple[int, int]
    w: np.ndarray
    zeta: complex


def random_test_pair(grid: TorusGrid, k: int, xi: tuple[int, int],
                     rng: np.random.Generator) -> TestPair:
    """Draw a random admissible test pair built from polynomial bubbles."""
    z = grid.nodes
    m = grid.n_z + 1
    kp, x1, x2 = _phys(k, xi, grid.t_period, grid.l_period)
    a2 = x1 * x1 + x2 * x2

    def poly():
        c = (rng.standard_normal(TEST_PAIR_DEGREE + 1)
             + 1j * rng.standard_normal(TEST_PAIR_DEGREE + 1))
        return np.polynomial.polynomial.polyval(z, c)

    w = np.zeros((3, m), complex)
    if a2 == 0.0:
        w[0] = z * (1.0 - z) * poly()
        w[1] = z * (1.0 - z) * poly()
        return TestPair(grid, k, tuple(xi), w, 0.0 + 0.0j)
    zeta = complex(rng.standard_normal() + 1j * rng.standard_normal())
    blend = (1.0 - z) ** 2 * (1.0 + 2.0 * z)       # 1 at the face, flat ends
    bubble = z ** 2 * (1.0 - z) ** 2 * poly()
    w3 = -1j * kp * zeta * blend + bubble
    w3p = grid.d1 @ w3
    swirl = z * (1.0 - z) * poly()
    w[0] = 1j * x1 * w3p / a2 - x2 * swirl
    w[1] = 1j * x2 * w3p / a2 + x1 * swirl
    w[2] = w3
    return TestPair(grid, k, tuple(xi), w, zeta)


def _fine_profiles(grid, values, x_fine):
    coeffs = cheb_values_to_coeffs(np.asarray(values, complex), axis=-1)
    return cheb_eval(coeffs[..., None, :], x_fine)


def weak_form_B(u_hat: np.ndarray, eta_hat: complex, pair: TestPair,
                mu_f: float = 1.0, mu_s: float = 1.0) -> complex:
    """Sesquilinear form of one mode problem against a test pair.

    Fluid terms are integrated on a refined Clenshaw-Curtis grid so that
    polynomial candidates are handled exactly; plate terms are algebraic in
    the amplitudes.
    """
    grid = pair.grid
    kp, x1, x2 = _phys(pair.k, pair.xi, grid.t_period, grid.l_period)
    a2 = x1 * x1 + x2 * x2
    nf = 2 * grid.n_z
    zf = cheb_nodes(nf)
    wq = clencurt_weights(nf)
    u_hat = np.asarray(u_hat, complex)
    uf = _fine_profiles(grid, u_hat, zf)
    wf = _fine_profiles(grid, pair.w, zf)
    duf = _fine_profiles(grid, u_hat @ grid.d1.T, zf)
    dwf = _fine_profiles(grid, pair.w @ grid.d1.T, zf)
    grads = ((1j * x1 * uf, 1j * x1 * wf), (1j * x2 * uf, 1j * x2 * wf),
             (duf, dwf))
    integrand = sum((gu * np.conj(gw)).sum(axis=0) for gu, gw in grads)
    integrand = mu_f * integrand + 1j * kp * (uf * np.conj(wf)).sum(axis=0)
    fluid = complex(wq @ integrand)
    plate = -1j * kp * (a2 * a2 - kp * kp + 1j * kp * mu_s * a2)
    return fluid + plate * eta_hat * np.conj(pair.zeta)


def weak_form_rhs(f_hat: np.ndarray, h_hat: complex, pair: TestPair) -> complex:
    """Data side of the weak identity for the same test pair."""
    grid = pair.grid
    kp = _phys(pair.k, pair.xi, grid.t_period, grid.l_period)[0]
    nf = 2 * grid.n_z
    zf = cheb_nodes(nf)
    wq = clencurt_weights(nf)
    ff = _fine_profiles(grid, np.asarray(f_hat, complex), zf)
    wf = _fine_profiles(grid, pair.w, zf)
    fluid = complex(wq @ (ff * np.conj(wf)).sum(axis=0))
    return fluid - 1j * kp * h_hat * np.conj(pair.zeta)


def energy_estimate_check(u: SpectralField, eta: PlateField,
                          f: SpectralField, h: PlateField, k: int) -> float:
    """Empirical constant of the per-k energy bound; 0 on zero data.

    Compares the H1 velocity norm plus the weighted plate norms of the
    k-plane of the solution against the L2 size of the k-plane of the data.
    """
    if k == 0:
        raise ValueError("the energy bound concerns oscillatory planes; k != 0")
    grid = u.grid
    it = k + (grid.n_t - 1) // 2
    if not 0 <= it < grid.n_t:
        raise ValueError(f"time frequency {k} not retained on this grid")
    kp = _phys(k, (0, 0), grid.t_period, grid.l_period)[0]
    wq = grid.cheb_weights
    a2 = grid.xi_norm_sq()
    plane = slice(it, it + 1)  # the k-plane, kept as a lattice of one time
    uc = u.coeffs[:, :, plane]
    duc = layer_derivative(grid, uc)
    dens = (1.0 + a2) * np.abs(uc) ** 2 + np.abs(duc) ** 2
    u_h1 = np.sqrt(float(np.einsum("cjtxy,j->", dens, wq).real))
    ec = eta.coeffs[it]
    eta_22 = np.sqrt(float(np.sum((1.0 + a2) ** 2 * np.abs(ec) ** 2)))
    keta_12 = abs(kp) * np.sqrt(float(np.sum((1.0 + a2) * np.abs(ec) ** 2)))
    fc = f.coeffs[:, :, plane]
    f_l2 = np.sqrt(float(np.einsum("cjtxy,j->", np.abs(fc) ** 2, wq)))
    h_l2 = np.sqrt(float(np.sum(np.abs(h.coeffs[it]) ** 2)))
    if f_l2 + h_l2 == 0.0:
        return 0.0
    return (u_h1 + eta_22 + keta_12) / (f_l2 + h_l2)


# ---- interaction-bound oracle ------------------------------------------------------


def nonlinear_bound_ratios(u: SpectralField, p: SpectralField, eta: PlateField,
                           q: float = 2.0, eps0: float = EPS0_DEFAULT,
                           mu_f: float = 1.0) -> dict[str, float]:
    """Left/right quotients of the three quadratic-term estimates.

    The momentum right side keeps the squared velocity term outside the
    plate-norm factor so the quotient stays meaningful as eta -> 0, where
    the correction reduces to the convective term.  Zero data reports zero.
    """
    terms = compute_nonlinear_terms(u, p, eta, mu_f=mu_f)
    nu = sobolev_norm(u, NormSpec(1, 2, q))
    ngp = sobolev_norm(gradient(p), NormSpec(0, 0, q))
    ns = s_norm(eta, q)

    lhs_f = sobolev_norm(terms.rf_tilde, NormSpec(0, 0, q))
    rhs_f = ((1.0 + eps0) * nu + ngp) * ns + nu * nu

    lhs_d = (sobolev_norm(terms.rd_tilde, NormSpec(0, 1, q))
             + negative_norm(terms.rd_tilde, q=q, time_order=1))
    rhs_d = nu * ns

    lhs_e = sobolev_norm(terms.r_eta, NormSpec(0, 1.0 - 1.0 / q, q))
    rhs_e = (1.0 + eps0) * (ns * nu + nu + sobolev_norm(p, NormSpec(0, 1, q)))

    def quot(lhs, rhs):
        return float(lhs / rhs) if rhs > 0.0 else 0.0

    return {
        "momentum": quot(lhs_f, rhs_f),
        "divergence": quot(lhs_d, rhs_d),
        "plate": quot(lhs_e, rhs_e),
    }


# ---- finite-difference derivative oracle ------------------------------------------


def _resample_axis(coeffs: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Trig interpolation of centered Fourier coefficients onto m points.

    Direct synthesis rather than a padded FFT: the coefficient counts are
    small here and the direct sum keeps sparse spectra (constants, single
    modes) free of transform jitter.
    """
    n = coeffs.shape[axis]
    half = (n - 1) // 2
    theta = 2.0 * np.pi * np.arange(m) / m
    phase = np.exp(1j * np.outer(theta, np.arange(-half, half + 1)))
    moved = np.moveaxis(coeffs, axis, -1)
    out = np.tensordot(moved, phase, axes=([-1], [1]))
    return np.moveaxis(out, -1, axis)


def _fd_periodic(samples: np.ndarray, axis: int, step: float) -> np.ndarray:
    out = np.zeros_like(samples)
    for off, wgt in FD6_PAIRS:
        out += wgt * (np.roll(samples, -off, axis=axis)
                      - np.roll(samples, off, axis=axis))
    return out / step


def fd_check(field, direction: str) -> float:
    """Max discrepancy between the spectral and a 6th-order FD derivative.

    Periodic directions are compared on a single-axis refined lattice
    with wrap-around stencils; the layer direction is compared on a fine
    uniform grid strictly inside (0, 1), where both the interpolant and its
    collocation derivative are evaluated directly.
    """
    # every field ends in (t, x1, x2); a slab's node axis comes just before
    axes = {"t": -3, "x1": -2, "x2": -1, "x3": -4}
    if direction not in axes:
        raise ValueError(f"unknown direction {direction!r}")
    axis = axes[direction]
    grid = field.grid
    plate = isinstance(field, PlateField)
    if plate and direction == "x3":
        raise ValueError("plate fields have no layer direction")

    if direction == "x3":
        m_fine = FD_REFINEMENT * grid.n_z
        zf = np.linspace(0.0, 1.0, m_fine + 1)
        inner = slice(3, m_fine - 2)
        series = cheb_values_to_coeffs(np.moveaxis(field.coeffs, -4, -1))
        dser = cheb_values_to_coeffs(np.moveaxis(dx3(field).coeffs, -4, -1))
        vals = cheb_eval(series[..., None, :], zf)
        spec = cheb_eval(dser[..., None, :], zf)
        step = zf[1] - zf[0]
        fdv = np.zeros_like(vals[..., inner])
        for off, wgt in FD6_PAIRS:
            hi = slice(3 + off, m_fine - 2 + off)
            lo = slice(3 - off, m_fine - 2 - off)
            fdv = fdv + wgt * (vals[..., hi] - vals[..., lo])
        fdv = fdv / step
        return float(np.max(np.abs(fdv - spec[..., inner])))

    n_axis = field.coeffs.shape[axis]
    m = FD_REFINEMENT * n_axis
    period = grid.t_period if direction == "t" else grid.l_period
    step = period / m
    vals = _resample_axis(field.coeffs, axis, m)
    deriv = dt(field) if direction == "t" else dx(field, axis + 3)
    spec = _resample_axis(deriv.coeffs, axis, m)
    fdv = _fd_periodic(vals, axis, step)
    return float(np.max(np.abs(fdv - spec)))


# ---- empirical embedding-constant oracle -------------------------------------------


def _reject(cond: bool, name: str):
    if not cond:
        raise ValueError(f"embedding parameter constraint violated: {name}")


def embedding_ratio(field, *, m: int, m_x, M_t: int = 0, alpha: float,
                    r: float, p: float, q: float = 2.0) -> float:
    """LHS/RHS of the mixed-norm embedding inequality on a discrete field.

    The left side is the L^r-in-time, L^p-in-space norm of the requested
    derivative; the right side is the anisotropic solution-space norm (time
    regularity m, space regularity 2m, integrability q).  Parameter
    constraints are checked before any norm is touched and a violation is
    rejected by naming the failed inequality.
    """
    plate = isinstance(field, PlateField)
    n = 2 if plate else 3
    m_x = tuple(int(v) for v in np.atleast_1d(m_x))
    if m_x == (0,):
        m_x = (0,) * n  # scalar zero means the empty multi-index
    _reject(len(m_x) == n, f"len(m_x) == {n} for this domain")
    _reject(1.0 < q < math.inf, "1 < q < inf")
    _reject(m >= 1, "m >= 1")
    _reject(M_t >= 0, "M_t >= 0")
    _reject(all(v >= 0 for v in m_x), "m_x >= 0 componentwise")
    big_mx = sum(m_x)
    _reject(big_mx + 2 * M_t <= 2 * m, "M_x + 2*M_t <= 2*m")
    top = 2.0 * (m - M_t) - big_mx
    _reject(0.0 <= alpha <= top, "0 <= alpha <= 2*(m - M_t) - M_x")
    beta = top - alpha
    _reject(r >= q, "r >= q")
    _reject(p >= q, "p >= q")
    aq = alpha * q
    if aq < 2.0:
        _reject(r <= 2.0 * q / (2.0 - aq), "r <= 2q/(2 - alpha*q)")
    elif aq == 2.0:
        _reject(r < math.inf, "r < inf when alpha*q = 2")
    bq = beta * q
    if bq < n:
        _reject(p <= n * q / (n - bq), "p <= nq/(n - beta*q)")
    elif bq == n:
        _reject(p < math.inf, "p < inf when beta*q = n")

    if not field.coeffs.any():
        return 0.0

    deriv = field
    for _ in range(M_t):
        deriv = dt(deriv)
    for direction in range(min(2, len(m_x))):
        for _ in range(m_x[direction]):
            deriv = dx(deriv, direction + 1)
    if not plate and len(m_x) == 3 and m_x[2] > 0:
        deriv = dx3(deriv, m_x[2])

    lhs = mixed_lr_lp_norm(deriv, r, p)
    rhs = (sobolev_norm(field, NormSpec(m, 0, q))
           + sobolev_norm(field, NormSpec(0, 2 * m, q)))
    return lhs / rhs if rhs > 0 else 0.0
