"""Per-mode solves of the coupled fluid--plate system in frequency space.

Every retained frequency pair (integer time index k, integer lateral pair
xi') reduces the linearized interaction problem to a collocated
boundary-value problem across the layer: Stokes momentum and continuity
for the velocity and pressure profiles plus one scalar equation for the
plate amplitude.  The lateral operators are isotropic: once the
velocities are eliminated, the system left in the pressure and the plate
amplitude depends on xi' only through |xi'|^2, so the modes of one
(k, |xi'|^2) group are solved together by block elimination
(`_solve_group`) in the lattice frame.  This module also carries the
weak-form and energy oracles that the validation suite leans on.

The xi' = 0 column is special: the plate amplitude vanishes there, the
tangential velocities decouple into scalar two-point problems, the vertical
velocity is the layer antiderivative of the divergence datum, and the
pressure constant is pinned by the plate-row compatibility at the face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    PlateField,
    SpectralField,
    dt,
    laplacian,
    layer_derivative,
    trace_bottom,
    zeros_like_field,
)
from .grid import (TorusGrid, _phys, cheb_eval, cheb_nodes, cheb_values_to_coeffs,
                   clencurt_weights)
from .lift import antiderivative_from_plate, lift_divergence, xi0_incompatibility


@dataclass(frozen=True)
class SolverParams:
    """Physical coefficients and the xi' = 0 compatibility tolerance."""

    mu_f: float = 1.0
    mu_s: float = 1.0
    compat_tol: float = 1e-9


DEFAULT_PARAMS = SolverParams()


def _damped_symbol(kp, a2, mu_s):
    """|xi'|^4 - k^2 + i k mu_s |xi'|^2 at physical k and a2 = |xi'|^2.

    The one definition of the damped plate symbol; arguments broadcast.
    """
    return a2 * a2 - kp * kp + 1j * kp * mu_s * a2


@dataclass
class ModeSolution:
    """Layer profiles of a single frequency mode.

    u rows are the velocity components at the collocation nodes; eta is the
    plate amplitude (identically zero on the xi' = 0 column).
    """

    grid: TorusGrid
    k: int
    xi: tuple[int, int]
    u: np.ndarray
    p: np.ndarray
    eta: complex


def _data_profiles(grid, f_hat, g_hat, h_hat):
    m = grid.n_z + 1
    f_hat = np.zeros((3, m), complex) if f_hat is None else np.asarray(f_hat, complex)
    g_hat = np.zeros(m, complex) if g_hat is None else np.asarray(g_hat, complex)
    if f_hat.shape != (3, m) or g_hat.shape != (m,):
        raise ValueError("data profile shapes do not match the layer grid")
    return f_hat, g_hat, complex(h_hat)


def _dirichlet_helmholtz(grid, kp, a2, mu_f):
    """ik - mu_f (D^2 - |xi'|^2) at interior nodes, identity rows at both faces."""
    eye = np.eye(grid.n_z + 1)
    op = 1j * kp * eye - mu_f * (grid.dmat(2) - a2 * eye)
    op[[0, -1]] = eye[[0, -1]]
    return op


def _solve_group(grid, k, xi1, xi2, f, g, h, params):
    """Solve the modes of one (k, |xi'|^2) group by block elimination.

    xi1, xi2 are integer arrays of the G modes' lateral frequencies; f
    (3, N_z + 1, G), g (N_z + 1, G) or None and h (G,) are their data, one
    profile column per mode.  Returns u, p and eta shaped like f, g and h;
    zero data are not solved.

    The collocated equations of a mode are those of one (4 N_z + 5)
    system: Dirichlet Helmholtz rows H for the three velocities with the
    pressure gradient at interior nodes, continuity at every node, the
    kinematic face row and the plate row.  The velocities share H, so with
    Z = H^-1 they are eliminated first.  For xi' != 0, continuity and the
    plate row leave one (N_z + 2) system in (p, eta) that depends on xi'
    only through |xi'|^2, solved once for the whole group; the velocities
    follow by back-substitution.  This is the Uzawa (Schur complement) form
    of the collocated Stokes system (Canuto, Hussaini, Quarteroni & Zang,
    Spectral Methods: Evolution to Complex Geometries, 2007, ch. 3).
    """
    n = grid.n_z
    g = np.zeros(f.shape[1:], complex) if g is None else g
    if not (f.any() or g.any() or h.any()):
        return np.zeros_like(f), np.zeros_like(g), np.zeros_like(h)
    kp, x1, x2 = _phys(k, (xi1, xi2), grid.t_period, grid.l_period)
    a2 = x1[0] * x1[0] + x2[0] * x2[0]
    mu_f = params.mu_f
    d1 = grid.d1
    rhs = f.copy()
    rhs[:, [0, n]] = 0.0    # boundary rows: no-slip and kinematic
    z = np.linalg.inv(_dirichlet_helmholtz(grid, kp, a2, mu_f))
    zf = z @ rhs
    if not (xi1[0] or xi2[0]):
        # xi' = 0: the tangential velocities are zf; u3 integrates the
        # datum, and vertical momentum fixes the pressure profile, whose
        # constant the plate row pins through the face value
        xi0_incompatibility(grid, g, params.compat_tol)
        u3 = antiderivative_from_plate(grid, g)
        slope = f[2] - 1j * kp * u3 + mu_f * (grid.dmat(2) @ u3)
        p = antiderivative_from_plate(grid, slope)
        p += 2.0 * mu_f * (d1[0] @ u3) - h
        return np.concatenate([zf[:2], u3[None]]), p, np.zeros_like(h)
    z0 = z[:, 0]            # the kinematic row's column: u3(0) = -ik eta
    ze = z.copy()           # the pressure gradient acts at interior rows only
    ze[:, [0, n]] = 0.0
    zed = ze @ d1
    dzed = d1 @ zed
    dz0 = d1 @ z0
    dzf3 = d1 @ zf[2]
    # u_j = Z f_j - i x_j ZE p (j = 1, 2) and u3 = Z f_3 - ZE D1 p - ik z0 eta
    # in continuity at every node and in the plate row
    schur = np.empty((n + 2, n + 2), complex)
    schur[:-1, :-1] = a2 * ze - dzed
    schur[:-1, -1] = -1j * kp * dz0
    schur[-1, :-1] = -2.0 * mu_f * dzed[0]
    schur[-1, 0] -= 1.0
    schur[-1, -1] = _damped_symbol(kp, a2, params.mu_s) - 2j * kp * mu_f * dz0[0]
    b = np.concatenate([g - 1j * (x1 * zf[0] + x2 * zf[1]) - dzf3,
                        (h - 2.0 * mu_f * dzf3[0])[None]])
    sol = np.linalg.solve(schur, b)
    p, eta = sol[:-1], sol[-1]
    zep = ze @ p
    u = np.stack([zf[0] - 1j * x1 * zep, zf[1] - 1j * x2 * zep,
                  zf[2] - zed @ p - 1j * kp * z0[:, None] * eta])
    return u, p, eta


def solve_mode(grid: TorusGrid, k: int, xi: tuple[int, int],
               f_hat=None, g_hat=None, h_hat=0.0,
               params: SolverParams = DEFAULT_PARAMS) -> ModeSolution:
    """Solve one (k, xi') mode; the steady plane k = 0 is no special case."""
    f_hat, g_hat, h_hat = _data_profiles(grid, f_hat, g_hat, h_hat)
    u, p, eta = _solve_group(grid, k, np.array([xi[0]]), np.array([xi[1]]),
                             f_hat[..., None], g_hat[:, None], np.array([h_hat]),
                             params)
    return ModeSolution(grid, k, tuple(xi), u[..., 0], p[:, 0], complex(eta[0]))


# ---- equation residuals ------------------------------------------------------


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _residual_parts(grid: TorusGrid, u, p, eta, kp, x1, x2, f, g, h,
                    mu_f: float, mu_s: float) -> dict[str, float]:
    """Max-abs residual of each equation of the linearized system.

    u (3, N_z + 1, L), p (N_z + 1, L) and eta (L) hold node-major
    coefficients on a lattice L of three periodic axes: full fields, or
    one mode's profiles on a 1 x 1 x 1 lattice.  kp, x1, x2 are physical
    frequencies that broadcast against L.  f, g, h are the momentum,
    continuity and plate right-hand sides shaped like u, p and eta; None
    means zero.  Momentum rows exclude the two face nodes, where boundary
    conditions replace the collocated equations.
    """
    n = grid.n_z
    kp, x1, x2 = (np.asarray(v) for v in (kp, x1, x2))
    a2 = x1 * x1 + x2 * x2
    du3 = layer_derivative(grid, u[2])
    grad_p = np.stack([1j * x1 * p, 1j * x2 * p, layer_derivative(grid, p)])
    mom = 1j * kp * u - mu_f * (layer_derivative(grid, u, 2) - a2 * u) + grad_p
    if f is not None:
        mom = mom - f
    cont = 1j * x1 * u[0] + 1j * x2 * u[1] + du3
    if g is not None:
        cont = cont - g
    plate = _damped_symbol(kp, a2, mu_s) * eta - p[0] + 2.0 * mu_f * du3[0]
    if h is not None:
        plate = plate - h
    return {
        "momentum": _max_abs(mom[:, 1:n]),
        "continuity": _max_abs(cont),
        "kinematic": _max_abs(u[2, 0] + 1j * kp * eta),
        "no_slip": max(_max_abs(u[:2, 0]), _max_abs(u[:, n])),
        "plate": _max_abs(plate),
    }


def linear_residuals(u: SpectralField, p: SpectralField, eta: PlateField,
                     f=None, g=None, h=None,
                     params: SolverParams = DEFAULT_PARAMS) -> dict[str, float]:
    """Coefficient-space residuals of the assembled linear system, with the
    kinematic and no-slip conditions reported together as "bc"."""
    grid = u.grid
    xp = grid.xi_phys
    parts = _residual_parts(
        grid, u.coeffs, p.coeffs, eta.coeffs,
        grid.k_phys[:, None, None], xp[:, None], xp,
        None if f is None else f.coeffs, None if g is None else g.coeffs,
        None if h is None else h.coeffs, params.mu_f, params.mu_s)
    return {
        "momentum": parts["momentum"],
        "continuity": parts["continuity"],
        "bc": max(parts["kinematic"], parts["no_slip"]),
        "plate": parts["plate"],
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
                     rng: np.random.Generator, extra_degree: int = 2) -> TestPair:
    """Draw a random admissible test pair built from polynomial bubbles."""
    z = grid.nodes
    m = grid.n_z + 1
    kp, x1, x2 = _phys(k, xi, grid.t_period, grid.l_period)
    a2 = x1 * x1 + x2 * x2

    def poly(deg):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        return np.polynomial.polynomial.polyval(z, c)

    w = np.zeros((3, m), complex)
    if a2 == 0.0:
        w[0] = z * (1.0 - z) * poly(extra_degree)
        w[1] = z * (1.0 - z) * poly(extra_degree)
        return TestPair(grid, k, tuple(xi), w, 0.0 + 0.0j)
    zeta = complex(rng.standard_normal() + 1j * rng.standard_normal())
    blend = (1.0 - z) ** 2 * (1.0 + 2.0 * z)       # 1 at the face, flat ends
    bubble = z ** 2 * (1.0 - z) ** 2 * poly(extra_degree)
    w3 = -1j * kp * zeta * blend + bubble
    w3p = grid.d1 @ w3
    swirl = z * (1.0 - z) * poly(extra_degree)
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
    plate = -1j * kp * _damped_symbol(kp, a2, mu_s)
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


# ---- the full linear solve -----------------------------------------------------


@dataclass
class LinearSolution:
    """Output of the full linear solve; `linear_residuals` checks it."""

    u: SpectralField
    p: SpectralField
    eta: PlateField


def solve_linear_full(f: SpectralField | None = None,
                      g: SpectralField | None = None,
                      h: PlateField | None = None, *,
                      grid: TorusGrid | None = None,
                      params: SolverParams = DEFAULT_PARAMS,
                      route: str = "lift") -> LinearSolution:
    """Solve the linearized coupled system for time-periodic data.

    route "lift" removes the divergence datum with the layer lift and sends
    homogeneous-continuity data to the mode solves; route "direct" feeds the
    datum into the continuity rows unchanged.  The two must agree, which is
    the dual-path cross-check used by the validation oracles.
    """
    for cand in (f, g, h):
        if cand is not None:
            grid = cand.grid if grid is None else grid
    if grid is None:
        raise ValueError("no data supplied and no grid given")
    f = zeros_like_field(grid, 3) if f is None else f
    h = zeros_like_field(grid, plate=True) if h is None else h
    if f.components != 3:
        raise ValueError("forcing must have three components")
    for cand in (f, g, h):
        if cand is not None and cand.grid != grid:
            raise ValueError("data fields live on different grids")
    real_data = f.real and h.real and (g is None or g.real)

    if route not in ("lift", "direct"):
        raise ValueError(f"unknown route {route!r}")
    w, fc, gc, hc = None, f.coeffs, None, h.coeffs
    if g is not None and g.coeffs.any():
        if route == "lift":
            w = lift_divergence(g, tol_compat=params.compat_tol).w
            fc = (f - dt(w) + params.mu_f * laplacian(w)).coeffs
            hc = (h - 2.0 * params.mu_f * trace_bottom(g)).coeffs
        else:
            xi0_incompatibility(grid, g.coeffs, params.compat_tol)
            gc = g.coeffs

    half_t = (grid.n_t - 1) // 2
    half_x = (grid.n_x - 1) // 2
    u_c = np.zeros(fc.shape, complex)
    p_c = np.zeros(fc.shape[1:], complex)
    e_c = np.zeros(hc.shape, complex)

    # conjugate symmetry: for real data solve the closed half-lattice (C-order
    # flat index at or past the centre) and reflect the rest
    centre = grid.n_t * grid.n_x * grid.n_x // 2
    groups = grid.xi_groups()
    for it in range(grid.n_t):
        for _, i1, i2 in groups:
            if real_data:
                due = (it * grid.n_x + i1) * grid.n_x + i2 >= centre
                i1, i2 = i1[due], i2[due]
            u_c[:, :, it, i1, i2], p_c[:, it, i1, i2], e_c[it, i1, i2] = _solve_group(
                grid, it - half_t, i1 - half_x, i2 - half_x, fc[:, :, it, i1, i2],
                None if gc is None else gc[:, it, i1, i2], hc[it, i1, i2], params)

    if real_data:
        for arr in (u_c, p_c, e_c):
            refl = np.conj(arr[..., ::-1, ::-1, ::-1])
            arr += refl
            arr[..., half_t, half_x, half_x] *= 0.5

    u = SpectralField(grid, u_c, 3, real_data)
    p = SpectralField(grid, p_c, 1, real_data)
    eta = PlateField(grid, e_c, real_data)
    if w is not None:
        u = u + w
    return LinearSolution(u, p, eta)
