"""Per-mode solves of the coupled fluid--plate system in frequency space.

Every retained frequency pair (integer time index k, integer lateral pair
xi') reduces the linearized interaction problem to a collocated
boundary-value problem across the layer: Stokes momentum and continuity
for the velocity and pressure profiles plus one scalar equation for the
plate amplitude.  The lateral operators are isotropic: once the
velocities are eliminated, the system left in the pressure and the plate
amplitude depends on xi' only through |xi'|^2, so the modes of one
(k, |xi'|^2) group are solved together by block elimination
(`_solve_group`) in the lattice frame.

The xi' = 0 column is special: the plate amplitude vanishes there, the
tangential velocities decouple into scalar two-point problems, the vertical
velocity is the layer antiderivative of the divergence datum, and the
pressure constant is pinned by the plate-row compatibility at the face.
Those xi' = 0 facts are defined here once: the solvability check of the
datum (`xi0_incompatibility`) and the antiderivative from the plate face
(`antiderivative_from_plate`), which the divergence lift builds on too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import PlateField, SpectralField, layer_derivative, zeros_like_field
from .grid import TorusGrid, _phys, cheb_values_to_coeffs


class IncompatibleDataError(ValueError):
    """Raised when a solvability condition required by the problem fails."""


def xi0_incompatibility(grid: TorusGrid, coeffs: np.ndarray,
                        tol: float | None = None) -> float:
    """Largest violation of the xi' = 0 solvability conditions of scalar data.

    On the xi' = 0 column the datum is the x3 derivative of a degree-N_z
    profile that vanishes at both faces, so its layer mean and its T_{N_z}
    Chebyshev coefficient must both vanish; the larger modulus of the two
    is returned.  coeffs holds a full (N_z + 1, N_t, N_x, N_x) coefficient
    array or xi' = 0 profile columns (N_z + 1, batch).  With tol, a value
    above tol * max(1, max |coeffs|) raises IncompatibleDataError.
    """
    mid = (grid.n_x - 1) // 2
    column = coeffs[:, :, mid, mid] if coeffs.ndim == 4 else coeffs
    mean = float(np.max(np.abs(grid.cheb_weights @ column)))
    top = float(np.max(np.abs(cheb_values_to_coeffs(column, axis=0)[-1])))
    worst = max(mean, top)
    if tol is not None and worst > tol * max(1.0, float(np.max(np.abs(coeffs)))):
        raise IncompatibleDataError(
            f"divergence datum has layer mean {mean:.3e} and T_N_z "
            f"coefficient {top:.3e} on the xi'=0 column; the coupled system "
            f"admits no periodic solution")
    return worst


@lru_cache(maxsize=8)
def _antiderivative_matrix(grid: TorusGrid) -> np.ndarray:
    """Solve rows: value at node 0, then derivative match at nodes 0..N-1."""
    n = grid.n_z
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = 1.0
    a[1:] = grid.d1[:n]
    return np.linalg.inv(a)


def antiderivative_from_plate(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Profile F with F(0) = 0 and F' = values, exact at nodes 0..N-1.

    The node axis of `values` is first; any trailing axes are columns.
    """
    rhs = np.concatenate([np.zeros((1,) + values.shape[1:], values.dtype),
                          values[: grid.n_z]])
    cols = _antiderivative_matrix(grid) @ rhs.reshape(grid.n_z + 1, -1)
    return cols.reshape(rhs.shape)


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
                      params: SolverParams = DEFAULT_PARAMS) -> LinearSolution:
    """Solve the linearized coupled system for time-periodic data.

    The divergence datum g goes into the mode solves' continuity rows as it
    is; each xi' = 0 column is checked against compat_tol there and an
    incompatible one raises IncompatibleDataError.  This is the one solver
    path, for the CLI's solve-linear and for every Picard sweep;
    `oracles.solve_by_lift` removes g with the divergence lift first, as the
    independent reference that the cross-check compares with it.
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
    fc, hc = f.coeffs, h.coeffs
    gc = g.coeffs if g is not None and g.coeffs.any() else None

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
    return LinearSolution(u, p, eta)
