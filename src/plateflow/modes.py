"""Per-mode solves of the coupled fluid--plate system in frequency space.

Every retained frequency pair (integer time index k, integer lateral pair
xi') reduces the linearized interaction problem to a collocated
boundary-value problem across the layer: Stokes momentum and continuity
for the velocity and pressure profiles plus one scalar equation for the
plate amplitude.  The lateral operators are isotropic: once the
velocities are eliminated, the system left in the pressure and the plate
amplitude depends on xi' only through |xi'|^2, so the modes of one
(k, |xi'|^2) group are solved together by block elimination in the
lattice frame, a time plane at a time.  A plan cached per grid
(`_plane_plan`) cuts a plane's groups, padded to the widest of their block,
into blocks whose stacked Helmholtz inverses fit into BLOCK_BYTES.  A block
(`_solve_block`, also `solve_mode`'s one mode) is one gather, stacked
solves and one scatter; D1 ZE D1, D1 z0 and D1 Z f3 are real GEMMs on float
views (`fields._real_matmul`).

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

from .fields import (PlateField, SpectralField, _real_matmul, layer_derivative,
                     zeros_like_field)
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


# Bytes of a block's stacked Helmholtz inverses.  solve_linear_full, min of 7
# interleaved runs, one BLAS thread, at 64 / 256 / 512 / 1024 / 4096 KiB, in ms:
# (17, 17, 32) 70 / 62 / 59 / 67 / 72, (33, 33, 16) 162 / 141 / 138 / 160 / 171,
# (17, 17, 64) 226 / 216 / 207 / 210 / 312 and (9, 9, 192) 429 / 429 / 438 / 444 / 465.
BLOCK_BYTES = 512 << 10


@lru_cache(maxsize=8)
def _plane_plan(grid: TorusGrid, real: bool, budget: int) -> tuple:
    """Per time plane, blocks (a2, x1, x2, index) of its groups, sorted by size
    and cut to fit `budget`: |xi'|^2 (B,), the members' physical xi1, xi2
    (B, 1, W) and flat index (B, N_z + 1, 3, W) in (3, N_z + 1, lattice) from
    the plane's first entry, padded by repeats; xi' = 0 is the last block.
    Real data keep the closed half-lattice: no plane below k = 0, k = 0 from
    xi' = 0 on."""
    nx, m = grid.n_x, grid.n_z + 1
    per_block = max(1, budget // (16 * m * m))
    node = (np.arange(m)[:, None] + m * np.arange(3)) * (grid.n_t * nx * nx)
    groups = [(a2, i1 * nx + i2) for a2, i1, i2 in grid.xi_groups()]

    def block(part):
        cols = np.array([np.resize(j, part[-1][1].size) for _, j in part])
        x1, x2 = (grid.xi_phys[c][:, None] for c in (cols // nx, cols % nx))
        return (np.array([a2 for a2, _ in part]), x1, x2,
                node[None, :, :, None] + cols[:, None, None, :])

    def plane(first):
        kept = sorted(((a2, j[j >= first]) for a2, j in groups[1:] if j.max() >= first),
                      key=lambda g: g[1].size)
        return tuple(block(kept[s:s + per_block])
                     for s in range(0, len(kept), per_block)) + (block(groups[:1]),)

    half_t, full = (grid.n_t - 1) // 2, plane(0)
    if not real:
        return (full,) * grid.n_t
    return ((),) * half_t + (plane(nx * nx // 2),) + (full,) * half_t


def _solve_block(grid, kp, block, data, out, params):
    """Solve one block of a time plane's groups (`_plane_plan`).

    data (f, g or None, h) and out (u, p, eta) are flat from the plane's first
    entry; index gathers f and u, index[:, :, 0] g and p, index[:, 0, 0] h
    and eta.  Groups with zero data are not solved.

    A mode's collocated equations are one (4 N_z + 5) system: Dirichlet
    Helmholtz rows H for the three velocities with the pressure gradient at
    interior nodes, continuity at every node, the kinematic face row and the
    plate row.  With Z = H^-1 the velocities are eliminated first.  For
    xi' != 0 this leaves one (N_z + 2) system in (p, eta) per group, and
    the velocities follow by back-substitution: the Uzawa (Schur
    complement) form of the collocated Stokes system (Canuto, Hussaini,
    Quarteroni & Zang, Spectral Methods: Evolution to Complex Geometries,
    2007, ch. 3).
    """
    a2, x1, x2, index = block
    f, h = data[0][index], data[2][index[:, 0, 0]]
    g = np.zeros_like(f[:, :, 0]) if data[1] is None else data[1][index[:, :, 0]]
    live = f.any(axis=(1, 2, 3)) | g.any(axis=(1, 2)) | h.any(axis=1)
    if not live.all():
        if not live.any():
            return
        a2, x1, x2, index, f, g, h = (v[live] for v in (a2, x1, x2, index, f, g, h))
    n, mu_f, d1, bsz = grid.n_z, params.mu_f, grid.d1, len(f)
    # H = ik - mu_f (D^2 - |xi'|^2) at interior nodes, identity rows at both faces
    eye = np.eye(n + 1)
    helm = 1j * kp * eye - mu_f * (grid.dmat(2) - np.multiply.outer(a2, eye))
    helm[:, [0, n]] = eye[[0, n]]
    z = np.linalg.inv(helm)
    z0 = z[:, :, 0].copy()  # the kinematic row's column: u3(0) = -ik eta
    ze = z                  # face rows hold boundary values, and the pressure
    ze[:, :, [0, n]] = 0.0  # gradient acts at interior rows only
    zf = (ze @ f.reshape(bsz, n + 1, -1)).reshape(f.shape)
    if not a2[0]:
        # xi' = 0: eta vanishes, Z f gives the tangential velocities, u3 integrates
        # the datum, and vertical momentum fixes p up to the constant the plate row pins
        xi0_incompatibility(grid, g[0], params.compat_tol)
        u3 = zf[0, :, 2] = antiderivative_from_plate(grid, g[0])
        p = antiderivative_from_plate(grid, f[0, :, 2] - 1j * kp * u3
                                      + mu_f * (grid.dmat(2) @ u3))[None]
        p += 2.0 * mu_f * (d1[0] @ u3) - h
        eta = np.zeros_like(h)
    else:
        zed = (ze.reshape(-1, n + 1) @ d1).reshape(ze.shape)
        dzed = _real_matmul(d1, zed)
        dz0 = _real_matmul(d1, z0[:, :, None])[..., 0]
        dzf3 = _real_matmul(d1, zf[:, :, 2])
        # u_j = Z f_j - i x_j ZE p (j = 1, 2) and u3 = Z f_3 - ZE D1 p - ik z0 eta
        # in continuity at every node and in the plate row
        schur = np.empty((bsz, n + 2, n + 2), complex)
        schur[:, :-1, :-1] = a2[:, None, None] * ze - dzed
        schur[:, :-1, -1] = -1j * kp * dz0
        schur[:, -1, :-1] = -2.0 * mu_f * dzed[:, 0]
        schur[:, -1, 0] -= 1.0
        schur[:, -1, -1] = _damped_symbol(kp, a2, params.mu_s) - 2j * kp * mu_f * dz0[:, 0]
        b = np.empty((bsz, n + 2, h.shape[1]), complex)
        b[:, :-1] = g - 1j * (x1 * zf[:, :, 0] + x2 * zf[:, :, 1]) - dzf3
        b[:, -1] = h - 2.0 * mu_f * dzf3[:, 0]
        sol = np.linalg.solve(schur, b)
        p, eta = sol[:, :-1], sol[:, -1]
        zep = ze @ p
        zf[:, :, 0] -= 1j * x1 * zep
        zf[:, :, 1] -= 1j * x2 * zep
        zf[:, :, 2] -= zed @ p
        zf[:, :, 2] -= 1j * kp * z0[:, :, None] * eta[:, None]
    out[0][index], out[1][index[:, :, 0]], out[2][index[:, 0, 0]] = zf, p, eta


def solve_mode(grid: TorusGrid, k: int, xi: tuple[int, int],
               f_hat=None, g_hat=None, h_hat=0.0,
               params: SolverParams = DEFAULT_PARAMS) -> ModeSolution:
    """Solve one (k, xi') mode as a one-member block; the steady plane k = 0
    is no special case."""
    m = grid.n_z + 1
    f_hat = np.zeros((3, m), complex) if f_hat is None else np.asarray(f_hat, complex)
    g_hat = np.zeros(m, complex) if g_hat is None else np.asarray(g_hat, complex)
    if f_hat.shape != (3, m) or g_hat.shape != (m,):
        raise ValueError("data profile shapes do not match the layer grid")
    kp, x1, x2 = _phys(k, np.reshape(xi, (2, 1, 1, 1)), grid.t_period, grid.l_period)
    block = ((x1 * x1 + x2 * x2)[:, 0, 0], x1, x2,
             (np.arange(m)[:, None] + m * np.arange(3))[None, :, :, None])
    u, p, eta = np.zeros((3, m), complex), np.zeros(m, complex), np.zeros(1, complex)
    data = f_hat.reshape(-1), g_hat, np.array([h_hat], complex)
    _solve_block(grid, kp, block, data, (u.reshape(-1), p, eta), params)
    return ModeSolution(grid, k, tuple(xi), u, p, complex(eta[0]))


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

    # conjugate symmetry: for real data the plan holds the closed
    # half-lattice and the rest is reflected below
    flat = [None if a is None else a.reshape(-1) for a in (fc, gc, hc, u_c, p_c, e_c)]
    for it, blocks in enumerate(_plane_plan(grid, real_data, BLOCK_BYTES)):
        plane = [None if a is None else a[it * grid.n_x ** 2:] for a in flat]
        for block in blocks:
            _solve_block(grid, grid.k_phys[it], block, plane[:3], plane[3:], params)

    if real_data:
        for arr in (u_c, p_c, e_c):
            refl = np.conj(arr[..., ::-1, ::-1, ::-1])
            arr += refl
            arr[..., half_t, half_x, half_x] *= 0.5

    u = SpectralField(grid, u_c, 3, real_data)
    p = SpectralField(grid, p_c, 1, real_data)
    eta = PlateField(grid, e_c, real_data)
    return LinearSolution(u, p, eta)
