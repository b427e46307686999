"""Right inverse of the divergence with homogeneous boundary values.

Mode by mode the lift is w' = i xi' phi, w3 = psi.  For xi' != 0 the layer
profile psi solves a Poisson-type two-point problem whose four boundary rows
(psi = 0 and psi' = g at both faces) are absorbed by two polynomial closure
columns; phi := (psi' - g)/|xi'|^2 then vanishes at the faces and the nodal
divergence equals g identically.  For xi' = 0 the lateral part is zero and
w3 is the antiderivative of g from the plate face, which requires the layer
mean of g and its T_{N_z} Chebyshev component to vanish; both xi' = 0
facts are the mode solver's (`modes.antiderivative_from_plate` and
`modes.xi0_incompatibility`), so the lift and the solve share them.

The construction acts per time mode with no k dependence, so it commutes
exactly with time differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, divergence
from .grid import TorusGrid
from .modes import antiderivative_from_plate, xi0_incompatibility
from .norms import NormSpec, negative_norm, sobolev_norm


def _closure_solve(grid: TorusGrid, xi_sq: float,
                   rhs_profiles: np.ndarray) -> np.ndarray:
    """psi profiles for a batch of g profiles sharing one |xi'|^2 != 0.

    The interior rows impose (psi'' - |xi'|^2 psi) = g' up to an affine
    closure c0 + c1 x3 whose two coefficients free up the two extra boundary
    rows; rhs_profiles holds one profile per column, (N_z + 1, batch).
    """
    n = grid.n_z
    d1, d2 = grid.d1, grid.dmat(2)
    interior = np.arange(1, n)
    a = np.zeros((n + 3, n + 3), complex)
    a[interior, : n + 1] = d2[interior] - xi_sq * np.eye(n + 1)[interior]
    a[interior, n + 1] = -1.0
    a[interior, n + 2] = -grid.nodes[interior]
    a[0, 0] = 1.0                    # psi(0) = 0
    a[n, n] = 1.0                    # psi(1) = 0
    a[n + 1, : n + 1] = d1[0]        # psi'(0) = g(0)
    a[n + 2, : n + 1] = d1[n]        # psi'(1) = g(1)
    rhs = np.zeros((n + 3, rhs_profiles.shape[1]), complex)
    rhs[interior] = (d1 @ rhs_profiles)[interior]
    rhs[n + 1] = rhs_profiles[0]
    rhs[n + 2] = rhs_profiles[n]
    return np.linalg.solve(a, rhs)[: n + 1]


@dataclass
class LiftResult:
    """Lifted field plus the worst-case constraint residuals."""

    w: SpectralField
    residual_div: float
    residual_bc: float


def lift_divergence(g_field: SpectralField, compat_tol: float = 1e-9) -> LiftResult:
    """Construct w with div w = g and w = 0 on both faces, mode by mode."""
    if g_field.components != 1:
        raise ValueError("the divergence lift expects a scalar field")
    grid = g_field.grid
    n = grid.n_z
    coeffs = g_field.coeffs
    xi0_incompatibility(grid, coeffs, compat_tol)

    w = np.zeros((3,) + coeffs.shape, complex)
    w1, w2, w3 = w
    xp = grid.xi_phys
    for val, i1, i2 in grid.xi_groups():
        gv = coeffs[:, :, i1, i2]  # (node, t, group) profile columns
        if val == 0.0:
            w3[:, :, i1, i2] = antiderivative_from_plate(grid, gv)
            continue
        batch = gv.reshape(n + 1, -1)
        psi = _closure_solve(grid, val, batch)
        phi = ((grid.d1 @ psi - batch) / val).reshape(gv.shape)
        w1[:, :, i1, i2] = 1j * xp[i1] * phi
        w2[:, :, i1, i2] = 1j * xp[i2] * phi
        w3[:, :, i1, i2] = psi.reshape(gv.shape)

    w_field = SpectralField(grid, w, 3, g_field.real)
    residual_div = float(np.max(np.abs(divergence(w_field).coeffs - coeffs)))
    residual_bc = float(np.max(np.abs(w[:, (0, n)])))
    return LiftResult(w_field, residual_div, residual_bc)


def lift_norms(g_field: SpectralField, w: SpectralField, q: float = 2.0) -> dict:
    """The norms the lift's bounds compare, each computed once: g in L^q,
    W^{1,q} and the dual norm, and w in L^q, W^{1,q} and W^{2,q}."""
    return {
        "g_l_q": sobolev_norm(g_field, NormSpec(0, 0, q)),
        "g_w1q": sobolev_norm(g_field, NormSpec(0, 1, q)),
        "g_dual": negative_norm(g_field, q=q),
        "w_l_q": sobolev_norm(w, NormSpec(0, 0, q)),
        "w_w1q": sobolev_norm(w, NormSpec(0, 1, q)),
        "w_w2q": sobolev_norm(w, NormSpec(0, 2, q)),
    }


def lift_estimate_check(g_field: SpectralField, result: LiftResult,
                        q: float = 2.0, norms: dict | None = None) -> dict:
    """Empirical constants of the gradient and dual-norm bounds; norms, when
    given, is lift_norms(g_field, result.w, q), already taken."""
    n = lift_norms(g_field, result.w, q) if norms is None else norms
    pairs = {"gradient_ratio_l0": ("w_w1q", "g_l_q"),
             "gradient_ratio_l1": ("w_w2q", "g_w1q"),
             "dual_ratio": ("w_l_q", "g_dual")}
    return {key: n[num] / n[den] if n[den] > 0 else 0.0
            for key, (num, den) in pairs.items()}
