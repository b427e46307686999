"""Sobolev-type norms for slab and plate fields.

A plate field is normed as a slab field with no layer derivatives and no
layer weights, under the same NormSpec.

Conventions (fixed here once, used consistently by the solver and tests):

* Lateral and time measures are normalized, the layer carries plain dx3, so
  the L2 norm is exactly the coefficient sum weighted by Clenshaw-Curtis.
* q = 2 norms are computed in coefficient space.  Time smoothness of order a
  enters through (1 + k^2)^a on squared coefficients; lateral smoothness of
  order s through (1 + |xi|^2)^s.  On the slab, layer derivatives up to
  floor(s) are combined binomially with lateral weights, which reproduces the
  classical integer-order norms exactly and interpolates for fractional s.
  A sum that overflows, or falls below the normal range for a nonzero field,
  is taken again on the coefficients divided by their peak magnitude.
* q != 2 norms lift the same weights in coefficient space (Bessel potential
  realization), synthesize on the OVERSAMPLE lattice, and take the physical
  quadrature of |.|^q relative to the peak of |.|.
* Spatial order -1 is the dual norm of homogeneous first-order test
  functions: the order-0 norm of the gradient of a Poisson-type potential,
  solved per lateral mode with natural (Neumann) rows at the faces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .fields import (OVERSAMPLE, PlateField, SpectralField, inverse_transform,
                     layer_derivative, pad_to_samples)
from .grid import TorusGrid


@dataclass(frozen=True)
class NormSpec:
    """Requested norm: time order in {0, 1, 2}, real spatial order >= -1."""

    time_order: int = 0
    spatial_order: float = 0.0
    q: float = 2.0

    def __post_init__(self):
        if self.time_order not in (0, 1, 2):
            raise ValueError("time_order must be 0, 1 or 2")
        if self.spatial_order < -1.0:
            raise ValueError(f"unsupported spatial order {self.spatial_order}")
        if not (1.0 < self.q < np.inf):
            raise ValueError("q must lie in (1, inf)")


# ---- building blocks ---------------------------------------------------------


def _time_weight(grid: TorusGrid, order: int) -> np.ndarray:
    return (1.0 + grid.k_phys ** 2) ** (0.5 * order)


def _lateral_weight(grid: TorusGrid, order: float) -> np.ndarray:
    return (1.0 + grid.xi_norm_sq()) ** (0.5 * order)


def _magnitudes(grid: TorusGrid, coeffs: np.ndarray, real: bool) -> np.ndarray:
    """|samples| on the OVERSAMPLE lattice, Euclidean over vector components
    (by hypot, which neither overflows nor underflows).

    real=True synthesizes on the real half-lattice path, which needs
    conjugate-symmetric coefficients: the even time and lateral weights,
    layer derivatives and i*xi gradients all keep a real field's symmetry.
    """
    mag = np.abs(pad_to_samples(coeffs, grid, OVERSAMPLE, real))
    return np.hypot.reduce(mag, axis=0) if mag.ndim == 5 else mag


def mixed_lr_lp_norm(field, r: float, p: float) -> float:
    """L^r in time of the L^p spatial norm; accepts inf in either slot.
    r = p is one space-time sum."""
    grid = field.grid
    mag = _magnitudes(grid, field.coeffs, field.real)
    peak = np.max(mag)
    if peak == 0.0:
        return 0.0
    # powers of mag / peak <= 1 neither overflow nor lose the field to underflow
    rel = mag / peak
    space = (0, 2, 3) if rel.ndim == 4 else (1, 2)  # slab: (node, t, x1, x2)
    if np.isinf(p):
        per_t = rel.max(axis=space)
    else:
        rel **= p
        if rel.ndim == 4:
            rel *= grid.cheb_weights[:, None, None, None]
        if r == p:
            cell = 1.0 / np.prod(rel.shape[-3:])
            return float(peak * (np.sum(rel) * cell) ** (1.0 / p))
        per_t = (np.sum(rel, axis=space) / np.prod(rel.shape[-2:])) ** (1.0 / p)
    if np.isinf(r):
        return float(peak * per_t.max())
    return float(peak * np.mean(per_t ** r) ** (1.0 / r))


def _square_sum(grid: TorusGrid, coeffs: np.ndarray, spec: NormSpec, m: int,
                w3: np.ndarray | float) -> float:
    """The squared q = 2 norm: the sum over j <= m of C(m, j) times the
    squared coefficients of d3^j, weighted by (1 + k^2)^a, (1 + |xi|^2)^(s - j)
    and the layer weights w3."""
    s = spec.spatial_order
    wt = _time_weight(grid, spec.time_order)[:, None, None]
    total = 0.0
    for j in range(m + 1):
        dj = coeffs if j == 0 else layer_derivative(grid, coeffs, j)
        # a weight of order 0 is exactly 1.0: skipped
        contrib = np.abs(dj if spec.time_order == 0 else wt * dj)
        np.square(contrib, out=contrib)
        if s != j:
            contrib *= _lateral_weight(grid, 2.0 * (s - j))
        contrib *= w3
        total += comb(m, j) * float(np.sum(contrib))
    return total


# ---- the public entry point ---------------------------------------------------


def sobolev_norm(field, spec: NormSpec) -> float:
    """Norm of a SpectralField (slab) or PlateField (plate) under `spec`."""
    g, s, q = field.grid, spec.spatial_order, spec.q
    plate = isinstance(field, PlateField)
    if s == -1.0 and not plate:
        return negative_norm(field, q=q, time_order=spec.time_order)
    if s < 0:
        raise ValueError(f"spatial order {s} is not supported on the "
                         f"{'plate' if plate else 'slab'}")
    m = 0 if plate else int(np.floor(s + 1e-12))
    c = field.coeffs
    if q != 2.0:
        wt = _time_weight(g, spec.time_order)[:, None, None]
        total = 0.0
        for j in range(m + 1):
            dj = c if j == 0 else layer_derivative(g, c, j)
            wdj = replace(field, coeffs=wt * _lateral_weight(g, s - j) * dj)
            total += mixed_lr_lp_norm(wdj, q, q)
        return total
    w3 = 1.0 if plate else g.cheb_weights[:, None, None, None]
    with np.errstate(over="ignore"):
        total = _square_sum(g, c, spec, m, w3)
        if not np.finfo(float).tiny <= total < np.inf:
            peak = np.max(np.abs(c))
            if 0.0 < peak < np.inf:
                # part by part: a complex division by a subnormal peak overflows
                rel = c.real / peak + 1j * (c.imag / peak)
                return float(peak * np.sqrt(_square_sum(g, rel, spec, m, w3)))
    return float(np.sqrt(total))


def grid_l2_norm(field) -> float:
    """Plain L2 norm from physical samples, an independent cross-check of
    sobolev_norm(field, NormSpec())."""
    s = inverse_transform(field)
    if isinstance(field, PlateField):
        return float(np.sqrt(np.mean(np.abs(s) ** 2)))
    mag2 = np.abs(s) ** 2
    if field.components > 1:
        mag2 = mag2.sum(axis=0)
    lateral_mean = mag2.mean(axis=(1, 2, 3))
    return float(np.sqrt(np.sum(lateral_mean * field.grid.cheb_weights)))


# ---- homogeneous dual norm -----------------------------------------------------


def _neumann_poisson_profiles(grid: TorusGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve (d^2/dx3^2 - |xi|^2) phi = -g per mode, natural rows at the faces.

    rhs has shape (N_z + 1, N_t, N_x, N_x); the modes of every time plane
    that share one |xi|^2 are the columns of a single solve.  The xi = 0
    problem is pinned by a zero-mean row with a compensating multiplier
    column.
    """
    n = grid.n_z
    d1, d2 = grid.d1, grid.dmat(2)
    w3 = grid.cheb_weights
    out = np.zeros(rhs.shape, complex)
    interior = np.arange(1, n)
    for val, i1, i2 in grid.xi_groups():
        cols = -rhs[:, :, i1, i2].reshape(n + 1, -1)
        if val == 0.0:
            # one saddle solve: multiplier absorbs any residual incompatibility
            a = np.zeros((n + 2, n + 2), complex)
            a[interior, : n + 1] = d2[interior]
            a[interior, n + 1] = 1.0
            a[0, : n + 1] = d1[0]
            a[n, : n + 1] = d1[n]
            a[n + 1, : n + 1] = w3
            b = np.zeros((n + 2, cols.shape[1]), complex)
            b[interior] = cols[interior]
        else:
            a = d2 - val * np.eye(n + 1)
            a[0] = d1[0]
            a[n] = d1[n]
            b = cols
            b[0] = 0.0
            b[n] = 0.0
        sol = np.linalg.solve(a, b)
        out[:, :, i1, i2] = sol[: n + 1].reshape(n + 1, grid.n_t, i1.size)
    return out


def negative_norm(field: SpectralField, q: float = 2.0, time_order: int = 0) -> float:
    """Time-aggregated dual norm of a scalar slab field: the order-0 norm,
    time order `time_order`, of the gradient of its potential phi."""
    if field.components != 1:
        raise ValueError("dual norm is defined for scalar fields")
    g = field.grid
    # the dual norm pairs against gradients, so drop each time mode's
    # xi' = 0 layer mean first
    mid = (g.n_x - 1) // 2
    tilde = field.coeffs.copy()
    tilde[:, :, mid, mid] -= g.cheb_weights @ tilde[:, :, mid, mid]
    phi = _neumann_poisson_profiles(g, tilde)
    xp = 1j * g.xi_phys
    grad = np.stack([xp[:, None] * phi, xp * phi, layer_derivative(g, phi)])
    return sobolev_norm(SpectralField(g, grad, 3, field.real),
                        NormSpec(time_order, 0.0, q))


# ---- solution and data norms -----------------------------------------------------


def x_norm(u: SpectralField, p: SpectralField, eta: PlateField, q: float = 2.0) -> float:
    """Solution-space norm: velocity, pressure gradient regularity, plate."""
    return (
        sobolev_norm(u, NormSpec(1, 0, q))
        + sobolev_norm(u, NormSpec(0, 2, q))
        + sobolev_norm(p, NormSpec(0, 1, q))
        + s_norm(eta, q)
    )


def s_norm(eta: PlateField, q: float = 2.0) -> float:
    """Plate norm used by the smallness gate and the solution norm."""
    return (
        sobolev_norm(eta, NormSpec(2, 1.0 - 1.0 / q, q))
        + sobolev_norm(eta, NormSpec(0, 5.0 - 1.0 / q, q))
    )


def y_norm(f: SpectralField, g: SpectralField | None, h: PlateField,
           q: float = 2.0) -> float:
    """Data-space norm for the linear problem."""
    total = sobolev_norm(f, NormSpec(0, 0, q))
    if g is not None:
        total += sobolev_norm(g, NormSpec(0, 1, q))
        total += negative_norm(g, q=q, time_order=1)
    total += sobolev_norm(h, NormSpec(0, 1.0 - 1.0 / q, q))
    return total
