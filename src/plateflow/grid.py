"""Discretization of the periodic slab: Fourier in time and the two lateral
directions, Chebyshev-Gauss-Lobatto collocation across the layer.

The layer coordinate x3 runs over [0, 1]; node 0 sits on the elastic face
(x3 = 0), node N_z on the rigid face (x3 = 1), and nodes increase strictly.
Lateral wave vectors carry the physical 2*pi/L scaling, time frequencies
2*pi/T_period.  `_phys` is that scaling for integer lattice frequencies,
and `_damped_symbol` the damped plate symbol at physical ones, which the
mode solver and the half-space multiplier share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cheb_nodes(n_z: int) -> np.ndarray:
    """Gauss-Lobatto points mapped to [0, 1], ascending, node 0 at the plate."""
    j = np.arange(n_z + 1)
    return 0.5 * (1.0 - np.cos(np.pi * j / n_z))


def cheb_diff_matrix(n_z: int) -> np.ndarray:
    """First-derivative collocation matrix on the ascending [0, 1] nodes."""
    n = n_z
    x = np.cos(np.pi * np.arange(n + 1) / n)  # canonical nodes, descending
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    big_x = np.tile(x, (n + 1, 1)).T
    dx = big_x - big_x.T
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))  # negative-sum trick keeps rows exact
    # z = (1 - x)/2 maps to [0, 1] with the same index order; d/dz = -2 d/dx.
    return -2.0 * d


def clencurt_weights(n_z: int) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights for the unit interval on the nodes."""
    n = n_z
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for m in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * m * theta[ii]) / (4.0 * m * m - 1)
        v -= np.cos(n * theta[ii]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for m in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * m * theta[ii]) / (4.0 * m * m - 1)
    w[ii] = 2.0 * v / n
    return w / 2.0  # interval length 1 instead of 2


def cheb_values_to_coeffs(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Chebyshev series coefficients of the interpolant through nodal values.

    Values are indexed by the ascending [0, 1] nodes; the series is in
    T_m(1 - 2*x3) so index order matches the node convention.
    """
    values = np.moveaxis(np.asarray(values), axis, -1)
    n = values.shape[-1] - 1
    # even extension and rFFT give the cosine transform
    ext = np.concatenate([values, values[..., -2:0:-1]], axis=-1)
    coeffs = np.fft.fft(ext, axis=-1)[..., : n + 1]
    coeffs = coeffs.real if np.isrealobj(values) else coeffs
    coeffs = coeffs / n
    coeffs[..., 0] *= 0.5
    coeffs[..., -1] *= 0.5
    return np.moveaxis(coeffs, -1, axis)


def cheb_eval(coeffs: np.ndarray, x3: np.ndarray, axis: int = -1) -> np.ndarray:
    """Evaluate a Chebyshev series (node convention above) at points x3.

    The series runs along `axis` of coeffs (the last by default); the other
    coefficient axes broadcast against x3, which may be any shape and may lie
    slightly outside [0, 1] (polynomial continuation).  The recurrence reads
    one coefficient slice per step, so a contiguous array with the series
    axis first (axis=0) is the fastest layout.
    """
    c = np.moveaxis(np.asarray(coeffs), axis, 0)
    x = 1.0 - 2.0 * np.asarray(x3)
    two_x = 2.0 * x
    # Clenshaw recurrence b_m = 2x b_{m+1} - b_{m+2} + c_m in three
    # rotating buffers, vectorized over both coefficients and points
    b1, b2, tmp = (np.zeros(np.broadcast_shapes(c.shape[1:], x.shape),
                            dtype=np.result_type(c, x)) for _ in range(3))
    for m in range(c.shape[0] - 1, 0, -1):
        np.multiply(two_x, b1, out=tmp)
        tmp -= b2
        tmp += c[m]
        b1, b2, tmp = tmp, b1, b2
    np.multiply(x, b1, out=tmp)
    tmp -= b2
    tmp += c[0]
    return tmp


def _distinct(values) -> np.ndarray:
    """numpy's unique() without its numpy.ma import: sorted distinct entries."""
    v = np.sort(np.asarray(values), axis=None)
    keep = np.ones(v.shape, bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _phys(k, xi, t_period, l_period):
    """Physical (k, xi1, xi2) of integer lattice frequencies: the one scalar
    2*pi/period scaling; arguments broadcast."""
    kp = 2.0 * np.pi / t_period * k
    x1 = 2.0 * np.pi / l_period * xi[0]
    x2 = 2.0 * np.pi / l_period * xi[1]
    return kp, x1, x2


def _damped_symbol(kp, a2, mu_s):
    """|xi'|^4 - k^2 + i k mu_s |xi'|^2 at physical k and a2 = |xi'|^2.

    The one definition of the damped plate symbol; arguments broadcast.
    """
    return a2 * a2 - kp * kp + 1j * kp * mu_s * a2


def _validate_sizes(n_t: int, n_x: int, n_z: int) -> None:
    if n_t < 3 or n_t % 2 == 0:
        raise ValueError(f"N_t must be odd and >= 3, got {n_t}")
    if n_x < 3 or n_x % 2 == 0:
        raise ValueError(f"N_x must be odd and >= 3, got {n_x}")
    if n_z < 4:
        raise ValueError(f"N_z must be >= 4, got {n_z}")


@dataclass(frozen=True)
class TorusGrid:
    """Sampling lattice for fields on T x T0^2 x [0, 1].

    N_t and N_x are odd so the signed frequency range is symmetric; N_z is
    the Chebyshev polynomial degree across the layer (N_z + 1 nodes).
    """

    n_t: int
    n_x: int
    n_z: int
    t_period: float = 2.0 * np.pi
    l_period: float = 2.0 * np.pi

    def __post_init__(self):
        _validate_sizes(self.n_t, self.n_x, self.n_z)
        if self.t_period <= 0 or self.l_period <= 0:
            raise ValueError("periods must be positive")
        nodes = cheb_nodes(self.n_z)
        d1 = cheb_diff_matrix(self.n_z)
        weights = clencurt_weights(self.n_z)
        for arr in (nodes, d1, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_d1", d1)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_dcache", {1: d1})

    # ---- layer direction -------------------------------------------------

    @property
    def nodes(self) -> np.ndarray:
        """Ascending collocation points in [0, 1]; nodes[0] is the plate face."""
        return self._nodes

    @property
    def d1(self) -> np.ndarray:
        return self._d1

    @property
    def cheb_weights(self) -> np.ndarray:
        return self._weights

    def dmat(self, order: int) -> np.ndarray:
        """Collocation matrix for the order-th x3 derivative."""
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        cache = self._dcache
        if order not in cache:
            d = self._d1.copy()
            for _ in range(order - 1):
                d = d @ self._d1
            d.flags.writeable = False
            cache[order] = d
        return cache[order]

    # ---- periodic directions ----------------------------------------------

    @property
    def k_int(self) -> np.ndarray:
        """Signed integer time frequencies in increasing order."""
        half = (self.n_t - 1) // 2
        return np.arange(-half, half + 1)

    @property
    def xi_int(self) -> np.ndarray:
        """Signed integer lateral frequencies (per direction), increasing."""
        half = (self.n_x - 1) // 2
        return np.arange(-half, half + 1)

    @property
    def k_phys(self) -> np.ndarray:
        return self.k_int * (2.0 * np.pi / self.t_period)

    @property
    def xi_phys(self) -> np.ndarray:
        return self.xi_int * (2.0 * np.pi / self.l_period)

    @property
    def t_samples(self) -> np.ndarray:
        return np.arange(self.n_t) * (self.t_period / self.n_t)

    @property
    def x_samples(self) -> np.ndarray:
        return np.arange(self.n_x) * (self.l_period / self.n_x)

    def xi_norm_sq(self) -> np.ndarray:
        """|xi'|^2 on the (xi1, xi2) lattice, physical scaling, shape (N_x, N_x)."""
        xp = self.xi_phys
        return xp[:, None] ** 2 + xp[None, :] ** 2

    def xi_groups(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """(|xi'|^2, i1, i2) per distinct value of xi_norm_sq(), ascending.

        i1, i2 are the lattice indices of the points sharing that value, in
        C order.  Lateral operators are isotropic, so every layer solve that
        depends on xi' only through |xi'|^2 is done once per group.
        """
        a2 = self.xi_norm_sq()
        return [(float(val), *np.nonzero(a2 == val)) for val in _distinct(a2)]
