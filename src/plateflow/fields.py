"""Coefficient containers, transforms and derivatives for slab and plate fields.

The plate T x T0^2 is the slab's face x3 = 0 on the same Fourier lattice, so
one operator serves both: the transforms, dt, dx and the lateral part of the
Laplacian act on the leading (k, xi1, xi2) axes whatever follows them, and
the layer axis, present only on a SpectralField, adds its own terms.

Coefficients are stored in increasing signed frequency order along the time
and lateral axes (axis 0: k, axes 1-2: xi1, xi2), the Chebyshev node axis
next, and an optional trailing component axis.  The forward transform is the
lattice average, so synthesis is the plain sum over modes and Parseval holds
without weights.  A real field's coefficients are conjugate-symmetric,
c(-k, -xi) = conj(c(k, xi)); `is_conjugate_symmetric` tests it, and io
refuses a container flagged real that fails the test.  `trace_bottom`
restricts a slab field to the plate face x3 = 0.

Pointwise work uses a zero-padded time/lateral lattice (`pad_to_samples`, and
back by `samples_to_truncated`): DEALIAS wide for products, OVERSAMPLE for
quadratures and sup sampling.  The layer direction is never padded.  Real
fields take the real half-lattice path: only the xi2 >= 0 half of the padded
spectrum is filled or kept, and xi2 < 0 follows by conjugate reflection.

The real path runs one axis at a time and skips the lines that are all zero
or discarded.  Synthesis places the retained coefficients in an
(m_t, N_x, h + 1) array (h = (N_x - 1) // 2), transforms along t, scatters
the xi1 rows into (m_t, m_x, h + 1), transforms along xi1 and ends with a
real inverse transform of length m_x along xi2.  Analysis takes the real
transform along x2 and keeps k2 <= h, transforms along x1 and keeps the
retained xi1 rows, then transforms along t and keeps the retained k rows.
That is the pass order of numpy's `irfftn` / `rfftn` on the full half
lattice, each pass with the same length and normalization, and every 1-d
transform depends only on its own line, so the bits are those of the full
transforms; a zero line transforms to zeros, and a discarded line was never
read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import TorusGrid

_PERIODIC_AXES = (0, 1, 2)

# Orszag's 3/2 rule: quadratic products formed on it truncate back alias-free
DEALIAS = 1.5
# |.|^q quadratures and sup sampling are not band-limited, so they get a doubled lattice
OVERSAMPLE = 2.0


def _to_coeffs(samples: np.ndarray) -> np.ndarray:
    n = samples.shape[0] * samples.shape[1] * samples.shape[2]
    spec = np.fft.fftn(samples, axes=_PERIODIC_AXES) / n
    return np.fft.fftshift(spec, axes=_PERIODIC_AXES)


def _to_samples(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[0] * coeffs.shape[1] * coeffs.shape[2]
    spec = np.fft.ifftshift(coeffs, axes=_PERIODIC_AXES)
    return np.fft.ifftn(spec, axes=_PERIODIC_AXES) * n


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the conjugate-symmetric subspace c(-k,-xi) = conj(c(k,xi))."""
    flipped = coeffs[::-1, ::-1, ::-1]
    return 0.5 * (coeffs + np.conj(flipped))


class _FieldArithmetic:
    """Copy and linear arithmetic shared by slab and plate fields."""

    def copy(self):
        return replace(self, coeffs=self.coeffs.copy())

    def __add__(self, other):
        _check_compatible(self, other)
        return replace(self, coeffs=self.coeffs + other.coeffs,
                       real=self.real and other.real)

    def __sub__(self, other):
        _check_compatible(self, other)
        return replace(self, coeffs=self.coeffs - other.coeffs,
                       real=self.real and other.real)

    def __mul__(self, scalar):
        real = self.real and np.isrealobj(np.asarray(scalar))
        return replace(self, coeffs=self.coeffs * scalar, real=real)

    __rmul__ = __mul__


@dataclass
class SpectralField(_FieldArithmetic):
    """Fourier x Chebyshev coefficients of a field on the slab.

    coeffs shape: (N_t, N_x, N_x, N_z + 1) for scalars and an extra trailing
    axis of length `components` for vector fields.  `real` records that the
    physical field is real valued (conjugate-symmetric coefficients).
    """

    grid: TorusGrid
    coeffs: np.ndarray
    components: int = 1
    real: bool = False

    def __post_init__(self):
        g = self.grid
        want = (g.n_t, g.n_x, g.n_x, g.n_z + 1)
        if self.components > 1:
            want = want + (self.components,)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != want:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {want}"
            )

    def component(self, c: int) -> "SpectralField":
        if self.components == 1:
            if c != 0:
                raise ValueError("scalar field has only component 0")
            return self
        return SpectralField(self.grid, self.coeffs[..., c].copy(), 1, self.real)


@dataclass
class PlateField(_FieldArithmetic):
    """Fourier coefficients of a field on T x T0^2, shape (N_t, N_x, N_x)."""

    grid: TorusGrid
    coeffs: np.ndarray
    real: bool = False

    def __post_init__(self):
        g = self.grid
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        want = (g.n_t, g.n_x, g.n_x)
        if self.coeffs.shape != want:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {want}"
            )


def _check_compatible(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if getattr(a, "components", 1) != getattr(b, "components", 1):
        raise ValueError("component counts differ")


def zeros_like_field(grid: TorusGrid, components: int = 1, real: bool = True,
                     plate: bool = False):
    if plate:
        return PlateField(grid, np.zeros((grid.n_t, grid.n_x, grid.n_x), complex), real)
    shape = (grid.n_t, grid.n_x, grid.n_x, grid.n_z + 1)
    if components > 1:
        shape += (components,)
    return SpectralField(grid, np.zeros(shape, complex), components, real)


# ---- transforms ------------------------------------------------------------


def forward_transform(grid: TorusGrid, samples: np.ndarray,
                      components: int | None = None):
    """Average-normalized analysis of nodal samples.

    samples shape: (N_t, N_x, N_x) on the plate, which gives a PlateField,
    or (N_t, N_x, N_x, N_z + 1[, components]) on the slab, indexed by the
    uniform time/lateral lattice and the Chebyshev nodes.
    """
    samples = np.asarray(samples)
    if components is None:
        components = samples.shape[4] if samples.ndim == 5 else 1
    want_ndim = (5,) if components > 1 else (3, 4)
    if samples.ndim not in want_ndim:
        raise ValueError(f"expected {' or '.join(map(str, want_ndim))}-d samples, "
                         f"got shape {samples.shape}")
    real = np.isrealobj(samples)
    coeffs = _to_coeffs(samples.astype(complex))
    if real:
        coeffs = _symmetrize(coeffs)  # keep the symmetry exact, not just close
    if samples.ndim == 3:
        return PlateField(grid, coeffs, real)
    return SpectralField(grid, coeffs, components, real)


def inverse_transform(field) -> np.ndarray:
    """Synthesis of a plate or slab field back to samples (complex; tiny
    imaginary part if real)."""
    return _to_samples(field.coeffs)


def physical_samples(field) -> np.ndarray:
    """Real-part synthesis for real-flagged fields, complex otherwise."""
    samples = _to_samples(field.coeffs)
    return samples.real if field.real else samples


def is_conjugate_symmetric(coeffs: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether coeffs lie within tol * max |c| of _symmetrize(coeffs), that
    is max |c(k, xi) - conj(c(-k, -xi))| <= 2 tol max |c|."""
    dev = np.max(np.abs(coeffs - np.conj(coeffs[::-1, ::-1, ::-1])))
    scale = np.max(np.abs(coeffs))
    return bool(dev <= 2.0 * tol * max(scale, 1e-300))


# ---- plate trace ------------------------------------------------------------


def trace_bottom(field: SpectralField, component: int | None = None) -> PlateField:
    """Restriction to the plate face x3 = 0 (node 0)."""
    if field.components == 1:
        coeffs = field.coeffs[..., 0]
    elif component is None:
        raise ValueError("vector field trace needs a component index")
    else:
        coeffs = field.coeffs[..., 0, component]
    return PlateField(field.grid, coeffs.copy(), field.real)


# ---- spectral derivatives ----------------------------------------------------


def _k_axis(field):
    g = field.grid
    shape = [1] * field.coeffs.ndim
    shape[0] = g.n_t
    return g.k_phys.reshape(shape)


def _xi_axis(field, which: int):
    g = field.grid
    shape = [1] * field.coeffs.ndim
    shape[which] = g.n_x
    return g.xi_phys.reshape(shape)


def dt(field):
    """Time derivative (multiplication by i k) of a plate or slab field."""
    return replace(field, coeffs=field.coeffs * (1j * _k_axis(field)))


def dx(field, direction: int):
    """Lateral derivative of a plate or slab field along x1 (direction 1) or
    x2 (direction 2)."""
    if direction not in (1, 2):
        raise ValueError("lateral direction must be 1 or 2")
    return replace(field, coeffs=field.coeffs * (1j * _xi_axis(field, direction)))


def layer_derivative(grid: TorusGrid, coeffs: np.ndarray, order: int = 1,
                     vector: bool = False) -> np.ndarray:
    """order-th x3 derivative of a raw coefficient array.

    Applies grid.dmat(order) along the node axis, which is last, or second to
    last when `vector` marks a trailing component axis; any leading axes
    (time, lateral, batch) pass through.
    """
    return _apply_layer_matrix(grid.dmat(order), coeffs, vector)


def _apply_layer_matrix(d: np.ndarray, coeffs: np.ndarray, vector: bool) -> np.ndarray:
    """Rows of a layer matrix d applied along the node axis of coeffs (as in
    `layer_derivative`): the values of d @ c, or c @ d.T for scalars.

    An array with a leading time axis takes one GEMM per time plane rather
    than one small product per lateral mode; the loop keeps the temporaries
    to one plane, where a whole-field contraction would copy the field.
    """
    if coeffs.ndim < (4 if vector else 3):
        return d @ coeffs if vector else coeffs @ d.T
    if vector:
        shape = coeffs.shape[1:-2] + (d.shape[0], coeffs.shape[-1])
    else:
        shape = coeffs.shape[1:-1] + (d.shape[0],)
    out = np.empty((coeffs.shape[0],) + shape, dtype=np.result_type(d, coeffs))
    for t, plane in enumerate(coeffs):
        if vector:
            out[t] = np.einsum("rj,...jc->...rc", d, plane, optimize=True)
        else:
            out[t] = (plane.reshape(-1, plane.shape[-1]) @ d.T).reshape(shape)
    return out


def dx3(field: SpectralField, order: int = 1) -> SpectralField:
    """Layer derivative via the collocation matrix."""
    return replace(field, coeffs=layer_derivative(
        field.grid, field.coeffs, order, field.components > 1))


def gradient(field: SpectralField) -> SpectralField:
    """Spatial gradient of a scalar field, returned as a 3-component field."""
    if field.components != 1:
        raise ValueError("gradient expects a scalar field")
    parts = [dx(field, 1).coeffs, dx(field, 2).coeffs, dx3(field).coeffs]
    return SpectralField(field.grid, np.stack(parts, axis=-1), 3, field.real)


def divergence(field: SpectralField) -> SpectralField:
    """Spatial divergence of a 3-component field."""
    if field.components != 3:
        raise ValueError("divergence expects a 3-component field")
    c = field.coeffs
    xp = 1j * field.grid.xi_phys
    out = (c[..., 0] * xp[:, None, None] + c[..., 1] * xp[:, None]
           + layer_derivative(field.grid, c[..., 2]))
    return SpectralField(field.grid, out, 1, field.real)


def laplacian(field):
    """Spatial Laplacian: the lateral symbol, plus the layer collocation on
    a slab field (a plate field has no layer direction)."""
    g = field.grid
    shape = [1] * field.coeffs.ndim
    shape[1] = shape[2] = g.n_x
    lap = -g.xi_norm_sq().reshape(shape) * field.coeffs
    if isinstance(field, SpectralField):
        lap = lap + layer_derivative(g, field.coeffs, 2, field.components > 1)
    return replace(field, coeffs=lap)


# ---- padded lattices ------------------------------------------------------------


def _next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def padded_sizes(grid: TorusGrid, factor: float = DEALIAS) -> tuple[int, int]:
    """Odd lattice sizes (m_t, m_x) spanning `factor` times the grid's band:
    DEALIAS for products, OVERSAMPLE for quadratures and sup sampling."""
    half_t = (grid.n_t - 1) // 2
    half_x = (grid.n_x - 1) // 2
    m_t = _next_odd(max(grid.n_t, int(np.ceil(factor * 2 * half_t + 1))))
    m_x = _next_odd(max(grid.n_x, int(np.ceil(factor * 2 * half_x + 1))))
    return m_t, m_x


def _inner(grid: TorusGrid, m_t: int, m_x: int) -> tuple[slice, slice, slice]:
    """Where the grid lattice sits inside a centered (m_t, m_x, m_x) lattice."""
    ot, ox = (m_t - grid.n_t) // 2, (m_x - grid.n_x) // 2
    return slice(ot, ot + grid.n_t), slice(ox, ox + grid.n_x), slice(ox, ox + grid.n_x)


def pad_coeffs(coeffs: np.ndarray, grid: TorusGrid, m_t: int, m_x: int) -> np.ndarray:
    """Embed centered coefficients into a larger centered lattice."""
    out = np.zeros((m_t, m_x, m_x) + coeffs.shape[3:], dtype=complex)
    out[_inner(grid, m_t, m_x)] = coeffs
    return out


def truncate_coeffs(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Centered truncation back onto the grid lattice."""
    return coeffs[_inner(grid, *coeffs.shape[:2])].copy()


def _retained_rows(grid: TorusGrid, m_t: int, m_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the grid's k and xi modes in an unshifted (m_t, m_x) lattice."""
    return grid.k_int % m_t, grid.xi_int % m_x


def pad_to_samples(coeffs: np.ndarray, grid: TorusGrid, factor: float = DEALIAS,
                   real: bool = False) -> np.ndarray:
    """Samples of plate or slab coefficients on the `factor`-padded lattice
    (node and component axes pass through).

    real=True returns the real part of the synthesis through the real
    half-lattice path: the conjugate-symmetric part of the coefficients,
    restricted to xi2 >= 0, is synthesized in the pass order of `irfftn`
    (see the module docstring).  The padded sizes are odd, so there is no
    Nyquist plane.
    """
    m_t, m_x = padded_sizes(grid, factor)
    if not real:
        return _to_samples(pad_coeffs(coeffs, grid, m_t, m_x))
    hx = (grid.n_x - 1) // 2
    k, xi = _retained_rows(grid, m_t, m_x)
    tail = coeffs.shape[3:]
    half = np.zeros((m_t, grid.n_x, hx + 1) + tail, dtype=complex)
    half[k] = 0.5 * (coeffs[:, :, hx:] + np.conj(coeffs[::-1, ::-1, hx::-1]))
    wide = np.zeros((m_t, m_x, hx + 1) + tail, dtype=complex)
    wide[:, xi] = np.fft.ifft(half, axis=0, norm="forward")
    wide = np.fft.ifft(wide, axis=1, norm="forward")
    return np.fft.irfft(wide, n=m_x, axis=2, norm="forward")


def samples_to_truncated(samples: np.ndarray, grid: TorusGrid,
                         real: bool) -> np.ndarray:
    """Analyze padded-lattice samples and truncate to the grid lattice.

    real=True analyzes the real part in the pass order of `rfftn` (see the
    module docstring), keeps the retained xi2 >= 0 modes and rebuilds
    xi2 < 0 by conjugate reflection; the result is exactly conjugate
    symmetric.
    """
    if not real:
        return truncate_coeffs(_to_coeffs(samples), grid)
    m_t, m_x = samples.shape[:2]
    hx = (grid.n_x - 1) // 2
    k, xi = _retained_rows(grid, m_t, m_x)
    spec = np.fft.rfft(np.real(samples), axis=2, norm="forward")[:, :, :hx + 1]
    spec = np.fft.fft(spec, axis=1, norm="forward")[:, xi]
    half = np.fft.fft(spec, axis=0, norm="forward")[k]
    full = np.concatenate([np.conj(half[::-1, ::-1, hx:0:-1]), half], axis=2)
    # the xi2 = 0 plane is symmetric only to round-off; make it exact
    return _symmetrize(full)
