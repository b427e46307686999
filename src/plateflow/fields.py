"""Coefficient containers, transforms and derivatives for slab and plate fields.

There is one stored layout, node-major: a SpectralField holds
([components,] N_z + 1, N_t, N_x, N_x) coefficients, the optional component
axis first, then the Chebyshev node axis, then the periodic (k, xi1, xi2)
axes.  A PlateField holds (N_t, N_x, N_x), and the plate T x T0^2 is the
slab's face x3 = 0 on the same Fourier lattice: `trace_bottom` returns
coeffs[..., 0, :, :, :].  Every field ends in the three periodic axes, so
one operator serves both types: the transforms act on the last three axes,
frequency multipliers (dt, dx, the lateral part of the Laplacian) broadcast
from the right, and the layer axis, present only on a SpectralField, adds
its own terms through `layer_derivative`, the one kernel that applies
grid.dmat to a field.  Coefficients are C-contiguous, so the kernel's
(node, lattice) reshape is a view.

The periodic axes run in increasing signed frequency order.  The forward
transform is the lattice average, so synthesis is the plain sum over modes
and Parseval holds without weights.  A real field's coefficients are
conjugate-symmetric, c(-k, -xi) = conj(c(k, xi)); `is_conjugate_symmetric`
tests it, and io refuses a container flagged real that fails the test.

There is one periodic transform: `pad_to_samples` synthesizes on the odd
lattice (m_t, m_x, m_x) = `padded_sizes(grid, factor)`, and
`samples_to_truncated` analyzes back.  The factor is DEALIAS for products,
OVERSAMPLE for quadratures and sup sampling, and 1 for the grid lattice
itself, where `forward_transform`, `inverse_transform` and
`physical_samples` work.  The layer direction is never padded.  The
transform acts on the last three axes, (k, xi1, xi2) in and (t, x1, x2)
out, and leading axes (component, node, batch) pass through, so stored
arrays of either field type enter as they are.

The transform runs one axis at a time and skips the lines that are all zero
or discarded.  Synthesis: `_t_pass` places the k rows in an
(..., m_t, N_x, w) array and transforms along t, `_x1_pass` scatters the
xi1 rows into (..., m_t, m_x, w) and transforms along xi1, and `_x2_pass`
ends along xi2, the contiguous axis; analysis runs the passes in reverse,
each keeping the grid's rows.  The `real` flag picks the columns and the
xi2 pass: the w = h + 1 (h = (N_x - 1) // 2) columns xi2 >= 0 of the
conjugate-symmetric part and a real transform, xi2 < 0 following by
conjugate reflection; otherwise all w = N_x columns, scattered into the
padded lattice for a complex transform.  The real path is the pass order of
numpy's `irfftn` / `rfftn` on the full half lattice, each pass with the
same length and normalization, and every 1-d transform depends only on its
own line, so the bits are those of the full transforms whatever the leading
axes.  A lateral derivative multiplies each line by i xi, so
`pad_with_lateral_derivatives` synthesizes c, i xi1 c and i xi2 c from one
t-pass and two xi1-passes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import TorusGrid

# Orszag's 3/2 rule: quadratic products formed on it truncate back alias-free
DEALIAS = 1.5
# |.|^q quadratures and sup sampling are not band-limited, so they get a doubled lattice
OVERSAMPLE = 2.0


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the conjugate-symmetric subspace c(-k,-xi) = conj(c(k,xi))
    of the last three axes."""
    return 0.5 * (coeffs + np.conj(coeffs[..., ::-1, ::-1, ::-1]))


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

    coeffs shape: (N_z + 1, N_t, N_x, N_x) for scalars and an extra leading
    axis of length `components` for vector fields, held C-contiguous.
    `real` records that the physical field is real valued
    (conjugate-symmetric coefficients).
    """

    grid: TorusGrid
    coeffs: np.ndarray
    components: int = 1
    real: bool = False

    def __post_init__(self):
        g = self.grid
        want = (g.n_z + 1, g.n_t, g.n_x, g.n_x)
        if self.components > 1:
            want = (self.components,) + want
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != want:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {want}"
            )


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


def zeros_like_field(grid: TorusGrid, components: int = 1, plate: bool = False):
    """Real-flagged zeros: a plate field, or a slab field of `components`."""
    if plate:
        return PlateField(grid, np.zeros((grid.n_t, grid.n_x, grid.n_x), complex), True)
    shape = (grid.n_z + 1, grid.n_t, grid.n_x, grid.n_x)
    if components > 1:
        shape = (components,) + shape
    return SpectralField(grid, np.zeros(shape, complex), components, True)


# ---- transforms ------------------------------------------------------------


def forward_transform(grid: TorusGrid, samples: np.ndarray,
                      components: int | None = None):
    """Average-normalized analysis of nodal samples.

    samples shape: (N_t, N_x, N_x) on the plate, which gives a PlateField,
    or ([components,] N_z + 1, N_t, N_x, N_x) on the slab, indexed by the
    Chebyshev nodes and the uniform time/lateral lattice.
    """
    samples = np.asarray(samples)
    if components is None:
        components = samples.shape[0] if samples.ndim == 5 else 1
    want_ndim = (5,) if components > 1 else (3, 4)
    lattice = (grid.n_t, grid.n_x, grid.n_x)
    if samples.ndim not in want_ndim or samples.shape[-3:] != lattice:
        raise ValueError(f"expected {' or '.join(map(str, want_ndim))}-d samples on "
                         f"the {lattice} lattice, got shape {samples.shape}")
    real = np.isrealobj(samples)
    coeffs = samples_to_truncated(samples, grid, real)
    if samples.ndim == 3:
        return PlateField(grid, coeffs, real)
    return SpectralField(grid, coeffs, components, real)


def inverse_transform(field) -> np.ndarray:
    """Complex synthesis (a tiny imaginary part if real) on the grid lattice."""
    return pad_to_samples(field.coeffs, field.grid, 1.0)


def physical_samples(field) -> np.ndarray:
    """Real synthesis for real-flagged fields, complex otherwise."""
    return pad_to_samples(field.coeffs, field.grid, 1.0, field.real)


# relative distance from the conjugate-symmetric subspace that a real field may keep
SYMMETRY_TOL = 1e-12


def is_conjugate_symmetric(coeffs: np.ndarray) -> bool:
    """Whether coeffs lie within SYMMETRY_TOL * max |c| of _symmetrize(coeffs),
    that is max |c(k, xi) - conj(c(-k, -xi))| <= 2 SYMMETRY_TOL max |c|."""
    dev = np.max(np.abs(coeffs - np.conj(coeffs[..., ::-1, ::-1, ::-1])))
    scale = np.max(np.abs(coeffs))
    return bool(dev <= 2.0 * SYMMETRY_TOL * max(scale, 1e-300))


# ---- plate trace ------------------------------------------------------------


def trace_bottom(field: SpectralField, component: int | None = None) -> PlateField:
    """Restriction to the plate face x3 = 0 (node 0)."""
    if field.components == 1:
        coeffs = field.coeffs[0]
    elif component is None:
        raise ValueError("vector field trace needs a component index")
    else:
        coeffs = field.coeffs[component, 0]
    return PlateField(field.grid, coeffs.copy(), field.real)


# ---- spectral derivatives ----------------------------------------------------


def dt(field):
    """Time derivative (multiplication by i k) of a plate or slab field."""
    return replace(field, coeffs=field.coeffs * (1j * field.grid.k_phys[:, None, None]))


def dx(field, direction: int):
    """Lateral derivative of a plate or slab field along x1 (direction 1) or
    x2 (direction 2)."""
    if direction not in (1, 2):
        raise ValueError("lateral direction must be 1 or 2")
    ixi = 1j * field.grid.xi_phys
    multiplier = ixi[:, None] if direction == 1 else ixi
    return replace(field, coeffs=field.coeffs * multiplier)


def layer_derivative(grid: TorusGrid, coeffs: np.ndarray, order: int = 1,
                     rows: slice = slice(None)) -> np.ndarray:
    """The `rows` nodes of the order-th x3 derivative of (..., node, t, x1, x2)
    coefficients: d[rows] @ c along the node axis, d = grid.dmat(order).

    One real GEMM (`_real_matmul`) over the flattened periodic lattice per
    leading index; a single mode is a 1 x 1 x 1 lattice.  Contiguous input
    is reshaped as a view, so the output is the only field-sized allocation.
    """
    d = grid.dmat(order)[rows]
    lead, lattice = coeffs.shape[:-4], coeffs.shape[-3:]
    out = _real_matmul(d, coeffs.reshape(lead + (coeffs.shape[-4], -1)))
    return out.reshape(lead + (d.shape[0],) + lattice)


def _real_matmul(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """d @ c for a real matrix d; complex c (last axis contiguous) as a real
    GEMM on its float view, where numpy would cast d to complex."""
    return (d @ c.view(float)).view(complex) if np.iscomplexobj(c) else d @ c


def dx3(field: SpectralField, order: int = 1) -> SpectralField:
    """Layer derivative via the collocation matrix."""
    return replace(field, coeffs=layer_derivative(field.grid, field.coeffs, order))


def gradient(field: SpectralField) -> SpectralField:
    """Spatial gradient of a scalar field, returned as a 3-component field."""
    if field.components != 1:
        raise ValueError("gradient expects a scalar field")
    parts = [dx(field, 1).coeffs, dx(field, 2).coeffs, dx3(field).coeffs]
    return SpectralField(field.grid, np.stack(parts), 3, field.real)


def divergence(field: SpectralField) -> SpectralField:
    """Spatial divergence of a 3-component field."""
    if field.components != 3:
        raise ValueError("divergence expects a 3-component field")
    c = field.coeffs
    xp = 1j * field.grid.xi_phys
    out = c[0] * xp[:, None] + c[1] * xp + layer_derivative(field.grid, c[2])
    return SpectralField(field.grid, out, 1, field.real)


def laplacian(field):
    """Spatial Laplacian: the lateral symbol, plus the layer collocation on
    a slab field (a plate field has no layer direction)."""
    lap = -field.grid.xi_norm_sq() * field.coeffs
    if isinstance(field, SpectralField):
        lap = lap + layer_derivative(field.grid, field.coeffs, 2)
    return replace(field, coeffs=lap)


# ---- padded lattices ------------------------------------------------------------


def _next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def padded_sizes(grid: TorusGrid, factor: float = DEALIAS) -> tuple[int, int]:
    """Odd lattice sizes (m_t, m_x) spanning `factor` times the grid's band:
    DEALIAS for products, OVERSAMPLE for quadratures and sup sampling, and
    1.0 for the grid lattice, (N_t, N_x)."""
    half_t = (grid.n_t - 1) // 2
    half_x = (grid.n_x - 1) // 2
    m_t = _next_odd(max(grid.n_t, int(np.ceil(factor * 2 * half_t + 1))))
    m_x = _next_odd(max(grid.n_x, int(np.ceil(factor * 2 * half_x + 1))))
    return m_t, m_x


def pad_to_samples(coeffs: np.ndarray, grid: TorusGrid, factor: float = DEALIAS,
                   real: bool = False) -> np.ndarray:
    """Samples of (..., N_t, N_x, N_x) coefficients on the `factor`-padded
    lattice (factor 1.0: the grid lattice), shape (..., m_t, m_x, m_x), by
    the passes of the module docstring; leading axes pass through.

    real=True returns the real part of the synthesis: the
    conjugate-symmetric part of the coefficients, restricted to xi2 >= 0,
    is synthesized in the pass order of `irfftn`.  The padded sizes are
    odd, so there is no Nyquist plane.
    """
    m_t, m_x = padded_sizes(grid, factor)
    wide = _x1_pass(_t_pass(coeffs, grid, m_t, real), grid, m_x)
    return _x2_pass(wide, grid, m_x, real)


def _t_pass(coeffs: np.ndarray, grid: TorusGrid, m_t: int, real: bool) -> np.ndarray:
    """The first synthesis pass: the k rows placed in the padded lattice and
    transformed along t, (..., m_t, N_x, w); with `real` the w columns are
    the xi2 >= 0 half of the conjugate-symmetric part."""
    if real:
        hx = (grid.n_x - 1) // 2
        coeffs = 0.5 * (coeffs[..., hx:] + np.conj(coeffs[..., ::-1, ::-1, hx::-1]))
    lines = np.zeros(coeffs.shape[:-3] + (m_t,) + coeffs.shape[-2:], dtype=complex)
    lines[..., grid.k_int % m_t, :, :] = coeffs
    return np.fft.ifft(lines, axis=-3, norm="forward")


def _x1_pass(lines: np.ndarray, grid: TorusGrid, m_x: int) -> np.ndarray:
    """The second synthesis pass: the xi1 rows scattered into the padded
    lattice and transformed along xi1, (..., m_t, m_x, w)."""
    wide = np.zeros(lines.shape[:-2] + (m_x, lines.shape[-1]), dtype=complex)
    wide[..., grid.xi_int % m_x, :] = lines
    return np.fft.ifft(wide, axis=-2, norm="forward")


def _x2_pass(wide: np.ndarray, grid: TorusGrid, m_x: int, real: bool) -> np.ndarray:
    """The last synthesis pass, along xi2, (..., m_t, m_x, m_x): with `real`
    a real inverse transform of length m_x, otherwise the columns scattered
    into the padded lattice and transformed."""
    if real:
        return np.fft.irfft(wide, n=m_x, axis=-1, norm="forward")
    full = np.zeros(wide.shape[:-1] + (m_x,), dtype=complex)
    full[..., grid.xi_int % m_x] = wide
    return np.fft.ifft(full, axis=-1, norm="forward")


def pad_with_lateral_derivatives(coeffs: np.ndarray, grid: TorusGrid, real: bool
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DEALIAS samples of coefficients c and of their lateral derivatives
    i xi1 c and i xi2 c (`dx` directions 1 and 2), as `pad_to_samples`
    gives each.

    The three share passes: one t-pass, an xi1-pass of c and one of
    i xi1 c, then i xi2 multiplies c's xi1-passed lattice (the xi2 axis is
    still spectral there), and three xi2-passes.
    """
    m_t, m_x = padded_sizes(grid)
    i1, i2 = 1j * grid.xi_phys[:, None], 1j * grid.xi_phys
    i2 = i2[(grid.n_x - 1) // 2:] if real else i2  # the columns' xi2
    lines = _t_pass(coeffs, grid, m_t, real)
    wide = _x1_pass(lines, grid, m_x)
    wides = (wide, _x1_pass(i1 * lines, grid, m_x), i2 * wide)
    return tuple(_x2_pass(w, grid, m_x, real) for w in wides)


def samples_to_truncated(samples: np.ndarray, grid: TorusGrid,
                         real: bool) -> np.ndarray:
    """Analyze (..., m_t, m_x, m_x) samples and truncate to the grid
    lattice, shape (..., N_t, N_x, N_x); samples on the grid lattice itself
    are the factor 1 case.

    The synthesis passes in reverse: transforms along x2, x1 and t, each
    keeping only the grid's rows.  real=True analyzes the real part in the
    pass order of `rfftn`, keeps the xi2 >= 0 columns and rebuilds xi2 < 0
    by conjugate reflection; the result is exactly conjugate symmetric.
    """
    m_t, m_x = samples.shape[-3:-1]
    hx = (grid.n_x - 1) // 2
    # rows of the grid's k and xi modes in the unshifted padded lattice
    k, xi = grid.k_int % m_t, grid.xi_int % m_x
    if real:
        spec = np.fft.rfft(np.real(samples), axis=-1, norm="forward")[..., :hx + 1]
    else:
        spec = np.fft.fft(samples, axis=-1, norm="forward")[..., xi]
    spec = np.fft.fft(spec, axis=-2, norm="forward")[..., xi, :]
    coeffs = np.fft.fft(spec, axis=-3, norm="forward")[..., k, :, :]
    if not real:
        return coeffs
    full = np.empty(coeffs.shape[:-1] + (grid.n_x,), complex)
    full[..., hx:] = coeffs
    np.conj(coeffs[..., ::-1, ::-1, hx:0:-1], out=full[..., :hx])
    # the xi2 = 0 plane is its own reflection, symmetric only to round-off;
    # make it exact.  _symmetrize would return every other plane as it is,
    # 0.5 * (c + c) being c exactly
    plane = full[..., hx]
    full[..., hx] = 0.5 * (plane + np.conj(plane[..., ::-1, ::-1]))
    return full
