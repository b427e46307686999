"""Shared draw helpers for the test suite.

Every random field drawn here is band-limited in the periodic directions
and polynomial across the layer, so the same seed reproduces the same
continuum function on any layer resolution.  That makes refinement
comparisons meaningful: a refined grid resolves the identical data, and
any drift in an empirical ratio is the code's, not the draw's.
"""

import sys

import numpy as np

from plateflow.fields import PlateField, SpectralField, _symmetrize

# Printed by the terminal-summary hook so the acceptance verdicts survive
# pytest's output capture, one line per criterion.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def count_calls(monkeypatch, fn) -> list:
    """Replace fn in every plateflow module that binds it by a wrapper that
    appends 1 to the returned list on each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "plateflow"
                and getattr(module, fn.__name__, None) is fn):
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def poly_field(grid, seed, components=3, band_t=1, band_x=1, degree=3,
               scale=1.0):
    """Real slab field: random band-limited modes times layer polynomials.

    Draw order never touches grid sizes, so (seed, bands, degree) pins the
    function itself; only its sampling changes with the grid.
    """
    rng = np.random.default_rng(seed)
    m = grid.n_z + 1
    coeffs = np.zeros((components, m, grid.n_t, grid.n_x, grid.n_x), complex)
    ht, hx = (grid.n_t - 1) // 2, (grid.n_x - 1) // 2
    bt, bx = min(band_t, ht), min(band_x, hx)
    z = grid.nodes
    for it in range(ht - bt, ht + bt + 1):
        for i1 in range(hx - bx, hx + bx + 1):
            for i2 in range(hx - bx, hx + bx + 1):
                for c in range(components):
                    pc = (rng.standard_normal(degree + 1)
                          + 1j * rng.standard_normal(degree + 1))
                    coeffs[c, :, it, i1, i2] = \
                        np.polynomial.polynomial.polyval(z, pc)
    coeffs = _symmetrize(coeffs) * scale
    if components == 1:
        return SpectralField(grid, coeffs[0], 1, True)
    return SpectralField(grid, coeffs, components, True)


def poly_plate(grid, seed, band_t=1, band_x=1, scale=1.0, zero_mean=False):
    """Real band-limited plate field; zero_mean removes the x'-mean column."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((grid.n_t, grid.n_x, grid.n_x), complex)
    ht, hx = (grid.n_t - 1) // 2, (grid.n_x - 1) // 2
    bt, bx = min(band_t, ht), min(band_x, hx)
    blk_shape = (2 * bt + 1, 2 * bx + 1, 2 * bx + 1)
    blk = rng.standard_normal(blk_shape) + 1j * rng.standard_normal(blk_shape)
    coeffs[ht - bt:ht + bt + 1, hx - bx:hx + bx + 1, hx - bx:hx + bx + 1] = blk
    coeffs = _symmetrize(coeffs)
    if zero_mean:
        coeffs[:, hx, hx] = 0.0
    return PlateField(grid, coeffs * scale, True)


def bubble_field(grid, seed, components=3, band_t=1, band_x=1, degree=2,
                 scale=1.0):
    """poly_field shaped by z^2 (1-z)^2: value and slope vanish on both faces."""
    f = poly_field(grid, seed, components, band_t, band_x, degree, scale)
    bub = (grid.nodes * (1.0 - grid.nodes)) ** 2
    f.coeffs *= bub[:, None, None, None]
    return f
