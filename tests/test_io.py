"""Binary field containers: exact round trips and header checks."""

import numpy as np
import pytest

from plateflow.grid import TorusGrid
from plateflow.io import MAGIC, _HEADER, read_field, write_field

from conftest import poly_field, poly_plate

GRID = TorusGrid(5, 5, 8, t_period=np.pi, l_period=4.0)


def test_slab_round_trip_bitwise(tmp_path):
    f = poly_field(GRID, 40, components=3, degree=4)
    path = tmp_path / "u.plf"
    write_field(path, f)
    back = read_field(path, grid=GRID)
    assert np.array_equal(back.coeffs, f.coeffs)
    assert back.components == 3
    assert back.real == f.real


def test_complex_scalar_round_trip(tmp_path):
    f = poly_field(GRID, 41, components=1)
    f = type(f)(GRID, f.coeffs + 1j * np.roll(f.coeffs, 1, axis=3), 1, False)
    path = tmp_path / "c.plf"
    write_field(path, f)
    back = read_field(path, grid=GRID)
    assert not back.real
    assert np.array_equal(back.coeffs, f.coeffs)


def test_plate_round_trip(tmp_path):
    eta = poly_plate(GRID, 42)
    path = tmp_path / "eta.plf"
    write_field(path, eta)
    back = read_field(path, grid=GRID)
    assert np.array_equal(back.coeffs, eta.coeffs)
    assert back.grid == GRID


def test_read_reconstructs_grid(tmp_path):
    # the binary header carries sizes only; periods are caller-supplied
    f = poly_field(GRID, 43, components=1)
    path = tmp_path / "g.plf"
    write_field(path, f)
    back = read_field(path, t_period=np.pi, l_period=4.0)
    assert back.grid == GRID
    sizes_only = read_field(path)
    assert (sizes_only.grid.n_t, sizes_only.grid.n_x, sizes_only.grid.n_z) \
        == (5, 5, 8)
    assert sizes_only.grid.t_period == 2.0 * np.pi


def test_grid_mismatch_rejected(tmp_path):
    f = poly_field(GRID, 44, components=1)
    path = tmp_path / "m.plf"
    write_field(path, f)
    with pytest.raises(ValueError):
        read_field(path, grid=TorusGrid(5, 5, 10))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.plf"
    path.write_bytes(b"NOTAFIELDFILE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_field(path)


def test_truncated_payload_rejected(tmp_path):
    f = poly_field(GRID, 45, components=1)
    path = tmp_path / "t.plf"
    write_field(path, f)
    blob = path.read_bytes()
    # a payload shorter or longer than its header declares
    for bad in (blob[: len(blob) // 2], blob + b"\x00" * 16):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="t.plf"):
            read_field(path)
    # a complete payload with a value that is not finite is refused too
    for bad in (np.nan, np.inf):
        eta = poly_plate(GRID, 45)
        eta.coeffs[1, 1, 1] = bad
        write_field(path, eta)
        with pytest.raises(ValueError, match="non-finite"):
            read_field(path, grid=GRID)
    # complete payloads under a header they cannot honour: a real flag that
    # is neither 0 nor 1, a real flag over coefficients that are not
    # conjugate-symmetric, a plate with three components
    noise = 1e-3 * np.random.default_rng(45).standard_normal(2 * 5 * 5 * 5)
    for header, payload, fragment in (
            ((5, 5, 0, 1, 7), np.zeros_like(noise), "real flag 7"),
            ((5, 5, 0, 1, 1), noise, "not conjugate-symmetric"),
            ((5, 5, 0, 3, 0), np.tile(noise, 3), "3 components on a plate")):
        path.write_bytes(MAGIC + _HEADER.pack(*header)
                         + payload.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=fragment) as exc:
            read_field(path, grid=GRID)
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("sizes,grid", [
    ((2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1), None),
    ((129, 129, 192, 3), None),
    ((129, 129, 192, 3), TorusGrid(5, 5, 16)),
    ((3, 3, 10 ** 7, 0), None),
])
def test_untrusted_header_rejected_before_reading(tmp_path, sizes, grid):
    # a forged header over a 64-byte payload must not size the read
    path = tmp_path / "forged.plf"
    path.write_bytes(MAGIC + _HEADER.pack(*sizes, 1) + b"\x00" * 64)
    with pytest.raises(ValueError, match="forged.plf"):
        read_field(path, grid=grid)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.plf"
    path.write_bytes(MAGIC + b"\x05\x00")
    with pytest.raises(ValueError):
        read_field(path)
