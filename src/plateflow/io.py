"""Coefficient container files.

Binary layout: magic "PLFSPEC1", then little-endian u32 fields N_t, N_x, N_z,
components, real-flag, then float64 (re, im) pairs in row-major
(k, xi1, xi2, node, component) order with k and xi in increasing signed
order.  Plate fields are stored with N_z = 0 (a single node layer) and one
component, which is unambiguous because slab grids require N_z >= 4.

The file order is not the memory order: fields hold node-major
([component,] node, k, xi1, xi2) coefficients (see `fields`).  This module
is the one place that converts, with one copy each way.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .fields import PlateField, SpectralField, is_conjugate_symmetric
from .grid import TorusGrid

MAGIC = b"PLFSPEC1"
_HEADER = struct.Struct("<5I")


def write_field(path, field) -> None:
    """Write a SpectralField or PlateField to the binary container."""
    g = field.grid
    if isinstance(field, PlateField):
        n_z, components = 0, 1
    else:
        n_z, components = g.n_z, field.components
    header = _HEADER.pack(g.n_t, g.n_x, n_z, components, 1 if field.real else 0)
    memory = field.coeffs.reshape((components, n_z + 1, g.n_t, g.n_x, g.n_x))
    # the one copy, in file order; (re, im) pairs are the bytes of "<c16"
    payload = np.empty((g.n_t, g.n_x, g.n_x, n_z + 1, components), dtype="<c16")
    payload[...] = memory.transpose(2, 3, 4, 1, 0)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(payload.data)


def read_field(path, grid: TorusGrid | None = None,
               t_period: float = 2.0 * np.pi, l_period: float = 2.0 * np.pi):
    """Read a container; returns PlateField when the file stores N_z = 0.

    The header is untrusted.  A real-flag other than 0 or 1, a component
    count that is 0 (or not 1 on a plate), a payload of another length than
    the header declares, a NaN or infinite value, and a real-flagged payload
    that is not conjugate-symmetric are refused (ValueError naming the file).

    The binary format does not carry the periods, so pass `grid` (or the
    periods) when they differ from the 2*pi defaults.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"truncated header in {path}")
        n_t, n_x, n_z, components, real_flag = _HEADER.unpack(header)
        plate = n_z == 0
        if real_flag > 1:
            raise ValueError(f"real flag {real_flag} in {path} is neither 0 nor 1")
        # an empty component axis would let any sizes through to the grid
        if components < 1 or (plate and components != 1):
            raise ValueError(f"{path} declares {components} components"
                             f"{' on a plate' if plate else ''}")
        if grid is not None and ((grid.n_t, grid.n_x) != (n_t, n_x)
                                 or (not plate and grid.n_z != n_z)):
            raise ValueError(f"grid does not match the header of {path}")
        # size the read by the bytes actually present, never by the header
        need = 16 * n_t * n_x * n_x * (n_z + 1) * components
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != left:
            raise ValueError(f"payload of {path} holds {left} bytes; "
                             f"the header declares {need}")
        payload = np.frombuffer(fh.read(need), dtype="<f8")
    if not np.isfinite(payload).all():
        raise ValueError(f"non-finite coefficient in {path}")
    # one native copy of the complex view, in memory order, keeps every bit,
    # signed zeros too
    in_file = payload.view("<c16").reshape((n_t, n_x, n_x, n_z + 1, components))
    coeffs = in_file.transpose(4, 3, 0, 1, 2).astype(complex, order="C")
    del payload, in_file  # the file's bytes go before the symmetry check
    shape = (n_t, n_x, n_x) if plate else (n_z + 1, n_t, n_x, n_x)
    if components > 1:
        shape = (components,) + shape
    coeffs = coeffs.reshape(shape)
    if real_flag and not is_conjugate_symmetric(coeffs):
        raise ValueError(f"{path} is flagged real, but its coefficients "
                         "are not conjugate-symmetric")
    if grid is None:
        grid = TorusGrid(n_t, n_x, n_z if not plate else 4, t_period, l_period)
    if plate:
        return PlateField(grid, coeffs, bool(real_flag))
    return SpectralField(grid, coeffs, components, bool(real_flag))
