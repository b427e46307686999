"""Coefficient container files.

Binary layout: magic "PLFSPEC1", then little-endian u32 fields N_t, N_x, N_z,
components, real-flag, then float64 (re, im) pairs in row-major
(k, xi1, xi2, node, component) order with k and xi in increasing signed
order.  Plate fields are stored with N_z = 0 (a single node layer), which is
unambiguous because slab grids require N_z >= 4.

The JSON mirror additionally records the periods, so it is the
self-describing variant for small fields.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .fields import PlateField, SpectralField
from .grid import TorusGrid

MAGIC = b"PLFSPEC1"
_HEADER = struct.Struct("<5I")


def _element_count(n_t: int, n_x: int, n_z: int, components: int) -> int:
    """Coefficient count a header declares; rejects an empty component axis,
    which would otherwise let any sizes through to the grid."""
    if components < 1:
        raise ValueError(f"header declares {components} components")
    return n_t * n_x * n_x * (n_z + 1) * components


def write_field(path, field) -> None:
    """Write a SpectralField or PlateField to the binary container."""
    plate = isinstance(field, PlateField)
    g = field.grid
    if plate:
        coeffs = field.coeffs[..., None, None]
        n_z, components = 0, 1
    else:
        coeffs = field.coeffs if field.components > 1 else field.coeffs[..., None]
        n_z, components = g.n_z, field.components
    header = _HEADER.pack(g.n_t, g.n_x, n_z, components, 1 if field.real else 0)
    flat = np.ascontiguousarray(coeffs, dtype=complex).reshape(-1)
    payload = np.empty(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(payload.tobytes())


def read_field(path, grid: TorusGrid | None = None,
               t_period: float = 2.0 * np.pi, l_period: float = 2.0 * np.pi):
    """Read a container; returns PlateField when the file stores N_z = 0.

    A payload with a NaN or infinite value is refused (ValueError).

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
        if grid is not None and ((grid.n_t, grid.n_x) != (n_t, n_x)
                                 or (not plate and grid.n_z != n_z)):
            raise ValueError("grid does not match file header")
        # the header is untrusted: size the read by the bytes actually present
        need = 16 * _element_count(n_t, n_x, n_z, components)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise ValueError(f"truncated payload in {path}: the header needs "
                             f"{need} bytes, {left} remain")
        payload = np.frombuffer(fh.read(need), dtype="<f8")
    if not np.isfinite(payload).all():
        raise ValueError(f"non-finite coefficient in {path}")
    flat = payload[0::2] + 1j * payload[1::2]
    if grid is None:
        grid = TorusGrid(n_t, n_x, n_z if not plate else 4, t_period, l_period)
    if plate:
        return PlateField(grid, flat.reshape(n_t, n_x, n_x), bool(real_flag))
    shape = (n_t, n_x, n_x, n_z + 1)
    if components > 1:
        shape += (components,)
    coeffs = flat.reshape(shape)
    return SpectralField(grid, coeffs, components, bool(real_flag))


def write_field_json(path, field) -> None:
    """Human-readable mirror with grid metadata; intended for small fields."""
    plate = isinstance(field, PlateField)
    g = field.grid
    coeffs = field.coeffs
    doc = {
        "kind": "plate" if plate else "slab",
        "n_t": g.n_t,
        "n_x": g.n_x,
        "n_z": 0 if plate else g.n_z,
        "components": 1 if plate else field.components,
        "real": bool(field.real),
        "t_period": g.t_period,
        "l_period": g.l_period,
        "re": np.real(coeffs).reshape(-1).tolist(),
        "im": np.imag(coeffs).reshape(-1).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_field_json(path, grid: TorusGrid | None = None):
    with open(path) as fh:
        doc = json.load(fh)
    plate = doc["kind"] == "plate"
    need = _element_count(doc["n_t"], doc["n_x"], 0 if plate else doc["n_z"],
                          doc["components"])
    if len(doc["re"]) != need or len(doc["im"]) != need:
        raise ValueError(f"{path} holds {len(doc['re'])}/{len(doc['im'])} "
                         f"real/imaginary parts; the header declares {need}")
    flat = np.asarray(doc["re"], float) + 1j * np.asarray(doc["im"], float)
    if grid is None:
        grid = TorusGrid(doc["n_t"], doc["n_x"], doc["n_z"] if not plate else 4,
                         doc["t_period"], doc["l_period"])
    if plate:
        return PlateField(grid, flat.reshape(doc["n_t"], doc["n_x"], doc["n_x"]),
                          doc["real"])
    shape = (doc["n_t"], doc["n_x"], doc["n_x"], doc["n_z"] + 1)
    if doc["components"] > 1:
        shape += (doc["components"],)
    return SpectralField(grid, flat.reshape(shape), doc["components"], doc["real"])
