"""Spectral solver for a time-periodic viscous fluid layer coupled to a
damped elastic plate, with validation oracles and a batch CLI.

The fluid occupies a slab over a lateral torus; its bottom face is a
vibrating plate driven by the fluid traction.  Everything is discretized
in frequency space: Fourier in time and the lateral directions, Chebyshev
collocation across the layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# the names callers import from the package root, with their home modules;
# every other name is imported from its home module.  Each loads on first
# use (PEP 562), so importing the package loads no module and no numpy.
_HOMES = {
    "TorusGrid": "grid",
    "boundedness_scan": "halfspace",
    "read_field": "io",
    "write_field": "io",
    "x_norm": "norms",
    "make_manufactured": "oracles",
}


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)
