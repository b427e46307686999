"""Spectral solver for a time-periodic viscous fluid layer coupled to a
damped elastic plate, with validation oracles and a batch CLI.

The fluid occupies a slab over a lateral torus; its bottom face is a
vibrating plate driven by the fluid traction.  Everything is discretized
in frequency space: Fourier in time and the lateral directions, Chebyshev
collocation across the layer.
"""

# the names callers import from the package root; every other name is
# imported from its home module
from .grid import TorusGrid
from .halfspace import boundedness_scan
from .io import read_field, write_field
from .norms import x_norm
from .oracles import make_manufactured

__version__ = "0.1.0"
