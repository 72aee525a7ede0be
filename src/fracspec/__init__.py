"""fracspec: fractional spectral analysis of signals on Cartesian product graphs.

The package builds unitary fractional Fourier operators from graph adjacency
eigenbases and from the commuting-matrix DFRFT, couples heterogeneous temporal
bases along the unitary geodesic, applies the resulting separable transforms
to time-vertex signals, and learns Wiener-type diagonal spectral filters (and
the fractional orders themselves) by gradient descent. A seeded benchmark
harness and a property-verification suite sit on top.
"""

from . import coupling, errors, graphs, harness, operators, properties, transforms, wiener
from .coupling import *
from .errors import *
from .graphs import *
from .harness import *
from .operators import *
from .properties import *
from .transforms import *
from .wiener import *

__version__ = "0.1.0"

__all__ = [name for module in (coupling, errors, graphs, harness, operators, properties, transforms,
                               wiener) for name in module.__all__]
