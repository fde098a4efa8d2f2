"""Degenerate Dirichlet forms on fractal-boundary domains.

Numerical companion toolkit for the Markov-uniqueness dichotomy of diffusions
whose generator degenerates like dist(x, boundary)^delta near a self-similar
boundary: geometry realization, graded grid fields, quadratic forms and
capacity estimates, Hardy quotients, and absorbed random walks.
"""

from .errors import *
from .simsys import *
from .geomfield import *
from .forms import *
from .stochastic import *
from .records import *

__version__ = "0.1.0"
