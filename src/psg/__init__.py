"""Pseudo-spectral solver for the parabolic sine-Gordon and Allen-Cahn
equations on 1D/2D periodic tori, with energy-dissipation and
maximum-principle monitors and a 1D steady-state toolkit."""

# The package's public names are its modules' __all__, each declared there once.
from .grid import *
from .models import *
from .schemes import *
from .steady_states import *
from .diagnostics import *
from .config import *
from .io import *

__version__ = "0.1.0"  # a literal: pyproject.toml's build reads it without importing numpy
