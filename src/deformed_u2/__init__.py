"""Deformed u(2) symmetry algebra of the 2D anisotropic quantum oscillator.

For a coprime frequency ratio m:n the oscillator's symmetry algebra is a
deformation of u(2) whose ladder commutator closes on a degree m+n-1
polynomial in S0.  This package constructs its spectra and irreducible
representations exactly, realizes the generators as banded matrices, builds the
"angular momentum" eigenbases that label degenerate states, and verifies
every defining identity both in exact rational arithmetic (where possible)
and as floating-point residuals, and checks the bands exactly against an
independent Fock-space oracle.
"""

from . import angular, core, exceptions, oracle, representation, structure
from .angular import *
from .core import *
from .exceptions import *
from .oracle import *
from .representation import *
from .structure import *
from .suite import run_suite

__version__ = "0.1.0"

# the public names are each layer's __all__; of `suite` only run_suite is public here
__all__ = ["__version__", "run_suite"]
__all__ += angular.__all__
__all__ += core.__all__
__all__ += exceptions.__all__
__all__ += oracle.__all__
__all__ += representation.__all__
__all__ += structure.__all__
