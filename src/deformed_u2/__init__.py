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

from .angular import (
    AngularSpectrum,
    angular_eigenvalues,
    build_l0,
    certify_eigenvalues,
    exact_hints,
)
from .core import (
    CartesianState,
    FrequencyRatio,
    IrrepLabel,
    IrrepState,
    Level,
    cartesian_to_irrep,
    energy_of_cartesian,
    energy_of_irrep,
    enumerate_levels,
    irrep_members,
    irrep_to_cartesian,
)
from .exceptions import (
    DeformedU2Error,
    NonCoprimeError,
    NotDivisibleError,
    ShapeMismatchError,
    WrongRatioError,
)
from .oracle import oracle_compare
from .representation import (
    IrrepMatrices,
    VerificationReport,
    build_irrep,
    verify_algebra,
    w32_check,
    worst_residual,
)
from .structure import (
    CommutatorPolynomial,
    ParafermionicForm,
    StructureFunction,
    commutator_polynomial,
    parafermionic_decompose,
    u_constant,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AngularSpectrum",
    "CartesianState",
    "CommutatorPolynomial",
    "DeformedU2Error",
    "FrequencyRatio",
    "IrrepLabel",
    "IrrepMatrices",
    "IrrepState",
    "Level",
    "NonCoprimeError",
    "NotDivisibleError",
    "ParafermionicForm",
    "ShapeMismatchError",
    "StructureFunction",
    "VerificationReport",
    "WrongRatioError",
    "angular_eigenvalues",
    "build_irrep",
    "build_l0",
    "cartesian_to_irrep",
    "certify_eigenvalues",
    "commutator_polynomial",
    "energy_of_cartesian",
    "energy_of_irrep",
    "enumerate_levels",
    "exact_hints",
    "irrep_members",
    "irrep_to_cartesian",
    "oracle_compare",
    "parafermionic_decompose",
    "run_suite",
    "u_constant",
    "verify_algebra",
    "w32_check",
    "worst_residual",
]
