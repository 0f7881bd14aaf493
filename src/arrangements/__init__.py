"""Exact invariants of central rational hyperplane arrangements.

Intersection lattices, characteristic polynomials and chamber counts;
deconing and Ziegler restrictions; logarithmic derivation modules,
multiarrangement exponents and freeness certificates; the b- versus
sigma-coefficient comparison with its chamber-count bound; and independent
oracles (finite-field point counts, deletion-restriction recursions,
brute-force Moebius) for cross-checking all of it.  Everything is computed
over the rationals with exact arithmetic.

The import block below, grouped by module, is the one listing of the
public names: `__all__` is every name it binds that is neither a submodule
nor underscore-prefixed.  A name that README or `demos/` uses stays public;
a helper that only the tests use lives in the tests.
"""

from types import ModuleType as _ModuleType

from .core import (
    AffineArrangement,
    CentralArrangement,
    Multiarrangement,
    canonicalize,
    essentialize,
    form_to_string,
    multiarrangement,
    simple_multiarrangement,
    var_names,
)
from .corpus import CORPUS, CorpusEntry
from .criteria import (
    ComparisonReport,
    TamenessTag,
    abe_yoshinaga_free_check,
    compare_coefficients,
    mca_check,
    tameness_classify,
    yoshinaga_3d,
)
from .derivations import (
    Exponents,
    FreenessVerdict,
    PolyVectorField,
    SigmaStatus,
    derivation_membership,
    derivation_space_dim,
    elementary_symmetric,
    find_free_basis,
    multi_char_poly_free,
    rank2_exponents,
    saito_check,
    sigma_coefficients,
    sigma_per_flat,
)
from .errors import (
    ArrangementError,
    BadPrime,
    DimensionMismatch,
    DuplicateHyperplane,
    EmptyMultiarrangement,
    FlatNotInLattice,
    InconsistentCounts,
    IndexOutOfRange,
    InputError,
    NonzeroRemainder,
    NotADerivation,
    TheoremViolation,
    WrongRank,
    ZeroForm,
)
from .fileio import (
    ArrangementInput,
    load_arrangement,
    loads_arrangement,
    parse_report,
    serialize_report,
)
from .lattice import (
    Flat,
    IntersectionLattice,
    chamber_count,
    char_poly,
    intersection_lattice,
    reduced_char_poly,
)
from .oracles import (
    PrimeWitness,
    char_poly_recursion,
    finite_field_char_poly,
    good_primes,
    minor_bound,
    moebius_bruteforce,
    point_count,
    region_count_recursion,
)
from .polynomials import IntPoly
from .restriction import (
    CoefficientTable,
    b_coefficients,
    decone,
    localize_and_essentialize,
    rho,
    ziegler_restriction,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
del _ModuleType
