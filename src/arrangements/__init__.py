"""Exact invariants of central rational hyperplane arrangements.

Intersection lattices, characteristic polynomials and chamber counts;
deconing and Ziegler restrictions; logarithmic derivation modules,
multiarrangement exponents and freeness certificates; the b- versus
sigma-coefficient comparison with its chamber-count bound; and independent
oracles (finite-field point counts, deletion-restriction recursions,
brute-force Moebius) for cross-checking all of it.  Everything is computed
over the rationals with exact arithmetic.

The public names are those of `__all__`.  A name that README or `demos/`
uses stays public; a helper that only the tests use lives in the tests.
"""

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

__all__ = [
    "AffineArrangement",
    "ArrangementError",
    "ArrangementInput",
    "BadPrime",
    "CORPUS",
    "CentralArrangement",
    "CoefficientTable",
    "ComparisonReport",
    "CorpusEntry",
    "DimensionMismatch",
    "DuplicateHyperplane",
    "EmptyMultiarrangement",
    "Exponents",
    "Flat",
    "FlatNotInLattice",
    "FreenessVerdict",
    "InconsistentCounts",
    "IndexOutOfRange",
    "InputError",
    "IntersectionLattice",
    "IntPoly",
    "Multiarrangement",
    "NonzeroRemainder",
    "NotADerivation",
    "PolyVectorField",
    "PrimeWitness",
    "SigmaStatus",
    "TamenessTag",
    "TheoremViolation",
    "WrongRank",
    "ZeroForm",
    "abe_yoshinaga_free_check",
    "b_coefficients",
    "canonicalize",
    "chamber_count",
    "char_poly",
    "char_poly_recursion",
    "compare_coefficients",
    "decone",
    "derivation_membership",
    "derivation_space_dim",
    "elementary_symmetric",
    "essentialize",
    "find_free_basis",
    "finite_field_char_poly",
    "form_to_string",
    "good_primes",
    "intersection_lattice",
    "load_arrangement",
    "loads_arrangement",
    "localize_and_essentialize",
    "mca_check",
    "minor_bound",
    "moebius_bruteforce",
    "multi_char_poly_free",
    "multiarrangement",
    "parse_report",
    "point_count",
    "rank2_exponents",
    "reduced_char_poly",
    "region_count_recursion",
    "rho",
    "saito_check",
    "serialize_report",
    "sigma_coefficients",
    "sigma_per_flat",
    "simple_multiarrangement",
    "tameness_classify",
    "var_names",
    "yoshinaga_3d",
    "ziegler_restriction",
]
