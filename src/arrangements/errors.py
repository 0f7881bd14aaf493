"""Exception types raised by the library.

Every failure mode that callers are expected to handle gets its own class;
they all derive from ArrangementError so blanket handling stays possible.
"""


class ArrangementError(Exception):
    """Base class for all library errors."""


class ZeroForm(ArrangementError):
    """A defining linear form was the zero vector."""


class DuplicateHyperplane(ArrangementError):
    """Two input forms define the same hyperplane."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(
            f"forms at positions {first} and {second} define the same hyperplane"
        )


class DimensionMismatch(ArrangementError):
    """A vector or derivation does not match the ambient dimension."""


class IndexOutOfRange(ArrangementError):
    """A hyperplane index is outside the arrangement."""


class FlatNotInLattice(ArrangementError):
    """A flat does not belong to the intersection lattice at hand."""


class NonzeroRemainder(ArrangementError):
    """chi(A,t) of a central arrangement failed to be divisible by t-1.

    An arrangement with no hyperplanes raises it, since chi = t**dim (as
    `charpoly --reduced` does); on any other input it signals an internal
    bug.
    """


class EmptyMultiarrangement(ArrangementError):
    """An operation needs at least one hyperplane of positive multiplicity."""


class NotADerivation(ArrangementError):
    """A claimed basis element is not a logarithmic derivation."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"basis element {index} fails the divisibility conditions")


class WrongRank(ArrangementError):
    """The arrangement does not have the rank required by a criterion."""


class TheoremViolation(ArrangementError):
    """A theorem the library relies on failed.

    Examples: an exact sigma coefficient exceeding its b counterpart on tame
    input, a rank-2 multiarrangement that is not free, or two freeness
    criteria that disagree.  The mathematics rules all of these out, so
    raising it means the implementation has a bug somewhere.
    """


class InputError(ArrangementError):
    """An arrangement file or JSON document is malformed.

    The message names the offending field (and the line for syntax errors).
    """


class BadPrime(ArrangementError):
    """A prime fails the bad-prime guard for finite-field point counting."""


class InconsistentCounts(ArrangementError):
    """Finite-field point counts do not fit a single integer polynomial."""
