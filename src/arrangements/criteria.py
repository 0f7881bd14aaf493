"""Freeness criteria and the coefficient comparison b_i versus sigma_i.

The b-side comes from the reduced characteristic polynomial of the
arrangement, the sigma-side from the Ziegler restriction's derivation
module.  On tame inputs b_i >= sigma_i >= 0 holds for every i, with
equality of the sums exactly when the deconing has the minimal possible
chamber count; at rank 3 that equality characterizes freeness, and at any
rank freeness is equivalent to the restriction being free with
b_2 = sigma_2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Multiarrangement, simple_multiarrangement
from .derivations import (
    FREE,
    NOT_FREE,
    UNKNOWN,
    FreenessVerdict,
    SigmaStatus,
    _level_sums,
    _localization_sweep,
    _sigma_column,
    elementary_symmetric,
    find_free_basis,
    rank2_exponents,
)
from .errors import TheoremViolation, WrongRank
from .lattice import intersection_lattice, reduced_char_poly
from .restriction import CoefficientTable, _b_table, _check_index, ziegler_restriction

TAME = "Tame"


@dataclass(frozen=True)
class TamenessTag:
    """Tameness classification: status "Tame" or "Unknown", with the reason
    recorded ("rank<=3", "verified-free" or "user-asserted")."""

    status: str
    reason: str = None

    @property
    def is_tame(self):
        return self.status == TAME


def _tameness_tag(rank, free, user_asserted):
    if rank <= 3:
        return TamenessTag(TAME, "rank<=3")
    if free:
        return TamenessTag(TAME, "verified-free")
    if user_asserted:
        return TamenessTag(TAME, "user-asserted")
    return TamenessTag("Unknown")


def tameness_classify(arr, degree_bound=None, user_asserted=False):
    """Tame when the essential rank is at most 3 or a free basis is verified;
    a user assertion is honored (and recorded) only as a fallback."""
    multi = arr if isinstance(arr, Multiarrangement) else simple_multiarrangement(arr)
    rank = multi.rank()
    free = rank > 3 and find_free_basis(multi, degree_bound).is_free
    return _tameness_tag(rank, free, user_asserted)


@dataclass
class ComparisonReport:
    """Everything compare_coefficients establishes about one (A, h0) pair."""

    dim: int
    n_hyperplanes: int
    h0: int
    table: CoefficientTable
    tame_arrangement: TamenessTag
    tame_restriction: TamenessTag
    inequality: tuple  # per index: True | False | None (None = sigma unresolved)
    chamber_bound: tuple  # (sum of b, sum of sigma or None)
    mca: object  # True | False | None
    degree_bound: int = None

    @property
    def all_sigma_exact(self):
        return all(s.exact for s in self.table.sigma)


def compare_coefficients(arr, h0, degree_bound=None, assert_tame=False):
    """Assemble the b- and sigma-vectors, the per-flat decomposition, the
    per-index inequality record and the chamber-count bound.

    Raises TheoremViolation when both tameness tags are Tame yet some exact
    sigma_i exceeds b_i: the theorem rules that out, so it can only mean an
    implementation bug.
    """
    ell = arr.dim
    if ell < 2:
        raise WrongRank("coefficient comparison needs ambient dimension at least 2")
    lattice = intersection_lattice(arr)
    # an empty arrangement fails on chi0 (NonzeroRemainder) before the
    # index check of ziegler_restriction could
    chi0 = reduced_char_poly(arr, lattice)
    restriction = ziegler_restriction(arr, h0)
    table, restriction_lattice = _b_table(chi0, lattice, h0, restriction)
    # one sweep: the global verdict, sigma and the per-flat sigma values.
    # The center localizes to the essentialization of A'', whose dimension
    # is the rank of A''; A's rank is one more.
    top, local = _localization_sweep(restriction, degree_bound, restriction_lattice)
    rank_r = top.essential.dim
    sig = _sigma_column(top.essential, top, local)
    for flat, entry in table.per_flat.items():
        entry["sigma"] = local.get(flat)
    if top.is_free:
        # local-to-global: the level sums of the local products must
        # reproduce the elementary symmetric functions of the exponents
        for k, total in enumerate(_level_sums(local, rank_r)):
            if total is not None and total != sig[k].value:
                raise TheoremViolation(
                    f"local sigma_{k} contributions disagree with the "
                    "global coefficient"
                )
    sigma = (tuple(sig) + (SigmaStatus(0, "definition"),) * ell)[:ell]
    table.sigma = sigma
    inequality = tuple(
        (table.b[i] >= s.value) if s.exact else None for i, s in enumerate(sigma)
    )
    sum_b = sum(table.b)
    sum_sigma = (
        sum(s.value for s in sigma) if all(s.exact for s in sigma) else None
    )
    # A is free exactly when A'' is free with b_2 = sigma_2
    # (Abe-Yoshinaga).  The exponents of A are (1, d_2, ..., d_r) for those
    # of A'' (zeros for the center aside), so a bound admits both or
    # neither: when the search of A'' is Unknown, so is that of A.
    rank_a = rank_r + 1
    free_a = top.is_free and rank_a > 3 and table.b[2] == sigma[2].value
    tame_a = _tameness_tag(rank_a, free_a, assert_tame)
    tame_r = _tameness_tag(rank_r, top.is_free, assert_tame)
    if tame_a.is_tame and tame_r.is_tame:
        for i, s in enumerate(sigma):
            if s.exact and s.value > table.b[i]:
                raise TheoremViolation(
                    f"sigma_{i} = {s.value} exceeds b_{i} = {table.b[i]} "
                    "although both tameness tags are Tame"
                )
    mca = (sum_b == sum_sigma) if sum_sigma is not None else None
    return ComparisonReport(
        dim=ell,
        n_hyperplanes=arr.n_hyperplanes,
        h0=h0,
        table=table,
        tame_arrangement=tame_a,
        tame_restriction=tame_r,
        inequality=inequality,
        chamber_bound=(sum_b, sum_sigma),
        mca=mca,
        degree_bound=degree_bound,
    )


def mca_check(arr, h0, degree_bound=None):
    """True iff the deconing has exactly as many chambers as the sigma side
    allows (equality at t = -1); None while any sigma stays unresolved."""
    if arr.dim < 2:
        raise WrongRank("minimal-chamber check needs ambient dimension at least 2")
    _check_index(arr, h0)
    return compare_coefficients(arr, h0, degree_bound).mca


def yoshinaga_3d(arr, h0, lattice=None, restriction=None):
    """Rank-3 freeness criterion: free iff the deconing's chamber count
    equals (1 + d1)(1 + d2) for the Ziegler exponents (d1, d2).  Definitive:
    rank-2 restrictions always resolve and 3-arrangements are tame.  Pass
    the intersection lattice of arr and its Ziegler restriction onto h0 to
    reuse them."""
    if arr.dim != 3 or arr.rank() != 3:
        raise WrongRank("criterion applies to essential arrangements of rank 3")
    if restriction is None:
        restriction = ziegler_restriction(arr, h0)
    d1, d2 = rank2_exponents(restriction)
    chambers = reduced_char_poly(arr, lattice)(-1)  # (-1)**(l-1) chi0(-1)
    expected = (1 + d1) * (1 + d2)
    if chambers == expected:
        return FreenessVerdict(FREE, exponents=(1, d1, d2))
    return FreenessVerdict(
        NOT_FREE,
        witness=f"deconing has {chambers} chambers, the minimum "
        f"(1+{d1})(1+{d2}) = {expected} required for freeness",
    )


def abe_yoshinaga_free_check(
    arr, h0, degree_bound=None, lattice=None, restriction=None
):
    """Freeness via the restriction: A is free iff the Ziegler restriction
    is free and b_2 = sigma_2; Unknown exactly when the restriction search
    is Unknown.  Pass the intersection lattice of arr (read only when the
    restriction is free) and its Ziegler restriction onto h0 to reuse them."""
    if arr.dim < 2:
        raise WrongRank("criterion needs ambient dimension at least 2")
    if restriction is None:
        restriction = ziegler_restriction(arr, h0)
    verdict = find_free_basis(restriction, degree_bound)
    if verdict.is_unknown:
        return FreenessVerdict(UNKNOWN, bound=verdict.bound)
    if verdict.is_not_free:
        return FreenessVerdict(
            NOT_FREE, witness="Ziegler restriction is not free: " + verdict.witness
        )
    chi0 = reduced_char_poly(arr, lattice)
    b2 = abs(chi0.coefficient(arr.dim - 3)) if arr.dim >= 3 else 0
    sigma2 = elementary_symmetric(verdict.exponents, 2)
    if b2 == sigma2:
        return FreenessVerdict(FREE, exponents=(1,) + tuple(verdict.exponents))
    return FreenessVerdict(
        NOT_FREE,
        witness=f"restriction is free with exponents {tuple(verdict.exponents)} "
        f"but b_2 = {b2} differs from sigma_2 = {sigma2}",
    )
