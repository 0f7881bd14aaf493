"""Freeness criteria and the coefficient comparison b_i versus sigma_i.

The b-side comes from the reduced characteristic polynomial of the
arrangement, the sigma-side from the Ziegler restriction's derivation
module.  On tame inputs b_i >= sigma_i >= 0 holds for every i, with
equality of the sums exactly when the deconing has the minimal possible
chamber count.

One rule decides freeness (Abe-Yoshinaga; Ziegler for "only if"): A is
free exactly when its Ziegler restriction A'' is free with b_2 = sigma_2,
the second elementary symmetric function of the exponents of A'' (b_2 = 0
below dimension 3).  At rank 3 it is Yoshinaga's criterion, "the deconing
has (1 + d1)(1 + d2) chambers": sum b = 1 + |m''| + b_2 and (1 + d1)(1 + d2)
= 1 + |m''| + sigma_2.  `_free_by_restriction` states the rule, and A'' is
searched under the degree-bound rule of `derivations._bounded_search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .core import Multiarrangement, simple_multiarrangement
from .derivations import (
    FREE,
    NOT_FREE,
    UNKNOWN,
    FreenessVerdict,
    SigmaStatus,
    _bounded_search,
    _level_sums,
    _localization_sweep,
    _sigma_column,
    elementary_symmetric,
    find_free_basis,
)
from .errors import TheoremViolation, WrongRank
from .lattice import intersection_lattice, reduced_char_poly
from .restriction import CoefficientTable, _b_table, _b_vector, _check_index, ziegler_restriction

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
    table, restriction_flats = _b_table(chi0, lattice, h0, restriction)
    # one sweep: the global verdict, sigma and the per-flat sigma values.
    # The center localizes to the essentialization of A'', whose dimension
    # is the rank of A''; A's rank is one more.
    top, local = _localization_sweep(restriction, degree_bound, restriction_flats)
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
    # The exponents of A are (1, d_2, ..., d_r) for those of A'' (zeros
    # for the center aside), so a bound admits both or neither: when the
    # search of A'' is Unknown, so is that of A.
    tame_a = _tameness_tag(rank_r + 1, _free_by_restriction(top, table.b), assert_tame)
    tame_r = _tameness_tag(rank_r, top.is_free, assert_tame)
    if tame_a.is_tame and tame_r.is_tame and False in inequality:
        i = inequality.index(False)
        raise TheoremViolation(
            f"sigma_{i} = {sigma[i].value} exceeds b_{i} = {table.b[i]} "
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


def _free_by_restriction(verdict, b):
    """The rule of the module docstring: A'' (verdict) is Free, b_2 = sigma_2."""
    b2 = b[2] if len(b) > 2 else 0
    return verdict.is_free and b2 == elementary_symmetric(verdict.exponents, 2)


def _restriction_verdicts(arr, h0, degree_bound=None):
    """{"yoshinaga": ..., "abe-yoshinaga": ...} from one search of the
    Ziegler restriction A'' onto h0, yoshinaga only when arr is essential of
    rank 3; b of A is read from one L(A) only when A'' is Free."""
    if arr.dim < 2:
        raise WrongRank("criterion needs ambient dimension at least 2")
    rank = arr.rank()  # A'' has rank one less
    verdict = _bounded_search(ziegler_restriction(arr, h0), rank - 1, degree_bound)
    if verdict.is_unknown:
        return {"abe-yoshinaga": FreenessVerdict(UNKNOWN, bound=verdict.bound)}
    if verdict.is_not_free:
        witness = "Ziegler restriction is not free: " + verdict.witness
        return {"abe-yoshinaga": FreenessVerdict(NOT_FREE, witness=witness)}
    b = _b_vector(reduced_char_poly(arr), arr.dim)
    e = verdict.exponents
    if _free_by_restriction(verdict, b):
        # 1 and the exponents of A'', sorted: zeros from a center come first
        free = FreenessVerdict(FREE, exponents=tuple(sorted((1,) + e)))
        out = {"yoshinaga": free, "abe-yoshinaga": free}
    else:
        out = {
            "yoshinaga": f"deconing has {sum(b)} chambers, the minimum "
            + "".join(f"(1+{d})" for d in e)
            + f" = {prod(1 + d for d in e)} required for freeness",
            "abe-yoshinaga": f"restriction is free with exponents {e} but b_2 = "
            f"{b[2]} differs from sigma_2 = {elementary_symmetric(e, 2)}",
        }
        out = {m: FreenessVerdict(NOT_FREE, witness=w) for m, w in out.items()}
    if arr.dim != 3 or rank != 3:
        del out["yoshinaga"]
    return out


def yoshinaga_3d(arr, h0):
    """Rank-3 freeness criterion: free iff the deconing's chamber count
    equals (1 + d1)(1 + d2) for the Ziegler exponents (d1, d2).  Definitive:
    rank-2 restrictions always resolve and 3-arrangements are tame."""
    if arr.dim != 3 or arr.rank() != 3:
        raise WrongRank("criterion applies to essential arrangements of rank 3")
    return _restriction_verdicts(arr, h0)["yoshinaga"]


def abe_yoshinaga_free_check(arr, h0, degree_bound=None):
    """Freeness via the restriction: A is free iff the Ziegler restriction
    is free and b_2 = sigma_2; Unknown exactly when the restriction search
    is Unknown, which a bound can cause only when A'' has rank 3 or more."""
    return _restriction_verdicts(arr, h0, degree_bound)["abe-yoshinaga"]
