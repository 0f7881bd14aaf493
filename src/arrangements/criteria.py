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

Without a degree bound, `compare_coefficients` first tries to prove A free
from L(A) alone, by Abe's division theorem (T. Abe, Divisionally free
arrangements of hyperplanes, Invent. Math. 204 (2016)):

* Division theorem: if some H in A has chi0(A^H, t) dividing chi0(A, t),
  then A is free if and only if A^H is free.
* Definition: an essential A of rank l is divisionally free when there is
  a flag V = X_0 > X_1 > ... > X_{l-2} with X_i in L_i(A) and
  chi0(A^{X_i}, t) dividing chi0(A^{X_{i-1}}, t) for i = 1, ..., l - 2.  A
  non-essential A is divisionally free when its essentialization is: both
  have the lattice L(A), and their chi differ by a power of t, so for A of
  rank r the flag ends at X_{r-2}.  A^{X_{r-2}} has rank 2, hence is
  free, and the division theorem applied down the flag makes A free.  The
  flags are searched on restrictions, with no scan of L(A): each A^Y is
  one restriction step from A^X, and chi(A^Y) is summed over the lattice's
  walk of A^Y, whose Moebius values are mu(Y, .) on [Y, top].
* Terao (1981): a free A with exponents (d_1, ..., d_l) has chi(A, t) =
  prod (t - d_i).  So chi0 of a free A splits over the nonnegative
  integers, and an A whose chi0 does not is not tried.
* Ziegler (1989): for a free A with exponents (1, d_2, ..., d_l), the
  Ziegler restriction A'' is free with exponents (d_2, ..., d_l).  The
  nonzero ones, the exponents of the essentialization of A'', are the
  nonzero roots of chi0(A).
* For a flat X of L(A'') and the flat X' of L(A) that is the same subspace
  of H0, (A'')_X is the Ziegler restriction of the localization A_{X'},
  which is free when A is (Orlik-Terao, Arrangements of Hyperplanes, 1992,
  Thm. 4.37).  Its exponents are (1, d_2, ..., d_k) and zeros, and
  mu(X') = (-1)**k d_2 ... d_k, so the exponent product of (A'')_X, the
  per-flat sigma of X, is |mu(X')|, which is the b of X (restriction).
"""

from __future__ import annotations

from math import prod

from .core import Multiarrangement, _Frozen, _Value, essentialize, simple_multiarrangement
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
from .lattice import _chi, _keys, _restrict, hyperplane_rows, reduced_char_poly
from .polynomials import IntPoly
from .restriction import _b_table, _b_vector, _check_index, ziegler_restriction

TAME = "Tame"


class TamenessTag(_Frozen):
    """Tameness classification: status "Tame" or "Unknown", with the reason
    recorded ("rank<=3", "verified-free" or "user-asserted")."""

    _fields = ("status", "reason")

    def __init__(self, status, reason=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reason", reason)

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


class ComparisonReport(_Value):
    """Everything compare_coefficients establishes about one (A, h0) pair.

    It stores what compare measured; the rest is read off table.b and
    table.sigma: inequality holds per index True, False or None (sigma_i
    unresolved), chamber_bound is (sum of b, sum of sigma or None), and mca
    (sum b = sum sigma) is True, False or None.
    """

    _fields = ("n_hyperplanes", "h0", "table", "tame_arrangement", "tame_restriction",
               "degree_bound")

    def __init__(self, n_hyperplanes, h0, table, tame_arrangement, tame_restriction,
                 degree_bound=None):
        self.n_hyperplanes = n_hyperplanes
        self.h0 = h0
        self.table = table
        self.tame_arrangement = tame_arrangement
        self.tame_restriction = tame_restriction
        self.degree_bound = degree_bound

    @property
    def dim(self):
        return len(self.table.b)

    @property
    def all_sigma_exact(self):
        return all(s.exact for s in self.table.sigma)

    @property
    def inequality(self):
        table = self.table
        return tuple(b >= s.value if s.exact else None for b, s in zip(table.b, table.sigma))

    @property
    def chamber_bound(self):
        sigma = [s.value for s in self.table.sigma]
        return sum(self.table.b), (None if None in sigma else sum(sigma))

    @property
    def mca(self):
        total_b, total_sigma = self.chamber_bound
        return None if total_sigma is None else total_b == total_sigma


def compare_coefficients(arr, h0, degree_bound=None, assert_tame=False):
    """Assemble the b- and sigma-vectors and the per-flat decomposition,
    with the tameness tags of A and A''.

    Raises TheoremViolation when both tameness tags are Tame yet some exact
    sigma_i exceeds b_i: the theorem rules that out, so it can only mean an
    implementation bug.
    """
    ell = arr.dim
    restriction = ziegler_restriction(arr, h0)
    table, chi0 = _b_table(arr, h0, restriction)
    roots = chi0.nonnegative_roots()
    essential = essentialize(restriction)[0]
    if degree_bound is None and roots is not None and _divisionally_free(arr, chi0):
        # A is free: the global verdict and the per-flat sigma values come
        # from L(A) as the module docstring says, with no search
        top = FreenessVerdict(FREE, exponents=tuple(r for r in roots if r), essential=essential)
        local = {x: cell["b"] for x, cell in table.per_flat.items()}
    else:
        # a free A'' has the roots of chi0 as its exponents (Terao 1981;
        # Ziegler 1989), so its search tries those degrees first; the sweep
        # reads the center's product off that verdict
        top = _bounded_search(essential, 0, degree_bound, roots)
        local = _localization_sweep(restriction, top, degree_bound, tuple(table.per_flat))
    # the essentialization of A'' has the rank of A'' as its dimension;
    # A's rank is one more
    rank_r = essential.dim
    sig = _sigma_column(essential, top, local)
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
    # The exponents of A are (1, d_2, ..., d_r) for those of A'' (zeros
    # for the center aside), so a bound admits both or neither: when the
    # search of A'' is Unknown, so is that of A.
    tame_a = _tameness_tag(rank_r + 1, _free_by_restriction(top, table.b), assert_tame)
    tame_r = _tameness_tag(rank_r, top.is_free, assert_tame)
    report = ComparisonReport(arr.n_hyperplanes, h0, table, tame_a, tame_r, degree_bound)
    if tame_a.is_tame and tame_r.is_tame and False in report.inequality:
        i = report.inequality.index(False)
        raise TheoremViolation(
            f"sigma_{i} = {sigma[i].value} exceeds b_{i} = {table.b[i]} "
            "although both tameness tags are Tame"
        )
    return report


def _divisionally_free(arr, chi0):
    """Whether A is divisionally free, read off L(A) and chi0 alone (module
    docstring): some chain of covers V = X_0 < X_1 < ... < X_k in L(A), with
    rank(A) - k <= 2, has chi0(A^{X_i}) dividing chi0(A^{X_{i-1}}) at each
    step; chi0(A^Y) divides chi0(A^X) exactly when chi(A^Y) divides
    chi(A^X), both being (t - 1) chi0.  The covers Y of X are the keys of
    A^X, whose bits added to X's mask give Y's.  Each flat's chi, and
    whether a chain goes on from it, is computed once, by mask; an A^Y of
    rank 2 with n lines has chi = t**(dim Y - 2) (t**2 - n t + n - 1), with
    no walk."""
    dim, rank = arr.dim, arr.rank()
    chis = {0: chi0 * IntPoly((-1, 1))}
    chains = {}

    def chain_from(x, codim, restricted):
        if rank - codim <= 2:
            return True
        if x not in chains:
            chains[x] = False
            for row, bits in restricted.items():
                y, above = x | bits, _restrict(restricted, row)
                if y not in chis:
                    if rank - codim == 3:  # A^Y has rank 2, its keys are its lines
                        n = len(above)
                        chis[y] = IntPoly([0] * (dim - codim - 3) + [n - 1, -n, 1])
                    else:  # mu(Y, Z) t**dim(Z) summed over [Y, top]
                        chis[y] = _chi(dim - codim - 1, above)
                if not chis[x].divmod_monic(chis[y])[1].coeffs and chain_from(y, codim + 1, above):
                    chains[x] = True
                    break
        return chains[x]

    return chain_from(0, 0, _keys(hyperplane_rows(arr)))


def mca_check(arr, h0, degree_bound=None):
    """True iff the deconing has exactly as many chambers as the sigma side
    allows (equality at t = -1); None while any sigma stays unresolved."""
    return compare_coefficients(arr, h0, degree_bound).mca


def _free_by_restriction(verdict, b):
    """The rule of the module docstring: A'' (verdict) is Free, b_2 = sigma_2."""
    b2 = b[2] if len(b) > 2 else 0
    return verdict.is_free and b2 == elementary_symmetric(verdict.exponents, 2)


def _restriction_verdicts(arr, h0, degree_bound=None):
    """{"yoshinaga": ..., "abe-yoshinaga": ...} from one search of the
    Ziegler restriction A'' onto h0, yoshinaga only when arr is essential of
    rank 3; b of A is read from one L(A) only when A'' is Free."""
    verdict = _bounded_search(*essentialize(ziegler_restriction(arr, h0)), degree_bound)
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
    if arr.dim != 3 or verdict.essential.dim != 2:  # A'' has rank one less than A
        del out["yoshinaga"]
    return out


def yoshinaga_3d(arr, h0):
    """Rank-3 freeness criterion: free iff the deconing's chamber count
    equals (1 + d1)(1 + d2) for the Ziegler exponents (d1, d2).  Definitive:
    rank-2 restrictions always resolve and 3-arrangements are tame."""
    _check_index(arr, h0)
    if arr.dim != 3 or arr.rank() != 3:
        raise WrongRank("criterion applies to essential arrangements of rank 3")
    return _restriction_verdicts(arr, h0)["yoshinaga"]


def abe_yoshinaga_free_check(arr, h0, degree_bound=None):
    """Freeness via the restriction: A is free iff the Ziegler restriction
    is free and b_2 = sigma_2; Unknown exactly when the restriction search
    is Unknown, which a bound can cause only when A'' has rank 3 or more."""
    return _restriction_verdicts(arr, h0, degree_bound)["abe-yoshinaga"]
