"""Logarithmic derivation modules of multiarrangements.

D(A,m) is the module of polynomial vector fields theta with alpha_H**m(H)
dividing theta(alpha_H) for every hyperplane.  Everything here is exact:
graded pieces are kernels of sparse integer constraint matrices in the
monomial basis, freeness searches select true minimal generators degree by
degree (a generator is new exactly when it falls outside the
polynomial-ring span of the earlier ones, by the graded Nakayama count),
and verdicts are certified either by the Saito determinant identity or by
a Hilbert-series contradiction, so Free and NotFree are both proofs.
The constraint rows of a graded piece come from one substitution table
per hyperplane (`polynomials.residue_table`), and the Saito determinant
is decided at one integer point (`saito_check`).

A search of the essentialization takes one of three routes.  Below rank 3
the exponents come from theorems (`_exponents_by_theorem`): () at rank 0,
(|m|) at rank 1, and at rank 2, where D(A,m) is free with d1 <= d2,
d1 + d2 = |m| (Saito; Ziegler 1989), (1, n - 1) for n lines of
multiplicity one, (|m| - m_H, m_H) when some line has m_H >= |m|/2
(Wakefield-Yuzvinsky, Trans. AMS 359, 2007), (floor(|m|/2), ceil(|m|/2))
for three lines otherwise (Wakamiko, Tokyo J. Math. 30, 2007), else the
probe rule: the Hilbert function below d2 is max(0, d - d1 + 1), and the
probe degree ceil(|m|/2) - 1 lies below d2, so that one kernel's dimension
fixes d1.  Callers that read no basis (`_bounded_search`) stop there; the
localization sweep reads the closed forms off a flat's multiplicities.

A search that holds its exponents, those or from rank 3 on candidates the
caller passes, computes kernels at those degrees alone
(`_targeted_generators`), and Saito's criterion is the proof: a free
D(A,m) has no minimal generator at a skipped degree, and at the others the
scan would see the same kernels and earlier generators, so the basis is
the full scan's.  Below rank 3 it is Unknown exactly when d2 lies above
the bound (rank 1 has none), and a failure is a TheoremViolation.  From
rank 3 on the candidates are the roots of chi_0(A) for the Ziegler
restriction A'' (a free A has chi_0(A,t) = prod (t - d_i) over the
exponents of A''; Terao 1981, Ziegler 1989) or exponents another
criterion proved, and any outcome but a certified basis falls back to the
full scan, reusing the kernels.  The full scan stops NotFree once the
graded dimensions fit no free module (`_hilbert_exponents`).

The span test runs in coordinates on D(A,m)_d itself.  The canonical
kernel vector of a free column f is supported on the pivot columns before
f and on f, where it is nonzero, so restricting a vector of D(A,m)_d to
the free columns is an isomorphism onto Q^(free columns) that sends kernel
vector k to a positive multiple of the unit vector e_k.  Every shifted
generator x**a * g lies in D(A,m)_d, so its restriction is a nonzero row,
and kernel vector k is new exactly when no vector in the span of those
rows has its last nonzero entry at k.  With the columns reversed, those
entries are the pivot columns of the span's RREF, so the new generators
are read off the free columns of one certified kernel (`nullspace`) of
the restricted rows, and they are the ones a test on the full rows picks.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from operator import add

from .core import _Frozen, _Value, _count, essentialize, var_names
from .errors import (
    DimensionMismatch,
    EmptyMultiarrangement,
    NotADerivation,
    TheoremViolation,
    WrongRank,
)
from .lattice import intersection_lattice
from .linalg import det, nullspace
from .polynomials import (
    IntPoly,
    mp_add_inplace,
    mp_divisible_by_linear_power,
    mp_format,
    monomial_count,
    monomials,
    residue_table,
)
from .restriction import localize_and_essentialize

FREE = "Free"
NOT_FREE = "NotFree"
UNKNOWN = "Unknown"


class PolyVectorField:
    """Homogeneous vector field sum_i f_i d/dx_i with polynomial coefficients.

    components[i] is the sparse polynomial f_i as {exponent tuple: value};
    all monomials across all components must share one total degree.  The
    zero field has degree -1.
    """

    __slots__ = ("components", "degree")

    def __init__(self, components):
        comps = []
        degrees = set()
        for c in components:
            clean = {tuple(e): v for e, v in c.items() if v != 0}
            comps.append(clean)
            degrees.update(sum(e) for e in clean)
        if len(degrees) > 1:
            raise ValueError("components are not homogeneous of a common degree")
        self.components = tuple(comps)
        self.degree = degrees.pop() if degrees else -1

    @property
    def nvars(self):
        return len(self.components)

    @property
    def is_zero(self):
        return self.degree < 0

    def apply_to_form(self, form):
        """theta(alpha) = sum_i alpha_i f_i for a linear form alpha."""
        out = {}
        for a, comp in zip(form, self.components):
            if a != 0:
                mp_add_inplace(out, comp, a)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolyVectorField)
            and self.components == other.components
        )

    def __repr__(self):
        names = var_names(self.nvars)
        parts = [
            f"({mp_format(c, names)})*d/d{n}"
            for c, n in zip(self.components, names)
            if c
        ]
        return " + ".join(parts) if parts else "0"


class Exponents(tuple):
    """Nondecreasing exponent tuple, optionally carrying a certifying basis."""

    def __new__(cls, values, basis=None):
        self = super().__new__(cls, values)
        self.basis = basis
        return self


class FreenessVerdict(_Value):
    """Outcome of a freeness decision.

    status is one of "Free", "NotFree", "Unknown".  exponents and basis are
    set for Free via the basis search (criteria-derived Free verdicts, and
    those of `_bounded_search` below rank 3, carry exponents only); the
    basis lives in the coordinates of `essential`, the essentialized model
    actually searched (equal to the input when that was already
    essential).  witness explains NotFree; bound is the degree bound that
    an Unknown search exhausted.
    """

    _fields = ("status", "exponents", "basis", "witness", "bound", "essential")

    def __init__(self, status, exponents=None, basis=None, witness=None, bound=None,
                 essential=None):
        self.status = status
        self.exponents = exponents
        self.basis = basis
        self.witness = witness
        self.bound = bound
        self.essential = essential

    @property
    def is_free(self):
        return self.status == FREE

    @property
    def is_not_free(self):
        return self.status == NOT_FREE

    @property
    def is_unknown(self):
        return self.status == UNKNOWN


def derivation_membership(theta, multi):
    """True iff alpha_H**m(H) divides theta(alpha_H) for every hyperplane."""
    if theta.nvars != multi.dim:
        raise DimensionMismatch(
            f"field has {theta.nvars} components, arrangement dimension is {multi.dim}"
        )
    for i in multi.effective():
        value = theta.apply_to_form(multi.base.forms[i])
        if not mp_divisible_by_linear_power(value, multi.base.forms[i], multi.mult[i]):
            return False
    return True


def _constraint_rows(multi, d, monos):
    """The constraint rows of the degree-d piece of D(A,m), as
    {(h, e, reduced_exps): {column: int}}.

    Column i * N + k stands for x**monos[k] d/dx_i.  For a hyperplane h
    with form alpha, the field puts sum_i alpha_i * (its x**monos[k] d/dx_i
    coefficient) into alpha(theta), so each residue term (e, reduced_exps)
    of x**monos[k] modulo alpha**m(h) (`polynomials.residue_table`) writes
    alpha_i * value into column i * N + k of row (h, e, reduced_exps).
    """
    n_monos = len(monos)
    rows = {}
    for h in multi.effective():
        alpha = multi.base.forms[h]
        j = next(i for i, a in enumerate(alpha) if a != 0)
        terms = [
            [(e, w_exps, [(i * n_monos, a * v) for i, a in enumerate(alpha) if a != 0])
             for e, w_exps, v in entry]
            for entry in residue_table(alpha, multi.mult[h], d)
        ]
        for k, mono in enumerate(monos):
            base = list(mono)
            base[j] = 0
            for e, w_exps, cols in terms[mono[j]]:
                key = (h, e, tuple(map(add, base, w_exps)))
                row = rows.get(key)
                if row is None:
                    row = rows[key] = {}
                for offset, value in cols:
                    row[offset + k] = value
    return rows


def _graded_kernel(multi, d):
    """Canonical basis of the degree-d piece of D(A,m), each vector scaled
    to primitive integers.

    Returns (kernel vectors, monomial list): a vector is a {i * N + k: int}
    dict over the degree-d monomials, component-major.
    """
    monos = monomials(multi.dim, d)
    rows = _constraint_rows(multi, d, monos)
    return nullspace([row for _, row in sorted(rows.items())], multi.dim * len(monos)), monos


def derivation_space_dim(multi, d):
    """Dimension over Q of the homogeneous degree-d part of D(A,m)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    kernel, _ = _graded_kernel(multi, d)
    return len(kernel)


def _field_from_vector(vec, monos, ell):
    """The field of a primitive kernel vector, first nonzero entry positive."""
    sign = 1 if vec[min(vec)] > 0 else -1
    comps = [{} for _ in range(ell)]
    for c, v in vec.items():
        i, k = divmod(c, len(monos))
        comps[i][monos[k]] = sign * v
    return PolyVectorField(comps)


def _new_generators(gens, kernel, monos, rank, d):
    """The fields of the degree-d kernel vectors that are new minimal
    generators: each lies outside the polynomial-ring span of `gens` and of
    the kernel vectors before it.

    Each shifted generator x**a * g is written on the kernel's free
    columns, reversed, where kernel vector k is column width - 1 - k; k is
    new exactly when that column is free in the kernel of these rows (see
    the module docstring).
    """
    width = len(kernel)
    free = {max(vec): width - 1 - k for k, vec in enumerate(kernel)}
    n_monos = len(monos)
    monos_index = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in gens:
        for shift in monomials(rank, d - g.degree):
            row = {}
            for i, comp in enumerate(g.components):
                for exps, c in comp.items():
                    moved = tuple(a + b for a, b in zip(exps, shift))
                    k = free.get(i * n_monos + monos_index[moved])
                    if k is not None:
                        row[k] = c
            rows.append(row)
    new = {max(vec) for vec in nullspace(rows, width)}
    return [
        _field_from_vector(vec, monos, rank)
        for k, vec in enumerate(kernel)
        if width - 1 - k in new
    ]


def _hilbert_exponents(found, rank, total, d, dim):
    """`found`, the exponents below d of a free D(A,m) of this rank and |m|,
    extended by those equal to d, given dim D_d; None when no such module
    exists.  dim D_d = sum_i C(d - e_i + r - 1, r - 1) counts 1 for each
    exponent equal to d and 0 for one above, and those above d must make up
    the rest of |m|."""
    n = dim - sum(monomial_count(rank, d - e) for e in found)
    if n < 0:
        return None
    found += (d,) * n
    left, rest = rank - len(found), total - sum(found)
    fits = rest == 0 if left == 0 else 0 < left and left * (d + 1) <= rest
    return found if fits else None


def _closed_form_exponents(rank, mult):
    """The closed-form exponents of an essential D(A,m) of this rank and
    these positive multiplicities; None for the probe and from rank 3 on."""
    total = sum(mult)
    if rank != 2:
        return (total,) * rank if rank < 2 else None
    heavy = max(mult)
    if heavy == 1:
        return 1, total - 1
    if 2 * heavy >= total:
        return total - heavy, heavy
    if len(mult) == 3:
        return total // 2, total - total // 2
    return None


def _exponents_by_theorem(ess, kernels=None):
    """The exponents of an essential D(A,m) of rank <= 2: the closed forms
    (`_closed_form_exponents`), else the probe rule.  At the probe degree
    d* = ceil(|m|/2) - 1, a kernel of dimension k > 0 gives d1 = d* - k + 1,
    and k = 0 gives d1 = d2 = |m|/2.  A dict passed as kernels receives the
    probe kernel by degree.
    """
    if (exponents := _closed_form_exponents(ess.dim, ess.mult)) is not None:
        return exponents
    total = ess.total
    probe = (total + 1) // 2 - 1
    kernel = _graded_kernel(ess, probe)
    if kernels is not None:
        kernels[probe] = kernel
    dim = len(kernel[0])
    d1 = probe - dim + 1 if dim else total // 2
    if d1 < 1 or not dim and total % 2:
        raise TheoremViolation(
            f"graded dimension {dim} at degree {probe} contradicts the "
            f"rank-2 Hilbert function for |m| = {total}"
        )
    return d1, total - d1


def _targeted_generators(ess, candidates, bound, kernels):
    """The minimal generators of an essential D(A,m) from the kernels at
    the distinct degrees of `candidates`, its exponents if it is free
    (entries below 1, such as the zeros of a center, are ignored); None
    unless each degree gives as many new generators as its multiplicity
    among the candidates and together they pass saito_check.  Candidates
    that are not rank-many, do not sum to |m| or exceed bound compute no
    kernel.  A kernel already in kernels (by degree) is reused, and each
    kernel computed is added there.
    """
    targets = sorted(d for d in candidates if d > 0)
    if len(targets) != ess.dim or sum(targets) != ess.total or max(targets, default=0) > bound:
        return None
    gens = []
    for d in sorted(set(targets)):
        kernel, monos = kernels[d] = kernels.get(d) or _graded_kernel(ess, d)
        new = _new_generators(gens, kernel, monos, ess.dim, d)
        if len(new) != targets.count(d):
            return None
        gens += new
    return gens if saito_check(gens, ess) else None


def find_free_basis(multi, degree_bound=None, candidates=None):
    """Decide freeness of D(A,m) by exact minimal-generator search.

    Scans degrees 1..bound (default |m|, which is decisive): at each degree
    the new minimal generators are the kernel elements outside the
    polynomial-ring span of the generators already found.  Free is certified
    by the Saito determinant; NotFree by any of: more than rank-many minimal
    generators, rank-many with degree sum different from |m|, rank-many
    failing the determinant identity, or graded dimensions that fit no free
    module.  It decides by degree |m|, where the rank-many fields
    Q(A,m) d/dx_i lie, so Unknown only occurs when a user-supplied bound
    below |m| runs out.  Below rank 3, and with candidate exponents, it
    computes kernels at the exponents alone (see the module docstring).
    """
    ess, center_dim = essentialize(multi)
    return _search(ess, center_dim, degree_bound, candidates)


def _valid_bound(degree_bound):
    """degree_bound as an int, or None: a count (`core._count`), nonnegative."""
    bound = degree_bound if degree_bound is None else _count(degree_bound)
    if bound is not None and bound < 0:
        raise ValueError(f"degree_bound must be nonnegative, got {degree_bound}")
    return bound


def _search(ess, center_dim, degree_bound, candidates):
    """The verdict of `find_free_basis` on an essential ess, with
    center_dim zero exponents in front of its own."""
    rank, total = ess.dim, ess.total
    bound = _valid_bound(degree_bound)
    # below rank 2 the basis, () or x**m d/dx, is found whatever the bound
    bound = total if bound is None or rank < 2 else bound

    def verdict(status, **fields):
        return FreenessVerdict(status, essential=ess, **fields)

    def free(gens):
        exponents = (0,) * center_dim + tuple(g.degree for g in gens)
        return verdict(FREE, exponents=exponents, basis=tuple(gens))

    kernels = {}
    if rank <= 2:
        # d2 >= |m|/2, so a bound below |m|/2 needs no kernel
        if 2 * bound < total:
            return verdict(UNKNOWN, bound=bound)
        candidates = _exponents_by_theorem(ess, kernels)
        if max(candidates, default=0) > bound:
            return verdict(UNKNOWN, bound=bound)
    if candidates is not None:
        gens = _targeted_generators(ess, candidates, bound, kernels)
        if gens is not None:
            return free(gens)
        if rank <= 2:
            raise TheoremViolation(
                f"no basis passes the Saito criterion at the rank-{rank} exponents {candidates}"
            )
    gens, found = [], ()
    for d in range(1, bound + 1):
        kernel, monos = kernels.get(d) or _graded_kernel(ess, d)
        gens += _new_generators(gens, kernel, monos, rank, d)
        if len(gens) > rank:
            return verdict(
                NOT_FREE,
                witness=f"{len(gens)} minimal generators by degree {d} "
                f"exceed the rank {rank}",
            )
        if len(gens) == rank:
            degrees = tuple(g.degree for g in gens)
            if sum(degrees) != total:
                return verdict(
                    NOT_FREE,
                    witness=f"minimal generator degrees {degrees} "
                    f"sum to {sum(degrees)}, not |m| = {total}",
                )
            if saito_check(gens, ess):
                return free(gens)
            return verdict(
                NOT_FREE,
                witness="rank-many minimal generators fail the determinant "
                f"criterion at degrees {degrees}",
            )
        found = _hilbert_exponents(found, rank, total, d, len(kernel))
        if found is None:
            return verdict(
                NOT_FREE,
                witness=f"graded dimension {len(kernel)} at degree {d} matches "
                "no exponent partition of |m|",
            )
    # the r fields Q(A,m)*d/dx_i lie in D(A,m) in degree |m|, so the loop
    # returns by degree |m|: only a user bound below |m| ends here
    return verdict(UNKNOWN, bound=bound)


def saito_check(basis, multi):
    """Exact Saito criterion: det(theta_i(x_j)) is a nonzero constant
    multiple of Q(A,m).

    By Saito's lemma (Orlik-Terao, Thm. 4.19; Ziegler 1989 for
    multiplicities) Q(A,m) divides the determinant of any fields of
    D(A,m).  Once each field is checked to lie in D(A,m) and their degrees
    sum to |m| = deg Q(A,m), the determinant is c * Q(A,m) with c a
    constant, so c != 0 exactly when it is nonzero at one point off every
    hyperplane.  The point (1, t, t**2, ...) with t = 2 + max|coefficient|
    is one: the last nonzero term of a form outweighs all earlier ones.
    The verdict is one exact integer determinant at that point.
    """
    basis = tuple(basis)
    if len(basis) != multi.dim:
        raise DimensionMismatch(
            f"need {multi.dim} fields for a {multi.dim}-dimensional arrangement, "
            f"got {len(basis)}"
        )
    for i, theta in enumerate(basis):
        if not derivation_membership(theta, multi):
            raise NotADerivation(i)
    if any(theta.is_zero for theta in basis):
        return False
    if sum(theta.degree for theta in basis) != multi.total:
        return False
    t = 2 + max((abs(c) for form in multi.base.forms for c in form), default=0)
    point = [t**i for i in range(multi.dim)]
    return det([
        [sum(c * prod(map(pow, point, exps)) for exps, c in comp.items())
         for comp in theta.components]
        for theta in basis
    ]) != 0


def rank2_exponents(multi):
    """Exponents (d1 <= d2) of an essential rank-2 multiarrangement.

    Rank-2 multiarrangements are always free, so the search is guaranteed
    to succeed; the result carries the certifying basis as `.basis`.
    """
    if multi.total == 0:
        raise EmptyMultiarrangement("rank-2 exponents need at least one hyperplane")
    if multi.dim != 2 or multi.rank() != 2:
        raise WrongRank("expected an essential multiarrangement of rank 2")
    verdict = find_free_basis(multi)
    if not verdict.is_free:
        raise TheoremViolation("a rank-2 multiarrangement must be free")
    return Exponents(verdict.exponents, basis=verdict.basis)


def _bounded_search(ess, center_dim, degree_bound=None, candidates=None):
    """`_search` for callers that read no basis, under the one degree-bound
    rule: a user bound applies from rank 3 on, where `_search` checks it.
    Below rank 3 D(A,m) is free: `_exponents_by_theorem` reads its exponents."""
    if ess.dim > 2:
        return _search(ess, center_dim, degree_bound, candidates)
    _valid_bound(degree_bound)
    exponents = (0,) * center_dim + _exponents_by_theorem(ess)
    return FreenessVerdict(FREE, exponents=exponents, essential=ess)


def multi_char_poly_free(exponents):
    """Characteristic polynomial of a free multiarrangement: prod (t - e_i)."""
    return IntPoly.from_roots(exponents)


class SigmaStatus(_Frozen):
    """One sigma-coefficient: exact integer value or None, and how it was
    obtained ("definition", "rank<=2", "free-factorization",
    "local-to-global")."""

    _fields = ("value", "method")

    def __init__(self, value, method):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "method", method)

    @property
    def exact(self):
        return self.value is not None


def elementary_symmetric(values, k):
    return sum(prod(combo) for combo in combinations(values, k))


def _localization_sweep(multi, top, degree_bound=None, flats=None):
    """The product of the local exponents at each flat of a
    multiarrangement, essential or not (compare passes A'' as it is), in
    lattice order: None where the localization is not Free within the
    bound.  The last flat, the center, localizes to the essentialization,
    whose verdict the caller holds as top; its product is read off top.
    Pass the flats of L(multi.base) to reuse them.

    A flat before the center with closed-form exponents is not localized;
    every other one is essentialized once (`localize_and_essentialize`, the
    only place localization searches run), and each distinct localization
    is searched once, by _bounded_search.
    """
    flats = flats if flats is not None else intersection_lattice(multi.base).flats
    products, verdicts = {}, {}
    for flat in flats[:-1]:
        mult = [m for i, m in enumerate(multi.mult) if flat.mask >> i & 1]
        if (exponents := _closed_form_exponents(flat.codim, mult)) is None:
            local = localize_and_essentialize(multi, flat)
            verdict = verdicts.get(local)
            if verdict is None:
                verdict = verdicts[local] = _bounded_search(local, 0, degree_bound)
            exponents = verdict.exponents if verdict.is_free else None
        products[flat] = None if exponents is None else prod(exponents)
    products[flats[-1]] = prod(top.exponents) if top.is_free else None
    return products


def _level_sums(products, rank):
    """Per codimension 0..rank, the sum of the flats' products, or None
    when one of them is None."""
    out = []
    for k in range(rank + 1):
        level = [v for f, v in products.items() if f.codim == k]
        out.append(None if None in level else sum(level))
    return out


def _sigma_column(ess, verdict, products):
    """(sigma_0, ..., sigma_r) of an essential multiarrangement of rank r,
    given its verdict (needed from rank 2 on): the elementary symmetric
    functions of the exponents when Free, else the level sums of the
    per-flat products."""
    rank = ess.dim
    out = [SigmaStatus(1, "definition"), SigmaStatus(ess.total, "definition")]
    if rank <= 1:
        return tuple(out[: rank + 1])
    if verdict.is_free:
        method = "rank<=2" if rank <= 2 else "free-factorization"
        values = [elementary_symmetric(verdict.exponents, k) for k in range(2, rank + 1)]
    else:
        method, values = "local-to-global", _level_sums(products, rank)[2:]
    return tuple(out + [SigmaStatus(v, method) for v in values])


def sigma_coefficients(multi, degree_bound=None):
    """The vector (sigma_0, ..., sigma_r) of chi(A, m, t), r = rank.

    sigma_0 = 1 and sigma_1 = |m| by definition.  The essentialization is
    searched first; when D(A,m) is verified free the remaining coefficients
    come from the factorization prod (t - e_i) and no localization is
    searched.  Otherwise the localization sweep searches every flat below
    the center once (the center's product is the global verdict's) and
    sigma_k sums the local exponent products over the codimension-k flats,
    staying None whenever one of them is unresolved within the bound.
    """
    verdict = _bounded_search(*essentialize(multi), degree_bound)
    ess = verdict.essential
    products = None if verdict.is_free else _localization_sweep(ess, verdict, degree_bound)
    return _sigma_column(ess, verdict, products)


def sigma_per_flat(multi, degree_bound=None):
    """Local sigma contribution for every flat of the effective base lattice.

    Returns {Flat: product of local exponents or None}, the products of the
    localization sweep after one search of the input, whose verdict gives
    the entry of the top flat (the center).  Requires the multiarrangement
    to be essential so the flats stay in input coordinates.
    """
    ess, center_dim = essentialize(multi)
    if center_dim != 0:
        raise WrongRank("per-flat sigma values need an essential multiarrangement")
    return _localization_sweep(ess, _bounded_search(ess, 0, degree_bound), degree_bound)
