"""Logarithmic derivation modules of multiarrangements.

D(A,m) is the module of polynomial vector fields theta with alpha_H**m(H)
dividing theta(alpha_H) for every hyperplane.  Everything here is exact:
graded pieces are kernels of sparse integer constraint matrices in the
monomial basis, freeness searches select true minimal generators degree by
degree (a generator is new exactly when it falls outside the
polynomial-ring span of the earlier ones, by the graded Nakayama count),
and verdicts are certified either by the Saito determinant identity or by
a Hilbert-series contradiction, so Free and NotFree are both proofs.

The span test runs in coordinates on D(A,m)_d itself.  The canonical
kernel vector of a free column f is supported on the pivot columns before
f and on f, where it is nonzero, so restricting a vector of D(A,m)_d to
the free columns is an isomorphism onto Q^(free columns) that sends kernel
vector k to a positive multiple of the unit vector e_k.  Every shifted
generator x**a * g lies in D(A,m)_d, so rank tests on these restrictions
are exact and select the same generators as tests on the full rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .core import Multiarrangement, essentialize, var_names
from .errors import (
    DimensionMismatch,
    EmptyMultiarrangement,
    NotADerivation,
    TheoremViolation,
    WrongRank,
)
from .lattice import intersection_lattice
from .linalg import _Echelon, nullspace, primitive_vector
from .polynomials import (
    IntPoly,
    linear_powers,
    mp_add_inplace,
    mp_determinant,
    mp_divisible_by_linear_power,
    mp_format,
    mp_from_linear,
    mp_mul,
    mp_pow,
    mp_proportionality,
    monomial_count,
    monomial_residue_mod_linear_power,
    monomials,
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


def euler_field(dim):
    """The field x_1 d/dx_1 + ... + x_dim d/dx_dim."""
    comps = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        comps.append({tuple(e): 1})
    return PolyVectorField(comps)


class Exponents(tuple):
    """Nondecreasing exponent tuple, optionally carrying a certifying basis."""

    def __new__(cls, values, basis=None):
        self = super().__new__(cls, values)
        self.basis = basis
        return self


@dataclass
class FreenessVerdict:
    """Outcome of a freeness decision.

    status is one of "Free", "NotFree", "Unknown".  exponents and basis are
    set for Free via the basis search (criteria-derived Free verdicts carry
    exponents only); the basis lives in the coordinates of `essential`, the
    essentialized model actually searched (equal to the input when that was
    already essential).  witness explains NotFree; bound is the degree bound
    that an Unknown search exhausted.
    """

    status: str
    exponents: tuple = None
    basis: tuple = None
    witness: str = None
    bound: int = None
    essential: Multiarrangement = None

    @property
    def is_free(self):
        return self.status == FREE

    @property
    def is_not_free(self):
        return self.status == NOT_FREE

    @property
    def is_unknown(self):
        return self.status == UNKNOWN


def defining_polynomial(multi):
    """Q(A,m): the product of alpha_H**m(H) over effective hyperplanes."""
    out = {(0,) * multi.dim: 1}
    for i in multi.effective():
        out = mp_mul(out, mp_pow(mp_from_linear(multi.base.forms[i]), multi.mult[i]))
    return out


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


def _graded_kernel(multi, d):
    """Canonical basis of the degree-d piece of D(A,m), each vector scaled
    to primitive integers.

    Returns (kernel vectors, monomial list): a vector is indexed by
    component-major (i * N + k) positions over the degree-d monomials.
    """
    ell = multi.dim
    monos = monomials(ell, d)
    n_monos = len(monos)
    ncols = ell * n_monos
    if ncols == 0:
        return [], monos
    rows = {}
    for h in multi.effective():
        alpha = multi.base.forms[h]
        power = multi.mult[h]
        powers = linear_powers(alpha, d)
        for k, mono in enumerate(monos):
            residues = monomial_residue_mod_linear_power(mono, alpha, power, powers)
            for key, val in residues.items():
                row = rows.setdefault((h,) + key, {})
                for i, a in enumerate(alpha):
                    if a != 0:
                        row[i * n_monos + k] = a * val
    return nullspace([row for _, row in sorted(rows.items())], ncols), monos


def derivation_space_dim(multi, d):
    """Dimension over Q of the homogeneous degree-d part of D(A,m)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    kernel, _ = _graded_kernel(multi, d)
    return len(kernel)


def _field_from_vector(vec, monos, ell):
    ints = primitive_vector(vec)
    n_monos = len(monos)
    comps = []
    for i in range(ell):
        comp = {}
        for k, mono in enumerate(monos):
            c = ints[i * n_monos + k]
            if c:
                comp[mono] = c
        comps.append(comp)
    return PolyVectorField(comps)


def _new_generators(gens, kernel, monos, rank, d):
    """The fields of the degree-d kernel vectors that are new minimal
    generators: each lies outside the polynomial-ring span of `gens` and of
    the kernel vectors before it.

    The test runs on the kernel's free columns (see the module docstring):
    kernel vector k, whose last nonzero entry is its free column, becomes
    the unit row e_k, and a shifted generator x**a * g is read off at the
    free columns alone.
    """
    width = len(kernel)
    free = {max(i for i, c in enumerate(vec) if c): k for k, vec in enumerate(kernel)}
    n_monos = len(monos)
    monos_index = {m: k for k, m in enumerate(monos)}
    span = _Echelon(width)
    for g in gens:
        for shift in monomials(rank, d - g.degree):
            row = [0] * width
            for i, comp in enumerate(g.components):
                for exps, c in comp.items():
                    moved = tuple(a + b for a, b in zip(exps, shift))
                    k = free.get(i * n_monos + monos_index[moved])
                    if k is not None:
                        row[k] = c
            span.add(row)
    out = []
    for k, vec in enumerate(kernel):
        unit = [0] * width
        unit[k] = 1
        if span.add(unit):
            out.append(_field_from_vector(vec, monos, rank))
    return out


def _partitions(total, parts, minimum=1):
    """Nondecreasing tuples of `parts` integers >= minimum summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(minimum, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            out.append((first,) + rest)
    return out


def find_free_basis(multi, degree_bound=None):
    """Decide freeness of D(A,m) by exact minimal-generator search.

    Scans degrees 1..bound (default |m|, which is decisive): at each degree
    the new minimal generators are the kernel elements outside the
    polynomial-ring span of the generators already found.  Free is certified
    by the Saito determinant; NotFree by any of: more than rank-many minimal
    generators, rank-many with degree sum different from |m|, rank-many
    failing the determinant identity, no exponent partition matching the
    graded dimensions, or exhaustion of all degrees up to |m|.  Unknown only
    occurs when a user-supplied bound below |m| runs out.
    """
    ess, center_dim = essentialize(multi)
    rank = ess.dim
    zeros = (0,) * center_dim

    def free(exponents, basis):
        return FreenessVerdict(
            FREE,
            exponents=zeros + tuple(exponents),
            basis=tuple(basis),
            essential=ess,
        )

    if rank == 0:
        return free((), ())
    if rank == 1:
        # one hyperplane x**m in one variable: basis x**m d/dx
        m = ess.total
        return free((m,), (PolyVectorField([{(m,): 1}]),))

    total = ess.total
    bound = total if degree_bound is None else int(degree_bound)
    partitions = _partitions(total, rank)
    gens = []
    for d in range(1, bound + 1):
        kernel, monos = _graded_kernel(ess, d)
        gens += _new_generators(gens, kernel, monos, rank, d)
        if len(gens) > rank:
            return FreenessVerdict(
                NOT_FREE,
                witness=f"{len(gens)} minimal generators by degree {d} "
                f"exceed the rank {rank}",
                essential=ess,
            )
        if len(gens) == rank:
            degrees = tuple(g.degree for g in gens)
            if sum(degrees) != total:
                return FreenessVerdict(
                    NOT_FREE,
                    witness=f"minimal generator degrees {degrees} "
                    f"sum to {sum(degrees)}, not |m| = {total}",
                    essential=ess,
                )
            if saito_check(gens, ess):
                return free(degrees, gens)
            return FreenessVerdict(
                NOT_FREE,
                witness="rank-many minimal generators fail the determinant "
                f"criterion at degrees {degrees}",
                essential=ess,
            )
        dim_d = len(kernel)
        partitions = [
            e
            for e in partitions
            if sum(monomial_count(rank, d - ei) for ei in e) == dim_d
        ]
        if not partitions:
            return FreenessVerdict(
                NOT_FREE,
                witness=f"graded dimension {dim_d} at degree {d} matches "
                "no exponent partition of |m|",
                essential=ess,
            )
    if bound >= total:
        return FreenessVerdict(
            NOT_FREE,
            witness=f"fewer than {rank} minimal generators exist up to "
            f"degree |m| = {total}, where any free basis must live",
            essential=ess,
        )
    return FreenessVerdict(UNKNOWN, bound=bound, essential=ess)


def saito_check(basis, multi):
    """Exact Saito criterion: det(theta_i(x_j)) is a nonzero constant
    multiple of Q(A,m)."""
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
    det = mp_determinant([list(theta.components) for theta in basis])
    if not det:
        return False
    c = mp_proportionality(det, defining_polynomial(multi))
    return c is not None and c != 0


def rank2_exponents(multi):
    """Exponents (d1 <= d2) of an essential rank-2 multiarrangement.

    Rank-2 multiarrangements are always free, so the search is guaranteed
    to succeed; the result carries the certifying basis as `.basis`.
    """
    if multi.total == 0:
        raise EmptyMultiarrangement("rank-2 exponents need at least one hyperplane")
    if multi.dim != 2 or multi.rank() != 2:
        raise WrongRank("expected an essential multiarrangement of rank 2")
    verdict = _bounded_search(multi, 2)
    return Exponents(verdict.exponents, basis=verdict.basis)


def _bounded_search(multi, rank, degree_bound=None):
    """find_free_basis under the one degree-bound rule, for a
    multiarrangement of the given rank: a user bound applies from rank 3
    on.  Rank <= 2 multiarrangements are always free, so their search runs
    to |m| and must end Free (TheoremViolation otherwise)."""
    if rank > 2:
        return find_free_basis(multi, degree_bound)
    verdict = find_free_basis(multi)
    if not verdict.is_free:
        raise TheoremViolation("a rank-2 multiarrangement must be free")
    return verdict


def multi_char_poly_free(exponents):
    """Characteristic polynomial of a free multiarrangement: prod (t - e_i)."""
    return IntPoly.from_roots(exponents)


@dataclass(frozen=True)
class SigmaStatus:
    """One sigma-coefficient: exact integer value or None, and how it was
    obtained ("definition", "rank<=2", "free-factorization",
    "local-to-global")."""

    value: object
    method: str

    @property
    def exact(self):
        return self.value is not None


def elementary_symmetric(values, k):
    return sum(prod(combo) for combo in combinations(values, k))


def _localization_sweep(ess, degree_bound=None, flats=None, top=None):
    """One freeness search per flat of an essential multiarrangement; the
    only place localization searches run.  Pass the flats of the
    intersection lattice of ess.base to reuse them, and ess's own verdict
    as top when it is already known.

    Returns (verdict, products): products maps each flat, in lattice order,
    to the product of its localization's exponents (None unless Free).  The
    last flat, the center, localizes to ess itself, so verdict is the global
    one.  Each distinct localization is searched once, by _bounded_search
    at its rank codim X.
    """
    products = {}
    verdicts = {} if top is None else {ess: top}
    flats = flats if flats is not None else intersection_lattice(ess.base).flats
    for flat in flats:
        local = localize_and_essentialize(ess, flat)
        verdict = verdicts.get(local)
        if verdict is None:
            verdict = verdicts[local] = _bounded_search(local, flat.codim, degree_bound)
        products[flat] = prod(verdict.exponents) if verdict.is_free else None
    return verdict, products


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
    searched.  Otherwise the localization sweep searches every other flat
    once (the top flat, the center, reuses the global verdict) and sigma_k
    sums the local exponent products over the codimension-k flats, staying
    None whenever one of them is unresolved within the bound.
    """
    ess, _ = essentialize(multi)
    verdict = products = None
    if ess.dim >= 2:
        verdict = _bounded_search(ess, ess.dim, degree_bound)
        if not verdict.is_free:
            products = _localization_sweep(ess, degree_bound, top=verdict)[1]
    return _sigma_column(ess, verdict, products)


def sigma_per_flat(multi, degree_bound=None):
    """Local sigma contribution for every flat of the effective base lattice.

    Returns {Flat: product of local exponents or None}, the products of the
    localization sweep: one freeness search per flat, where the entry of
    the top flat (the center) is the global verdict's.  Requires the
    multiarrangement to be essential so the flats stay in input coordinates.
    """
    ess, center_dim = essentialize(multi)
    if center_dim != 0:
        raise WrongRank("per-flat sigma values need an essential multiarrangement")
    return _localization_sweep(ess, degree_bound)[1]
