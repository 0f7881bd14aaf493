"""Command-line interface.

    arrangements charpoly FILE [--reduced] [--verify] [--json]
    arrangements chambers FILE [--verify] [--json]
    arrangements ziegler FILE --h0 K [--json]
    arrangements exponents FILE [--bound N] [--json]
    arrangements freeness FILE [--h0 K] [--bound N] [--method M] [--json]
    arrangements compare FILE --h0 K [--bound N] [--assert-tame] [--json]
    arrangements corpus list | corpus get NAME

FILE is a JSON arrangement file (see fileio) or `corpus:NAME`, read as the
file `corpus get NAME` prints.  --verify reruns the computation through the
independent oracles and exits 3 on any mismatch.  Exit codes: 0
ok/definitive, 2 Unknown verdict, 3 verification mismatch or a failed
internal invariant (TheoremViolation, e.g. freeness criteria that disagree),
1 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import form_to_string, var_names
from .corpus import CORPUS
from .criteria import _restriction_verdicts, abe_yoshinaga_free_check, yoshinaga_3d
from .criteria import compare_coefficients
from .derivations import UNKNOWN, find_free_basis
from .errors import ArrangementError, BadPrime, InputError, TheoremViolation
from .fileio import (
    dumps_indented,
    load_arrangement,
    serialize_report,
    verdict_to_dict,
)
from .lattice import chamber_count, char_poly, reduced_char_poly
from .linalg import _pivot_col
from .oracles import char_poly_recursion, finite_field_char_poly, region_count_recursion
from .polynomials import IntPoly
from .restriction import ziegler_restriction

_RESTRICTION = ("yoshinaga", "abe-yoshinaga")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for Unknown
    verdicts, so remap usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _corpus_entry(name):
    if name not in CORPUS:
        raise InputError(f"unknown corpus entry {name!r}; available: {', '.join(CORPUS)}")
    return CORPUS[name]


def _load_input(spec):
    if spec.startswith("corpus:"):
        return _corpus_entry(spec[len("corpus:") :])
    return load_arrangement(spec)


def _simple(inp):
    return not inp.mult or all(m == 1 for m in inp.mult)


def _require_simple(inp, command):
    if not _simple(inp):
        raise InputError(
            f"{command} works on simple arrangements; drop the 'mult' field"
        )


def _bound(args):
    """--bound, or None; a negative bound is an input error."""
    if args.bound is not None and args.bound < 0:
        raise InputError(f"--bound must be a nonnegative integer, got {args.bound}")
    return args.bound


def _header(arr):
    return f"dim {arr.dim}, {arr.n_hyperplanes} hyperplanes, rank {arr.rank()}"


def _multi_header(multi):
    return f"dim {multi.dim}, {multi.base.n_hyperplanes} hyperplanes, |m| = {multi.total}"


# ---------------------------------------------------------------------------
# Subcommands.  Each returns the process exit code.


def _cross_check(args, arr, value, recursion, from_chi, show=str):
    """With --verify, check value against the deletion-restriction
    recursion and against from_chi of the finite-field characteristic
    polynomial, skipped with a note when no good prime is found.  Returns
    (oracles that agree, mismatch messages)."""
    verified, mismatches = [], []
    if not args.verify:
        return verified, mismatches
    rec = recursion(arr)
    if rec == value:
        verified.append("deletion-restriction recursion")
    else:
        mismatches.append(f"deletion-restriction recursion got {show(rec)}")
    try:
        ff = from_chi(finite_field_char_poly(arr))
    except BadPrime as exc:
        print(f"note: finite-field oracle skipped: {exc}", file=sys.stderr)
    else:
        if ff == value:
            verified.append("finite-field point counts")
        else:
            mismatches.append(f"finite-field oracle got {show(ff)}")
    return verified, mismatches


def _print_checked(args, arr, fields, line, verified, mismatches):
    """Output of charpoly and chambers: the fields in JSON, or the header
    and the line; then any oracle mismatch, which makes the exit code 3."""
    if args.json:
        out = {"dim": arr.dim, "n_hyperplanes": arr.n_hyperplanes, **fields}
        if args.verify:
            out["verified_by"] = verified
            out["mismatches"] = mismatches
        print(dumps_indented(out))
    else:
        print(_header(arr))
        print(line)
        if verified:
            print("verified by: " + ", ".join(verified))
    for item in mismatches:
        print(f"verification mismatch: {item}", file=sys.stderr)
    return 3 if mismatches else 0


def _cmd_charpoly(args):
    arr = _load_input(args.file).arrangement
    # one walk of L(A): with --reduced, chi is chi0 * (t - 1)
    poly = reduced_char_poly(arr) if args.reduced else char_poly(arr)
    chi = poly * IntPoly((-1, 1)) if args.reduced else poly
    checks = _cross_check(
        args, arr, chi, char_poly_recursion, lambda ff: ff, lambda p: p.to_string(sep="")
    )
    name = "chi0" if args.reduced else "chi"
    fields = {"reduced": bool(args.reduced), "coefficients": list(poly.coeffs)}
    return _print_checked(
        args, arr, fields, f"{name}(t) = {poly.to_string(sep='')}", *checks
    )


def _cmd_chambers(args):
    arr = _load_input(args.file).arrangement
    count = chamber_count(arr)
    checks = _cross_check(
        args, arr, count, region_count_recursion, lambda ff: (-1) ** arr.dim * ff(-1)
    )
    return _print_checked(args, arr, {"chambers": count}, f"chambers: {count}", *checks)


def _cmd_ziegler(args):
    inp = _load_input(args.file)
    _require_simple(inp, "ziegler")
    arr = inp.arrangement
    multi = ziegler_restriction(arr, args.h0)
    names = var_names(arr.dim)
    kept = [names[i] for i in range(arr.dim) if i != _pivot_col(arr.forms[args.h0])]
    labels = [form_to_string(f, kept) for f in multi.base.forms]
    if args.json:
        print(
            dumps_indented(
                {
                    "dim": multi.dim,
                    "h0": args.h0,
                    "hyperplanes": [list(f) for f in multi.base.forms],
                    "mult": list(multi.mult),
                    "total": multi.total,
                    "labels": labels,
                }
            )
        )
    else:
        h0_label = form_to_string(arr.forms[args.h0], names)
        print(f"Ziegler restriction at h0={args.h0} ({h0_label} = 0)")
        print(_multi_header(multi))
        for label, m in zip(labels, multi.mult):
            print(f"  m={m}  {label} = 0")
    return 0


def _verdict_line(verdict):
    if verdict.is_free:
        exps = ", ".join(str(e) for e in verdict.exponents)
        return f"Free({exps})"
    if verdict.is_not_free:
        return f"NotFree ({verdict.witness})" if verdict.witness else "NotFree"
    return f"Unknown (degree bound {verdict.bound})"


def _cmd_exponents(args):
    inp = _load_input(args.file)
    multi = inp.multiarrangement()
    verdict = find_free_basis(multi, degree_bound=_bound(args))
    if args.json:
        print(dumps_indented(verdict_to_dict(verdict)))
    else:
        print(_multi_header(multi))
        print(_verdict_line(verdict))
        if verdict.is_free and verdict.basis:
            for theta in verdict.basis:
                print(f"  {theta!r}")
    return 2 if verdict.is_unknown else 0


def _merge_verdicts(results):
    """The first definitive verdict that carries a basis, else the first
    definitive one, else the first result.  Every definitive verdict must
    agree with the first (TheoremViolation otherwise)."""
    first = merged = None
    for method, verdict in results.items():
        if verdict.status == UNKNOWN:
            continue
        if first is None:
            first = merged = verdict
        elif verdict.status != first.status:
            raise TheoremViolation(
                f"freeness criteria disagree: {first.status} vs "
                f"{verdict.status} ({method})"
            )
        elif first.is_free and tuple(first.exponents) != tuple(verdict.exponents):
            raise TheoremViolation(
                f"freeness criteria disagree on exponents: "
                f"{first.exponents} vs {verdict.exponents} ({method})"
            )
        if merged.basis is None and verdict.basis is not None:
            merged = verdict
    return merged if merged is not None else next(iter(results.values()))


def _cmd_freeness(args):
    inp = _load_input(args.file)
    arr = inp.arrangement
    multi = inp.multiarrangement()
    bound = _bound(args)
    results, notes = {}, []
    # The two restriction criteria apply to simple arrangements only.
    if args.method != "saito" and not _simple(inp):
        if args.method != "all":
            raise InputError(f"{args.method} needs a simple arrangement")
        notes += [f"{m}: skipped (needs a simple arrangement)" for m in _RESTRICTION]
    elif args.method == "yoshinaga":
        results[args.method] = yoshinaga_3d(arr, args.h0)
    elif args.method == "abe-yoshinaga":
        results[args.method] = abe_yoshinaga_free_check(arr, args.h0, bound)
    elif args.method == "all":
        # both restriction criteria from one search of the restriction
        if arr.dim >= 2:
            results.update(_restriction_verdicts(arr, args.h0, bound))
        if "yoshinaga" not in results:
            notes.append("yoshinaga: skipped (needs essential rank 3)")
        if arr.dim < 2:
            notes.append("abe-yoshinaga: skipped (needs dim >= 2)")
    if args.method in ("saito", "all"):
        # the exponents abe-yoshinaga proved are where Saito's basis lives
        proven = results.get("abe-yoshinaga")
        candidates = proven.exponents if proven is not None and proven.is_free else None
        results["saito"] = find_free_basis(multi, degree_bound=bound, candidates=candidates)
    merged = _merge_verdicts(results)

    if args.json:
        print(
            dumps_indented(
                {
                    "methods": {m: verdict_to_dict(v) for m, v in results.items()},
                    "skipped": notes,
                    "merged": verdict_to_dict(merged),
                }
            )
        )
    else:
        print(_multi_header(multi))
        width = max(len(m) for m in results)
        for method, verdict in results.items():
            print(f"  {method:<{width}}  {_verdict_line(verdict)}")
        for note in notes:
            print(f"  {note}")
        if len(results) > 1:
            print(f"merged: {_verdict_line(merged)}")
    return 2 if merged.status == UNKNOWN else 0


def _compare_rows(report):
    rows = []
    for i, b in enumerate(report.table.b):
        status = report.table.sigma[i]
        sigma = status.value
        if sigma is None:
            comparison = "unresolved"
        elif report.inequality[i] is False:
            comparison = "VIOLATED"
        elif b == sigma:
            comparison = "equal"
        else:
            comparison = "strict"
        rows.append((i, b, "?" if sigma is None else sigma, status.method, comparison))
    return rows


def _cmd_compare(args):
    inp = _load_input(args.file)
    _require_simple(inp, "compare")
    report = compare_coefficients(
        inp.arrangement,
        args.h0,
        degree_bound=_bound(args),
        assert_tame=args.assert_tame,
    )
    if args.json:
        print(serialize_report(report))
    else:
        print(
            f"dim {report.dim}, {report.n_hyperplanes} hyperplanes, "
            f"h0 = {report.h0}"
        )
        tame_a, tame_r = report.tame_arrangement, report.tame_restriction
        print(
            f"tameness: arrangement {tame_a.status}"
            + (f" ({tame_a.reason})" if tame_a.reason else "")
            + f", restriction {tame_r.status}"
            + (f" ({tame_r.reason})" if tame_r.reason else "")
        )
        print(f"{'i':>3} {'b_i':>6} {'sigma_i':>8}  {'method':<18} comparison")
        for i, b, sigma, method, comparison in _compare_rows(report):
            print(f"{i:>3} {b:>6} {sigma:>8}  {method:<18} {comparison}")
        total_b, total_sigma = report.chamber_bound
        sigma_text = "?" if total_sigma is None else str(total_sigma)
        mca_text = {True: "yes", False: "no", None: "unknown"}[report.mca]
        print(f"chamber bound: sum b = {total_b}, sum sigma = {sigma_text}")
        print(f"MCA: {mca_text}")
    return 0 if report.all_sigma_exact else 2


def _cmd_corpus(args):
    if args.action == "list":
        entries = CORPUS.values()
        if args.json:
            print(
                dumps_indented(
                    [
                        {
                            "name": e.name,
                            "description": e.description,
                            "dim": e.arrangement.dim,
                            "n_hyperplanes": e.arrangement.n_hyperplanes,
                            "mult": list(e.mult) if e.mult else None,
                        }
                        for e in entries
                    ]
                )
            )
        else:
            width = max(len(e.name) for e in entries)
            for e in entries:
                shape = f"dim {e.arrangement.dim}, {e.arrangement.n_hyperplanes} hyperplanes"
                if e.mult:
                    shape += f", mult {list(e.mult)}"
                print(f"{e.name:<{width}}  {shape:<36}  {e.description}")
        return 0
    if not args.name:
        raise InputError("corpus get needs a NAME (see `corpus list`)")
    print(dumps_indented(_corpus_entry(args.name).as_input()))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first `main` call of a process and
    reused by later in-process calls: parsing leaves no state in it."""
    parser = _Parser(
        prog="arrangements",
        description="Exact invariants of central rational hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("charpoly", _cmd_charpoly, "characteristic polynomial")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--reduced", action="store_true", help="divide out (t - 1)")
    p.add_argument("--verify", action="store_true", help="cross-check via oracles")

    p = add("chambers", _cmd_chambers, "number of chambers")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--verify", action="store_true", help="cross-check via oracles")

    p = add("ziegler", _cmd_ziegler, "Ziegler restriction onto one hyperplane")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--h0", type=int, required=True, help="hyperplane index")

    p = add("exponents", _cmd_exponents, "multiarrangement exponents")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--bound", type=int, help="derivation degree bound")

    p = add("freeness", _cmd_freeness, "freeness criteria")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--h0", type=int, default=0, help="hyperplane index (default 0)")
    p.add_argument("--bound", type=int, help="derivation degree bound")
    p.add_argument(
        "--method",
        choices=[*_RESTRICTION, "saito", "all"],
        default="all",
    )

    p = add("compare", _cmd_compare, "b- vs sigma-coefficient comparison")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--h0", type=int, required=True, help="hyperplane index")
    p.add_argument("--bound", type=int, help="derivation degree bound")
    p.add_argument(
        "--assert-tame",
        action="store_true",
        help="record a user assertion that the input is tame",
    )

    p = add("corpus", _cmd_corpus, "built-in example arrangements")
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("name", nargs="?", metavar="NAME")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout at devnull so that the
        # flush at exit cannot fail again (the recipe of Python's `signal`
        # docs), and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArrangementError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, TheoremViolation) else 1


if __name__ == "__main__":
    sys.exit(main())
