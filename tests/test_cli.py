"""End-to-end CLI behaviour: output, JSON mode, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrangements
from arrangements import CORPUS, loads_arrangement, parse_report
from arrangements.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_reduced_boolean3(capsys):
    code, out, _ = run(capsys, "charpoly", "corpus:boolean3", "--reduced")
    assert code == 0
    assert "t^2 - 2t + 1" in out


def test_charpoly_verify_passes(capsys):
    code, out, _ = run(capsys, "charpoly", "corpus:braid-ess3", "--verify")
    assert code == 0
    assert "verified by" in out
    assert "finite-field" in out


def test_charpoly_json(capsys):
    code, out, _ = run(capsys, "charpoly", "corpus:generic45", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [4, -10, 10, -5, 1]
    assert data["reduced"] is False


def test_chambers_with_verify(capsys):
    code, out, _ = run(capsys, "chambers", "corpus:supersolvable3", "--verify")
    assert code == 0
    assert "chambers: 32" in out


def test_ziegler_table(capsys):
    code, out, _ = run(capsys, "ziegler", "corpus:braid-ess3", "--h0", "0")
    assert code == 0
    assert "|m| = 5" in out
    assert "m=2" in out


def test_ziegler_json(capsys):
    code, out, _ = run(capsys, "ziegler", "corpus:braid-ess4", "--h0", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 9
    assert sorted(data["mult"]) == [1, 1, 1, 2, 2, 2]


def test_exponents_multiarrangement(capsys):
    code, out, _ = run(capsys, "exponents", "corpus:three-lines-221")
    assert code == 0
    assert "Free(2, 3)" in out


def test_exponents_unknown_exit_code(capsys):
    code, out, _ = run(capsys, "exponents", "corpus:braid-ess3", "--bound", "2")
    assert code == 2
    assert "Unknown" in out


@pytest.mark.parametrize(
    "text, code, expected",
    [
        ('{"dim": 1, "hyperplanes": [[1]]}', 0, "dim 1, 1 hyperplanes, |m| = 1\nFree(1)\n  (x)*d/dx\n"),
        ('{"dim": 2, "hyperplanes": []}', 0, "dim 2, 0 hyperplanes, |m| = 0\nFree(0, 0)\n"),
        (
            '{"dim": 3, "hyperplanes": [[1,0,0],[0,1,0]]}',
            2,
            "dim 3, 2 hyperplanes, |m| = 2\nUnknown (degree bound 0)\n",
        ),
    ],
    ids=["rank-1", "rank-0", "rank-2"],
)
def test_exponents_bound_zero_below_rank_3(capsys, tmp_path, text, code, expected):
    # Rank 0 and rank 1 ignore the bound; rank 2 is Unknown because
    # d2 = 1 exceeds it.
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run(capsys, "exponents", str(path), "--bound", "0") == (code, expected, "")


def test_freeness_all_methods_agree(capsys):
    code, out, _ = run(capsys, "freeness", "corpus:braid-ess3", "--method", "all")
    assert code == 0
    assert out.count("Free(1, 2, 3)") == 4  # three methods plus the merge
    for method in ("yoshinaga", "abe-yoshinaga", "saito"):
        assert method in out


def test_freeness_criteria_disagreement_exits_3(capsys, monkeypatch):
    # A criterion contradicting the others is an internal bug: a typed
    # one-line error with exit code 3, not a traceback.
    from arrangements import cli
    from arrangements.derivations import NOT_FREE, FreenessVerdict

    real = cli._restriction_verdicts
    monkeypatch.setattr(
        cli,
        "_restriction_verdicts",
        lambda *args: {**real(*args), "yoshinaga": FreenessVerdict(NOT_FREE, witness="x")},
    )
    code, out, err = run(capsys, "freeness", "corpus:braid-ess3", "--method", "all")
    assert code == 3
    assert err == (
        "error: TheoremViolation: freeness criteria disagree: "
        "NotFree vs Free (abe-yoshinaga)\n"
    )


# braid-ess3 embedded in Q^4, and three lines through 0 in Q^3: both non-essential
BRAID_IN_Q4 = (
    '{"dim": 4, "hyperplanes": [[1, -1, 0, 0], [1, 0, -1, 0], [0, 1, -1, 0], '
    '[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}'
)
THREE_LINES_IN_Q3 = '{"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}'


@pytest.mark.parametrize(
    "text, merged",
    [(BRAID_IN_Q4, "Free(0, 1, 2, 3)"), (THREE_LINES_IN_Q3, "Free(0, 1, 2)")],
    ids=["braid-in-Q4", "three-lines-in-Q3"],
)
def test_freeness_all_agrees_on_non_essential_input(capsys, tmp_path, text, merged):
    # The exponents of A are 1 and those of A'', sorted: the zeros of the
    # center come first, as in the direct search.
    path = tmp_path / "a.json"
    path.write_text(text)
    code, out, err = run(capsys, "freeness", str(path), "--method", "all")
    assert (code, err) == (0, "")
    assert out.count(merged) == 3  # abe-yoshinaga, saito and the merge
    assert out.endswith(f"merged: {merged}\n")
    code, out, _ = run(capsys, "freeness", str(path), "--method", "abe-yoshinaga", "--json")
    assert code == 0
    exponents = json.loads(out)["merged"]["exponents"]
    assert exponents == sorted(exponents)


def test_abe_yoshinaga_bound_skips_a_rank2_restriction(capsys):
    # A rank-3 input has a rank-2 restriction, which is always free: the
    # bound does not apply to its search, as in the localization sweep.
    code, out, _ = run(
        capsys, "freeness", "corpus:braid-ess3", "--method", "abe-yoshinaga", "--bound", "1"
    )
    assert code == 0
    assert out.endswith("  abe-yoshinaga  Free(1, 2, 3)\n")


@pytest.mark.parametrize(
    "name, restriction_searches",
    [
        pytest.param("braid-ess3", 0, id="braid-ess3"),
        pytest.param("supersolvable3", 0, id="supersolvable3"),
        pytest.param("generic34", 0, id="generic34"),
        pytest.param("braid-ess4", 1, id="braid-ess4"),
    ],
)
def test_freeness_all_searches_the_restriction_once(capsys, monkeypatch, name, restriction_searches):
    # Both restriction criteria read one search of A''; saito searches A.
    # A rank-2 A'' (the rank-3 inputs) is not searched at all: its
    # exponents need no basis.  braid-ess4 has a rank-3 A''.
    from arrangements import derivations, ziegler_restriction

    entry = CORPUS[name]
    searched = []
    real = derivations._search

    def spy(ess, center_dim, degree_bound, candidates):
        searched.append(ess)
        return real(ess, center_dim, degree_bound, candidates)

    monkeypatch.setattr(derivations, "_search", spy)
    code, _, _ = run(capsys, "freeness", f"corpus:{name}", "--h0", str(entry.h0))
    assert code == 0
    restriction = ziegler_restriction(entry.arrangement, entry.h0)
    assert restriction_searches == (restriction.rank() > 2)
    assert searched == [restriction] * restriction_searches + [entry.multiarrangement()]


def _count_walks(monkeypatch, arr):
    """Record, for each lattice walk the CLI makes, whether it starts from
    arr's own keys (the walk that L(A) and chi(A) read), and count the calls
    of intersection_lattice, in every module that binds the name, and of
    _Echelon.rref."""
    from arrangements import cli, criteria, derivations, lattice, linalg, restriction

    counts = {"walks": [], "lattices": 0, "rref": 0}
    keys = lattice._keys(lattice.hyperplane_rows(arr))
    walk, build, rref = lattice._walk, lattice.intersection_lattice, linalg._Echelon.rref

    def counting_walk(start):
        counts["walks"].append(start == keys)
        return walk(start)

    def counting_build(a):
        counts["lattices"] += 1
        return build(a)

    def counting_rref(self):
        counts["rref"] += 1
        return rref(self)

    monkeypatch.setattr(lattice, "_walk", counting_walk)
    for module in (cli, criteria, derivations, lattice, restriction):
        if hasattr(module, "intersection_lattice"):
            monkeypatch.setattr(module, "intersection_lattice", counting_build)
    monkeypatch.setattr(linalg._Echelon, "rref", counting_rref)
    return counts


@pytest.mark.parametrize(
    "name, builds",
    [("braid-ess3", 1), ("braid-ess4", 1), ("generic45", 0)],
)
def test_freeness_all_builds_the_lattice_of_a_at_most_once(capsys, monkeypatch, name, builds):
    # Both restriction criteria read chi0(A); abe-yoshinaga only when the
    # restriction is free, yoshinaga only at rank 3.
    counts = _count_walks(monkeypatch, CORPUS[name].arrangement)
    code, _, _ = run(capsys, "freeness", f"corpus:{name}", "--method", "all")
    assert code == 0
    assert sum(counts["walks"]) == builds


# D4: x_i - x_j and x_i + x_j, free with exponents (1, 3, 3, 5)
D4 = json.dumps({
    "dim": 4,
    "hyperplanes": [[int(k == i) - s * int(k == j) for k in range(4)]
                    for s in (1, -1) for i in range(4) for j in range(i + 1, 4)],
})


@pytest.mark.parametrize(
    "argv, shown, kernels",
    [
        pytest.param(("compare", "--h0", "0"), "arrangement Tame (verified-free)", [],
                     id="compare"),
        pytest.param(("compare", "--h0", "0", "--bound", "5"),
                     "arrangement Tame (verified-free)", [(3, 3), (3, 5)], id="compare-bound"),
        pytest.param(
            ("freeness", "--h0", "0", "--method", "all"),
            "merged: Free(1, 3, 3, 5)",
            [(3, d) for d in range(1, 6)] + [(4, 1), (4, 3), (4, 5)],
            id="freeness-all",
        ),
        pytest.param(("exponents",), "Free(1, 3, 3, 5)", [(4, d) for d in range(1, 6)],
                     id="exponents"),
    ],
)
def test_searches_compute_kernels_only_at_the_exponents_they_hold(
    capsys, monkeypatch, tmp_path, argv, shown, kernels
):
    # (rank, degree) of every graded kernel on D4.  D4 is divisionally
    # free, so compare reads A'' off L(A) and computes no kernel; under a
    # bound it searches A'' (exponents 3, 3, 5) at the roots of chi_0(A)
    # alone, and its rank-2 localizations need no kernel.  freeness
    # --method all scans A'' in full, then searches A at the exponents
    # abe-yoshinaga proved.  exponents holds no exponents and scans every
    # degree up to 5.
    from arrangements import derivations

    path = tmp_path / "d4.json"
    path.write_text(D4)
    computed = []
    real = derivations._graded_kernel

    def spy(multi, d):
        computed.append((multi.dim, d))
        return real(multi, d)

    monkeypatch.setattr(derivations, "_graded_kernel", spy)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert shown in out
    assert computed == kernels


@pytest.mark.parametrize("name", ["braid-ess3", "generic34", "braid-ess4"])
def test_freeness_all_builds_the_restriction_once(capsys, monkeypatch, name):
    # yoshinaga (rank 3 only) and abe-yoshinaga share one Ziegler restriction.
    from arrangements import cli, criteria, restriction

    calls = []
    original = restriction.ziegler_restriction

    def counting(arr, h0):
        calls.append((arr, h0))
        return original(arr, h0)

    for module in (restriction, criteria, cli):
        monkeypatch.setattr(module, "ziegler_restriction", counting)
    code, _, _ = run(capsys, "freeness", f"corpus:{name}", "--method", "all")
    assert code == 0
    assert len(calls) == 1


def test_charpoly_reduced_builds_the_lattice_once(capsys, monkeypatch):
    counts = _count_walks(monkeypatch, CORPUS["braid-ess3"].arrangement)
    code, out, _ = run(capsys, "charpoly", "corpus:braid-ess3", "--reduced")
    assert code == 0
    assert "chi0(t) = t^2 - 5t + 6" in out
    assert counts["walks"] == [True]
    assert counts["lattices"] == 0


# rank 2 in dimension 3: the Ziegler restriction is not essential
NON_ESSENTIAL = '{"dim": 3, "hyperplanes": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0]]}'


@pytest.mark.parametrize("source", ["corpus:braid-ess4", "non-essential"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_compare_builds_one_lattice(capsys, monkeypatch, tmp_path, source, json_flag):
    # L(A'') is read off L(A); equations are computed only for printed flats.
    if source == "non-essential":
        source = tmp_path / "a.json"
        source.write_text(NON_ESSENTIAL)
        counts = _count_walks(monkeypatch, loads_arrangement(NON_ESSENTIAL).arrangement)
    else:
        counts = _count_walks(monkeypatch, CORPUS["braid-ess4"].arrangement)
    code, out, _ = run(capsys, "compare", str(source), "--h0", "0", *json_flag)
    assert code == 0
    assert sum(counts["walks"]) == 1
    assert counts["lattices"] == 1
    assert counts["rref"] == (len(json.loads(out)["per_flat"]) if json_flag else 0)


@pytest.mark.parametrize("command", ["charpoly", "chambers"])
def test_lattice_commands_compute_no_equations(capsys, monkeypatch, command):
    counts = _count_walks(monkeypatch, CORPUS["braid-ess4"].arrangement)
    code, _, _ = run(capsys, command, "corpus:braid-ess4")
    assert code == 0
    assert counts == {"walks": [True], "lattices": 0, "rref": 0}


def test_freeness_json(capsys):
    code, out, _ = run(capsys, "freeness", "corpus:generic34", "--h0", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["merged"]["status"] == "NotFree"
    assert set(data["methods"]) == {"yoshinaga", "abe-yoshinaga", "saito"}


def test_freeness_explicit_method_wrong_rank_exits_1(capsys):
    code, _, err = run(capsys, "freeness", "corpus:generic45", "--method", "yoshinaga")
    assert code == 1
    assert "WrongRank" in err


def test_freeness_skips_inapplicable_methods_in_all_mode(capsys):
    code, out, _ = run(capsys, "freeness", "corpus:generic45", "--method", "all")
    assert code == 0  # saito and abe-yoshinaga agree: NotFree is definitive
    assert "yoshinaga: skipped" in out


def test_freeness_unknown_exit_code(capsys):
    code, out, _ = run(
        capsys, "freeness", "corpus:braid-ess3", "--method", "saito", "--bound", "2"
    )
    assert code == 2
    assert "Unknown" in out


def test_freeness_pruning_is_decisive_below_bound(capsys):
    # The Hilbert-series pruning rules out every exponent profile for
    # generic45 already at degree 1, so even --bound 1 is definitive.
    code, out, _ = run(
        capsys, "freeness", "corpus:generic45", "--method", "saito", "--bound", "1"
    )
    assert code == 0
    assert "NotFree" in out


def test_compare_generic34(capsys):
    code, out, _ = run(capsys, "compare", "corpus:generic34", "--h0", "3")
    assert code == 0
    assert "strict" in out
    assert "sum b = 7, sum sigma = 6" in out
    assert "MCA: no" in out


def test_compare_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compare", "corpus:generic34", "--h0", "3", "--json")
    assert code == 0
    report = parse_report(out)
    assert list(report.table.b) == [1, 3, 3]
    assert report.mca is False


def test_compare_unresolved_sigma_exits_2(capsys):
    code, out, _ = run(capsys, "compare", "corpus:generic45", "--h0", "0")
    assert code == 2
    assert "unresolved" in out


def test_compare_assert_tame_is_recorded(capsys):
    code, out, _ = run(
        capsys, "compare", "corpus:generic45", "--h0", "0", "--assert-tame"
    )
    assert code == 2
    assert "user" in out


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    for name in CORPUS:
        assert name in out


def test_corpus_list_json(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--json")
    assert code == 0
    records = json.loads(out)
    assert [r["name"] for r in records] == list(CORPUS)
    for record in records:
        entry = CORPUS[record["name"]]
        assert record == {
            "name": entry.name,
            "description": entry.description,
            "dim": entry.arrangement.dim,
            "n_hyperplanes": entry.arrangement.n_hyperplanes,
            "mult": list(entry.mult) if entry.mult else None,
        }
    assert CORPUS["braid-ess3"].mult is None
    assert next(r for r in records if r["name"] == "braid-ess3")["mult"] is None
    assert any(r["mult"] for r in records)


def test_corpus_get_is_loadable(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "get", "braid-ess3")
    assert code == 0
    path = tmp_path / "braid.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "charpoly", str(path))
    assert code == 0
    assert "t^3 - 6t^2 + 11t - 6" in out2
    # `corpus:NAME` and the file `corpus get NAME` prints give the same stdout
    # and exit code under every subcommand that reads an input
    for name, entry in CORPUS.items():
        code, out, _ = run(capsys, "corpus", "get", name)
        assert code == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        h0 = ["--h0", str(entry.h0)]
        commands = [["charpoly"], ["chambers"], ["exponents"], ["freeness", *h0]]
        if not entry.mult or set(entry.mult) == {1}:
            commands += [["ziegler", *h0], ["compare", *h0]]
        for command, *rest in commands:
            by_name = run(capsys, command, f"corpus:{name}", *rest)[:2]
            by_file = run(capsys, command, str(path), *rest)[:2]
            assert by_name == by_file, (command, name)


def test_corpus_get_unknown_name(capsys):
    code, _, err = run(capsys, "corpus", "get", "nope")
    assert code == 1
    assert "unknown corpus entry" in err


def test_corpus_get_without_name(capsys):
    code, _, err = run(capsys, "corpus", "get")
    assert code == 1
    assert "NAME" in err


def test_unknown_corpus_reference(capsys):
    code, _, err = run(capsys, "charpoly", "corpus:missing")
    assert code == 1
    assert "unknown corpus entry" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "charpoly", "/no/such/file.json")
    assert code == 1
    assert "error" in err


def test_malformed_file_diagnostic(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "hyperplanes": [[1, "x"]]}')
    code, _, err = run(capsys, "charpoly", str(path))
    assert code == 1
    assert "hyperplanes[0][1]" in err


@pytest.mark.parametrize("argv", [("ziegler", "--h0", "0"), ("freeness",), ("compare", "--h0", "0")])
def test_hyperplane_index_into_an_empty_arrangement(capsys, tmp_path, argv):
    path = tmp_path / "empty.json"
    path.write_text('{"dim": 2, "hyperplanes": []}')
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == (
        "error: IndexOutOfRange: hyperplane index 0: the arrangement has no hyperplanes\n"
    )


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compare", "corpus:generic34"])  # --h0 is required
    assert info.value.code == 1


def test_mult_rejected_where_simple_needed(capsys):
    code, _, err = run(capsys, "ziegler", "corpus:three-lines-221", "--h0", "0")
    assert code == 1
    assert "simple" in err


def test_degree_bound_comes_from_the_flag_alone(capsys, monkeypatch):
    code, _, _ = run(capsys, "exponents", "corpus:braid-ess3", "--bound", "1")
    assert code == 2  # bound 1 leaves the search unresolved
    code, out, _ = run(capsys, "exponents", "corpus:braid-ess3", "--bound", "0")
    assert code == 2
    assert "Unknown (degree bound 0)" in out
    # a bound comes from --bound alone, never from the environment
    unbounded = run(capsys, "exponents", "corpus:braid-ess3")
    assert unbounded[0] == 0
    monkeypatch.setenv("ARRANGEMENTS_DEGREE_BOUND", "0")
    assert run(capsys, "exponents", "corpus:braid-ess3") == unbounded


@pytest.mark.parametrize(
    "argv",
    [
        ("exponents", "corpus:braid-ess3"),
        ("freeness", "corpus:braid-ess3"),
        ("compare", "corpus:braid-ess4", "--h0", "0"),
    ],
)
def test_negative_bound_flag_is_an_input_error(capsys, argv):
    assert run(capsys, *argv, "--bound", "-3") == (
        1,
        "",
        "error: --bound must be a nonnegative integer, got -3\n",
    )


def test_main_reuses_one_parser_and_leaks_no_state(capsys):
    # The parser is built on the first call and shared by later ones; flags
    # and subcommands of one call must not reach the next.
    from arrangements import cli

    unknown = run(capsys, "exponents", "corpus:three-lines-221", "--bound", "1", "--json")
    reduced = run(capsys, "charpoly", "corpus:boolean3", "--reduced")
    plain = run(capsys, "charpoly", "corpus:boolean3")
    free = run(capsys, "exponents", "corpus:three-lines-221")
    assert cli._build_parser() is cli._build_parser()
    assert unknown[0] == 2 and json.loads(unknown[1])["status"] == "Unknown"
    assert free[0] == 0 and free[1].startswith("dim 2")
    assert "t^2 - 2t + 1" in reduced[1] and "t^2 - 2t + 1" not in plain[1]
    for argv, shared in [
        (("charpoly", "corpus:boolean3"), plain),
        (("exponents", "corpus:three-lines-221"), free),
    ]:
        cli._build_parser.cache_clear()
        assert run(capsys, *argv) == shared


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["compare", "corpus:braid-ess4", "--h0", "0", "--json"], id="compare"),
        pytest.param(["exponents", "corpus:braid-ess3"], id="exponents"),
    ],
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # The read end of the pipe is closed before the child writes, as with
    # `arrangements compare FILE --json | true`.
    read, write = os.pipe()
    os.close(read)
    src = str(Path(arrangements.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "arrangements.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""


def _verdict(status, exponents=None, basis=None):
    from arrangements.derivations import FreenessVerdict

    return FreenessVerdict(status, exponents=exponents, basis=basis)


def test_merge_verdicts_skips_unknowns_and_prefers_a_basis():
    from arrangements.cli import _merge_verdicts

    unknown = _verdict("Unknown")
    proven = _verdict("Free", (1, 2))
    with_basis = _verdict("Free", (1, 2), basis=("theta1", "theta2"))
    later_basis = _verdict("Free", (1, 2), basis=("eta1", "eta2"))
    merged = _merge_verdicts({"a": unknown, "b": proven, "c": with_basis, "d": later_basis})
    assert merged is with_basis
    assert _merge_verdicts({"a": unknown, "b": proven, "c": _verdict("Free", (1, 2))}) is proven
    second_unknown = _verdict("Unknown")
    assert _merge_verdicts({"a": unknown, "b": second_unknown}) is unknown
    not_free = _verdict("NotFree")
    assert _merge_verdicts({"a": unknown, "b": not_free, "c": _verdict("NotFree")}) is not_free


def test_merge_verdicts_refuses_disagreeing_criteria():
    from arrangements.cli import _merge_verdicts
    from arrangements.errors import TheoremViolation

    free = _verdict("Free", (1, 2))
    with pytest.raises(TheoremViolation) as status:
        _merge_verdicts({"a": _verdict("Unknown"), "b": free, "c": _verdict("NotFree")})
    assert str(status.value) == "freeness criteria disagree: Free vs NotFree (c)"
    with pytest.raises(TheoremViolation) as exponents:
        _merge_verdicts({"a": free, "b": _verdict("Free", (0, 3), basis=("t",))})
    assert str(exponents.value) == (
        "freeness criteria disagree on exponents: (1, 2) vs (0, 3) (b)"
    )


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("command, oracle, wrong, message", [
    ("charpoly", "char_poly_recursion", (0, 1), "deletion-restriction recursion got t"),
    ("charpoly", "finite_field_char_poly", (0, 1), "finite-field oracle got t"),
    ("chambers", "region_count_recursion", 7, "deletion-restriction recursion got 7"),
])
def test_verify_reports_an_oracle_mismatch_with_exit_3(
    capsys, monkeypatch, command, oracle, wrong, message, json_flag
):
    # the other oracle still agrees, so it alone is listed as verifying
    from arrangements import IntPoly, cli

    value = IntPoly(wrong) if isinstance(wrong, tuple) else wrong
    monkeypatch.setattr(cli, oracle, lambda arr: value)
    argv = [command, "corpus:braid-ess3", "--verify"] + ["--json"] * json_flag
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == f"verification mismatch: {message}\n"
    if json_flag:
        data = json.loads(out)
        assert data["mismatches"] == [message]
        assert len(data["verified_by"]) == 1
    else:
        assert "verified by: " in out


def test_verify_skips_the_finite_field_oracle_in_dimension_6(capsys, tmp_path):
    # seven primes q with q**6 within the point budget do not exist, so the
    # oracle refuses (BadPrime) and only the recursion verifies chi
    path = tmp_path / "boolean6.json"
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    path.write_text(json.dumps({"dim": 6, "hyperplanes": rows}))
    code, out, err = run(capsys, "charpoly", str(path), "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, -6, 15, -20, 15, -6, 1]
    assert data["verified_by"] == ["deletion-restriction recursion"]
    assert data["mismatches"] == []
    assert err.startswith("note: finite-field oracle skipped: ")
    assert err.count("\n") == 1


def test_freeness_in_dimension_1_notes_both_skipped_criteria(capsys, tmp_path):
    path = tmp_path / "point.json"
    path.write_text('{"dim": 1, "hyperplanes": [[1]]}')
    code, out, _ = run(capsys, "freeness", str(path))
    assert code == 0
    assert out.splitlines() == [
        "dim 1, 1 hyperplanes, |m| = 1",
        "  saito  Free(1)",
        "  yoshinaga: skipped (needs essential rank 3)",
        "  abe-yoshinaga: skipped (needs dim >= 2)",
    ]
