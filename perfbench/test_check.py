"""Self-test of the answer checker: a perturbed answer must fail the run.

    python3 -m pytest perfbench

Real answers come from running a few small cases of each workload through
the command line in-process; each is then perturbed the way a wrong
program would, and `run.check_passes` must count exactly that case failed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

import cases as casegen
from check import check
from run import SRC, check_passes
from worker import run_case

sys.path.insert(0, str(SRC))
from arrangements.cli import main as cli_main  # noqa: E402

SMALL = {
    "lattice": "charpoly/D4",
    "free-basis": "exponents/B3",
    "compare": "compare/braid-ess3",
    "verify": "chambers/D4",
}


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """{workload: (case, outcome)} for one small case per workload."""
    out = {}
    for workload, case_id in SMALL.items():
        workdir = tmp_path_factory.mktemp(workload)
        case = next(c for c in casegen.build(workload, 7, workdir) if c["id"] == case_id)
        out[workload] = (case, run_case(cli_main, case["argv"]))
    return out


def _edit_stdout(outcome, edit):
    bad = copy.deepcopy(outcome)
    data = json.loads(bad["stdout"])
    edit(data)
    bad["stdout"] = json.dumps(data)
    return bad


def _bump_chi(d):
    d["coefficients"][1] += 1


def _swap_exponents(d):
    d["exponents"][0], d["exponents"][-1] = d["exponents"][-1], d["exponents"][0]


def _raise_sigma(d):
    d["sigma"][2] += 1


def _oracle_mismatch(d):
    d["mismatches"] = ["finite-field oracle got 0"]


PERTURB = {
    "lattice": _bump_chi,
    "free-basis": _swap_exponents,
    "compare": _raise_sigma,
    "verify": _oracle_mismatch,
}


@pytest.mark.parametrize("workload", SMALL)
def test_true_answer_passes(answers, workload):
    case, outcome = answers[workload]
    assert check(case, outcome) is None


@pytest.mark.parametrize("workload", SMALL)
def test_perturbed_answer_fails_the_run(answers, workload):
    case, outcome = answers[workload]
    bad = _edit_stdout(outcome, PERTURB[workload])
    assert check(case, bad)
    passes = [{"result": {"outcomes": {case["id"]: outcome}}},
              {"result": {"outcomes": {case["id"]: bad}}}]
    assert check_passes([case], passes)[:2] == (2, 1)


def test_missing_oracle_fails(answers):
    """An answer the finite-field oracle did not confirm is not certified."""
    case, outcome = answers["verify"]
    assert casegen.FINITE_FIELD in case["expect"]["verified_by"]
    bad = _edit_stdout(outcome, lambda d: d["verified_by"].remove(casegen.FINITE_FIELD))
    assert check(case, bad) == f"not verified by the {casegen.FINITE_FIELD}"


def test_wrong_exit_code_and_error_fail(answers):
    case, outcome = answers["compare"]
    assert check(case, dict(outcome, exit=2))
    assert check(case, dict(outcome, exit=None, error="Traceback ...\nTheoremViolation: x"))


def test_unknown_must_leave_sigma_unresolved(answers):
    case, outcome = answers["compare"]
    loose = dict(case, exits=[0, 2])
    assert check(loose, dict(outcome, exit=2))


def test_decided_ratio_counts_only_cases_that_may_end_unknown(answers):
    case, outcome = answers["compare"]

    def leave_unresolved(d):
        d["sigma"][-1] = None
        d["chamber_bound"][1] = d["mca"] = None

    unknown = dict(_edit_stdout(outcome, leave_unresolved), exit=2)
    open_case = dict(case, id="open", exits=[0, 2], expect={"b": case["expect"]["b"]})
    passes = [{"result": {"outcomes": {case["id"]: outcome, "open": unknown}}},
              {"result": {"outcomes": {case["id"]: outcome, "open": outcome}}}]
    assert check_passes([case], passes)[2] == 1.0
    assert check_passes([case, open_case], passes)[:3] == (4, 0, 0.5)


def test_missing_pass_counts_every_case_failed(answers):
    case, _ = answers["lattice"]
    assert check_passes([case], [{"result": None}])[:2] == (1, 1)


def test_closed_forms_match_whitney():
    for kind, n in [("braid", 4), ("B", 3), ("D", 3), ("A", 3)]:
        forms, chi, chambers, exps = casegen.family(kind, n)
        assert casegen.whitney_char_poly(forms, n) == chi
        assert chi == casegen.poly_from_roots(exps)
        assert (-1) ** n * sum(c * (-1) ** k for k, c in enumerate(chi)) == chambers
