"""The maintenance scripts under tools/ still run against the package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrangements

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(arrangements.__file__).resolve().parents[1])


def test_derive_corpus_rederives_every_record():
    # under -O too: its cross-checks are not asserts
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, str(ROOT / "tools" / "derive_corpus.py")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        assert "all corpus records re-derived by oracles" in proc.stdout


def _ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(failed=0, **values):
    """A run.py result object with the given metric values."""
    return {"failed": failed, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_ab_bench_summarizes_made_up_pairs():
    metrics = [{"name": "frontier_s", "better": "lower"},
               {"name": "decided_ratio", "better": "higher"}]
    parent = [0.016, 0.015, 0.017, 0.016, 0.018]
    change = [0.012, 0.013, 0.012, 0.016, 0.011]  # the fourth pair is a tie
    decided = [(1.0, 1.0), (0.5, 0.75), (0.5, 0.25), (1.0, 1.0), (0.5, 0.5)]
    pairs = [(_result(frontier_s=p, decided_ratio=dp), _result(frontier_s=c, decided_ratio=dc))
             for p, c, (dp, dc) in zip(parent, change, decided)]
    pairs[2] = (pairs[2][0], {**pairs[2][1], "failed": 2})
    summary = _ab_bench().summarize(pairs, metrics)
    frontier = summary["frontier_s"]
    # the quartiles of perfbench/baseline.py: statistics.quantiles' exclusive rule
    for side, (q1, med, q3) in (("parent", (0.0155, 0.016, 0.0175)),
                                ("change", (0.0115, 0.012, 0.0145))):
        assert frontier[side]["median"] == med
        assert abs(frontier[side]["q1"] - q1) < 1e-12
        assert abs(frontier[side]["q3"] - q3) < 1e-12
    assert frontier["parent"]["values"] == parent
    assert (frontier["wins"], frontier["pairs"]) == (4, 5)
    assert abs(frontier["median_diff"] + 0.004) < 1e-12
    assert abs(frontier["parent_iqr"] - 0.002) < 1e-12
    # higher is better: one win, one loss, three ties
    assert summary["decided_ratio"]["wins"] == 1
    assert summary["decided_ratio"]["median_diff"] == 0.25
    assert summary["failed"] == {"parent": 0, "change": 2}


def test_ab_bench_needs_two_pairs():
    with pytest.raises(ValueError, match="two pairs"):
        _ab_bench().summarize([(_result(batch_s=2.0), _result(batch_s=1.0))],
                              [{"name": "batch_s", "better": "lower"}])


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_property_leaves_the_run_going(tmp_path):
    # under the repo's pytest settings (every warning an error), Hypothesis's
    # failure report must not abort the run with INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
