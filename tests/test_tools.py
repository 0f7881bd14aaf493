"""The maintenance scripts under tools/ still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import arrangements

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(arrangements.__file__).resolve().parents[1])


def test_derive_corpus_rederives_every_record():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "derive_corpus.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert "all corpus records re-derived by oracles" in proc.stdout
