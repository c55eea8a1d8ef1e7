"""Tiny-budget smoke runs of the scripts in ``scripts/``, each in its own process."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("strategy_comparison.py", ["--budget", "40", "--repeats", "1"]),
        ("plateau_sweep.py", ["--budgets", "40", "--seeds", "1"]),
    ],
)
def test_script_writes_its_csv(script, args, tmp_path):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert "var_stat" in header and rows
