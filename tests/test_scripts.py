"""The scripts in ``scripts/``: tiny-budget smoke runs, each in its own
process, and the comparison metrics of ``strategy_comparison.py``."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

from strategy_comparison import delta_o, relative_advantage  # noqa: E402


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


def comparison_metrics(reports_bc, reports_gc, exact: complex, noise_aware: bool = False) -> dict:
    """delta-O of each strategy and the relative advantage of general commutation."""

    def pick(r):
        return (r.o_est, r.var_noise_aware if noise_aware else r.var_stat)

    bc = [pick(r) for r in reports_bc]
    gc = [pick(r) for r in reports_gc]
    adv = relative_advantage(float(np.mean([v for _, v in bc])), float(np.mean([v for _, v in gc])))
    return {
        "delta_o_bc": delta_o(bc, exact),
        "delta_o_gc": delta_o(gc, exact),
        "advantage": adv,
    }


class TestComparisonMetrics:
    def test_comparison_reads_the_chosen_variance(self):
        from types import SimpleNamespace

        bc = [SimpleNamespace(o_est=0.1, var_stat=0.04, var_noise_aware=0.16)]
        gc = [SimpleNamespace(o_est=0.2, var_stat=0.01, var_noise_aware=0.04)]
        stat = comparison_metrics(bc, gc, 0.0)
        assert stat == pytest.approx({"delta_o_bc": 0.5, "delta_o_gc": 2.0, "advantage": 1.2})
        aware = comparison_metrics(bc, gc, 0.0, noise_aware=True)
        assert aware == pytest.approx({"delta_o_bc": 0.25, "delta_o_gc": 1.0, "advantage": 1.2})

    def test_identical_variances(self):
        assert relative_advantage(0.4, 0.4) == 0.0

    def test_half_variance(self):
        assert relative_advantage(1.0, 0.5) == pytest.approx(2 / 3)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            relative_advantage(0.0, 0.0)

    def test_delta_o_near_unity_for_calibrated_runs(self, rng):
        exact = 0.3
        runs = []
        for _ in range(300):
            var = 0.05 ** 2
            runs.append((exact + rng.normal(0, 0.05), var))
        assert 0.5 < delta_o(runs, exact) < 1.2

    def test_delta_o_validation(self):
        with pytest.raises(ValueError):
            delta_o([(0.5, 0.0)], 0.3)
