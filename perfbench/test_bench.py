"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/test_bench.py -q

Checks that each workload emits every metric named in BENCHMARK.json with its
unit, that outputs pass the correctness check, that the history digest
repeats, and that the hook guards fail loudly when a hooked name moves.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quditmeas.engine  # noqa: E402
import bench  # noqa: E402
import hooks  # noqa: E402
from workloads import WORKLOADS, Problem  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RECORD_KEYS = {"git_sha", "python", "numpy", "nproc", "blas_env", "blas_threads_applied", "seed", "samples"}


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(name):
    plain = bench.measure(WORKLOADS[name], seed=3, seconds=0, trace=False, tiny=True)
    traced = bench.measure(WORKLOADS[name], seed=3, seconds=0, trace=True, tiny=True)
    for out in (plain, traced):
        assert out["result"]["correct"], out["lines"]
        assert out["result"]["failed"] == 0 < out["result"]["attempted"]
        assert RECORD_KEYS <= set(out["record"])
        assert any(line.strip().startswith("fail_frac = ") for line in out["lines"])
    assert {k: v["unit"] for k, v in plain["result"]["metrics"].items()} == units("end_to_end")
    assert {k: v["unit"] for k, v in traced["result"]["metrics"].items()} == units("per_layer")
    assert plain["record"]["history_sha256"] == traced["record"]["history_sha256"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_digest_repeats_for_same_seed():
    runs = [bench.measure(WORKLOADS["five_term"], seed=5, seconds=0, trace=False, tiny=True) for _ in range(2)]
    assert runs[0]["record"]["history_sha256"] == runs[1]["record"]["history_sha256"]
    other = bench.measure(WORKLOADS["five_term"], seed=6, seconds=0, trace=False, tiny=True)
    assert other["record"]["history_sha256"] != runs[0]["record"]["history_sha256"]


def test_renamed_hook_target_fails_loudly(monkeypatch):
    engine = quditmeas.engine
    monkeypatch.setattr(engine, "select_clique_renamed", engine.select_clique, raising=False)
    monkeypatch.delattr(engine, "select_clique")
    with pytest.raises(hooks.HookError, match="engine.select_clique is missing"):
        bench.measure(WORKLOADS["five_term"], seed=3, seconds=0, trace=False, tiny=True)
    assert not hasattr(engine, "select_clique")  # nothing left patched


def test_decision_count_guard(monkeypatch):
    # a timestamp hook on a name called once more than select_clique per run
    monkeypatch.setattr(hooks, "DECISION", ("quditmeas.engine", "estimate_observable"))
    with pytest.raises(hooks.HookError, match="decisions but the report has"):
        bench.measure(WORKLOADS["five_term"], seed=3, seconds=0, trace=False, tiny=True)


def test_probe_count_guard(monkeypatch):
    # wrapping the defining module instead of the caller's namespace sees no probes
    traced = [
        ("quditmeas.simulator", attr, name) if attr == "stabilizer_probe" else (mod, attr, name)
        for mod, attr, name in hooks.TRACED
    ]
    monkeypatch.setattr(hooks, "TRACED", traced)
    with pytest.raises(hooks.HookError, match="stabilizer_probe hook saw 0 probes"):
        bench.measure(WORKLOADS["mixed_d6"], seed=3, seconds=0, trace=True, tiny=True)


def test_output_check_flags_bad_estimates():
    problem: Problem = WORKLOADS["five_term"].problem(3, tiny=True)
    exact = problem.exact.real
    assert bench.output_failure(problem, complex(exact, 0), 1e-4, 1e-4) is None
    assert "finite" in bench.output_failure(problem, complex(exact, 0), float("nan"), 1e-4)
    assert "finite" in bench.output_failure(problem, complex(exact, 0), -1e-4, -1e-4)
    assert "imaginary" in bench.output_failure(problem, complex(exact, 1e-6), 1e-4, 1e-4)
    assert "sigma" in bench.output_failure(problem, complex(exact + 0.06, 0), 1e-4, 1e-4)


def test_raising_run_counts_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(quditmeas.engine, "run_estimation", broken)
    workload = WORKLOADS["five_term"]
    runner = bench.Runner(workload, workload.problem(3, tiny=True), tmp_path)
    est = runner.run(seed=1, traced=False)
    assert est.failure and "boom" in est.failure
