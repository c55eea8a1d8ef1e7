"""Measurement loop of the benchmark: estimations, output checks, metrics.

A run is a closed loop in one process: one estimation at a time, each with
the run seed ``run_seed(seed, k)``.  The first ``workload.prefix``
estimations always run (``m_var`` and the history digest come from them, so
both are fixed for a given code and seed); later ones start only while they
are predicted to end within ``--seconds``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import quditmeas.cli
import quditmeas.engine
from quditmeas.clifford import diagonalize_clique
from quditmeas.engine import MODE_NAMES
from quditmeas.graph import build_graph, clique_cover
from hooks import LAYERS, HookError, StopAtFirstDecision, Tracer
from workloads import Problem, Workload, run_seed, write_cli_inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PASSES = 5  # set-up-only passes per run, on top of each estimation's own set-up
Z_LIMIT = 5.0  # an estimate further than this many reported sigmas from exact fails
IMAG_TOL = 1e-9

# end-to-end metric -> unit
END_TO_END = {
    "shots_per_s": "shots/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "setup_s": "s",
    "m_var": "1",
    "peak_rss_mb": "MB",
}


@dataclass
class Estimation:
    """What one estimation left behind, whichever entry point ran it."""

    wall: float
    setup: float | None = None
    intervals: list[float] = field(default_factory=list)
    shots: int = 0
    m_var: float = math.nan
    history: bytes = b""
    failure: str | None = None
    bytes_written: int = 0
    tracer: Tracer | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def history_blob(rows) -> bytes:
    """Per-batch history in the CLI's ``history.csv`` row format."""
    lines = [
        ",".join([str(r.m_total), _fmt(r.o_est.real), _fmt(r.o_est.imag), _fmt(r.var_stat),
                  _fmt(r.dev_sys_sq), _fmt(r.var_noise_aware), str(r.clique_id)])
        for r in rows
    ]
    return ("\n".join(lines) + "\n").encode()


def output_failure(problem: Problem, o_est: complex, var_stat: float, var_noise_aware: float) -> str | None:
    """Why a finished estimation counts as failed, or None when it passes.

    The distance to the exact value is judged against ``var_noise_aware``,
    which equals ``var_stat`` unless the run is noise-aware.
    """
    if not math.isfinite(var_stat) or var_stat < 0:
        return f"var_stat {var_stat!r} is not a finite nonnegative number"
    if problem.obs.hermitian and abs(o_est.imag) > IMAG_TOL:
        return f"hermitian observable gave imaginary estimate {o_est.imag:.3e}"
    err = abs(o_est - problem.exact)
    if not err <= Z_LIMIT * math.sqrt(var_noise_aware):
        return f"estimate {o_est.real:.6g} is {err:.3g} from exact {problem.exact.real:.6g} (> {Z_LIMIT} sigma)"
    return None


def _run_engine(problem: Problem, seed: int, tracer: Tracer) -> Estimation:
    settings = replace(problem.settings, seed=seed)
    call = quditmeas.engine.run_estimation
    if tracer.traced:
        call = tracer.span("engine.run_estimation", call)
    t0 = perf_counter()
    try:
        report = call(problem.obs, problem.state, settings, problem.noise)
    except StopAtFirstDecision:
        return Estimation(wall=perf_counter() - t0, setup=tracer.decisions[0] - t0)
    except Exception as exc:  # a raising run is a failed run, never a dropped one
        return Estimation(wall=perf_counter() - t0, shots=settings.budget, failure=f"raised {exc!r}")
    wall = perf_counter() - t0
    tracer.check(len(report.history), sum(report.probes_per_clique))
    return Estimation(
        wall=wall,
        setup=tracer.decisions[0] - t0,
        intervals=list(np.diff(tracer.decisions)),
        shots=report.total_shots,
        m_var=settings.budget * report.var_stat,
        history=history_blob(report.history),
        failure=output_failure(problem, report.o_est, report.var_stat, report.var_noise_aware),
    )


def _run_cli(problem: Problem, seed: int, tracer: Tracer, inputs: dict, out_dir: Path) -> Estimation:
    run_dir = out_dir / "run"
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(dict(inputs, seed=seed, out=os.path.relpath(run_dir))))
    for stale in run_dir.glob("*"):
        stale.unlink()
    call = quditmeas.cli.main
    if tracer.traced:
        call = tracer.span("cli.main", call)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(["run", "--manifest", manifest.as_posix()])
    except StopAtFirstDecision:
        return Estimation(wall=perf_counter() - t0, setup=tracer.decisions[0] - t0)
    except Exception as exc:
        return Estimation(wall=perf_counter() - t0, shots=problem.settings.budget, failure=f"raised {exc!r}")
    wall = perf_counter() - t0
    if code != 0:
        return Estimation(wall=wall, shots=problem.settings.budget, failure=f"cli.main exited with {code}")
    history = (run_dir / "history.csv").read_bytes()
    report = json.loads((run_dir / "report.json").read_text())
    o_est = complex(report["o_est_re"], report["o_est_im"])
    var_stat = report["var_stat"]
    n_history = len(history.decode().splitlines()) - 2  # hash comment and column header
    tracer.check(n_history, sum(report["probes_per_clique"]))
    return Estimation(
        wall=wall,
        setup=tracer.decisions[0] - t0,
        intervals=list(np.diff(tracer.decisions)),
        shots=sum(report["shots_per_clique"]) + sum(report["probes_per_clique"]),
        m_var=problem.settings.budget * var_stat,
        history=history,
        failure=output_failure(problem, o_est, var_stat, report["var_noise_aware"]),
        bytes_written=sum(f.stat().st_size for f in run_dir.iterdir()),
    )


class Runner:
    """Runs estimations of one problem through its entry point."""

    def __init__(self, workload: Workload, problem: Problem, out_dir: Path):
        self.workload = workload
        self.problem = problem
        self.out_dir = out_dir
        self.inputs = None
        if problem.cli_files:
            out_dir.mkdir(parents=True, exist_ok=True)
            self.inputs = write_cli_inputs(problem, out_dir)

    def run(self, seed: int, traced: bool, setup_only: bool = False) -> Estimation:
        with Tracer(traced, self.workload.expected_idle, setup_only) as tracer:
            if self.inputs is None:
                est = _run_engine(self.problem, seed, tracer)
            else:
                est = _run_cli(self.problem, seed, tracer, self.inputs, self.out_dir)
        est.tracer = tracer if traced else None
        return est


def plan_stats(problem: Problem) -> dict[str, float]:
    """Plan size of the problem, computed outside the timed region."""
    mode = MODE_NAMES[problem.settings.mode]
    graph = build_graph(problem.obs, mode)
    cliques = clique_cover(graph)
    strings = problem.obs.strings()
    circuits = [diagonalize_clique([strings[v] for v in c.vertices], mode) for c in cliques]
    return {
        "graph.edges": sum(1 for _ in graph.edges()),
        "graph.cliques": len(cliques),
        "clifford.gates_local": sum(c.n_local for c in circuits),
        "clifford.gates_entangling": sum(c.n_entangling for c in circuits),
    }


# -- run record ------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def run_record(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_applied": blas_threads(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# -- metrics ---------------------------------------------------------------------


def end_to_end(ests: list[Estimation], setups: list[float], prefix: int) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced estimations, plus their sample counts."""
    intervals = np.array([x for e in ests for x in e.intervals]) * 1e3
    p50, p90 = np.percentile(intervals, [50, 90]) if intervals.size else (math.nan, math.nan)
    values = {
        "shots_per_s": float(np.median([e.shots / e.wall for e in ests])),
        "batch_ms_p50": float(p50),
        "batch_ms_p90": float(p90),
        "setup_s": float(np.median(setups)),
        "m_var": float(np.mean([e.m_var for e in ests[:prefix]])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "estimations": len(ests),
        "batch_intervals": int(intervals.size),
        "batch_intervals_per_estimation": [len(e.intervals) for e in ests],
        "beyond_batch_ms_p90": int(np.sum(intervals > p90)),
        "setup_samples": len(setups),
        "m_var_estimations": prefix,
    }
    return values, samples


def per_layer(plain: list[Estimation], traced: list[Estimation], plan: dict) -> dict:
    """Per-layer metrics, as means per traced estimation."""
    n = len(traced)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer = dict.fromkeys(LAYERS, 0.0)
    mcmc = []
    for e in traced:
        t = e.tracer
        for k, v in t.total_s.items():
            total[k] = total.get(k, 0.0) + v
        for k, v in t.calls.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t.layer_self_s().items():
            layer[k] += v
        mcmc.extend(t.mcmc)
    mcmc_s = total.get("bayes.covariance_mcmc", 0.0)
    samples = sum(m.n_samples for m in mcmc)
    wall_traced = sum(e.wall for e in traced)
    wall_plain = sum(e.wall for e in plain)
    sps_traced = sum(e.shots for e in traced) / wall_traced
    sps_plain = sum(e.shots for e in plain) / wall_plain
    accounted = sum(layer.values())

    def secs(name):
        return total.get(name, 0.0) / n, "s"

    def count(name):
        return calls.get(name, 0) / n, "count"

    m = {
        "bayes.mcmc_calls": count("bayes.covariance_mcmc"),
        "bayes.covariance_mcmc_s": secs("bayes.covariance_mcmc"),
        "bayes.tune_gamma_s": secs("bayes.tune_gamma"),
        "bayes.mcmc_samples": (samples / n, "count"),
        "bayes.mcmc_samples_per_s": (samples / mcmc_s if mcmc_s else 0.0, "1/s"),
        "bayes.mcmc_converged_frac": (float(np.mean([x.converged for x in mcmc])) if mcmc else 0.0, "ratio"),
        "bayes.mcmc_acceptance": (float(np.mean([x.acceptance_rate for x in mcmc])) if mcmc else 0.0, "ratio"),
        "bayes.vertex_estimate_s": secs("bayes.vertex_estimate"),
        "graph.build_graph_s": secs("graph.build_graph"),
        "graph.clique_cover_s": secs("graph.clique_cover"),
        "graph.edges": (plan["graph.edges"], "count"),
        "graph.cliques": (plan["graph.cliques"], "count"),
        "graph.variance_decrease_calls": count("graph.variance_decrease"),
        "graph.variance_decrease_s": secs("graph.variance_decrease"),
        "graph.estimate_observable_s": secs("graph.estimate_observable"),
        "clifford.diagonalize_clique_s": secs("clifford.diagonalize_clique"),
        "clifford.gates_local": (plan["clifford.gates_local"], "count"),
        "clifford.gates_entangling": (plan["clifford.gates_entangling"], "count"),
        "clifford.conjugate_ps_calls": count("clifford.conjugate_ps"),
        "clifford.conjugate_ps_s": secs("clifford.conjugate_ps"),
        "simulator.apply_circuit_s": secs("simulator.apply_circuit"),
        "simulator.probes": count("simulator.stabilizer_probe"),
        "simulator.stabilizer_probe_s": secs("simulator.stabilizer_probe"),
        "simulator.sample_shot_s": secs("simulator.sample_shot"),
        "engine.batches": count("engine.select_clique"),
        "engine.record_batch_s": secs("engine.record_batch"),
        "engine.select_clique_s": secs("engine.select_clique"),
        "engine.estimate_xi_s": secs("engine.estimate_xi"),
        "cli.bytes_written": (sum(e.bytes_written for e in traced) / n, "B"),
    }
    for name in LAYERS:
        key = "cli.io_s" if name == "cli" else f"{name}.self_s"
        m[key] = (layer[name] / n, "s")
        m[f"{name}.share"] = (layer[name] / accounted, "ratio")
    m.update({
        "trace.estimations": (n, "count"),
        "trace.shots_per_s_untraced": (sps_plain, "shots/s"),
        "trace.shots_per_s_traced": (sps_traced, "shots/s"),
        "trace.shots_per_s_delta": (sps_traced - sps_plain, "shots/s"),
        "trace.overhead_frac": (wall_traced / wall_plain - 1.0, "ratio"),
        "trace.accounted_frac": (accounted / wall_plain, "ratio"),
    })
    return m


def write_spans(traced: list[Estimation], path: Path) -> None:
    """All spans of the traced estimations, one CSV row each."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write("run,span,parent,name,start_s,end_s\n")
        for run, e in enumerate(traced):
            for span, parent, name, start, end in e.tracer.spans:
                f.write(f"{run},{span},{parent},{name},{start!r},{end!r}\n")


# -- the run ---------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object, the printed lines and the run record."""
    start = perf_counter()
    problem = workload.problem(seed, tiny)
    out_dir = OUT / f"{workload.name}-s{seed}"
    runner = Runner(workload, problem, out_dir)
    setups = [runner.run(run_seed(seed, i), False, setup_only=True).setup for i in range(SETUP_PASSES)]

    plain: list[Estimation] = []
    traced: list[Estimation] = []
    loop_start = perf_counter()
    k = 0

    def next_fits() -> bool:
        now = perf_counter()
        return now - start + (now - loop_start) / k <= seconds

    while k < workload.prefix or next_fits():
        plain.append(runner.run(run_seed(seed, k), False))
        if trace:
            traced.append(runner.run(run_seed(seed, k), True))
            if traced[-1].history != plain[-1].history:
                raise HookError("tracing changed the run's history; a hook alters the program's behaviour")
        k += 1
    setups += [e.setup for e in plain if e.setup is not None]

    runs = plain + traced
    failures = [f"{workload.name} estimation {i}: {e.failure}" for i, e in enumerate(runs) if e.failure]
    digest = hashlib.sha256(b"".join(e.history for e in plain[: workload.prefix])).hexdigest()
    values, samples = end_to_end(plain, setups, workload.prefix)
    record = run_record(workload, seed, int(seconds), int(trace))
    record.update(samples=samples, history_sha256=digest, fail_frac=len(failures) / len(runs))

    lines = [f"workload {workload.name} (seed {seed}): {workload.why}"]
    lines += [f"  {name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END.items()]
    lines.append(f"  fail_frac = {len(failures)}/{len(runs)} = {len(failures) / len(runs):.6g} ratio")
    lines.append(f"  history_sha256 = {digest}")
    lines += [f"  FAILED {f}" for f in failures]
    if trace:
        layer = per_layer(plain, traced, plan_stats(problem))
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
        write_spans(traced, out_dir / "spans.csv")
        lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in layer.items()]
    else:
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
    lines.append("record " + json.dumps(record, sort_keys=True))
    result = {"correct": not failures, "attempted": len(runs), "failed": len(failures), "metrics": metrics}
    return {"result": result, "lines": lines, "record": record}


def main(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    out = measure(workload, seed, seconds, trace)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0
