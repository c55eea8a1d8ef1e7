"""Compare commutation rules and allocation strategies on a demo problem.

Runs all four setting combinations (gc/bc x adaptive/non-adaptive), repeats
each a few times, and prints the mean reported error plus the relative
advantage of general commutation.

    python3 scripts/strategy_comparison.py --budget 4000 --repeats 5
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quditmeas.bayes import MCMCConfig
from quditmeas.engine import RunSettings, run_estimation
from quditmeas.observables import Observable
from quditmeas.paulis import PauliString, QuditRegister
from quditmeas.simulator import NoiseModel, StateVector, expectation


def delta_o(estimates, exact: complex) -> float:
    """Mean distance to the exact value in units of each run's reported error."""
    vals = []
    for o_est, var in estimates:
        if var <= 0:
            raise ValueError("zero variance in delta-O metric")
        vals.append(abs(o_est - exact) / math.sqrt(var))
    if not vals:
        raise ValueError("no runs")
    return float(np.mean(vals))


def relative_advantage(var_bc: float, var_gc: float) -> float:
    """2 (BC - GC) / (BC + GC); positive favours general commutation."""
    denom = var_bc + var_gc
    if denom == 0:
        raise ValueError("zero denominator in relative advantage")
    return 2.0 * (var_bc - var_gc) / denom


def demo_problem():
    # two-qubit observable with an anticorrelated general-commutation clique
    reg = QuditRegister((2, 2))
    obs = Observable(
        reg,
        [
            (1.0, PauliString(reg, ((1, 0), (1, 0)))),
            (1.0, PauliString(reg, ((0, 1), (0, 1)))),
            (0.4, PauliString(reg, ((0, 1), (0, 0)))),
        ],
    )
    amps = np.array([1, 1, 1, -1], dtype=complex) / 2.0
    return obs, StateVector(reg, amps)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=4000)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--xi-detect", type=float, default=0.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    obs, state = demo_problem()
    exact = expectation(obs, state).real
    noise = NoiseModel(xi_detect=args.xi_detect) if args.xi_detect else None
    mcmc = MCMCConfig(n_chains=4, min_samples=150, max_samples=600)

    results = {}
    for mode in ("gc", "bc"):
        for adaptive in (True, False):
            reps = []
            for seed in range(args.repeats):
                settings = RunSettings(
                    budget=args.budget,
                    mode=mode,
                    adaptive=adaptive,
                    seed=seed,
                    noise_aware=noise is not None,
                    mcmc=mcmc,
                )
                reps.append(run_estimation(obs, state, settings, noise))
            key = f"{mode}+{'adapt' if adaptive else 'non-adapt'}"
            results[key] = reps
            err = np.mean([np.sqrt(r.var_stat) for r in reps])
            d_o = delta_o([(r.o_est, r.var_stat) for r in reps], exact)
            print(f"{key:>14}: sqrt(var)={err:.5f}  delta_O={d_o:.2f}")

    var_bc = float(np.mean([r.var_stat for r in results["bc+non-adapt"]]))
    var_gc = float(np.mean([r.var_stat for r in results["gc+adapt"]]))
    print(f"\nrelative advantage of gc+adapt over bc+non-adapt: {relative_advantage(var_bc, var_gc):+.3f}")

    if args.out:
        rows = ["strategy,seed,o_est,var_stat"]
        for key, reps in results.items():
            for seed, r in enumerate(reps):
                rows.append(f"{key},{seed},{r.o_est.real!r},{r.var_stat!r}")
        Path(args.out).write_text("\n".join(rows) + "\n")
        print(f"wrote {args.out} (exact <O> = {exact:.6f})")


if __name__ == "__main__":
    main()
