"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.
"""

import time

import numpy as np
import pytest

from quditmeas.bayes import MCMCConfig, _prob_matrix, _q_values, covariance_mcmc
from quditmeas.clifford import (
    CliffordCircuit,
    Gate,
    circuit_unitary,
    conjugate_ps,
    diagonalize_clique,
    random_clifford_circuit,
)
from quditmeas.engine import RunSettings, fit_noise_model, run_estimation, update_vertex_estimates
from quditmeas.graph import EdgeEstimates, build_graph, estimate_observable
from quditmeas.observables import Observable
from quditmeas.paulis import (
    PauliString,
    QuditRegister,
    commutes_general,
    local_matrix,
    ps_dagger,
    ps_matrix,
    ps_multiply,
)
from quditmeas.simulator import NoiseModel, StateVector, basis_state, prepare_product_state
from quditmeas.spin import spin_coefficients, spin_matrix
from .conftest import random_register, random_string
from .test_bayes import quadrature_q_d2


def report(criterion, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[{status}] criterion {criterion}: {detail}{stamp}")
    assert ok, f"criterion {criterion}: {detail}"


def make_obs(dims, terms):
    reg = QuditRegister(tuple(dims))
    return Observable(reg, [(c, PauliString(reg, tuple(exps))) for c, exps in terms])


# fixed five-term two-qubit observable used by criteria 6 and 7
FIVE_TERM = make_obs(
    (2, 2),
    [
        (1.0, [(0, 1), (0, 0)]),   # Z I
        (0.8, [(0, 0), (0, 1)]),   # I Z
        (0.6, [(0, 1), (0, 1)]),   # Z Z
        (0.5, [(1, 0), (1, 0)]),   # X X
        (-0.4, [(1, 1), (1, 1)]),  # XZ (x) XZ  =  -Y (x) Y pairing
    ],
)


def five_term_state():
    th = 0.55
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(th)
    amps[3] = np.sin(th)
    return StateVector(FIVE_TERM.register, amps)


def run_mcmc_cfg(seed=0, **kw):
    base = dict(n_chains=2, min_samples=100, max_samples=200, seed=seed)
    base.update(kw)
    return MCMCConfig(**base)


def test_criterion_01_algebra_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        reg = random_register(rng)
        a, b = random_string(rng, reg), random_string(rng, reg)
        ma, mb = ps_matrix(a), ps_matrix(b)
        worst = max(worst, float(np.max(np.abs(ps_matrix(ps_multiply(a, b)) - ma @ mb))))
        worst = max(worst, float(np.max(np.abs(ps_matrix(ps_dagger(a)) - ma.conj().T))))
        comm = float(np.max(np.abs(ma @ mb - mb @ ma)))
        if commutes_general(a, b) != (comm <= 1e-12):
            worst = np.inf
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 30, f"1000 random pairs, max deviation {worst:.2e}", elapsed)


def test_criterion_02_spin_reconstruction():
    t0 = time.time()
    worst = 0.0
    counts_ok = True
    for d_s in range(2, 8):
        for axis, bound in (("x", 2 * d_s), ("y", 2 * d_s), ("z", d_s)):
            coeffs = spin_coefficients(d_s, axis)
            counts_ok &= len(coeffs) <= bound
            recon = sum(c * local_matrix(d_s, r, s) for (r, s), c in coeffs)
            worst = max(worst, float(np.max(np.abs(recon - spin_matrix(d_s, axis)))))
    elapsed = time.time() - t0
    report(2, worst <= 1e-12 and counts_ok and elapsed < 5, f"d_S=2..7 reconstruction max dev {worst:.2e}", elapsed)


def _random_general_clique(rng):
    registers = [(2, 2), (3, 3), (5,), (2, 3), (2, 5), (2, 2, 3), (3, 3, 3), (2, 2, 2), (2, 3, 5)]
    reg = QuditRegister(registers[int(rng.integers(0, len(registers)))])
    circ0 = random_clifford_circuit(reg, int(rng.integers(2, 10)), rng)
    strings = []
    for _ in range(int(rng.integers(1, 4))):
        exps = tuple((0, int(rng.integers(0, d))) for d in reg.dims)
        strings.append(conjugate_ps(circ0, PauliString(reg, exps, int(rng.integers(0, 2 * reg.d_p)))))
    return reg, strings


def _random_bitwise_clique(rng):
    registers = [(2, 2), (3, 3), (2, 3), (2, 5), (2, 2, 3)]
    reg = QuditRegister(registers[int(rng.integers(0, len(registers)))])
    gates = []
    for k, d in enumerate(reg.dims):
        for kind in rng.choice(["H", "S", "S_inv", "H_inv"], size=2):
            gates.append(Gate(str(kind), (k,), d))
    circ0 = CliffordCircuit(tuple(gates), reg)
    strings = []
    for _ in range(int(rng.integers(1, 4))):
        exps = tuple((0, int(rng.integers(0, d))) for d in reg.dims)
        strings.append(conjugate_ps(circ0, PauliString(reg, exps)))
    return reg, strings


def test_criterion_03_diagonalization():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    bitwise_ok = True
    for trial in range(1000):
        bitwise = trial % 10 < 3
        reg, strings = (_random_bitwise_clique if bitwise else _random_general_clique)(rng)
        mode = "bitwise" if bitwise else "general"
        circ = diagonalize_clique(strings, mode)
        if bitwise:
            bitwise_ok &= circ.n_entangling == 0 and circ.depth <= 1
        u = circuit_unitary(circ)
        targets = list(strings)
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                targets.append(ps_multiply(ps_dagger(strings[i]), strings[j]))
        for p in targets:
            conj = conjugate_ps(circ, p)
            assert conj.is_diagonal()
            dense = u @ ps_matrix(p) @ u.conj().T
            off = dense - np.diag(np.diag(dense))
            worst = max(worst, float(np.max(np.abs(off))))
    elapsed = time.time() - t0
    report(3, worst <= 1e-10 and bitwise_ok and elapsed < 120, f"1000 random cliques, max off-diagonal {worst:.2e}", elapsed)


def test_criterion_04_mcmc_vs_quadrature():
    t0 = time.time()
    configs = [
        ((1, 0), (0, 1), (1, 0)),
        ((2, 1), (1, 2), (2, 1)),
        ((3, 0), (0, 3), (1, 1)),
        ((1, 1), (1, 1), (2, 0)),
        ((2, 0), (2, 0), (2, 0)),
        ((0, 2), (2, 0), (0, 2)),
        ((3, 2), (2, 3), (4, 1)),
        ((1, 0), (1, 0), (0, 1)),
        ((2, 2), (2, 2), (2, 2)),
        ((4, 1), (1, 4), (5, 0)),
    ]
    cfg = MCMCConfig(n_chains=8, min_samples=600, max_samples=2400, seed=404)
    hits = 0
    details = []
    for k, (s_i, s_j, s_ij) in enumerate(configs):
        want = quadrature_q_d2(s_i, s_j, s_ij)
        est = covariance_mcmc(s_i, s_j, s_ij, 2, cfg, pair_id=k)
        ok = abs(est.value.real - want) <= 3 * est.mc_std_error
        hits += ok
        details.append(f"{want:+.3f}/{est.value.real:+.3f}")
    zero = covariance_mcmc([0, 0], [0, 0], [0, 0], 2, cfg, pair_id=99)
    zero_ok = abs(zero.value) <= 3 * zero.mc_std_error
    elapsed = time.time() - t0
    report(
        4,
        hits >= 9 and zero_ok and elapsed < 300,
        f"{hits}/10 tally configs within 3 mc errors of quadrature; zero-count |Q|={abs(zero.value):.3f}",
        elapsed,
    )


def importance_reference_d3(s_i, s_j, s_ij, rng, n=400_000):
    """Self-normalized importance-sampling posterior mean of Q at d_P = 3.

    Haar states make |psi|^2 uniform on the simplex, so draws p ~ Dirichlet(1^9)
    weighted by prod theta^s (unit priors) target the chains' posterior.
    Returns the mean and its Monte Carlo standard error.
    """
    theta = rng.dirichlet(np.ones(9), size=n) @ _prob_matrix(3)
    logw = np.log(theta) @ np.concatenate([s_i, s_j, s_ij]).astype(float)
    w = np.exp(logw - logw.max())
    q = _q_values(theta, 3)
    mean = (w @ q) / w.sum()
    return complex(mean), float(np.sqrt(w**2 @ np.abs(q - mean) ** 2) / w.sum())


def test_criterion_04_qutrit_mcmc_vs_importance_sampling():
    t0 = time.time()
    rng = np.random.default_rng(4043)
    cfg = MCMCConfig(n_chains=8, min_samples=600, max_samples=2400, seed=404)
    hits = 0
    details = []
    for k in range(10):
        s_i, s_j, s_ij = (rng.integers(0, 5, size=3) for _ in range(3))
        want, want_se = importance_reference_d3(s_i, s_j, s_ij, rng)
        est = covariance_mcmc(s_i, s_j, s_ij, 3, cfg, pair_id=k)
        hits += abs(est.value - want) <= 3 * np.hypot(est.mc_std_error, want_se)
        details.append(f"{abs(want):.3f}/{abs(est.value):.3f}")
    elapsed = time.time() - t0
    report(
        "4 (d=3)",
        hits >= 9 and elapsed < 300,
        f"{hits}/10 qutrit tally configs within 3 mc errors of importance sampling ({' '.join(details)})",
        elapsed,
    )


def test_criterion_05_boundary_invariant():
    t0 = time.time()
    rng = np.random.default_rng(505)
    samples = 0
    violations = 0
    for d_p in (2, 3):
        for trial in range(14):
            s_i = rng.integers(0, 12, size=d_p)
            s_j = rng.integers(0, 12, size=d_p)
            s_ij = rng.integers(0, 12, size=d_p)
            cfg = MCMCConfig(n_chains=4, min_samples=1000, max_samples=1000, seed=trial)
            _, trace = covariance_mcmc(s_i, s_j, s_ij, d_p, cfg, pair_id=trial, collect=True)
            samples += trace["q"].size
            violations += int(np.sum(trace["state_prob_min"] < -1e-10))
            violations += int(np.sum(trace["state_prob_max"] > 1 + 1e-10))
            if d_p == 2:
                th = trace["theta"]
                ti0, tj0, tij0 = th[..., 0], th[..., 2], th[..., 4]
                lo = np.abs(1 - ti0 - tj0)
                hi = 1 - np.abs(ti0 - tj0)
                violations += int(np.sum(tij0 < lo - 1e-10)) + int(np.sum(tij0 > hi + 1e-10))
    elapsed = time.time() - t0
    report(5, samples >= 100_000 and violations == 0, f"{samples} samples, {violations} bound violations", elapsed)


def _calibration_settings(seed, budget=4000):
    return RunSettings(
        budget=budget,
        mode="gc",
        adaptive=True,
        seed=seed,
        mcmc=run_mcmc_cfg(),
    )


def test_criterion_06_calibration():
    t0 = time.time()
    state = five_term_state()
    o_vals = []
    var_vals = []
    for seed in range(200):
        rep = run_estimation(FIVE_TERM, state, _calibration_settings(seed))
        o_vals.append(rep.o_est.real)
        var_vals.append(rep.var_stat)
    emp = float(np.var(o_vals, ddof=1))
    mean_rep = float(np.mean(var_vals))
    ratio = emp / mean_rep
    elapsed = time.time() - t0
    report(
        6,
        abs(ratio - 1.0) <= 0.25 and elapsed < 600,
        f"empirical Var(O)= {emp:.3e} vs mean reported {mean_rep:.3e} (ratio {ratio:.3f})",
        elapsed,
    )


def test_criterion_07_one_over_m_plateau():
    t0 = time.time()
    state = five_term_state()
    levels = {}
    for budget in (5000, 20000):
        vals = []
        for seed in (11, 12, 13):
            rep = run_estimation(FIVE_TERM, state, _calibration_settings(seed, budget=budget))
            vals.append(budget * rep.var_stat)
        levels[budget] = float(np.mean(vals))
    rel = abs(levels[5000] - levels[20000]) / levels[20000]
    elapsed = time.time() - t0
    report(
        7,
        rel <= 0.15,
        f"M*var at 5000 = {levels[5000]:.3f}, at 20000 = {levels[20000]:.3f} (rel diff {rel:.2%})",
        elapsed,
    )


def test_criterion_08_adaptive_gc_advantage():
    t0 = time.time()
    obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (1.0, [(0, 1), (0, 1)])])
    amps = np.array([1, 1, 1, -1], dtype=complex) / 2.0  # XX and ZZ perfectly anticorrelated
    state = StateVector(obs.register, amps)
    budget = 8000
    gc_vals = []
    bc_vals = []
    for seed in (1, 2, 3):
        gc = run_estimation(obs, state, RunSettings(budget=budget, mode="gc", adaptive=True, seed=seed, mcmc=run_mcmc_cfg()))
        bc = run_estimation(obs, state, RunSettings(budget=budget, mode="bc", adaptive=False, seed=seed, mcmc=run_mcmc_cfg()))
        gc_vals.append(budget * gc.var_stat)
        bc_vals.append(budget * bc.var_stat)
    gc_mean, bc_mean = float(np.mean(gc_vals)), float(np.mean(bc_vals))
    elapsed = time.time() - t0
    report(
        8,
        gc_mean <= 0.9 * bc_mean,
        f"M*var GC+adaptive {gc_mean:.3f} vs BC+non-adaptive {bc_mean:.3f}",
        elapsed,
    )


def test_criterion_09_noise_awareness():
    t0 = time.time()
    reg = QuditRegister((2,))
    z_obs = make_obs((2,), [(1.0, [(0, 1)])])

    plus = prepare_product_state(reg, [[1, 1]])
    rep_a = run_estimation(
        z_obs,
        plus,
        RunSettings(budget=4000, noise_aware=True, seed=21, mcmc=run_mcmc_cfg()),
        noise=NoiseModel(xi_detect=0.25),
    )
    ok_a = abs(rep_a.dev_sys) <= 3 * rep_a.dev_sigma + 1e-3

    zero = basis_state(reg, (0,))
    rep_b = run_estimation(
        z_obs,
        zero,
        RunSettings(budget=6000, noise_aware=True, seed=22, mcmc=run_mcmc_cfg()),
        noise=NoiseModel(xi_detect=0.2),
    )
    ok_b_mean = abs(rep_b.o_est.real - 0.8) <= 3 * np.sqrt(rep_b.var_stat) + 0.01
    ok_b_dev = abs(rep_b.dev_sys - 0.2) <= 3 * rep_b.dev_sigma

    ok_c = all(row.var_noise_aware == row.var_stat + row.dev_sys_sq for row in rep_a.history + rep_b.history)
    elapsed = time.time() - t0
    report(
        9,
        ok_a and ok_b_mean and ok_b_dev and ok_c,
        f"(a) |+> dev {abs(rep_a.dev_sys):.4f}<=3s; (b) O={rep_b.o_est.real:.3f}, dev={rep_b.dev_sys.real:.3f}; (c) exact split",
        elapsed,
    )


def test_criterion_10_noise_model_recovery():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    truth = (0.0041, 0.079, 0.0)
    # circuit mix chosen to pin each axis: bare (0,0) probes isolate the
    # detection floor, local-only and entangling-only probes the gate rates
    specs = [(4, 0)] * 3 + [(0, 2)] * 3 + [(0, 0)] * 2 + [(4, 2), (2, 1)]
    records = []
    for k in range(10_000):
        nl, ne = specs[k % len(specs)]
        xi = 1 - (1 - truth[2]) * (1 - truth[1]) ** ne * (1 - truth[0]) ** nl
        records.append((nl, ne, bool(rng.random() < xi)))
    fit = fit_noise_model(records)
    devs = [abs(fit.mean[k] - truth[k]) / max(fit.sigma[k], 1e-12) for k in range(3)]
    ok = all(d <= 2.0 for d in devs)
    elapsed = time.time() - t0
    report(
        10,
        ok and elapsed < 120,
        f"recovered ({fit.mean[0]:.4f},{fit.mean[1]:.4f},{fit.mean[2]:.4f}) within {max(devs):.2f} sigma",
        elapsed,
    )


def test_criterion_11_determinism(tmp_path):
    import json

    from quditmeas.cli import main

    t0 = time.time()
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"dims": [2], "terms": [{"re": 1.0, "im": 0.0, "paulis": [[0, 1]]}]}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dims": [2], "qudits": [[[1, 0], [1, 0]]]}))
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps({"budget": 500, "mcmc": {"n_chains": 2, "min_samples": 100, "max_samples": 200}})
    )
    manifest = tmp_path / "manifest.json"
    blobs = []
    for name in ("r1", "r2"):
        manifest.write_text(
            json.dumps(
                {
                    "observable": str(obs),
                    "state": str(state),
                    "settings": str(settings),
                    "seed": 77,
                    "out": str(tmp_path / name),
                }
            )
        )
        assert main(["run", "--manifest", str(manifest)]) == 0
        blobs.append((tmp_path / name / "history.csv").read_bytes())
    elapsed = time.time() - t0
    report(11, blobs[0] == blobs[1], f"two runs, identical {len(blobs[0])}-byte histories", elapsed)


def test_invariant_qutrit_calibration():
    """Reported variance stays calibrated for conjugate-paired qutrit strings
    (complex eigenvalues exercise the full phase bookkeeping)."""
    t0 = time.time()
    reg = QuditRegister((3,))
    obs = make_obs(
        (3,),
        [(1.0, [(0, 1)]), (1.0, [(0, 2)]), (0.5, [(1, 0)]), (0.5, [(2, 0)])],
    )
    rng = np.random.default_rng(123)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    state = StateVector(reg, amps / np.linalg.norm(amps))
    o_vals, v_vals = [], []
    for seed in range(60):
        rep = run_estimation(obs, state, RunSettings(budget=2000, seed=seed, mcmc=run_mcmc_cfg()))
        o_vals.append(rep.o_est.real)
        v_vals.append(rep.var_stat)
    ratio = float(np.var(o_vals, ddof=1) / np.mean(v_vals))
    elapsed = time.time() - t0
    report("inv-qutrit", 0.6 <= ratio <= 1.5 and min(v_vals) >= 0, f"60 runs, Var ratio {ratio:.3f}", elapsed)


def test_invariant_mixed_register_end_to_end():
    """Full pipeline on a four-qubit + qutrit register (d_P = 6): mixed
    supports, Y-type and conjugate-paired terms, entangling diagonalization."""
    from quditmeas.paulis import ps_dagger
    from quditmeas.simulator import expectation

    t0 = time.time()
    reg = QuditRegister((2, 2, 2, 2, 3))
    specs = [
        (0.9, [(0, 1), (0, 1), (0, 0), (0, 0), (0, 0)]),
        (0.7, [(0, 0), (0, 1), (0, 1), (0, 0), (0, 0)]),
        (-0.5, [(1, 1), (1, 1), (0, 0), (0, 0), (0, 0)]),
        (0.6, [(0, 0), (0, 0), (0, 0), (0, 0), (0, 1)]),
        (0.3, [(1, 0), (0, 0), (1, 0), (0, 0), (1, 0)]),
        (0.25, [(0, 0), (0, 0), (0, 0), (0, 1), (0, 2)]),
    ]
    terms = []
    for c, e in specs:
        p = PauliString(reg, tuple(e))
        terms.append((c, p))
        pd = ps_dagger(p)
        if pd.exps != p.exps:
            terms.append((np.conj(c) * np.exp(1j * np.pi * pd.phase_exp / reg.d_p), PauliString(reg, pd.exps)))
    obs = Observable(reg, terms)
    assert obs.hermitian
    state = prepare_product_state(reg, [[0, 1], [1, 0], [0.6, 0.8], [1, 1], [1, 1, 0.5]])
    exact = expectation(obs, state).real
    rep = run_estimation(
        obs, state, RunSettings(budget=1500, mode="gc", adaptive=True, seed=5, mcmc=run_mcmc_cfg())
    )
    err = abs(rep.o_est.real - exact)
    ok = err <= 4 * np.sqrt(rep.var_stat) + 0.02 and rep.var_stat >= 0 and abs(rep.o_est.imag) < 1e-9
    elapsed = time.time() - t0
    report("inv-mixed", ok, f"p={obs.p} terms, O={rep.o_est.real:.3f} vs exact {exact:.3f}", elapsed)


def test_invariant_variance_nonnegative_randomized_sweep():
    """Estimation variance stays nonnegative with MCMC edge estimates over
    >= 10^4 randomized tally configurations (comm_graph/bayes joint invariant)."""
    t0 = time.time()
    obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)])])
    g_template = build_graph(obs, "general")
    rng = np.random.default_rng(606)
    cfg = MCMCConfig(n_chains=2, min_samples=80, max_samples=80, seed=1)
    worst = 0.0
    n_config = 10_000
    for trial in range(n_config):
        g = build_graph(obs, "general")
        joint = rng.dirichlet(np.ones(4) * rng.uniform(0.3, 2.0)).reshape(2, 2)
        n_joint = int(rng.integers(0, 60))
        n_solo_i = int(rng.integers(0, 25))
        n_solo_j = int(rng.integers(0, 25))
        draws = rng.multinomial(n_joint, joint.reshape(-1)).reshape(2, 2)
        s_i = draws.sum(axis=1)
        s_j = draws.sum(axis=0)
        s_ij = np.array([draws[0, 0] + draws[1, 1], draws[0, 1] + draws[1, 0]])
        g.tallies.add_vertex_counts(0, s_i + rng.multinomial(n_solo_i, joint.sum(axis=1)))
        g.tallies.add_vertex_counts(1, s_j + rng.multinomial(n_solo_j, joint.sum(axis=0)))
        g.tallies.add_pair_counts(0, 1, s_ij)
        est = update_vertex_estimates(g, EdgeEstimates.unestimated(g.p))
        mc = covariance_mcmc(g.tallies.s[0], g.tallies.s[1], g.tallies.pair_s[0, 1], 2, cfg, pair_id=trial)
        phase = np.exp(1j * np.pi * ((g.offsets[1] - g.offsets[0]) % 4) / 2)
        est.q[0, 1] = complex(phase * mc.value)
        est.q[1, 0] = np.conj(est.q[0, 1])
        _, var = estimate_observable(g, est)
        worst = min(worst, var)
    elapsed = time.time() - t0
    report(
        "inv",
        worst >= -1e-10,
        f"{n_config} randomized tally configurations, min variance {worst:.3e}",
        elapsed,
    )
