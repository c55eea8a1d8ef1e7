import dataclasses

import numpy as np
import pytest

from quditmeas import engine
from quditmeas.bayes import MCMCConfig
from quditmeas.engine import (
    EstimationReport,
    RunSettings,
    delta_o,
    fit_noise_model,
    record_batch,
    relative_advantage,
    run_estimation,
    estimate_xi,
    plan_measurements,
    select_clique,
    systematic_deviation,
    update_vertex_estimates,
    worst_case_bound,
    xi_posterior,
)
from quditmeas.clifford import CliffordCircuit, Gate, conjugate_ps, diagonalize_clique
from quditmeas.graph import Clique, EdgeEstimates, build_graph, clique_cover
from quditmeas.observables import Observable, json_value
from quditmeas.paulis import PauliString, QuditRegister, ps_dagger, ps_multiply
from quditmeas.simulator import NoiseModel, StateVector, prepare_product_state
from .conftest import basis_state, random_register, random_string, validate_tallies


def outcome_to_eigenindex(digits, p: PauliString) -> tuple[int, int]:
    """Raw eigenvalue index of a diagonal string on a computational outcome.

    Returns ``(mu, phase_exp)``: the string's eigenvalue on ``|digits>`` is
    ``omega_{2 d_P}^{phase_exp} * omega_{d_P}^mu``.  Per-shot oracle of the
    vectorized index in ``record_batch``.
    """
    if not p.is_diagonal():
        raise ValueError("outcome_to_eigenindex needs a diagonal string")
    d_p = p.register.d_p
    mu = 0
    for d, (_, s), n in zip(p.register.dims, p.exps, digits):
        mu += (d_p // d) * s * int(n)
    return mu % d_p, p.phase_exp


def make_obs(dims, terms):
    reg = QuditRegister(tuple(dims))
    return Observable(reg, [(c, PauliString(reg, tuple(exps))) for c, exps in terms])


def fast_settings(**kw):
    base = dict(
        budget=400,
        seed=11,
        mcmc=MCMCConfig(n_chains=2, min_samples=120, max_samples=240),
    )
    base.update(kw)
    return RunSettings(**base)


def weight_only(g) -> EdgeEstimates:
    """The weight-only allocation estimates: unit variances, zero covariances."""
    return EdgeEstimates(p_means=np.zeros(g.p, dtype=complex), q=np.eye(g.p, dtype=complex))


Z_OBS = make_obs((2,), [(1.0, [(0, 1)])])
# the five-term two-qubit observable of acceptance criteria 6 and 7, and its state
FIVE_TERMS = [
    (1.0, [(0, 1), (0, 0)]),
    (0.8, [(0, 0), (0, 1)]),
    (0.6, [(0, 1), (0, 1)]),
    (0.5, [(1, 0), (1, 0)]),
    (-0.4, [(1, 1), (1, 1)]),
]
FIVE_AMPS = [np.cos(0.55), 0.0, 0.0, np.sin(0.55)]


class TestXiPosterior:
    def test_uninformative(self):
        assert xi_posterior([0, 0]).mean == pytest.approx(0.5)

    def test_posterior_mean(self):
        assert xi_posterior([1, 99]).mean == pytest.approx(2 / 102)

    def test_limit_to_zero(self):
        means = xi_posterior([[0, n] for n in (10, 100, 10_000)]).mean
        assert means[0] > means[1] > means[2]
        assert means[2] < 1e-3

    def test_variance_matches_beta(self):
        m = (3 + 1) / 12
        assert xi_posterior([3, 7]).variance == pytest.approx(m * (1 - m) / 13)

    def test_mean_matches_beta_formula(self, rng):
        # the two-outcome formula xi_posterior wrote out before it read the
        # Dirichlet posterior mean
        for n in (1, 7, 200):
            counts = rng.integers(0, 10_000, size=(n, 2))
            want = (counts[..., 0] + 1.0) / (counts.sum(axis=-1) + 2.0)
            assert np.array_equal(xi_posterior(counts).mean, want)


def per_string_estimate_xi(total_dim, probe_counts, usage):
    """The per-circuit dict and per-string loop ``estimate_xi`` replaced,
    kept as its oracle; returns (mean, variance, n_probes) per string."""
    collide = total_dim / (total_dim - 1.0)
    xi_clique = {}
    for ci, (e, ok) in enumerate(probe_counts):
        if e + ok == 0:
            xi_clique[ci] = (0.5, 1.0 / 12.0, 0)
            continue
        mean = (e + 1.0) / (e + ok + 2.0)
        var = mean * (1.0 - mean) / (e + ok + 3.0)
        xi_clique[ci] = (min(1.0, mean * collide), var * collide ** 2, e + ok)
    out = []
    for i in range(usage.shape[0]):
        w = {ci: usage[i, ci] for ci in xi_clique if usage[i, ci] > 0}
        if not w:
            out.append((0.5, 1.0 / 12.0, 0))
            continue
        tot = sum(w.values())
        mean = sum(usage[i, ci] * xi_clique[ci][0] for ci in w) / tot
        var = sum((usage[i, ci] / tot) ** 2 * xi_clique[ci][1] for ci in w)
        out.append((mean, var, sum(xi_clique[ci][2] for ci in w)))
    return out


def test_estimate_xi_matches_per_string_oracle(rng):
    """The (p, C) array form equals the per-string loops, with unprobed
    circuits and unmeasured strings on the prior."""
    obs = make_obs((2, 3), [(1.0, [(0, 1), (0, 0)]), (0.5, [(0, 0), (0, 1)]), (0.3, [(1, 0), (1, 0)])])
    g = build_graph(obs, "general")
    for _ in range(30):
        n_cliques = int(rng.integers(1, 6))
        counts = rng.integers(0, 40, size=(n_cliques, 2)) * (rng.random((n_cliques, 1)) < 0.7)
        usage = rng.integers(0, 100, size=(g.p, n_cliques)) * (rng.random((g.p, n_cliques)) < 0.5)
        got = estimate_xi(g, counts, usage)
        want = per_string_estimate_xi(obs.register.total_dim, counts.tolist(), usage)
        for i, (mean, var, n) in enumerate(want):
            assert abs(got.mean[i] - mean) <= 1e-14
            assert abs(got.variance[i] - var) <= 1e-14
            assert got.n_probes[i] == n


class TestRecordBatch:
    def test_singleton_counts(self):
        g = build_graph(Z_OBS, "general")
        clique = Clique((0,), circuit=CliffordCircuit((), Z_OBS.register))
        record_batch(g, clique, np.array([[0], [0], [1]]))
        assert g.tallies.m[0] == 3
        assert list(g.tallies.s[0]) == [2, 1]

    def test_pair_counts_and_identity(self):
        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.5, [(0, 1), (0, 1)])])
        g = build_graph(obs, "general")
        cover = clique_cover(g)
        from quditmeas.clifford import diagonalize_clique

        strings = obs.strings()
        joint = next(c for c in cover if len(c.vertices) == 2)
        joint.circuit = diagonalize_clique([strings[v] for v in joint.vertices], "general")
        rng = np.random.default_rng(0)
        outcomes = rng.integers(0, 2, size=(20, 2))
        record_batch(g, joint, outcomes)
        i, j = joint.vertices
        assert g.tallies.pair_m[i, j] == g.tallies.pair_m[j, i] == 20
        assert g.tallies.pair_s[i, j].sum() == 20
        validate_tallies(g.tallies)

    def test_tallies_match_direct_eigenvalues(self):
        # canonical tallies must reproduce the physical eigenvalue of each string
        from quditmeas.clifford import diagonalize_clique
        from quditmeas.paulis import ps_matrix
        from quditmeas.simulator import apply_circuit

        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.5, [(0, 1), (0, 1)])])
        g = build_graph(obs, "general")
        strings = obs.strings()
        clique = Clique((0, 1), circuit=diagonalize_clique(list(strings), "general"))
        rng = np.random.default_rng(3)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(obs.register, amps / np.linalg.norm(amps))
        final = apply_circuit(state, clique.circuit)
        probs = final.probabilities()
        n = 40_000
        flats = rng.choice(4, size=n, p=probs / probs.sum())
        outcomes = np.stack([(flats // 2) % 2, flats % 2], axis=1)
        record_batch(g, clique, outcomes)
        d_p = 2
        omega = np.array([1.0, -1.0])
        for v in (0, 1):
            emp = (g.tallies.s[v] / n) @ omega * np.exp(1j * np.pi * g.offsets[v] / d_p)
            want = state.amplitudes.conj() @ ps_matrix(strings[v]) @ state.amplitudes
            assert abs(emp - want) < 0.02

    def test_tally_counts_match_per_shot_oracle(self, rng):
        """record_batch's tallies equal a per-shot read-out of every member and
        pair product through the clique's circuit, on random mixed registers."""
        n_pairs = 0
        for _ in range(25):
            reg = random_register(rng, max_q=3)
            d_p = reg.d_p
            strings = {random_string(rng, reg, with_phase=False).exps for _ in range(6)} - {((0, 0),) * reg.q}
            obs = Observable(reg, [(complex(rng.normal(), rng.normal()), PauliString(reg, e)) for e in strings])
            if obs.p == 0:
                continue
            g = build_graph(obs, "general")
            strs = obs.strings()
            want_s = np.zeros((g.p, d_p), dtype=np.int64)
            want_pair = np.zeros((g.p, g.p, d_p), dtype=np.int64)
            for clique in clique_cover(g):
                clique.circuit = diagonalize_clique([strs[v] for v in clique.vertices], "general")
                for _ in range(2):  # the second batch reuses the clique's read-out plan
                    outcomes = np.stack([rng.integers(0, d, size=30) for d in reg.dims], axis=1)
                    record_batch(g, clique, outcomes)
                    for i in clique.vertices:
                        for j in clique.vertices:
                            if j < i:
                                continue
                            if i == j:
                                string, ref, target = strs[i], int(g.offsets[i]), want_s[i]
                            else:
                                string = ps_multiply(ps_dagger(strs[i]), strs[j])
                                ref, target = int(g.offsets[j]) - int(g.offsets[i]), want_pair[i, j]
                                n_pairs += 1
                            diag = conjugate_ps(clique.circuit, string)
                            for row in outcomes:
                                mu, phase_exp = outcome_to_eigenindex(row, diag)
                                target[(mu + ((phase_exp - ref) % (2 * d_p)) // 2) % d_p] += 1
            assert np.array_equal(g.tallies.s, want_s)
            assert np.array_equal(g.tallies.pair_s, want_pair)
            validate_tallies(g.tallies)
        assert n_pairs > 50  # the random cliques exercise pair products, not only members


class TestSelectClique:
    def test_single_clique(self):
        g = build_graph(Z_OBS, "general")
        clique_cover(g)
        est = weight_only(g)
        assert select_clique(g, est, 5) == 0

    def test_weight_dominance_non_adaptive(self):
        obs = make_obs((2,), [(1.0, [(1, 0)]), (0.2, [(0, 1)])])
        g = build_graph(obs, "general")
        clique_cover(g)
        est = weight_only(g)
        chosen = select_clique(g, est, 5)
        heavy = int(np.argmax(np.abs(g.observable.coefficients())))
        assert heavy in g.cliques[chosen].vertices

    def test_adaptive_shifts_away_from_deterministic_string(self):
        obs = make_obs((2,), [(1.0, [(1, 0)]), (0.2, [(0, 1)])])
        g = build_graph(obs, "general")
        clique_cover(g)
        heavy = int(np.argmax(np.abs(g.observable.coefficients())))
        other = 1 - heavy
        est = weight_only(g)
        est.q[heavy, heavy] = 0.0  # deterministic: no variance to harvest
        est.q[other, other] = 0.5
        chosen = select_clique(g, est, 5)
        assert other in g.cliques[chosen].vertices

    def test_near_ties_keep_the_first_clique_within_tolerance(self, monkeypatch):
        # clique 2 beats clique 1 by less than the tolerance and clique 0 by
        # more: the first clique within 1e-12 * max |gain| of the best wins
        gains = np.array([1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12])
        monkeypatch.setattr(engine, "variance_decrease", lambda graph, est, batch: gains)
        g = build_graph(Z_OBS, "general")
        clique_cover(g)
        assert select_clique(g, weight_only(g), 5) == 1

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_clique_sequence_does_not_depend_on_observable_scale(self, scale):
        # at 1e-8 every gain lies below 1e-15, so an absolute tie tolerance
        # of that size kept clique 0 in every batch
        def cliques(factor):
            obs = make_obs((2, 2), [(factor * c, exps) for c, exps in FIVE_TERMS])
            state = StateVector(obs.register, FIVE_AMPS)
            return [r.clique_id for r in run_estimation(obs, state, fast_settings(budget=1000, seed=5)).history]

        want = cliques(1.0)
        assert len(set(want)) > 1
        assert cliques(scale) == want


class TestErrorAwareness:
    def test_deviation_uniform_theta_is_zero(self):
        dev = systematic_deviation([1.0], [0.3], [np.array([0.5, 0.5])], [0], 2)
        assert abs(dev) < 1e-12

    def test_deviation_concentrated(self):
        dev = systematic_deviation([1.0], [0.2], [np.array([1.0, 0.0])], [0], 2)
        assert dev == pytest.approx(0.2)

    def test_deviation_zero_xi(self):
        dev = systematic_deviation([1.0, 0.5], [0.0, 0.0], [np.array([1.0, 0.0])] * 2, [0, 0], 2)
        assert abs(dev) < 1e-12

    def test_worst_case_example(self):
        assert worst_case_bound([1.0], [0.2], [np.array([1.0, 0.0])], 2) == pytest.approx(0.4)

    def test_worst_case_zero_xi(self):
        assert worst_case_bound([1.0], [0.0], [np.array([0.7, 0.3])], 2) == 0.0

    def test_bound_dominates_deviation(self, rng):
        for _ in range(100):
            d_p = int(rng.choice([2, 3]))
            n = int(rng.integers(1, 4))
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            xi = rng.uniform(0, 1, size=n)
            thetas = [rng.dirichlet(np.ones(d_p)) for _ in range(n)]
            offsets = [int(rng.integers(0, 2)) for _ in range(n)]
            dev = systematic_deviation(coeffs, xi, thetas, offsets, d_p)
            bound = worst_case_bound(coeffs, xi, thetas, d_p)
            assert bound >= abs(dev) - 1e-12


class TestNoiseFit:
    def synthetic_records(self, rng, truth, n_probes):
        specs = [(4, 0), (0, 2), (4, 2), (2, 1), (0, 0)]
        records = []
        for k in range(n_probes):
            nl, ne = specs[k % len(specs)]
            xi = 1 - (1 - truth[2]) * (1 - truth[1]) ** ne * (1 - truth[0]) ** nl
            records.append((nl, ne, rng.random() < xi))
        return records

    def test_synthetic_recovery(self, rng):
        truth = (0.0041, 0.079, 0.0)
        fit = fit_noise_model(self.synthetic_records(rng, truth, 4000))
        for k in range(3):
            assert abs(fit.mean[k] - truth[k]) <= 2.5 * fit.sigma[k] + 1e-3

    def test_all_error_data_pushes_to_boundary(self):
        fit = fit_noise_model([(2, 1, 50, 0)])
        xi_map = 1 - (1 - fit.map_point[2]) * (1 - fit.map_point[1]) ** 1 * (1 - fit.map_point[0]) ** 2
        assert xi_map > 0.95

    def test_unidentifiable_axis_flagged(self):
        fit = fit_noise_model([(3, 0, 2, 48)])
        assert "xi_ent" in fit.unidentifiable
        # flat marginal: mean near 1/2, sigma near uniform's 1/sqrt(12)
        assert abs(fit.mean[1] - 0.5) < 0.05
        assert abs(fit.sigma[1] - 1 / np.sqrt(12)) < 0.05

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            fit_noise_model([])

    @pytest.mark.parametrize("record", [(1, 0, -5, 3), (1, 0, 5, -3), (-1, 0, 1), (1, -2, 0), (1, 0, 2), (1, 0, -1)])
    def test_negative_count_or_bad_flag_rejected(self, record):
        with pytest.raises(ValueError, match="probe record"):
            fit_noise_model([(2, 1, 1), record])


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


class TestRunEstimation:
    def test_z_on_zero_state_converges(self):
        state = basis_state(Z_OBS.register, (0,))
        rep = run_estimation(Z_OBS, state, fast_settings(budget=300))
        assert abs(rep.o_est - 1.0) <= 3 * np.sqrt(rep.var_stat) + 0.05
        # variance decreasing in shot count
        early = rep.history[len(rep.history) // 4].var_stat
        late = rep.history[-1].var_stat
        assert late < early

    def test_budget_accounting_exact(self):
        state = prepare_product_state(Z_OBS.register, [[1, 1]])
        for noise_aware in (False, True):
            rep = run_estimation(
                Z_OBS,
                state,
                fast_settings(budget=173, noise_aware=noise_aware),
                noise=NoiseModel(xi_detect=0.1) if noise_aware else None,
            )
            assert rep.total_shots == 173
            assert rep.history[-1].m_total == 173

    def test_depolarized_plus_state_unbiased(self):
        # |+> under pure detection noise keeps <Z> = 0: deviation stays small
        state = prepare_product_state(Z_OBS.register, [[1, 1]])
        rep = run_estimation(
            Z_OBS,
            state,
            fast_settings(budget=2000, noise_aware=True, seed=5),
            noise=NoiseModel(xi_detect=0.25),
        )
        assert abs(rep.dev_sys) <= 3 * rep.dev_sigma + 0.02
        assert abs(rep.o_est) < 0.2

    def test_known_error_rate_recovered(self):
        # Z on |0> with xi(C) = 0.2: mean near 0.8, deviation near 0.2
        state = basis_state(Z_OBS.register, (0,))
        rep = run_estimation(
            Z_OBS,
            state,
            fast_settings(budget=4000, noise_aware=True, seed=7),
            noise=NoiseModel(xi_detect=0.2),
        )
        assert abs(rep.o_est - 0.8) <= 4 * np.sqrt(rep.var_stat)
        assert abs(rep.dev_sys - 0.2) <= 3 * rep.dev_sigma
        assert rep.worst_case >= abs(rep.dev_sys) - 1e-12

    def test_noise_decomposition_exact_every_batch(self):
        state = prepare_product_state(Z_OBS.register, [[1, 1]])
        rep = run_estimation(
            Z_OBS,
            state,
            fast_settings(budget=500, noise_aware=True, seed=3),
            noise=NoiseModel(xi_detect=0.3),
        )
        for row in rep.history:
            assert row.var_noise_aware == row.var_stat + row.dev_sys_sq
        assert rep.var_noise_aware == rep.var_stat + rep.dev_sys_sq

    def test_seed_determinism(self):
        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)])])
        state = prepare_product_state(obs.register, [[1, 1], [1, 0]])
        reps = [run_estimation(obs, state, fast_settings(budget=200, seed=42)) for _ in range(2)]
        assert reps[0].o_est == reps[1].o_est
        assert reps[0].var_stat == reps[1].var_stat
        assert [r.clique_id for r in reps[0].history] == [r.clique_id for r in reps[1].history]

    def test_register_mismatch(self):
        state = basis_state(QuditRegister((3,)), (0,))
        with pytest.raises(ValueError):
            run_estimation(Z_OBS, state, fast_settings())

    def test_bad_settings(self):
        with pytest.raises(ValueError):
            RunSettings(budget=0)
        with pytest.raises(ValueError):
            RunSettings(mode="xx")
        with pytest.raises(ValueError):
            RunSettings(probe_split=1.0)

    def test_integer_fields_take_json_integers(self):
        # RunSettings and MCMCConfig check their counts with json_value, which
        # also takes numpy integers but neither booleans nor fractions
        assert json_value(np.int64(3), int, "x") == 3
        for bad in (np.True_, True, 2.5, "3"):
            with pytest.raises(ValueError, match="x: expected an integer"):
                json_value(bad, int, "x")
        with pytest.raises(ValueError, match="^budget: expected an integer, got 2.5$"):
            RunSettings(budget=2.5)
        assert RunSettings(budget=np.int64(20), mcmc=MCMCConfig(n_chains=np.int64(2))).budget == 20

    def test_noise_aware_run_needs_probes(self):
        # without probes every error rate would keep its prior mean of 1/2
        with pytest.raises(ValueError, match="probe_split"):
            RunSettings(noise_aware=True, probe_split=0.0)
        assert RunSettings(probe_split=0.0).probe_split == 0.0

    def test_settings_are_frozen(self):
        # a field assigned after construction would skip the __post_init__ checks
        settings = RunSettings()
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.budget = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.mcmc.max_samples = 10

    @pytest.mark.parametrize(
        "budget, split, probes", [(100, 0.4, 40), (100, 0.5, 50), (100, 0.6, 60), (300, 0.5, 150)]
    )
    def test_probe_split_reached_at_small_batches(self, budget, split, probes):
        # batches of 1 and 3 shots cannot split evenly; the run as a whole still does
        state = prepare_product_state(Z_OBS.register, [[1, 1]])
        settings = fast_settings(budget=budget, noise_aware=True, probe_split=split)
        rep = run_estimation(Z_OBS, state, settings, noise=NoiseModel(xi_detect=0.1))
        assert settings.effective_batch == budget // 100
        assert (sum(rep.probes_per_clique), sum(rep.shots_per_clique)) == (probes, budget - probes)

    def test_gc_adaptive_beats_bc_nonadaptive_on_anticorrelated_state(self):
        # state with perfect XX/ZZ anticorrelation: the joint clique cancels
        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (1.0, [(0, 1), (0, 1)])])
        amps = np.array([1, 1, 1, -1], dtype=complex) / 2.0
        state = StateVector(obs.register, amps)
        rep_gc = run_estimation(obs, state, fast_settings(budget=3000, mode="gc", adaptive=True, seed=1))
        rep_bc = run_estimation(obs, state, fast_settings(budget=3000, mode="bc", adaptive=False, seed=1))
        assert rep_gc.var_stat < 0.9 * rep_bc.var_stat

    def test_pair_covariance_estimate_matches_dense_truth(self):
        # anticorrelated XX/ZZ: true Q^{(1,1)} = <(XX)ZZ> - <XX><ZZ> = -1
        from quditmeas.paulis import ps_dagger, ps_matrix, ps_multiply

        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (1.0, [(0, 1), (0, 1)])])
        amps = np.array([1, 1, 1, -1], dtype=complex) / 2.0
        state = StateVector(obs.register, amps)
        rep = run_estimation(obs, state, fast_settings(budget=3000, seed=2))
        strings = obs.strings()
        (pair,) = list(rep.graph.edges())
        i, j = pair
        prod = ps_matrix(ps_multiply(ps_dagger(strings[i]), strings[j]))
        e_i = amps.conj() @ ps_matrix(strings[i]) @ amps
        e_j = amps.conj() @ ps_matrix(strings[j]) @ amps
        q_true = amps.conj() @ prod @ amps - np.conj(e_i) * e_j
        assert abs(rep.estimates.q[pair] - q_true) < 0.15
        assert rep.estimates.q[j, i] == np.conj(rep.estimates.q[pair])
        assert q_true == pytest.approx(-1.0)

    def test_qutrit_conjugate_pair_observable(self):
        # O = Z + Z^dag on a qutrit: exercises complex eigenvalue bookkeeping
        reg = QuditRegister((3,))
        obs = make_obs((3,), [(1.0, [(0, 1)]), (1.0, [(0, 2)])])
        assert obs.hermitian
        rng = np.random.default_rng(8)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = StateVector(reg, amps / np.linalg.norm(amps))
        rep = run_estimation(obs, state, fast_settings(budget=3000, seed=6))
        from quditmeas.simulator import expectation

        want = expectation(obs, state)
        assert abs(want.imag) < 1e-12
        assert abs(rep.o_est.real - want.real) <= 4 * np.sqrt(rep.var_stat) + 0.02
        assert abs(rep.o_est.imag) < 1e-9
        assert rep.var_stat >= 0

    def test_reports_unconverged_pairs(self):
        # d_P = 6 pairs cannot pass the diagnostics in 200 samples
        obs = make_obs((2, 3), [(1.0, [(0, 1), (0, 0)]), (0.5, [(0, 0), (0, 1)]), (0.3, [(1, 0), (1, 0)])])
        state = prepare_product_state(obs.register, [[1, 1], [1, 1, 1]])
        cfg = MCMCConfig(n_chains=2, min_samples=100, max_samples=200)
        rep = run_estimation(obs, state, fast_settings(budget=300, seed=9, mcmc=cfg))
        assert 0 < rep.mcmc_unconverged <= len(list(rep.graph.edges()))

    def test_converged_run_reports_none(self):
        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)])])
        state = prepare_product_state(obs.register, [[1, 1], [1, 0]])
        cfg = MCMCConfig(n_chains=2, min_samples=120, max_samples=1000)
        rep = run_estimation(obs, state, fast_settings(budget=200, seed=42, mcmc=cfg))
        assert list(rep.graph.edges())
        assert rep.mcmc_unconverged == 0

    def test_mixed_dim_register_runs(self):
        obs = make_obs((2, 3), [(1.0, [(0, 1), (0, 0)]), (0.5, [(0, 0), (0, 1)]), (0.3, [(1, 0), (1, 0)])])
        state = prepare_product_state(obs.register, [[1, 1], [1, 1, 1]])
        rep = run_estimation(obs, state, fast_settings(budget=300, seed=9))
        from quditmeas.simulator import expectation

        want = expectation(obs, state)
        assert abs(rep.o_est - want) < 5 * np.sqrt(rep.var_stat) + 0.1


class TestPairRefresh:
    """The tally-keyed chain cache is the refresh's only record: an edge runs
    chains exactly when its tally triple has no cached result."""

    CFG = MCMCConfig(n_chains=2, min_samples=100, max_samples=100)

    @staticmethod
    def spied(monkeypatch):
        """Pair ids of the covariance_mcmc calls the engine makes."""
        runs = []
        real = engine.covariance_mcmc

        def spy(*args, pair_id, **kwargs):
            runs.append(pair_id)
            return real(*args, pair_id=pair_id, **kwargs)

        monkeypatch.setattr(engine, "covariance_mcmc", spy)
        return runs

    @staticmethod
    def warm_graph():
        """A planned graph with one batch of distinct size folded into every clique."""
        obs = make_obs(
            (2, 2),
            [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)]), (0.6, [(1, 1), (1, 1)]),
             (0.5, [(1, 0), (0, 0)]), (0.3, [(0, 0), (0, 1)])],
        )
        graph = plan_measurements(obs, "gc")
        rng = np.random.default_rng(5)
        for k, clique in enumerate(graph.cliques):
            record_batch(graph, clique, rng.integers(0, 2, size=(7 + 3 * k, 2)))
        return graph

    def refresh(self, graph, est, cache):
        engine._refresh_pair_estimates(graph, update_vertex_estimates(graph, est), self.CFG, 13, cache)

    def test_unchanged_tallies_run_no_chains(self, monkeypatch):
        graph = self.warm_graph()
        est, cache = EdgeEstimates.zeros(graph.p), {}
        self.refresh(graph, est, cache)
        q = est.q.copy()
        runs = self.spied(monkeypatch)
        self.refresh(graph, est, cache)
        assert runs == []
        assert np.array_equal(est.q, q)

    def test_no_chains_run_at_zero_tallies(self, monkeypatch):
        # pair covariances start at their prior mean, 0, with no chains
        triples = []
        real = engine.covariance_mcmc

        def spy(s_i, s_j, s_ij, *args, **kwargs):
            triples.append(np.concatenate([s_i, s_j, s_ij]))
            return real(s_i, s_j, s_ij, *args, **kwargs)

        monkeypatch.setattr(engine, "covariance_mcmc", spy)
        obs = make_obs((2, 2), FIVE_TERMS)
        rep = run_estimation(obs, StateVector(obs.register, FIVE_AMPS), fast_settings())
        assert triples
        assert all(t.any() for t in triples)
        assert np.isfinite(rep.history[0].var_stat)

    def test_batch_reruns_exactly_the_clique_edges(self, monkeypatch):
        graph = self.warm_graph()
        edges = list(graph.edges())
        est, cache = EdgeEstimates.zeros(graph.p), {}
        self.refresh(graph, est, cache)
        assert len(cache) == len(edges)  # the premise: no two edges share a tally triple
        clique = graph.cliques[1]
        record_batch(graph, clique, np.random.default_rng(6).integers(0, 2, size=(4, 2)))
        runs = self.spied(monkeypatch)
        self.refresh(graph, est, cache)
        touched = [k for k, (i, j) in enumerate(edges) if i in clique.vertices or j in clique.vertices]
        assert 0 < len(touched) < len(edges)
        assert sorted(runs) == touched


class TestPinnedHistories:
    """Clique sequences and final estimates of two fixed runs, held to
    1e-12: a change that only reorders floating-point sums keeps them."""

    CFG = MCMCConfig(n_chains=2, min_samples=120, max_samples=240)

    @staticmethod
    def check(rep, cliques, o_est, var_stat):
        assert "".join(str(r.clique_id) for r in rep.history) == cliques
        assert abs(rep.o_est - o_est) <= 1e-12 * abs(o_est)
        assert abs(rep.var_stat - var_stat) <= 1e-12 * var_stat

    def test_adaptive_qubit_run(self):
        obs = make_obs(
            (2, 2),
            [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)]), (0.5, [(1, 0), (0, 0)]), (0.3, [(0, 1), (0, 0)])],
        )
        state = prepare_product_state(obs.register, [[1, 1], [1, 0]])
        rep = run_estimation(obs, state, RunSettings(budget=400, seed=42, mcmc=self.CFG))
        self.check(
            rep,
            "0102001200012002001200002001200020001200002001200020000120020002010200020001200002000201200000202001",
            0.3955780200008531,
            0.007219550334124905,
        )

    def test_noise_aware_mixed_run(self):
        obs = make_obs((2, 3), [(1.0, [(0, 1), (0, 0)]), (0.5, [(0, 0), (0, 1)]), (0.3, [(1, 0), (1, 0)])])
        state = prepare_product_state(obs.register, [[1, 1], [1, 1, 1]])
        noise = NoiseModel(xi_loc=0.01, xi_ent=0.03, xi_detect=0.01)
        settings = RunSettings(budget=400, seed=9, noise_aware=True, mcmc=self.CFG)
        rep = run_estimation(obs, state, settings, noise=noise)
        self.check(
            rep,
            "0000010000010000010000010000000100000010000000100000010000000100000000100000001000000010000000001000",
            0.1562499999999999 + 0.0024056261216235486j,
            0.008002513003795782,
        )
        assert abs(rep.var_noise_aware - 0.009253014608634832) <= 1e-12 * 0.009253014608634832
