"""Adaptive measurement engine.

Plans cliques and circuits, allocates shot batches to the clique with the
largest predicted variance decrease, keeps the Bayesian covariance estimates
fresh, and (optionally) interleaves stabilizer probes to quantify how much
hardware noise has shifted the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bayes import MCMCConfig, _require_int, covariance_mcmc, posterior_mean_theta, ps_mean, self_covariance
from .clifford import diagonalize_clique
from .graph import Clique, CommutationGraph, EdgeEstimates, build_graph, clique_cover, estimate_observable, variance_decrease
from .observables import Observable
from .paulis import PauliString, ps_dagger, ps_multiply
from .simulator import NoiseModel, ProbeTally, StateVector, apply_circuit, stabilizer_probe

MODE_NAMES = {"gc": "general", "bc": "bitwise"}


@dataclass
class RunSettings:
    mode: str = "gc"
    adaptive: bool = True
    budget: int = 1000
    batch_size: int | None = None  # default max(1, budget // 100)
    refresh_cadence: int = 5
    noise_aware: bool = False
    probe_split: float = 0.5
    seed: int = 0
    shot_log: bool = False  # debug: keep (clique, digits, error-injected) rows
    mcmc: MCMCConfig = field(default_factory=MCMCConfig)

    def __post_init__(self):
        for name in ("budget", "refresh_cadence", "seed"):
            _require_int(name, getattr(self, name))
        if self.batch_size is not None:
            _require_int("batch_size", self.batch_size)
        if self.mode not in MODE_NAMES:
            raise ValueError(f"mode must be 'gc' or 'bc', got {self.mode!r}")
        if self.budget < 1:
            raise ValueError("measurement budget must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be None or >= 1, got {self.batch_size}")
        if self.refresh_cadence < 1:
            raise ValueError(f"refresh_cadence must be >= 1, got {self.refresh_cadence}")
        if not 0.0 <= self.probe_split < 1.0:
            raise ValueError("probe split must lie in [0, 1)")

    @property
    def effective_batch(self) -> int:
        return self.batch_size if self.batch_size else max(1, self.budget // 100)


@dataclass
class XiEstimate:
    mean: float
    variance: float
    n_probes: int


@dataclass
class BatchRecord:
    m_total: int
    o_est: complex
    var_stat: float
    dev_sys_sq: float
    var_noise_aware: float
    clique_id: int


@dataclass
class EstimationReport:
    o_est: complex
    var_stat: float
    dev_sys: complex
    dev_sys_sq: float
    var_noise_aware: float
    dev_sigma: float
    worst_case: float
    xi: list[XiEstimate] | None
    shots_per_clique: list[int]
    probes_per_clique: list[int]
    history: list[BatchRecord]
    seed: int
    settings: RunSettings
    graph: CommutationGraph
    estimates: EdgeEstimates
    mcmc_unconverged: int  # pairs whose final covariance came from non-converged chains
    shot_log: list[tuple[int, tuple[int, ...], bool]] | None = None

    @property
    def total_shots(self) -> int:
        return sum(self.shots_per_clique) + sum(self.probes_per_clique)


def xi_posterior(tally: ProbeTally) -> XiEstimate:
    """Two-outcome posterior over the probe tally (uniform prior)."""
    e, ok = tally.n_error, tally.n_ok
    mean = (e + 1.0) / (e + ok + 2.0)
    var = mean * (1.0 - mean) / (e + ok + 3.0)
    return XiEstimate(mean=mean, variance=var, n_probes=e + ok)


def record_batch(graph: CommutationGraph, clique: Clique, outcomes: np.ndarray) -> None:
    """Fold a batch of digit strings into vertex and pair tallies.

    Every member string and every pairwise product is read out through the
    clique's diagonalizing circuit; tallied indices are canonical (spectral
    offset removed), so counts merge across circuits.
    """
    from .clifford import conjugate_ps

    if clique.circuit is None:
        raise ValueError("clique has no diagonalization circuit")
    outcomes = np.asarray(outcomes, dtype=np.int64)
    strings = graph.observable.strings()
    members = list(clique.vertices)
    for v in members:
        diag = conjugate_ps(clique.circuit, strings[v])
        graph.tallies.add_vertex_counts(v, _tally_counts(diag, int(graph.offsets[v]), outcomes))
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            i, j = members[a], members[b]
            prod = ps_multiply(ps_dagger(strings[i]), strings[j])
            diag = conjugate_ps(clique.circuit, prod)
            ref = int(graph.offsets[j]) - int(graph.offsets[i])
            graph.tallies.add_pair_counts(i, j, _tally_counts(diag, ref, outcomes))


def _tally_counts(diag: PauliString, ref_offset: int, outcomes: np.ndarray) -> np.ndarray:
    if not diag.is_diagonal():
        raise AssertionError("conjugated string is not diagonal (clique circuit invariant breach)")
    reg = diag.register
    d_p = reg.d_p
    weights = np.array([(d_p // d) * s for d, (_, s) in zip(reg.dims, diag.exps)], dtype=np.int64)
    mu_raw = (outcomes @ weights) % d_p
    shift2 = (diag.phase_exp - ref_offset) % (2 * d_p)
    if shift2 % 2:
        raise AssertionError("eigenvalue grid parity mismatch between string and reference offset")
    mu = (mu_raw + shift2 // 2) % d_p
    return np.bincount(mu, minlength=d_p)


def select_clique(graph: CommutationGraph, est: EdgeEstimates, batch: int) -> int:
    """Index of the clique with the largest predicted variance decrease."""
    if not graph.cliques:
        raise ValueError("graph has no clique cover")
    gains = [variance_decrease(graph, est, c, batch) for c in graph.cliques]
    best = 0
    for k, g in enumerate(gains):
        if g > gains[best] + 1e-15:
            best = k
    return best


def systematic_deviation(coeffs, xi_means, thetas, offsets, d_p: int) -> complex:
    """Estimated shift of the mean caused by randomizing errors.

    ``sum_i c_i xi_i sum_mu (theta_i,mu - 1/d_P) omega^mu`` with each term
    carried on its string's eigenvalue grid.
    """
    omega = np.exp(2j * np.pi * np.arange(d_p) / d_p)
    out = 0.0 + 0.0j
    for c, xi, th, off in zip(coeffs, xi_means, thetas, offsets):
        phase = np.exp(1j * np.pi * (off % (2 * d_p)) / d_p)
        out += c * xi * phase * np.sum((np.asarray(th) - 1.0 / d_p) * omega)
    return complex(out)


def worst_case_bound(coeffs, xi_means, thetas, d_p: int) -> float:
    """Error bound with each term's error distribution at its worst outcome."""
    omega = np.exp(2j * np.pi * np.arange(d_p) / d_p)
    out = 0.0
    for c, xi, th in zip(coeffs, xi_means, thetas):
        center = np.sum(np.asarray(th) * omega)
        out += abs(c) * xi * float(np.max(np.abs(omega - center)))
    return out


# -- noise-model fitting ---------------------------------------------------------


@dataclass
class NoiseFit:
    map_point: tuple[float, float, float]
    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]
    unidentifiable: list[str]


def fit_noise_model(records, grid: int = 101, refine_passes: int = 2) -> NoiseFit:
    """Grid posterior over (xi_loc, xi_ent, xi_detect) from probe records.

    ``records`` is an iterable of (n_loc, n_ent, error_flag) probe outcomes
    or (n_loc, n_ent, n_error, n_ok) aggregates.  The posterior
    ``prod_i xi(C_i)^{err} (1 - xi(C_i))^{ok}`` is evaluated on a uniform
    grid over [0,1]^3; the MAP is sharpened by local refinement passes and
    the moments are re-evaluated on a box wide enough to hold the mass.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for rec in records:
        if len(rec) == 3:
            nl, ne, flag = rec
            err, ok = (1, 0) if flag else (0, 1)
        else:
            nl, ne, err, ok = rec
        key = (int(nl), int(ne))
        acc = groups.setdefault(key, [0, 0])
        acc[0] += int(err)
        acc[1] += int(ok)
    if not groups:
        raise ValueError("no probe records")

    def log_posterior(ax_l, ax_e, ax_d):
        log1m_l = np.log1p(-np.minimum(ax_l, 1 - 1e-12))[:, None, None]
        log1m_e = np.log1p(-np.minimum(ax_e, 1 - 1e-12))[None, :, None]
        log1m_d = np.log1p(-np.minimum(ax_d, 1 - 1e-12))[None, None, :]
        total = np.zeros((ax_l.size, ax_e.size, ax_d.size))
        for (nl, ne), (err, ok) in groups.items():
            log_ok = nl * log1m_l + ne * log1m_e + log1m_d
            xi = -np.expm1(log_ok)
            with np.errstate(divide="ignore"):
                total += err * np.log(np.maximum(xi, 1e-300)) + ok * log_ok
        return total

    def moments(ax_l, ax_e, ax_d, logp):
        w = np.exp(logp - logp.max())
        w /= w.sum()
        axes = (ax_l, ax_e, ax_d)
        marg = (w.sum(axis=(1, 2)), w.sum(axis=(0, 2)), w.sum(axis=(0, 1)))
        mean = tuple(float(a @ m) for a, m in zip(axes, marg))
        sig = tuple(
            float(np.sqrt(max(((a - mu) ** 2) @ m, 0.0))) for a, m, mu in zip(axes, marg, mean)
        )
        return mean, sig

    axes = [np.linspace(0.0, 1.0, grid) for _ in range(3)]
    logp = log_posterior(*axes)
    mean_c, sig_c = moments(*axes, logp)
    idx = np.unravel_index(np.argmax(logp), logp.shape)
    map_pt = [axes[k][idx[k]] for k in range(3)]
    width = [axes[k][1] - axes[k][0] for k in range(3)]

    for _ in range(refine_passes):
        axes = [
            np.linspace(max(0.0, map_pt[k] - 3 * width[k]), min(1.0, map_pt[k] + 3 * width[k]), grid)
            for k in range(3)
        ]
        logp = log_posterior(*axes)
        idx = np.unravel_index(np.argmax(logp), logp.shape)
        map_pt = [axes[k][idx[k]] for k in range(3)]
        width = [axes[k][1] - axes[k][0] for k in range(3)]

    # final moment pass on a box holding the posterior mass
    half = [max(0.03, 4 * sig_c[k]) for k in range(3)]
    axes = [
        np.linspace(max(0.0, mean_c[k] - half[k]), min(1.0, mean_c[k] + half[k]), grid)
        for k in range(3)
    ]
    mean, sigma = moments(*axes, log_posterior(*axes))

    unident = []
    if all(nl == 0 for nl, _ in groups):
        unident.append("xi_loc")
    if all(ne == 0 for _, ne in groups):
        unident.append("xi_ent")
    return NoiseFit(
        map_point=tuple(float(x) for x in map_pt),
        mean=tuple(mean),
        sigma=tuple(sigma),
        unidentifiable=unident,
    )


# -- comparison metrics ------------------------------------------------------------


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


def comparison_metrics(reports_bc, reports_gc, exact: complex, noise_aware: bool = False) -> dict:
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


# -- the run loop -----------------------------------------------------------------


def _update_vertex_estimates(graph: CommutationGraph, est: EdgeEstimates) -> None:
    t = graph.tallies
    strings = graph.observable.strings()
    for i in range(graph.p):
        phased = strings[i] if strings[i].phase_exp == graph.offsets[i] else PauliString(
            strings[i].register, strings[i].exps, int(graph.offsets[i])
        )
        est.p_means[i] = ps_mean(phased, t.s[i], t.priors[i])
        est.q_diag[i] = self_covariance(t.s[i], t.priors[i])


def _refresh_pair_estimates(graph, est, cfg: MCMCConfig, cache: dict, unconverged: set, stale_only: bool = True) -> None:
    """Re-run the pair covariances whose tallies moved.

    ``unconverged`` holds the edges whose current covariance came from a
    chain set that failed its convergence diagnostics.
    """
    t = graph.tallies
    d_p = t.d_p
    for k, (i, j) in enumerate(graph.edges()):
        fp = t.pair_fingerprint(i, j)
        if stale_only and est.fingerprints.get((i, j)) == fp:
            continue
        s_i, s_j, s_ij = t.s[i], t.s[j], t.s_pair(i, j)
        key = (s_i.tobytes(), s_j.tobytes(), s_ij.tobytes())
        mc = cache.get(key)
        if mc is None:
            mc = covariance_mcmc(s_i, s_j, s_ij, d_p, cfg, pair_id=k)
            cache[key] = mc
        phase = np.exp(1j * np.pi * ((int(graph.offsets[j]) - int(graph.offsets[i])) % (2 * d_p)) / d_p)
        est.q_pairs[(i, j)] = complex(phase * mc.value)
        est.fingerprints[(i, j)] = fp
        if mc.converged:
            unconverged.discard((i, j))
        else:
            unconverged.add((i, j))


def estimate_xi(graph, probe_tallies, usage) -> list[XiEstimate]:
    """Per-string error rates from circuit probe tallies, shot-weighted.

    Each string inherits the rates of the circuits that measured it,
    weighted by the shots taken through each.  A randomized error coincides
    with the probe target with probability 1/D, so the raw mismatch
    posterior underestimates the error rate by the collision factor
    (1 - 1/D); the rates are rescaled accordingly.  Strings never measured
    (or probed) keep the uninformative prior.
    """
    total_dim = graph.observable.register.total_dim
    collide = total_dim / (total_dim - 1.0)
    xi_clique = {}
    for ci, t in enumerate(probe_tallies):
        if t.total == 0:
            xi_clique[ci] = XiEstimate(mean=0.5, variance=1.0 / 12.0, n_probes=0)
            continue
        raw = xi_posterior(t)
        xi_clique[ci] = XiEstimate(
            mean=min(1.0, raw.mean * collide),
            variance=raw.variance * collide ** 2,
            n_probes=raw.n_probes,
        )
    xi = []
    for i in range(graph.p):
        w = {ci: usage[i, ci] for ci in xi_clique if usage[i, ci] > 0}
        if not w:
            xi.append(XiEstimate(mean=0.5, variance=1.0 / 12.0, n_probes=0))
            continue
        tot = sum(w.values())
        mean = sum(usage[i, ci] * xi_clique[ci].mean for ci in w) / tot
        var = sum((usage[i, ci] / tot) ** 2 * xi_clique[ci].variance for ci in w)
        n = sum(xi_clique[ci].n_probes for ci in w)
        xi.append(XiEstimate(mean=mean, variance=var, n_probes=n))
    return xi


def _noise_aware_terms(graph, est, probe_tallies, usage):
    """Deviation, its uncertainty and the worst-case bound from probe data."""
    p = graph.p
    d_p = graph.tallies.d_p
    coeffs = graph.observable.coefficients()
    xi = estimate_xi(graph, probe_tallies, usage)

    t = graph.tallies
    thetas_raw = [posterior_mean_theta(t.s[i], t.priors[i]) for i in range(p)]
    thetas_corr = []
    for i in range(p):
        x = xi[i].mean
        corr = (thetas_raw[i] - x / d_p) / max(1.0 - x, 1e-9)
        corr = np.maximum(corr, 0.0)
        s = corr.sum()
        thetas_corr.append(corr / s if s > 0 else np.full(d_p, 1.0 / d_p))

    dev = systematic_deviation(coeffs, [e.mean for e in xi], thetas_corr, graph.offsets, d_p)
    omega = np.exp(2j * np.pi * np.arange(d_p) / d_p)
    var_dev = 0.0
    for i in range(p):
        g = abs(np.sum((thetas_corr[i] - 1.0 / d_p) * omega))
        ratio = xi[i].mean / max(1.0 - xi[i].mean, 1e-9)
        theta_var = est.q_diag[i].real / (t.m_of(i) + 2.0)
        var_dev += abs(coeffs[i]) ** 2 * (xi[i].variance * g ** 2 + ratio ** 2 * theta_var)
    bound = worst_case_bound(coeffs, [e.mean for e in xi], thetas_corr, d_p)
    return xi, dev, math.sqrt(max(var_dev, 0.0)), bound


def run_estimation(
    obs: Observable,
    state: StateVector,
    settings: RunSettings,
    noise: NoiseModel | None = None,
) -> EstimationReport:
    """Run the full adaptive estimation loop until the budget is spent.

    All randomness derives from ``settings.seed``: shot sampling, probe
    draws and the MCMC refreshes (the config's own seed field is overridden
    so one seed reproduces the entire run).
    """
    from .simulator import sample_shot  # resolved per run, like record_batch's conjugate_ps

    if obs.register != state.register:
        raise ValueError("observable and state registers differ")
    mode = MODE_NAMES[settings.mode]
    graph = build_graph(obs, mode)
    cliques = clique_cover(graph)
    strings = obs.strings()
    for c in cliques:
        c.circuit = diagonalize_clique([strings[v] for v in c.vertices], mode)

    rng_shots = np.random.default_rng([settings.seed, 101])
    rng_probes = np.random.default_rng([settings.seed, 202])
    mcmc_cfg = replace(settings.mcmc, seed=settings.seed)
    mcmc_cache: dict = {}
    unconverged: set = set()

    outcome_probs = [apply_circuit(state, c.circuit).probabilities() for c in cliques]
    outcome_probs = [pr / pr.sum() for pr in outcome_probs]
    report_est = EdgeEstimates.from_tallies(graph)
    if settings.adaptive:
        _refresh_pair_estimates(graph, report_est, mcmc_cfg, mcmc_cache, unconverged, stale_only=False)
        alloc_est = report_est
    else:
        # covariances enter the report only through the final refresh; the
        # in-run history shows the diagonal-only variance
        for edge in graph.edges():
            report_est.q_pairs[edge] = 0.0 + 0.0j
        alloc_est = EdgeEstimates.non_adaptive(graph)

    batch = settings.effective_batch
    shots_per_clique = [0] * len(cliques)
    probes_per_clique = [0] * len(cliques)
    usage = np.zeros((graph.p, len(cliques)), dtype=np.int64)
    probe_tallies = [ProbeTally() for _ in cliques]
    history: list[BatchRecord] = []

    spent = 0
    n_batches = 0
    shot_rows: list[tuple[int, tuple[int, ...], bool]] | None = [] if settings.shot_log else None
    while spent < settings.budget:
        b = min(batch, settings.budget - spent)
        ci = select_clique(graph, alloc_est, b)
        n_probe = int(round(settings.probe_split * b)) if settings.noise_aware else 0
        n_meas = b - n_probe
        if n_meas:
            outcomes, injected = sample_shot(outcome_probs[ci], cliques[ci].circuit, noise, rng_shots, n_meas)
            record_batch(graph, cliques[ci], outcomes)
            shots_per_clique[ci] += n_meas
            for v in cliques[ci].vertices:
                usage[v, ci] += n_meas
            if shot_rows is not None:
                shot_rows.extend(
                    (ci, tuple(int(x) for x in row), bool(flag)) for row, flag in zip(outcomes, injected)
                )
        for _ in range(n_probe):
            probe_tallies[ci].record(stabilizer_probe(cliques[ci].circuit, noise, rng_probes))
        probes_per_clique[ci] += n_probe
        spent += b
        n_batches += 1

        _update_vertex_estimates(graph, report_est)
        if settings.adaptive and n_batches % settings.refresh_cadence == 0:
            _refresh_pair_estimates(graph, report_est, mcmc_cfg, mcmc_cache, unconverged)
        o_est, var_stat = estimate_observable(graph, report_est)
        if settings.noise_aware:
            _, dev, _, _ = _noise_aware_terms(graph, report_est, probe_tallies, usage)
            dev_sq = abs(dev) ** 2
        else:
            dev_sq = 0.0
        history.append(
            BatchRecord(
                m_total=spent,
                o_est=o_est,
                var_stat=var_stat,
                dev_sys_sq=dev_sq,
                var_noise_aware=var_stat + dev_sq,
                clique_id=ci,
            )
        )

    _update_vertex_estimates(graph, report_est)
    _refresh_pair_estimates(graph, report_est, mcmc_cfg, mcmc_cache, unconverged)
    o_est, var_stat = estimate_observable(graph, report_est)
    if settings.noise_aware:
        xi, dev, dev_sigma, bound = _noise_aware_terms(graph, report_est, probe_tallies, usage)
    else:
        xi, dev, dev_sigma, bound = None, 0.0 + 0.0j, 0.0, 0.0
    dev_sq = abs(dev) ** 2
    return EstimationReport(
        o_est=o_est,
        var_stat=var_stat,
        dev_sys=dev,
        dev_sys_sq=dev_sq,
        var_noise_aware=var_stat + dev_sq,
        dev_sigma=dev_sigma,
        worst_case=bound,
        xi=xi,
        shots_per_clique=shots_per_clique,
        probes_per_clique=probes_per_clique,
        history=history,
        seed=settings.seed,
        settings=settings,
        graph=graph,
        estimates=report_est,
        mcmc_unconverged=len(unconverged),
        shot_log=shot_rows,
    )
