"""Adaptive measurement engine.

Plans cliques and circuits, allocates shot batches to the clique with the
largest predicted variance decrease, keeps the Bayesian covariance estimates
fresh, and (optionally) interleaves stabilizer probes to quantify how much
hardware noise has shifted the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bayes
from .bayes import CovarianceEstimate, MCMCConfig, covariance_mcmc, posterior_mean_theta, ps_mean, self_covariance
from .clifford import diagonalize_clique
from .graph import (
    Clique,
    CommutationGraph,
    EdgeEstimates,
    build_graph,
    clique_cover,
    estimate_observable,
    variance_decrease,
)
from .observables import Observable, json_value
from .paulis import grid_phase, roots_of_unity
from .simulator import NoiseModel, StateVector, apply_circuit, stabilizer_probe

MODE_NAMES = {"gc": "general", "bc": "bitwise"}
# an adaptive run refreshes its pair covariances after every this many batches
REFRESH_CADENCE = 5


@dataclass(frozen=True)
class RunSettings:
    mode: str = "gc"
    adaptive: bool = True
    budget: int = 1000
    batch_size: int | None = None  # default max(1, budget // 100)
    noise_aware: bool = False
    probe_split: float = 0.5
    seed: int = 0
    mcmc: MCMCConfig = field(default_factory=MCMCConfig)

    def __post_init__(self):
        for name in ("budget", "seed"):
            json_value(getattr(self, name), int, name)
        if self.batch_size is not None:
            json_value(self.batch_size, int, "batch_size")
        if self.mode not in MODE_NAMES:
            raise ValueError(f"mode must be 'gc' or 'bc', got {self.mode!r}")
        if self.budget < 1:
            raise ValueError("measurement budget must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be None or >= 1, got {self.batch_size}")
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.probe_split < 1.0:
            raise ValueError("probe split must lie in [0, 1)")
        if self.noise_aware and self.probe_split == 0:  # every error rate would stay at its prior mean
            raise ValueError("a noise-aware run needs probe_split > 0")

    @property
    def effective_batch(self) -> int:
        return self.batch_size if self.batch_size else max(1, self.budget // 100)


@dataclass
class XiEstimate:
    """Error-rate posteriors, elementwise over an array of circuits or strings."""

    mean: np.ndarray
    variance: np.ndarray
    n_probes: np.ndarray


@dataclass
class BatchRecord:
    m_total: int
    o_est: complex
    var_stat: float
    dev_sys_sq: float
    clique_id: int

    @property
    def var_noise_aware(self) -> float:
        return self.var_stat + self.dev_sys_sq


@dataclass
class EstimationReport:
    o_est: complex
    var_stat: float
    dev_sys: complex
    dev_sigma: float
    worst_case: float
    xi: XiEstimate | None  # per-string (p,) arrays
    shots_per_clique: list[int]
    probes_per_clique: list[int]
    history: list[BatchRecord]
    settings: RunSettings
    graph: CommutationGraph
    estimates: EdgeEstimates
    pairs: list[CovarianceEstimate]  # each edge's final covariance record, in graph.edges() order
    shot_log: list[tuple[int, np.ndarray, np.ndarray]]  # per batch: clique, (n, q) digits, (n,) error flags

    @property
    def dev_sys_sq(self) -> float:
        return abs(self.dev_sys) ** 2

    @property
    def var_noise_aware(self) -> float:
        return self.var_stat + self.dev_sys_sq

    @property
    def mcmc_unconverged(self) -> int:
        """Edges whose final covariance came from non-converged chains."""
        return sum(not mc.converged for mc in self.pairs)

    @property
    def total_shots(self) -> int:
        return sum(self.shots_per_clique) + sum(self.probes_per_clique)


def xi_posterior(counts) -> XiEstimate:
    """Two-outcome posteriors (uniform prior) from ``(..., 2)`` probe counts,
    errors in column 0 and clean runs in column 1."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.sum(axis=-1)
    # resolved in bayes: perfbench times engine.posterior_mean_theta as a vertex estimate
    mean = bayes.posterior_mean_theta(counts)[..., 0]
    return XiEstimate(mean=mean, variance=mean * (1.0 - mean) / (n + 3.0), n_probes=n)


@dataclass(frozen=True)
class ReadoutPlan:
    """How one clique's outcome digits fold into the tallies.

    Row r of the plan reads ``mu_r = (x @ weights[:, r] + shifts[r]) mod d_P``
    on digits x.  Through the clique's circuit, member ``members[k]`` becomes
    a diagonal string whose canonical eigenvalue index is row k.  Conjugation
    is a homomorphism, so the (1,1) product ``P_a^dag P_b`` of members a < b
    reads out as ``mu_b - mu_a``: its row, one per pair in row-major order
    after the members, has weights ``w_b - w_a`` and shift ``s_b - s_a``,
    exact mod d_P.
    """

    members: np.ndarray  # the clique's vertices, ascending
    weights: np.ndarray  # (q, rows) digit weights, members then pairs
    shifts: np.ndarray  # (rows,) canonical shifts (spectral offset removed)
    row_offsets: np.ndarray  # (rows,) d_P * r, so each row counts into its own d_P bins
    pair_rows: np.ndarray  # flat index i * p + j of each pair's row of pair_s
    cells: np.ndarray  # flat cells of pair_m each shot adds to: the members' m, both halves of each pair


def _readout_plan(graph: CommutationGraph, clique: Clique) -> ReadoutPlan:
    """Read-out plan of a clique, checking that its members are distinct and
    that its circuit diagonalizes every member on the right eigenvalue grid."""
    from .clifford import conjugate_ps

    if clique.circuit is None:
        raise ValueError("clique has no diagonalization circuit")
    reg = graph.observable.register
    d_p = reg.d_p
    p = graph.p
    strings = graph.observable.strings()
    members = np.array(sorted(clique.vertices), dtype=np.int64)
    if np.unique(members).size != members.size:
        raise ValueError(f"clique {tuple(clique.vertices)} repeats a vertex")
    weights, shifts = [], []
    for i in members:
        diag = conjugate_ps(clique.circuit, strings[i])
        if not diag.is_diagonal():
            raise AssertionError("conjugated string is not diagonal (clique circuit invariant breach)")
        shift2 = (diag.phase_exp - int(graph.offsets[i])) % (2 * d_p)
        if shift2 % 2:
            raise AssertionError("eigenvalue grid parity mismatch between string and reference offset")
        weights.append([(d_p // d) * s for d, (_, s) in zip(reg.dims, diag.exps)])
        shifts.append(shift2 // 2)
    weights, shifts = np.array(weights, dtype=np.int64).T, np.array(shifts, dtype=np.int64)
    a, b = np.triu_indices(members.size, 1)
    i, j = members[a], members[b]
    return ReadoutPlan(
        members=members,
        weights=np.concatenate([weights, weights[:, b] - weights[:, a]], axis=1),
        shifts=np.concatenate([shifts, shifts[b] - shifts[a]]),
        row_offsets=d_p * np.arange(members.size + a.size),
        pair_rows=i * p + j,
        cells=np.concatenate([members * (p + 1), i * p + j, j * p + i]),
    )


def record_batch(graph: CommutationGraph, clique: Clique, outcomes: np.ndarray) -> None:
    """Fold a batch of digit strings into vertex and pair tallies.

    Every member string and every member pair is read out through the
    clique's diagonalizing circuit (see ``ReadoutPlan``); tallied indices
    are canonical (spectral offset removed), so counts merge across
    circuits.  The clique's read-out plan is built on its first batch and
    kept on the clique.
    """
    if clique.readout is None:
        clique.readout = _readout_plan(graph, clique)
    plan = clique.readout
    d_p = graph.tallies.d_p
    mu = (np.asarray(outcomes, dtype=np.int64) @ plan.weights + plan.shifts) % d_p
    counts = np.bincount((mu + plan.row_offsets).ravel(), minlength=plan.row_offsets.size * d_p)
    graph.tallies.add_batch(plan.members, plan.pair_rows, plan.cells, counts.reshape(-1, d_p))


def select_clique(graph: CommutationGraph, est: EdgeEstimates, batch: int) -> int:
    """Index of the clique with the largest predicted variance decrease."""
    if not graph.cliques:
        raise ValueError("graph has no clique cover")
    # the rule runs on Python floats: on (C,) gains they cost less than numpy's calls
    gains = variance_decrease(graph, est, batch).tolist()
    for k, gain in enumerate(gains):
        if not math.isfinite(gain):
            raise ValueError(f"clique {k} has a non-finite variance decrease {gain!r}")
    tol = 1e-12 * max(map(abs, gains))  # relative, so scaling the observable keeps the choice
    best = max(gains) - tol
    return next(k for k, gain in enumerate(gains) if gain >= best)  # a near-tie keeps the earlier clique


def systematic_deviation(coeffs, xi_means, thetas, offsets, d_p: int) -> complex:
    """Estimated shift of the mean caused by randomizing errors.

    ``sum_i c_i xi_i sum_mu (theta_i,mu - 1/d_P) omega^mu`` with each term
    carried on its string's eigenvalue grid; ``thetas`` is (p, d_P).
    """
    omega = roots_of_unity(d_p)
    shift = ((np.asarray(thetas) - 1.0 / d_p) * omega).sum(axis=-1)
    return complex((np.asarray(coeffs) * np.asarray(xi_means) * grid_phase(offsets, d_p) * shift).sum())


def worst_case_bound(coeffs, xi_means, thetas, d_p: int) -> float:
    """Error bound with each term's error distribution at its worst outcome."""
    omega = roots_of_unity(d_p)
    center = (np.asarray(thetas) * omega).sum(axis=-1, keepdims=True)
    reach = np.abs(omega - center).max(axis=-1)
    return float(np.sum(np.abs(coeffs) * np.asarray(xi_means) * reach))


# -- noise-model fitting ---------------------------------------------------------


@dataclass
class NoiseFit:
    map_point: tuple[float, float, float]
    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]
    unidentifiable: list[str]


# points per axis of the noise-fit grid, and the local refinement passes
# that sharpen its MAP point
NOISE_GRID = 101
NOISE_REFINE_PASSES = 2


def fit_noise_model(records) -> NoiseFit:
    """Grid posterior over (xi_loc, xi_ent, xi_detect) from probe records.

    ``records`` is an iterable of (n_loc, n_ent, error_flag) probe outcomes
    or (n_loc, n_ent, n_error, n_ok) aggregates; a flag other than 0 or 1
    or a negative count is a ValueError.  The posterior
    ``prod_i xi(C_i)^{err} (1 - xi(C_i))^{ok}`` is evaluated on a uniform
    grid over [0,1]^3; the MAP is sharpened by local refinement passes and
    the moments are re-evaluated on a box wide enough to hold the mass.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for rec in records:
        if len(rec) == 3:
            nl, ne, flag = rec
            if flag not in (0, 1):
                raise ValueError(f"probe record {tuple(rec)}: error flag must be 0 or 1")
            err, ok = flag, 1 - flag
        else:
            nl, ne, err, ok = rec
        if min(nl, ne, err, ok) < 0:
            raise ValueError(f"probe record {tuple(rec)}: counts must be nonnegative")
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

    axes = [np.linspace(0.0, 1.0, NOISE_GRID) for _ in range(3)]
    logp = log_posterior(*axes)
    mean_c, sig_c = moments(*axes, logp)
    idx = np.unravel_index(np.argmax(logp), logp.shape)
    map_pt = [axes[k][idx[k]] for k in range(3)]
    width = [axes[k][1] - axes[k][0] for k in range(3)]

    for _ in range(NOISE_REFINE_PASSES):
        axes = [
            np.linspace(max(0.0, map_pt[k] - 3 * width[k]), min(1.0, map_pt[k] + 3 * width[k]), NOISE_GRID)
            for k in range(3)
        ]
        logp = log_posterior(*axes)
        idx = np.unravel_index(np.argmax(logp), logp.shape)
        map_pt = [axes[k][idx[k]] for k in range(3)]
        width = [axes[k][1] - axes[k][0] for k in range(3)]

    # final moment pass on a box holding the posterior mass
    half = [max(0.03, 4 * sig_c[k]) for k in range(3)]
    axes = [
        np.linspace(max(0.0, mean_c[k] - half[k]), min(1.0, mean_c[k] + half[k]), NOISE_GRID)
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


# -- the run loop -----------------------------------------------------------------


def update_vertex_estimates(graph: CommutationGraph, est: EdgeEstimates) -> EdgeEstimates:
    """Vertex means and self-covariances (the diagonal of ``est.q``) from
    the tallies.  Means are read on each string's canonical eigenvalue grid,
    so each string's spectral offset is its phase."""
    t = graph.tallies
    est.p_means[:] = ps_mean(t.s, graph.offsets)
    np.fill_diagonal(est.q, self_covariance(t.s))
    return est


def _refresh_pair_estimates(graph, est, cfg: MCMCConfig, seed: int, cache: dict, previous: list | None = None) -> list:
    """Set every edge's covariance from the ``cache`` record of its tally
    triple, and return those records in ``graph.edges()`` order.

    The edges' triples (s_i, s_j, s_ij) are read as one (E, 3, d_P) array,
    and ``cache`` maps a row's bytes to the CovarianceEstimate of the chains
    first run on it.  An edge whose row is missing runs its chains under the
    run ``seed`` and its edge index as pair_id, warm-started from the record
    it read at the previous refresh (``previous``, the list that refresh
    returned), so only an edge's first chains run the mode ascent and the
    pilot.  A record is never replaced, so an edge whose tallies did not move
    reads the same record as at the previous refresh.  Each value is carried
    on its strings' eigenvalue grids by the phase of their offset difference.
    """
    t = graph.tallies
    d_p = t.d_p
    edges = np.array(graph.edges(), dtype=np.int64).reshape(-1, 2)
    i, j = edges.T
    triples = np.concatenate([t.s[edges], t.pair_s[i, j][:, None]], axis=1)
    keys = [row.tobytes() for row in triples]
    # one call per cache-missing row: a batched pair covariance replaces this loop
    for k, key in enumerate(keys):
        if key not in cache:
            start = previous[k] if previous else None
            cache[key] = covariance_mcmc(*triples[k], d_p, cfg, seed, pair_id=k, start=start)
    pairs = [cache[key] for key in keys]
    values = np.array([mc.value for mc in pairs], dtype=complex)
    est.q[i, j] = grid_phase(graph.offsets[j] - graph.offsets[i], d_p) * values
    est.q[j, i] = est.q[i, j].conj()
    return pairs


def estimate_xi(graph, probe_counts, usage) -> XiEstimate:
    """Per-string error rates from circuit probe counts, shot-weighted.

    ``probe_counts`` is the (C, 2) error/ok count array of the cover's
    circuits and ``usage`` the (p, C) shots each string took through each.
    Each string inherits the rates of the circuits that measured it,
    weighted by those shots.  A randomized error coincides with the probe
    target with probability 1/D, so the raw mismatch posterior of a probed
    circuit underestimates its error rate by the collision factor
    (1 - 1/D); the rates are rescaled accordingly.  Unprobed circuits and
    unmeasured strings keep the uninformative prior (mean 1/2, variance 1/12).
    """
    total_dim = graph.observable.register.total_dim
    per_circuit = xi_posterior(probe_counts)
    scale = np.where(per_circuit.n_probes > 0, total_dim / (total_dim - 1.0), 1.0)
    mean_c = np.minimum(1.0, per_circuit.mean * scale)
    var_c = per_circuit.variance * scale ** 2
    tot = usage.sum(axis=1)
    used = tot > 0
    safe = np.where(used, tot, 1)
    return XiEstimate(
        mean=np.where(used, (usage @ mean_c) / safe, 0.5),
        variance=np.where(used, (usage / safe[:, None]) ** 2 @ var_c, 1.0 / 12.0),
        n_probes=(usage > 0) @ per_circuit.n_probes,
    )


def _deviation(graph, probe_counts, usage):
    """Error rates, the outcome distributions with the randomizing errors'
    uniform share removed, and the systematic deviation they imply."""
    t = graph.tallies
    d_p = t.d_p
    xi = estimate_xi(graph, probe_counts, usage)
    x = xi.mean[:, None]
    corr = np.maximum((posterior_mean_theta(t.s) - x / d_p) / np.maximum(1.0 - x, 1e-9), 0.0)
    norm = corr.sum(axis=1, keepdims=True)
    thetas = np.where(norm > 0, corr / np.where(norm > 0, norm, 1.0), 1.0 / d_p)
    return xi, thetas, systematic_deviation(graph.observable.coefficients(), xi.mean, thetas, graph.offsets, d_p)


def _deviation_spread(graph, est, xi, thetas):
    """The deviation's standard deviation and the worst-case bound, for the
    final report."""
    t = graph.tallies
    d_p = t.d_p
    coeffs = graph.observable.coefficients()
    omega = roots_of_unity(d_p)
    g = np.abs(((thetas - 1.0 / d_p) * omega).sum(axis=1))
    ratio = xi.mean / np.maximum(1.0 - xi.mean, 1e-9)
    theta_var = est.q.diagonal().real / (t.m + 2.0)
    var_dev = float(np.sum(np.abs(coeffs) ** 2 * (xi.variance * g ** 2 + ratio ** 2 * theta_var)))
    return math.sqrt(max(var_dev, 0.0)), worst_case_bound(coeffs, xi.mean, thetas, d_p)


def plan_measurements(obs: Observable, mode: str) -> CommutationGraph:
    """Commutation graph of ``obs`` under ``mode`` ('gc' or 'bc') with its
    clique cover in ``graph.cliques``, each clique carrying its
    diagonalizing circuit."""
    kind = MODE_NAMES[mode]
    graph = build_graph(obs, kind)
    strings = obs.strings()
    for c in clique_cover(graph):
        c.circuit = diagonalize_clique([strings[v] for v in c.vertices], kind)
    return graph


def run_estimation(
    obs: Observable,
    state: StateVector,
    settings: RunSettings,
    noise: NoiseModel | None = None,
) -> EstimationReport:
    """Run the full adaptive estimation loop until the budget is spent.

    All randomness derives from ``settings.seed``: shot sampling, probe
    draws and the MCMC refreshes, so one seed reproduces the entire run.
    """
    from .simulator import sample_shot  # resolved per run, like record_batch's conjugate_ps

    if obs.register != state.register:
        raise ValueError("observable and state registers differ")
    graph = plan_measurements(obs, settings.mode)
    cliques = graph.cliques

    rng_shots = np.random.default_rng([settings.seed, 101])
    rng_probes = np.random.default_rng([settings.seed, 202])
    mcmc_cache: dict = {}
    refreshed = None  # the records of the latest refresh, where stale edges resume their chains

    outcome_probs = [apply_circuit(state, c.circuit).probabilities() for c in cliques]
    outcome_probs = [pr / pr.sum() for pr in outcome_probs]
    p = graph.p
    # pair covariances start at their prior mean, 0 under the Dirichlet(1) prior
    report_est = update_vertex_estimates(graph, EdgeEstimates.zeros(p))
    # a non-adaptive run allocates on the weights alone
    alloc_est = report_est if settings.adaptive else EdgeEstimates(p_means=np.zeros(p, dtype=complex), q=np.eye(p, dtype=complex))

    batch = settings.effective_batch
    shots_per_clique = np.zeros(len(cliques), dtype=np.int64)
    probe_counts = np.zeros((len(cliques), 2), dtype=np.int64)  # errors, clean runs
    history: list[BatchRecord] = []

    def estimate():
        """O_est, var_stat and the noise-aware terms (xi, thetas, deviation)."""
        o_est, var_stat = estimate_observable(graph, report_est)
        if not settings.noise_aware:
            return o_est, var_stat, (None, None, 0.0 + 0.0j)
        usage = graph.membership.T * shots_per_clique
        return o_est, var_stat, _deviation(graph, probe_counts, usage)

    spent = 0
    shot_log = []
    while spent < settings.budget:
        b = min(batch, settings.budget - spent)
        ci = select_clique(graph, alloc_est, b)
        # the probes so far stay the rounded share of the shots so far
        n_probe = int(round(settings.probe_split * (spent + b)) - probe_counts.sum()) if settings.noise_aware else 0
        n_meas = b - n_probe
        if n_meas:
            outcomes, injected = sample_shot(outcome_probs[ci], cliques[ci].circuit, noise, rng_shots, n_meas)
            record_batch(graph, cliques[ci], outcomes)
            shots_per_clique[ci] += n_meas
            shot_log.append((ci, outcomes, injected))
        for _ in range(n_probe):
            probe_counts[ci, 0 if stabilizer_probe(cliques[ci].circuit, noise, rng_probes) else 1] += 1
        spent += b

        update_vertex_estimates(graph, report_est)
        # history holds the earlier batches, so this is batch len(history) + 1
        if settings.adaptive and (len(history) + 1) % REFRESH_CADENCE == 0:
            refreshed = _refresh_pair_estimates(graph, report_est, settings.mcmc, settings.seed, mcmc_cache, refreshed)
        o_est, var_stat, (_, _, dev) = estimate()
        row = BatchRecord(m_total=spent, o_est=o_est, var_stat=var_stat, dev_sys_sq=abs(dev) ** 2, clique_id=ci)
        history.append(row)

    # the tallies have not moved since the last batch's vertex estimates
    pairs = _refresh_pair_estimates(graph, report_est, settings.mcmc, settings.seed, mcmc_cache, refreshed)
    o_est, var_stat, (xi, thetas, dev) = estimate()
    dev_sigma, bound = (0.0, 0.0) if xi is None else _deviation_spread(graph, report_est, xi, thetas)
    return EstimationReport(
        o_est=o_est,
        var_stat=var_stat,
        dev_sys=dev,
        dev_sigma=dev_sigma,
        worst_case=bound,
        xi=xi,
        shots_per_clique=shots_per_clique.tolist(),
        probes_per_clique=probe_counts.sum(axis=1).tolist(),
        history=history,
        settings=settings,
        graph=graph,
        estimates=report_est,
        pairs=pairs,
        shot_log=shot_log,
    )
