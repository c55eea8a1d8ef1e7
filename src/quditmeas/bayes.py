"""Bayesian point estimators and the constrained MCMC covariance estimator.

Every string's outcome distribution has the uniform prior Dirichlet(1, ..., 1),
so the posterior exponents are the raw tallies.  Single-string means and
self-covariances come from Dirichlet posterior moments.  Pairwise
covariances are posterior expectations over the region of probability
triples ``(theta_i, theta_j, theta_ij)`` that admit a physical joint outcome
distribution; the integral is evaluated by Metropolis-Hastings chains that
random-walk on two-qudit states (so every sample satisfies the region
constraints by construction) and map each state back to probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .observables import json_value
from .paulis import grid_phase, roots_of_unity


# -- Dirichlet-posterior point estimators ---------------------------------------


def posterior_mean_theta(s) -> np.ndarray:
    """Posterior-mean outcome probabilities (s_mu + 1) / (d + sum s),
    along the last axis (one row of d counts per string)."""
    s = np.asarray(s, dtype=float)
    return (s + 1.0) / (s.sum(axis=-1, keepdims=True) + s.shape[-1])


def ps_mean(s, phase_exp):
    """Estimated expectations of Pauli strings from their outcome tallies.

    ``s`` holds one row of d_P counts per string.  The tallied index mu of a
    string refers to the eigenvalue grid
    ``omega_{2 d_P}^{phase_exp} omega_{d_P}^mu``, so each root-of-unity
    average is multiplied by its string's phase factor.
    """
    theta = posterior_mean_theta(s)
    d_p = theta.shape[-1]
    return grid_phase(phase_exp, d_p) * (theta @ roots_of_unity(d_p))


def self_covariance(s):
    """Posterior self-covariances Q_ii^{(1,1)} = E[1 - |<P>|^2], along the last axis.

    With w = s + 1 and T = sum(w), the exact Dirichlet second moments
    E[theta_mu theta_nu] = w_mu (w_nu + [mu = nu]) / (T (T + 1)) give the
    closed form ``1 - (|sum_mu w_mu omega^mu|^2 + T) / (T (T + 1))``.  This is
    the conjugate-consistent diagonal matching the covariance definition
    <P^dag P> - <P^dag><P>; it keeps the estimation variance nonnegative for
    hermitian observables at every d_P (the plain ``<P^2> - <P>^2`` variant
    does not once d_P > 2).  The result is real.
    """
    w = np.asarray(s, dtype=float) + 1.0
    d = w.shape[-1]
    total = w.sum(axis=-1)
    mean = w @ roots_of_unity(d)
    return 1.0 - (mean.real ** 2 + mean.imag ** 2 + total) / (total * (total + 1.0))


# -- probability triples -------------------------------------------------------


@lru_cache(maxsize=None)
def _prob_matrix(d: int) -> np.ndarray:
    """Maps |psi|^2 (flattened d x d) to (theta_i | theta_j | theta_ij^{(1,1)})."""
    a = np.zeros((d * d, 3 * d))
    for i in range(d):
        for j in range(d):
            k = i * d + j
            a[k, i] = 1.0
            a[k, d + j] = 1.0
            a[k, 2 * d + (j - i) % d] = 1.0
    a.setflags(write=False)
    return a


# -- MCMC over two-qudit states --------------------------------------------------


# the pilot acceptance window that tune_gamma aims for, and the most pilot
# rounds it runs
PILOT_LOWER = 0.25
PILOT_UPPER = 0.40
PILOT_MAX_ROUNDS = 20

# the chains' stopping rule: the leading share of each chain dropped as
# burn-in, and the largest |Geweke z| and Gelman-Rubin R-hat that pass
BURN_IN = 0.2
GEWEKE_THRESHOLD = 2.0
GELMAN_RUBIN_THRESHOLD = 1.1


@dataclass(frozen=True)
class MCMCConfig:
    """Chain count and per-chain sample bounds of ``covariance_mcmc``."""

    n_chains: int = 8
    min_samples: int = 500
    max_samples: int = 5000

    def __post_init__(self):
        for name in ("n_chains", "min_samples", "max_samples"):
            json_value(getattr(self, name), int, name)
        if self.n_chains < 1:
            raise ValueError(f"n_chains must be >= 1, got {self.n_chains}")
        if not 1 <= self.min_samples <= self.max_samples:
            raise ValueError(
                f"need 1 <= min_samples <= max_samples, got {self.min_samples} and {self.max_samples}"
            )
        retained = self.max_samples - int(BURN_IN * self.max_samples)
        if retained < 50:
            raise ValueError(
                f"max_samples={self.max_samples} keeps {retained} samples after burn-in; "
                "the convergence diagnostics need at least 50"
            )


@dataclass
class CovarianceEstimate:
    value: complex
    mc_std_error: float
    n_samples: int
    acceptance_rate: float
    geweke_z: tuple[float, ...]
    gelman_rubin: float
    converged: bool


def gamma_start(s_i, s_j, s_ij) -> float:
    """Phenomenological starting point 1 - 1/min(totals) over the tally
    classes with data; 0 with no data."""
    totals = [t for t in (float(np.sum(s_i)), float(np.sum(s_j)), float(np.sum(s_ij))) if t > 0]
    if not totals:
        return 0.0
    return max(0.0, 1.0 - 1.0 / min(totals))


def tune_gamma(s_i, s_j, s_ij, pilot_fn) -> float:
    """Adjust the mixing parameter until pilot acceptance lands in
    [PILOT_LOWER, PILOT_UPPER], in at most PILOT_MAX_ROUNDS pilot rounds.

    Acceptance below the window means the walk steps too far, so gamma moves
    toward 1 (``1-gamma`` scaled by 2/3); acceptance above the window allows
    larger steps (scaled by 3/2).  Once the window has been bracketed from
    both sides the multiplicative moves switch to bisection, which stops the
    factor-1.5 updates from hopping over a narrow window indefinitely.
    """
    gamma = gamma_start(s_i, s_j, s_ij)
    lo = hi = None  # bracketing gammas: acceptance too high at lo, too low at hi
    for _ in range(PILOT_MAX_ROUNDS):
        acc = pilot_fn(gamma)
        if PILOT_LOWER <= acc <= PILOT_UPPER:
            return gamma
        if acc > PILOT_UPPER:
            lo = gamma
        else:
            hi = gamma
        if lo is not None and hi is not None:
            new = 0.5 * (lo + hi)
        else:
            new = 1.0 - (1.0 - gamma) * (2.0 / 3.0 if acc < PILOT_LOWER else 1.5)
        new = min(max(new, 0.0), 1.0 - 1e-9)
        if new == gamma:
            break
        gamma = new
    return gamma


# the mode ascent stops once it is certified within this many nats of the
# maximum, or after this many steps
_MODE_GAP = 1.0
_MODE_MAX_STEPS = 1000


def init_chain(s_i, s_j, s_ij) -> np.ndarray:
    """Chain starting state at (approximately) the posterior mode.

    At every d the joint p = |psi|^2 ascends the chain's own target
    f(p) = sum_m e_m log (p @ A)_m, with A the probability matrix and e the
    tallies, from the independent coupling of the posterior means.  Its
    gradient g = A @ (e / (p @ A)) has p @ g = sum(e), and f is concave, so
    max(g) - sum(e) bounds the distance to the maximum.  Each step is the
    multiplicative (EM) update p <- p * g / sum(e); the ascent stops once the
    bound is at most one nat, or after 1000 steps.  Returns the normalized
    state sqrt(p) with zero phases.
    """
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    s_ij = np.asarray(s_ij, dtype=float)
    amat = _prob_matrix(s_i.size)
    joint = np.outer(posterior_mean_theta(s_i), posterior_mean_theta(s_j)).reshape(-1)
    e = np.concatenate([s_i, s_j, s_ij])
    total = e.sum()
    ratio = np.zeros_like(e)
    for _ in range(_MODE_MAX_STEPS):
        # cells of a class with e > 0 get g > 0, so theta stays > 0 wherever e > 0
        np.divide(e, joint @ amat, out=ratio, where=e > 0)
        grad = amat @ ratio
        if grad.max() - total <= _MODE_GAP:
            break
        joint *= grad / total
    psi = np.sqrt(np.maximum(joint, 0.0)).reshape(-1).astype(complex)
    return psi / np.linalg.norm(psi)


def _q_values(thetas: np.ndarray, d: int) -> np.ndarray:
    """Model-frame Q^{(1,1)} = sum theta_ij omega^mu - <P_i>~conj * <P_j>~."""
    omega = roots_of_unity(d)
    ti = thetas[..., :d] @ omega.conj()
    tj = thetas[..., d : 2 * d] @ omega
    tij = thetas[..., 2 * d :] @ omega
    return tij - ti * tj


def _log_density(theta: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """The chains' target ``sum_m e_m log theta_m`` of each row of probability triples."""
    return np.log(np.maximum(theta, 1e-300)) @ exps


def _block_randomness(rngs, n_steps: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's (rows, T, d2, 2) proposal normals and (rows, T) log-uniforms,
    one row per generator, each drawing its normals first."""
    normals = np.stack([r.standard_normal((n_steps, d2, 2)) for r in rngs])
    log_u = np.log(np.stack([r.random(n_steps) for r in rngs]) + 1e-300)
    return normals, log_u


def _mh_block(psi, logp, theta, gamma, normals, log_u, amat2, exps, collect=False):
    """Advance ``rows`` Metropolis-Hastings chains through one block of T steps.

    ``psi`` (rows, d^2) complex, ``logp`` (rows,) and ``theta`` (rows, 3d) are
    the chains' current states, advanced in place.  ``normals`` (rows, T, d^2,
    2) and ``log_u`` (rows, T) are the block's randomness.  The scaled proposal
    noise ``sqrt(1-gamma^2) chi/|chi|`` is formed for the whole block up front,
    so a step only mixes, renormalizes, maps to probabilities (``amat2`` is the
    probability matrix with each row repeated for the real and imaginary
    parts), scores the exponents and accepts.

    A rejected step leaves every state as it was, so all steps up to the next
    acceptance propose from the states now held.  The kernel therefore scores
    a window of steps in one pass over their stacked (n, rows, 2d^2)
    proposals, applies the first step at which any row accepts and resumes
    one step later.  The window is 1.5 times the block's steps per hit (a step
    where some row accepts) so far, and never shorter than one step.  At
    gamma = 0 a window's proposals are ``0 x + noise``, which is the noise
    itself bit for bit, so the independence sampler takes the same pass.
    A pass applies to each (rows, 2d^2) slice of its stack the elementwise
    operations and row sums of a single step, and numpy's stacked matmul calls
    the same BLAS routine on each slice that a single step's matmul calls, so
    every accept decision, held state and probability is bit-identical to a
    step-by-step walk.

    Returns the per-step current thetas (T, rows, 3d), the acceptance flags
    (T, rows) and, with ``collect``, the per-step state probabilities
    (T, rows, d^2).
    """
    rows, n_steps, d2, _ = normals.shape
    raw = normals.reshape(rows, n_steps, 2 * d2)
    scale = math.sqrt(1.0 - gamma * gamma) / np.sqrt((raw * raw).sum(axis=2, keepdims=True))
    noise = np.ascontiguousarray((raw * scale).transpose(1, 0, 2))
    log_u = np.ascontiguousarray(log_u.T)
    x = psi.view(float)  # interleaved real and imaginary parts
    # slot 0 holds the state entering the block, slot t + 1 the proposal of step t
    props = np.empty((n_steps + 1, rows, theta.shape[1]))
    props[0] = theta
    if collect:
        sqs = np.empty((n_steps + 1, rows, 2 * d2))
        sqs[0] = x * x
    accepted = np.empty((n_steps, rows), dtype=bool)

    t = hits = 0
    while t < n_steps:
        # a prior of one hit in two steps opens the block with a 3-step
        # window; hits <= t keeps every window at least one step long
        n = min(int(1.5 * (t + 2) / (hits + 1)), n_steps - t)
        window = np.multiply(x, gamma) + noise[t : t + n]
        sq = window * window
        s2 = np.add.reduce(sq, axis=-1, keepdims=True)
        sq /= s2
        lp = _log_density(np.matmul(sq, amat2, out=props[t + 1 : t + 1 + n]), exps)
        if collect:
            sqs[t + 1 : t + 1 + n] = sq
        ok = np.less(log_u[t : t + n], lp - logp, out=accepted[t : t + n])
        # the window's first acceptance in step-major order; the flags after
        # it are rewritten once the walk resumes
        k, r = divmod(int(ok.argmax()), rows)
        if not ok[k, r]:
            t += n
            continue
        np.copyto(x, window[k] / np.sqrt(s2[k]), where=ok[k][:, None])
        np.copyto(logp, lp[k], where=ok[k])
        t += k + 1
        hits += 1
    # the state after step t is the proposal of the last accepted step <= t
    last = np.where(accepted, np.arange(1, n_steps + 1)[:, None], 0)
    np.maximum.accumulate(last, axis=0, out=last)
    chains = np.arange(rows)
    held = props[last, chains]
    theta[:] = held[-1]
    probs = sqs[last, chains].reshape(n_steps, rows, d2, 2).sum(axis=3) if collect else None
    return held, accepted, probs


def covariance_mcmc(
    s_i,
    s_j,
    s_ij,
    d_p: int,
    cfg: MCMCConfig,
    seed: int,
    pair_id: int = 0,
    collect: bool = False,
):
    """Estimate the pairwise covariance Q~_ij^{(1,1)} in the model frame.

    Runs ``cfg.n_chains`` Metropolis-Hastings chains with private RNG
    streams derived from (seed, pair_id, chain), ``seed`` being the run
    seed, all starting from the ``init_chain`` state near the posterior
    mode; chains extend in doubling blocks until the Geweke and Gelman-Rubin
    diagnostics pass or ``max_samples`` per chain is reached.  The mixing
    parameter gamma comes from ``tune_gamma`` on a one-row pilot walk from
    the same start with the stream (seed, pair_id, n_chains); each pilot
    round draws its 100 steps' randomness up front.  Pilot rounds and chain
    blocks both run ``_mh_block``, which reproduces a step-by-step walk bit
    for bit.  Returns a CovarianceEstimate (and, with ``collect=True``, a
    trace dictionary with per-sample Q values, probability triples and
    state-probability extrema).
    """
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    s_ij = np.asarray(s_ij, dtype=float)
    if not (s_i.size == s_j.size == s_ij.size == d_p):
        raise ValueError("tally vectors must all have length d_P")
    exps = np.concatenate([s_i, s_j, s_ij])
    amat = _prob_matrix(d_p)
    amat2 = np.repeat(amat, 2, axis=0)
    d2 = d_p * d_p

    psi0 = init_chain(s_i, s_j, s_ij)
    theta0 = (np.abs(psi0) ** 2) @ amat
    logp0 = _log_density(theta0[None, :], exps)  # the start is > 0 wherever exps > 0

    # pilot tuning on a scratch chain with its own stream
    pilot_rng = np.random.default_rng([seed, pair_id, cfg.n_chains])
    pilot_state = (psi0[None, :].copy(), logp0.copy(), theta0[None, :].copy())

    def pilot(gamma: float) -> float:
        _, accepted, _ = _mh_block(*pilot_state, gamma, *_block_randomness([pilot_rng], 100, d2), amat2, exps)
        return float(accepted.mean())

    gamma = tune_gamma(s_i, s_j, s_ij, pilot)

    n_chains, n_max = cfg.n_chains, cfg.max_samples
    rngs = [np.random.default_rng([seed, pair_id, c]) for c in range(n_chains)]
    psis = np.tile(psi0, (n_chains, 1))
    logp = np.repeat(logp0, n_chains)
    thetas = np.tile(theta0, (n_chains, 1))
    q = np.empty((n_chains, n_max), dtype=complex)
    accepted = np.empty((n_chains, n_max), dtype=bool)
    if collect:
        theta_tr = np.empty((n_chains, n_max, 3 * d_p))
        pmin = np.empty((n_chains, n_max))
        pmax = np.empty((n_chains, n_max))

    n_done = 0
    target = cfg.min_samples
    converged = False

    while True:
        normals, log_u = _block_randomness(rngs, target - n_done, d2)
        held, acc, probs = _mh_block(psis, logp, thetas, gamma, normals, log_u, amat2, exps, collect)
        q[:, n_done:target] = _q_values(held, d_p).T
        accepted[:, n_done:target] = acc.T
        if collect:
            theta_tr[:, n_done:target] = held.transpose(1, 0, 2)
            pmin[:, n_done:target] = probs.min(axis=2).T
            pmax[:, n_done:target] = probs.max(axis=2).T
        n_done = target

        burn = int(BURN_IN * n_done)
        retained = q[:, burn:n_done]
        # the last block retains >= 50 samples (MCMCConfig), so gz and grub are
        # set; Q is real up to rounding at d = 2, so only its real part is diagnosed
        if retained.shape[1] >= 50:
            parts = (retained.real,) if d_p == 2 else (retained.real, retained.imag)
            gz = tuple(max(abs(geweke_z(part[c])) for part in parts) for c in range(n_chains))
            grub = max(gelman_rubin(part) for part in parts) if n_chains > 1 else 1.0
            converged = all(z <= GEWEKE_THRESHOLD for z in gz) and grub <= GELMAN_RUBIN_THRESHOLD
        if converged or n_done >= n_max:
            break
        target = min(2 * n_done, n_max)

    estimate = CovarianceEstimate(
        value=complex(retained.mean()),
        mc_std_error=_chain_std_error(retained),
        n_samples=int(retained.size),
        acceptance_rate=float(accepted[:, burn:n_done].mean()),
        geweke_z=gz,
        gelman_rubin=float(grub),
        converged=bool(converged),
    )
    if not collect:
        return estimate
    trace = {
        "q": q[:, :n_done],
        "accepted": accepted[:, :n_done],
        "theta": theta_tr[:, :n_done],
        "state_prob_min": pmin[:, :n_done],
        "state_prob_max": pmax[:, :n_done],
        "burn_in": burn,
        "gamma": gamma,
    }
    return estimate, trace


def _chain_std_error(retained: np.ndarray) -> float:
    """Batch-means Monte Carlo standard error of the pooled chain mean.

    Every retained chain holds at least 50 samples (the stopping rule needs
    50, and ``MCMCConfig`` keeps 50 after burn-in), so its batches of
    max(10, n // 20) samples give at least 5 batch means.
    """
    n_chains, n = retained.shape
    length = max(10, n // 20)
    nb = n // length
    bm = retained[:, : nb * length].reshape(n_chains, nb, length).mean(axis=2)
    variances = (np.var(bm.real, axis=1, ddof=1) + np.var(bm.imag, axis=1, ddof=1)) / nb
    return float(np.sqrt(np.sum(variances)) / n_chains)


def _integrated_autocorr(x: np.ndarray) -> float:
    """Integrated autocorrelation time, truncated at the first nonpositive lag."""
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var <= 0:
        return 1.0
    tau = 1.0
    for k in range(1, min(n // 4, 100) + 1):
        rho = float(x[:-k] @ x[k:]) / ((n - k) * var)
        if rho <= 0:
            break
        tau += 2.0 * rho
    return tau


def geweke_z(chain: np.ndarray) -> float:
    """Z-score between the first 10% and the last 50% of a scalar sequence.

    Window variances are inflated by their integrated autocorrelation times,
    so the score stays calibrated on correlated MCMC output (and reduces to
    the plain two-sample z for i.i.d. sequences).
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 50:
        raise ValueError(f"need at least 50 samples for the Geweke diagnostic, got {n}")
    head = x[: n // 10]
    tail = x[n // 2 :]
    denom = (
        np.var(head, ddof=1) * _integrated_autocorr(head) / head.size
        + np.var(tail, ddof=1) * _integrated_autocorr(tail) / tail.size
    )
    if denom <= 0:
        return 0.0
    return float((head.mean() - tail.mean()) / math.sqrt(denom))


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor across chains of equal length."""
    arr = np.asarray(chains, dtype=float)
    m, n = arr.shape
    if m < 2:
        raise ValueError("Gelman-Rubin needs at least two chains")
    if n < 50:
        raise ValueError(f"need at least 50 samples per chain, got {n}")
    means = arr.mean(axis=1)
    w = float(np.mean(np.var(arr, axis=1, ddof=1)))
    b = n * float(np.var(means, ddof=1))
    if w <= 0:
        return 1.0 if b <= 0 else float("inf")
    return ((n - 1) / n * w + b / n) / w
