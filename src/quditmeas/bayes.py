"""Bayesian point estimators and the constrained MCMC covariance estimator.

Single-string means and self-covariances come from Dirichlet posterior
moments.  Pairwise covariances are posterior expectations over the region of
probability triples ``(theta_i, theta_j, theta_ij)`` that admit a physical
joint outcome distribution; the integral is evaluated by Metropolis-Hastings
chains that random-walk on two-qudit states (so every sample satisfies the
region constraints by construction) and map each state back to probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paulis import PauliString


# -- Dirichlet-posterior point estimators ---------------------------------------


def posterior_mean_theta(s, a) -> np.ndarray:
    """Posterior-mean outcome probabilities (s_mu + a_mu) / (sum a + sum s)."""
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    if s.shape != a.shape:
        raise ValueError(f"counts shape {s.shape} and prior shape {a.shape} differ")
    if np.any(a < 0):
        raise ValueError("priors must be nonnegative")
    return (s + a) / (s.sum() + a.sum())


def ps_mean(p: PauliString, s, a) -> complex:
    """Estimated expectation of a Pauli string from outcome tallies.

    The tallied index mu refers to the eigenvalue grid
    ``omega_{2 d_P}^{phase_exp} omega_{d_P}^mu``, so the root-of-unity average
    is multiplied by the string's phase factor.
    """
    d_p = p.register.d_p
    theta = posterior_mean_theta(s, a)
    if theta.size != d_p:
        raise ValueError(f"tally length {theta.size} != d_P = {d_p}")
    omega = np.exp(2j * np.pi * np.arange(d_p) / d_p)
    return complex(np.exp(1j * np.pi * p.phase_exp / d_p) * (theta @ omega))


def self_covariance(s, a) -> complex:
    """Posterior self-covariance Q_ii^{(1,1)} = E[1 - |<P>|^2].

    Uses the exact Dirichlet second moments, with the (s+a)(s+a+1) form on
    the diagonal.  This is the conjugate-consistent diagonal matching the
    covariance definition <P^dag P> - <P^dag><P>; it keeps the estimation
    variance nonnegative for hermitian observables at every d_P (the plain
    ``<P^2> - <P>^2`` variant does not once d_P > 2).
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    if s.shape != a.shape:
        raise ValueError(f"counts shape {s.shape} and prior shape {a.shape} differ")
    w = s + a
    total = w.sum()
    m = np.outer(w, w)
    np.fill_diagonal(m, w * (w + 1.0))
    m = m / (total * (total + 1.0))
    d = w.size
    mu = np.arange(d)
    phase = np.exp(2j * np.pi * (mu[None, :] - mu[:, None]) / d)
    return complex(1.0 - np.sum(phase * m))


# -- probability triples and the state mapping ----------------------------------


@dataclass(frozen=True)
class ThetaTriple:
    """Outcome probabilities of two strings and of their (1,1) product."""

    theta_i: np.ndarray
    theta_j: np.ndarray
    theta_ij: np.ndarray

    def __post_init__(self):
        for name in ("theta_i", "theta_j", "theta_ij"):
            v = np.asarray(getattr(self, name), dtype=float)
            if abs(v.sum() - 1.0) > 1e-9 or np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
                raise ValueError(f"{name} is not a probability vector")
            object.__setattr__(self, name, v)

    @property
    def d(self) -> int:
        return self.theta_i.size


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


def state_to_probs(psi: np.ndarray, a_exp: int = 1, b_exp: int = 1) -> ThetaTriple:
    """Map a two-qudit state to its probability triple.

    theta_i marginalizes rows, theta_j columns; the product probabilities
    collect ``|phi_{i'j'}|^2`` over the classes ``(B j' - A i') mod d``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = math.isqrt(psi.size)
    if d * d != psi.size:
        raise ValueError("state length is not a perfect square")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    p = (np.abs(psi) ** 2).reshape(d, d)
    theta_i = p.sum(axis=1)
    theta_j = p.sum(axis=0)
    theta_ij = np.zeros(d)
    for i in range(d):
        for j in range(d):
            theta_ij[(b_exp * j - a_exp * i) % d] += p[i, j]
    return ThetaTriple(theta_i, theta_j, theta_ij)


def _region_interval(ti0: float, tj0: float) -> tuple[float, float]:
    """Feasible theta_ij[0] at d = 2 for the given theta_i[0] and theta_j[0]."""
    return abs(1.0 - ti0 - tj0), 1.0 - abs(ti0 - tj0)


# -- MCMC over two-qudit states --------------------------------------------------


# upper edge of the pilot acceptance window that tune_gamma aims for
PILOT_UPPER = 0.40


def _require_int(name: str, value) -> None:
    """Reject a config count or seed that is not an integer (JSON 2.5, "2", true)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class MCMCConfig:
    n_chains: int = 8
    min_samples: int = 500
    max_samples: int = 5000
    target_acceptance: float = 0.25  # lower edge of the pilot acceptance window
    burn_in: float = 0.2
    geweke_threshold: float = 2.0
    gelman_rubin_threshold: float = 1.1
    prior: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_chains", "min_samples", "max_samples", "seed"):
            _require_int(name, getattr(self, name))
        if self.n_chains < 1:
            raise ValueError(f"n_chains must be >= 1, got {self.n_chains}")
        if not 1 <= self.min_samples <= self.max_samples:
            raise ValueError(
                f"need 1 <= min_samples <= max_samples, got {self.min_samples} and {self.max_samples}"
            )
        if not 0.0 < self.target_acceptance < PILOT_UPPER:
            raise ValueError(f"target_acceptance must lie in (0, {PILOT_UPPER}), got {self.target_acceptance!r}")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError(f"burn_in must lie in [0, 1), got {self.burn_in!r}")
        retained = self.max_samples - int(self.burn_in * self.max_samples)
        if retained < 50:
            raise ValueError(
                f"max_samples={self.max_samples} keeps {retained} samples after burn-in; "
                "the convergence diagnostics need at least 50"
            )
        for name in ("geweke_threshold", "gelman_rubin_threshold", "prior"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")


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
    """Phenomenological starting point 1 - 1/min(totals); 0 with no data."""
    totals = (float(np.sum(s_i)), float(np.sum(s_j)), float(np.sum(s_ij)))
    low = min(totals)
    if low <= 0:
        return 0.0
    return max(0.0, 1.0 - 1.0 / low)


def tune_gamma(
    s_i, s_j, s_ij, pilot_fn, target: float = 0.25, upper: float = PILOT_UPPER, max_rounds: int = 20
) -> float:
    """Adjust the mixing parameter until pilot acceptance lands in [target, upper].

    Acceptance below target means the walk steps too far, so gamma moves
    toward 1 (``1-gamma`` scaled by 2/3); acceptance above ``upper`` allows
    larger steps (scaled by 3/2).  Once the window has been bracketed from
    both sides the multiplicative moves switch to bisection, which stops the
    factor-1.5 updates from hopping over a narrow window indefinitely.
    """
    gamma = gamma_start(s_i, s_j, s_ij)
    lo = hi = None  # bracketing gammas: acceptance too high at lo, too low at hi
    for _ in range(max_rounds):
        acc = pilot_fn(gamma)
        if target <= acc <= upper:
            return gamma
        if acc > upper:
            lo = gamma
        else:
            hi = gamma
        if lo is not None and hi is not None:
            new = 0.5 * (lo + hi)
        else:
            new = 1.0 - (1.0 - gamma) * (2.0 / 3.0 if acc < target else 1.5)
        new = min(max(new, 0.0), 1.0 - 1e-9)
        if new == gamma:
            break
        gamma = new
    return gamma


def _log_density(thetas: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """log prod theta^e per row; -inf where a positive exponent hits zero."""
    with np.errstate(divide="ignore"):
        logs = np.log(thetas)
    active = exponents > 0
    bad = np.any(active[None, :] & (thetas <= 0), axis=-1)
    vals = np.where(active[None, :], np.where(thetas > 0, logs, 0.0) * exponents[None, :], 0.0).sum(axis=-1)
    vals[bad] = -np.inf
    return vals


# the mode ascent stops once it is certified within this many nats of the
# maximum, or after this many steps
_MODE_GAP = 1.0
_MODE_MAX_STEPS = 1000


def init_chain(s_i, s_j, s_ij, a=None) -> np.ndarray:
    """Chain starting state at (approximately) the posterior mode.

    At d = 2 the triple determines the joint outcome matrix: theta_i and
    theta_j sit at their posterior means, theta_ij at the Dirichlet mode of
    its factor (clipped just inside the feasible interval), and the joint
    follows in closed form.  At d >= 3 the joint p = |psi|^2 ascends the
    chain's own target f(p) = sum_m e_m log (p @ A)_m, with A the probability
    matrix and e the positive exponents, from the independent coupling of the
    posterior means.  Its gradient g = A @ (e / (p @ A)) has p @ g = sum(e),
    and f is concave, so max(g) - sum(e) bounds the distance to the maximum.
    Each step is the multiplicative (EM) update p <- p * g / sum(e); the
    ascent stops once the bound is at most one nat, or after 1000 steps.
    Returns the normalized state sqrt(p) with zero phases.
    """
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    s_ij = np.asarray(s_ij, dtype=float)
    d = s_i.size
    if a is None:
        a = np.ones(d)
    a = np.broadcast_to(np.asarray(a, dtype=float), (d,))
    theta_i = posterior_mean_theta(s_i, a)
    theta_j = posterior_mean_theta(s_j, a)
    if d == 2:
        tot = s_ij.sum()
        lo, hi = _region_interval(theta_i[0], theta_j[0])
        margin = 1e-3 * (hi - lo)
        t0 = float(np.clip(s_ij[0] / tot if tot > 0 else 0.5, lo + margin, hi - margin))
        t00 = (theta_i[0] + theta_j[0] + t0 - 1.0) / 2.0
        joint = np.array([[t00, theta_i[0] - t00], [theta_j[0] - t00, t0 - t00]])
    else:
        amat = _prob_matrix(d)
        joint = np.outer(theta_i, theta_j).reshape(-1)
        e = np.maximum(np.concatenate([s_i, s_j, s_ij]) + np.tile(a, 3) - 1.0, 0.0)
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
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    ti = thetas[..., :d] @ omega.conj()
    tj = thetas[..., d : 2 * d] @ omega
    tij = thetas[..., 2 * d :] @ omega
    return tij - ti * tj


def _mh_block(psi, logp, theta, gamma, normals, log_u, amat2, exps, collect=False):
    """Advance ``rows`` Metropolis-Hastings chains through one block of T steps.

    ``psi`` (rows, d^2) complex, ``logp`` (rows,) and ``theta`` (rows, 3d) are
    the chains' current states, advanced in place.  ``normals`` (rows, T, d^2,
    2) and ``log_u`` (rows, T) are the block's randomness.  The scaled proposal
    noise ``sqrt(1-gamma^2) chi/|chi|`` is formed for the whole block up front,
    so a step only mixes, renormalizes, maps to probabilities (``amat2`` is the
    probability matrix with each row repeated for the real and imaginary
    parts), scores the active exponents and accepts.  Returns the per-step
    current thetas (T, rows, 3d), the acceptance flags (T, rows) and, with
    ``collect``, the per-step state probabilities (T, rows, d^2).
    """
    rows, n_steps, d2, _ = normals.shape
    raw = normals.reshape(rows, n_steps, 2 * d2)
    scale = math.sqrt(1.0 - gamma * gamma) / np.sqrt((raw * raw).sum(axis=2, keepdims=True))
    noise = np.ascontiguousarray((raw * scale).transpose(1, 0, 2))
    log_u = np.ascontiguousarray(log_u.T)
    e = np.where(exps > 0, exps, 0.0)
    x = psi.view(float)  # interleaved real and imaginary parts
    # slot 0 holds the state entering the block, slot t + 1 the proposal of step t
    props = np.empty((n_steps + 1, rows, theta.shape[1]))
    props[0] = theta
    if collect:
        sqs = np.empty((n_steps + 1, rows, 2 * d2))
        sqs[0] = x * x
    accepted = np.empty((n_steps, rows), dtype=bool)
    prop = np.empty_like(x)
    for t in range(n_steps):
        np.multiply(x, gamma, out=prop)
        prop += noise[t]
        sq = prop * prop
        s2 = sq.sum(axis=1, keepdims=True)
        sq /= s2
        lp = np.log(np.maximum(np.matmul(sq, amat2, out=props[t + 1]), 1e-300)) @ e
        ok = np.less(log_u[t], lp - logp, out=accepted[t])
        np.copyto(x, prop / np.sqrt(s2), where=ok[:, None])
        np.copyto(logp, lp, where=ok)
        if collect:
            sqs[t + 1] = sq
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
    pair_id: int = 0,
    collect: bool = False,
):
    """Estimate the pairwise covariance Q~_ij^{(1,1)} in the model frame.

    Runs ``cfg.n_chains`` Metropolis-Hastings chains with private RNG
    streams derived from (seed, pair_id, chain), all starting from the
    ``init_chain`` state near the posterior mode; chains extend in doubling
    blocks until the Geweke and Gelman-Rubin diagnostics pass or
    ``max_samples`` per chain is reached.  The mixing parameter gamma comes
    from ``tune_gamma`` on a one-row pilot walk from the same start with the
    stream (seed, pair_id, n_chains); each pilot round draws its 100 steps'
    randomness up front.  Pilot and chains advance through the same block
    kernel.  Returns a CovarianceEstimate (and, with ``collect=True``, a
    trace dictionary with per-sample Q values, probability triples and
    state-probability extrema).
    """
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    s_ij = np.asarray(s_ij, dtype=float)
    if not (s_i.size == s_j.size == s_ij.size == d_p):
        raise ValueError("tally vectors must all have length d_P")
    a = np.full(d_p, float(cfg.prior))
    exps = np.concatenate([s_i + a - 1.0, s_j + a - 1.0, s_ij + a - 1.0])
    amat = _prob_matrix(d_p)
    amat2 = np.repeat(amat, 2, axis=0)
    d2 = d_p * d_p

    psi0 = init_chain(s_i, s_j, s_ij, a)
    theta0 = (np.abs(psi0) ** 2) @ amat
    logp0 = _log_density(theta0[None, :], exps)

    # pilot tuning on a scratch chain with its own stream
    pilot_rng = np.random.default_rng([cfg.seed, pair_id, cfg.n_chains])
    pilot_state = (psi0[None, :].copy(), logp0.copy(), theta0[None, :].copy())

    def pilot(gamma: float) -> float:
        normals = pilot_rng.standard_normal((100, d2, 2))[None]
        log_u = np.log(pilot_rng.random((1, 100)) + 1e-300)
        _, accepted, _ = _mh_block(*pilot_state, gamma, normals, log_u, amat2, exps)
        return float(accepted.mean())

    gamma = tune_gamma(s_i, s_j, s_ij, pilot, target=cfg.target_acceptance)

    n_chains, n_max = cfg.n_chains, cfg.max_samples
    rngs = [np.random.default_rng([cfg.seed, pair_id, c]) for c in range(n_chains)]
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
    gz: tuple[float, ...] = ()
    grub = float("nan")

    while True:
        t_block = target - n_done
        normals = np.stack([r.standard_normal((t_block, d2, 2)) for r in rngs])
        log_u = np.log(np.stack([r.random(t_block) for r in rngs]) + 1e-300)
        held, acc, probs = _mh_block(psis, logp, thetas, gamma, normals, log_u, amat2, exps, collect)
        q[:, n_done:target] = _q_values(held, d_p).T
        accepted[:, n_done:target] = acc.T
        if collect:
            theta_tr[:, n_done:target] = held.transpose(1, 0, 2)
            pmin[:, n_done:target] = probs.min(axis=2).T
            pmax[:, n_done:target] = probs.max(axis=2).T
        n_done = target

        burn = int(cfg.burn_in * n_done)
        retained = q[:, burn:n_done]
        if retained.shape[1] >= 50:
            gz_list = []
            for c in range(n_chains):
                z_re = geweke_z(retained[c].real)
                z_im = geweke_z(retained[c].imag) if d_p > 2 else 0.0
                gz_list.append(max(abs(z_re), abs(z_im)))
            gz = tuple(gz_list)
            if n_chains >= 2:
                grub = gelman_rubin([retained[c].real for c in range(n_chains)])
                if d_p > 2:
                    grub = max(grub, gelman_rubin([retained[c].imag for c in range(n_chains)]))
            else:
                grub = 1.0
            converged = all(z <= cfg.geweke_threshold for z in gz) and grub <= cfg.gelman_rubin_threshold
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
    """Batch-means Monte Carlo standard error of the pooled chain mean."""
    n_chains, n = retained.shape
    variances = []
    for c in range(n_chains):
        x = retained[c]
        length = max(10, n // 20)
        nb = n // length
        if nb < 2:
            variances.append(np.var(x.real, ddof=1) / n + np.var(x.imag, ddof=1) / n)
            continue
        bm = x[: nb * length].reshape(nb, length).mean(axis=1)
        variances.append((np.var(bm.real, ddof=1) + np.var(bm.imag, ddof=1)) / nb)
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
    head = x[: max(1, n // 10)]
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
