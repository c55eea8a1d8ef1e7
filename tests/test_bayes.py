import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmeas import bayes
from quditmeas.bayes import (
    MCMCConfig,
    _prob_matrix,
    _q_values,
    covariance_mcmc,
    gamma_start,
    init_chain,
    posterior_mean_theta,
    ps_mean,
    self_covariance,
    tune_gamma,
)
from quditmeas.paulis import PauliString, QuditRegister, roots_of_unity

from .conftest import gelman_rubin, geweke_z


def haar_state(d2: int, rng) -> np.ndarray:
    """Haar-uniform pure state via normalized complex Gaussians."""
    chi = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
    return chi / np.linalg.norm(chi)


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


def one_string_ps_mean(p: PauliString, s) -> complex:
    """Mean of one string with its phase read from the string (the per-string
    form ``ps_mean`` had before it took whole tally arrays)."""
    d_p = p.register.d_p
    omega = np.exp(2j * np.pi * np.arange(d_p) / d_p)
    return complex(np.exp(1j * np.pi * p.phase_exp / d_p) * (posterior_mean_theta(s) @ omega))


def moment_matrix_self_covariance(s) -> complex:
    """Self-covariance summed over the full Dirichlet second-moment matrix
    (the form the closed expression in ``self_covariance`` replaced)."""
    w = np.asarray(s, dtype=float) + 1.0
    total = w.sum()
    m = np.outer(w, w)
    np.fill_diagonal(m, w * (w + 1.0))
    m = m / (total * (total + 1.0))
    mu = np.arange(w.size)
    phase = np.exp(2j * np.pi * (mu[None, :] - mu[:, None]) / w.size)
    return complex(1.0 - np.sum(phase * m))


def propose(psi: np.ndarray, gamma: float, rng) -> np.ndarray:
    """Mixture proposal psi' ~ gamma psi + sqrt(1-gamma^2) chi, renormalized:
    the one-state form of the proposal that ``_mh_block`` draws per block."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1)")
    chi = haar_state(len(psi), rng)
    mix = gamma * psi + math.sqrt(1.0 - gamma * gamma) * chi
    return mix / np.linalg.norm(mix)


def quadrature_q_d2(s_i, s_j, s_ij, step=200):
    """Brute-force grid quadrature of the covariance posterior mean (d_P = 2).

    Integrates Q(x, y, z) = (2z-1) - (2x-1)(2y-1) against the posterior
    x^si0 (1-x)^si1 y^sj0 (1-y)^sj1 z^sij0 (1-z)^sij1 over the tetrahedron
    |1-x-y| <= z <= 1-|x-y| with midpoint cells of width 1/step.
    """
    mids = (np.arange(step) + 0.5) / step
    yy, zz = np.meshgrid(mids, mids, indexing="ij")
    num = 0.0
    den = 0.0
    for x in mids:
        lo = np.abs(1.0 - x - yy)
        hi = 1.0 - np.abs(x - yy)
        mask = (zz >= lo) & (zz <= hi)
        p = (
            x ** s_i[0]
            * (1 - x) ** s_i[1]
            * yy ** s_j[0]
            * (1 - yy) ** s_j[1]
            * zz ** s_ij[0]
            * (1 - zz) ** s_ij[1]
        )
        p = np.where(mask, p, 0.0)
        q = (2 * zz - 1) - (2 * x - 1) * (2 * yy - 1)
        num += float(np.sum(p * q))
        den += float(np.sum(p))
    return num / den


# -- region oracles: joint reconstruction, IPF and the bisection chain start ----


def cross_correlation(theta_i, theta_j) -> np.ndarray:
    """Product-outcome distribution of the independent coupling."""
    d = len(theta_i)
    out = np.zeros(d)
    for i in range(d):
        for j in range(d):
            out[(j - i) % d] += theta_i[i] * theta_j[j]
    return out


def joint_probs(triple: ThetaTriple) -> np.ndarray:
    """Joint outcome matrix reconstructed from a triple.

    Uses the inverse-Fourier reconstruction with all covariances not
    determined by the triple set to zero:
    ``theta_{i mu} theta_{j nu} + (th_{ij} - th_i x th_j)_{(nu-mu) mod d}/d``.
    For d = 2 the triple determines the joint distribution uniquely and this
    is exact; for d >= 3 it is the zero-completion, whose entries marginalize
    correctly but bound the true region only from outside.
    """
    d = triple.d
    base = np.outer(triple.theta_i, triple.theta_j)
    corr = triple.theta_ij - cross_correlation(triple.theta_i, triple.theta_j)
    out = base.copy()
    for mu in range(d):
        for nu in range(d):
            out[mu, nu] += corr[(nu - mu) % d] / d
    return out


def ipf_joint(theta_i, theta_j, theta_ij, max_sweeps: int = 200, tol: float = 1e-8):
    """Iterative proportional fitting of a joint matrix to three marginals.

    Starts from the independent coupling and alternately rescales rows,
    columns and anti-diagonal classes.  Returns (matrix, converged).  A
    class whose support has been scaled to zero while its target is positive
    can never recover (the updates are multiplicative), so that case exits
    as infeasible immediately.
    """
    theta_i = np.asarray(theta_i, dtype=float)
    theta_j = np.asarray(theta_j, dtype=float)
    theta_ij = np.asarray(theta_ij, dtype=float)
    d = theta_i.size
    classes = ((np.arange(d)[None, :] - np.arange(d)[:, None]) % d).ravel()
    v = np.outer(theta_i, theta_j)
    for _ in range(max_sweeps):
        rows = v.sum(axis=1)
        np.divide(theta_i, rows, out=rows, where=rows > 0)
        v *= rows[:, None]
        cols = v.sum(axis=0)
        np.divide(theta_j, cols, out=cols, where=cols > 0)
        v *= cols[None, :]
        csum = np.bincount(classes, weights=v.ravel(), minlength=d)
        dead = (csum <= 0) & (theta_ij > tol)
        if np.any(dead):
            return v, False
        factors = np.where(csum > 0, theta_ij / np.where(csum > 0, csum, 1.0), 1.0)
        v *= factors[classes].reshape(d, d)
        # class sums now match exactly; only rows/columns can still deviate
        dev = max(
            float(np.max(np.abs(v.sum(axis=1) - theta_i))),
            float(np.max(np.abs(v.sum(axis=0) - theta_j))),
        )
        if dev < tol:
            return v, True
    return v, False


def _region_interval(ti0: float, tj0: float) -> tuple[float, float]:
    """Feasible theta_ij[0] at d = 2 for the given theta_i[0] and theta_j[0]."""
    return abs(1.0 - ti0 - tj0), 1.0 - abs(ti0 - tj0)


def in_region(triple: ThetaTriple, tol: float = 1e-9) -> bool:
    """Whether the triple admits a physical joint distribution."""
    if triple.d == 2:
        lo, hi = _region_interval(triple.theta_i[0], triple.theta_j[0])
        return lo - tol <= triple.theta_ij[0] <= hi + tol
    _, ok = ipf_joint(triple.theta_i, triple.theta_j, triple.theta_ij)
    return ok


def project_to_region(theta_i, theta_j, theta_ij) -> np.ndarray:
    """Straight-line shrink of theta_ij toward the slice's feasible center."""
    d = len(theta_i)
    if d == 2:
        lo, hi = _region_interval(theta_i[0], theta_j[0])
        margin = 1e-3 * (hi - lo)
        t0 = float(np.clip(theta_ij[0], lo + margin, hi - margin))
        return np.array([t0, 1.0 - t0])
    center = cross_correlation(theta_i, theta_j)
    if ipf_joint(theta_i, theta_j, theta_ij)[1]:
        return np.asarray(theta_ij, dtype=float)
    # bisection probes run short IPFs: a misread slow-but-feasible point only
    # shrinks slightly further toward the always-feasible center
    lo_t, hi_t = 0.0, 1.0
    for _ in range(10):
        mid = 0.5 * (lo_t + hi_t)
        cand = center + mid * (np.asarray(theta_ij) - center)
        if ipf_joint(theta_i, theta_j, cand, max_sweeps=60, tol=1e-7)[1]:
            lo_t = mid
        else:
            hi_t = mid
    final = 0.98 * lo_t
    return center + final * (np.asarray(theta_ij) - center)


def bisection_start(s_i, s_j, s_ij) -> np.ndarray:
    """Chain start of the projection-and-IPF method, the oracle of init_chain.

    theta_i and theta_j sit at their posterior means, theta_ij at the
    empirical frequencies projected into the region by bisection; the joint
    fitted by IPF gives the state, and a failed fit the uniform state.
    """
    s_i, s_j, s_ij = (np.asarray(v, dtype=float) for v in (s_i, s_j, s_ij))
    d = s_i.size
    theta_i = posterior_mean_theta(s_i)
    theta_j = posterior_mean_theta(s_j)
    tot = s_ij.sum()
    theta_ij = project_to_region(theta_i, theta_j, s_ij / tot if tot > 0 else np.full(d, 1.0 / d))
    if d == 2:
        t00 = (theta_i[0] + theta_j[0] + theta_ij[0] - 1.0) / 2.0
        joint = np.array([[t00, theta_i[0] - t00], [theta_j[0] - t00, theta_ij[0] - t00]])
        ok = bool(np.all(joint >= -1e-9))
    else:
        joint, ok = ipf_joint(theta_i, theta_j, theta_ij)
    if not ok:
        return np.full(d * d, 1.0 / d, dtype=complex)
    psi = np.sqrt(np.maximum(joint, 0.0)).reshape(-1).astype(complex)
    return psi / np.linalg.norm(psi)


def _log_density(thetas: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """log prod theta^e per row; -inf where a positive exponent hits zero."""
    with np.errstate(divide="ignore"):
        logs = np.log(thetas)
    active = exponents > 0
    bad = np.any(active[None, :] & (thetas <= 0), axis=-1)
    vals = np.where(active[None, :], np.where(thetas > 0, logs, 0.0) * exponents[None, :], 0.0).sum(axis=-1)
    vals[bad] = -np.inf
    return vals


def start_score(psi, s_i, s_j, s_ij):
    """Log density of a chain state under unit priors, and its concavity bound
    max(grad) - sum(e) on the distance to the posterior mode."""
    e = np.concatenate([s_i, s_j, s_ij]).astype(float)
    amat = _prob_matrix(len(s_i))
    theta = (np.abs(psi) ** 2) @ amat
    grad = amat @ np.divide(e, theta, out=np.zeros_like(e), where=e > 0)
    return float(_log_density(theta[None, :], e)[0]), float(grad.max() - e.sum())


class TestPointEstimators:
    def test_posterior_mean_uniform_prior(self):
        assert np.allclose(posterior_mean_theta([0, 0]), [0.5, 0.5])
        assert np.allclose(posterior_mean_theta([3, 1]), [2 / 3, 1 / 3])
        assert np.allclose(posterior_mean_theta([2, 0, 0]), [3 / 5, 1 / 5, 1 / 5])

    def test_ps_mean_qubit(self):
        assert ps_mean([3, 1], 0) == pytest.approx(1 / 3)

    def test_ps_mean_zero_counts_any_d(self):
        for d in (2, 3, 5):
            assert abs(ps_mean([0] * d, 0)) < 1e-12

    def test_ps_mean_qutrit(self):
        assert ps_mean([2, 0, 0], 0) == pytest.approx(2 / 5)

    def test_ps_mean_phase_factor(self):
        got = ps_mean([4, 0], 1)  # a Y-like string: spectrum {i, -i}
        assert got == pytest.approx(1j * (5 / 6 - 1 / 6))

    def test_row_estimators_match_per_string_forms(self, rng):
        # one call over a (p, d_P) tally array equals the per-string forms
        for d in (2, 3, 6):
            s = rng.integers(0, 30, size=(12, d))
            phases = rng.integers(0, 2 * d, size=12)
            reg = QuditRegister((2, 3) if d == 6 else (d,))
            strings = [PauliString(reg, ((0, 1),) * reg.q, int(k)) for k in phases]
            means = ps_mean(s, phases)
            covs = self_covariance(s)
            assert means.shape == covs.shape == (12,)
            for i in range(12):
                assert abs(means[i] - one_string_ps_mean(strings[i], s[i])) <= 1e-14
                assert abs(covs[i] - moment_matrix_self_covariance(s[i])) <= 1e-14

    def test_self_covariance_flat_qubit(self):
        assert self_covariance([0, 0]) == pytest.approx(2 / 3)

    def test_self_covariance_deterministic_limit(self):
        vals = [abs(self_covariance([n, 0])) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 5e-3

    def test_self_covariance_real_and_nonnegative(self, rng):
        for d in (2, 3, 5):
            for _ in range(30):
                s = rng.integers(0, 20, size=d)
                q = self_covariance(s)
                assert abs(q.imag) < 1e-12
                assert q.real >= -1e-12

    def test_agrees_with_exact_fraction_arithmetic(self, rng):
        # independent oracle: same Dirichlet moments in exact rationals
        for _ in range(100):
            d = int(rng.choice([2, 3, 5]))
            s = [int(x) for x in rng.integers(0, 12, size=d)]
            a = [1] * d
            total = Fraction(sum(s) + sum(a))
            mean = [Fraction(si + ai) / total for si, ai in zip(s, a)]
            got_mean = posterior_mean_theta(s)
            assert all(abs(float(m) - g) <= 1e-12 for m, g in zip(mean, got_mean))

            mom = [[None] * d for _ in range(d)]
            for m in range(d):
                for n in range(d):
                    num = Fraction((s[m] + a[m]) * (s[n] + a[n] + (1 if m == n else 0)))
                    mom[m][n] = num / (total * (total + 1))
            omega = np.exp(2j * np.pi * np.arange(d) / d)
            want = 1.0 - sum(
                float(mom[m][n]) * omega[(n - m) % d] for m in range(d) for n in range(d)
            )
            assert abs(self_covariance(s) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=5))
def test_posterior_mean_is_strictly_positive_simplex(counts):
    theta = posterior_mean_theta(counts)
    assert np.all(theta > 0)
    assert abs(theta.sum() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=5))
def test_self_covariance_bounded(counts):
    q = self_covariance(counts)
    assert abs(q.imag) < 1e-10
    assert -1e-12 <= q.real <= 1.0 + 1e-12


class TestStateMapping:
    def test_basis_state(self):
        t = state_to_probs(np.array([1, 0, 0, 0], dtype=complex))
        assert np.allclose(t.theta_i, [1, 0])
        assert np.allclose(t.theta_j, [1, 0])
        assert np.allclose(t.theta_ij, [1, 0])

    def test_bell_state(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        t = state_to_probs(psi)
        assert np.allclose(t.theta_i, [0.5, 0.5])
        assert np.allclose(t.theta_j, [0.5, 0.5])
        assert np.allclose(t.theta_ij, [1.0, 0.0])

    def test_uniform_superposition(self):
        d = 3
        psi = np.full(9, 1 / 3, dtype=complex)
        t = state_to_probs(psi)
        for v in (t.theta_i, t.theta_j, t.theta_ij):
            assert np.allclose(v, 1 / 3)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            state_to_probs(np.ones(4, dtype=complex))

    def test_general_exponents(self):
        psi = np.zeros(9, dtype=complex)
        psi[1 * 3 + 2] = 1.0  # |1>|2>
        t = state_to_probs(psi, a_exp=2, b_exp=1)
        assert np.argmax(t.theta_ij) == (1 * 2 - 2 * 1) % 3


class TestJointProbs:
    def test_product_state_factorizes(self):
        t = ThetaTriple(np.array([0.7, 0.3]), np.array([0.4, 0.6]), cross_correlation([0.7, 0.3], [0.4, 0.6]))
        assert np.allclose(joint_probs(t), np.outer([0.7, 0.3], [0.4, 0.6]))

    def test_bell_triple(self):
        t = ThetaTriple(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.allclose(joint_probs(t), np.diag([0.5, 0.5]))

    def test_marginals_recovered(self, rng):
        for d in (2, 3):
            psi = haar_state(d * d, rng)
            t = state_to_probs(psi)
            v = joint_probs(t)
            assert np.allclose(v.sum(axis=1), t.theta_i, atol=1e-10)
            assert np.allclose(v.sum(axis=0), t.theta_j, atol=1e-10)

    def test_d2_entries_within_bounds_for_states(self, rng):
        for _ in range(200):
            t = state_to_probs(haar_state(4, rng))
            v = joint_probs(t)
            assert np.all(v >= -1e-10) and np.all(v <= 1 + 1e-10)


class TestRegion:
    def test_d2_interval(self):
        t = ThetaTriple(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert in_region(t)
        bad = ThetaTriple(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert not in_region(bad)

    def test_projection_enters_region(self, rng):
        for d in (2, 3):
            for _ in range(20):
                ti = rng.dirichlet(np.ones(d))
                tj = rng.dirichlet(np.ones(d))
                tij = rng.dirichlet(np.ones(d) * 0.3)
                proj = project_to_region(ti, tj, tij)
                assert in_region(ThetaTriple(ti, tj, proj), tol=1e-6)

    def test_ipf_matches_marginals(self, rng):
        for d in (2, 3, 5):
            psi = haar_state(d * d, rng)
            t = state_to_probs(psi)
            v, ok = ipf_joint(t.theta_i, t.theta_j, t.theta_ij)
            assert ok
            assert np.allclose(v.sum(axis=1), t.theta_i, atol=1e-6)
            assert np.allclose(v.sum(axis=0), t.theta_j, atol=1e-6)


class TestProposal:
    def test_gamma_zero_is_fresh_haar(self):
        rng = np.random.default_rng(0)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        overlaps = [abs(np.vdot(psi, propose(psi, 0.0, rng))) for _ in range(300)]
        assert np.mean(overlaps) < 0.75  # uncorrelated draws

    def test_gamma_near_one_stays_close(self):
        rng = np.random.default_rng(1)
        psi = haar_state(4, rng)
        overlaps = [abs(np.vdot(psi, propose(psi, 0.999, rng))) for _ in range(100)]
        assert min(overlaps) > 0.99

    def test_normalized(self):
        rng = np.random.default_rng(2)
        psi = haar_state(9, rng)
        for g in (0.0, 0.3, 0.9):
            assert np.linalg.norm(propose(psi, g, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_distribution_unitary_invariant(self):
        # Haar invariance: the overlap law must not depend on the anchor state
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(3)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        a = [abs(np.vdot(psi, propose(psi, 0.6, rng))) for _ in range(4000)]
        b = [abs(np.vdot(u @ psi, propose(u @ psi, 0.6, rng))) for _ in range(4000)]
        assert ks_2samp(a, b).pvalue > 0.01

    def test_gamma_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            propose(haar_state(4, rng), 1.0, rng)


class TestGammaTuning:
    def test_zero_counts_give_zero(self):
        assert gamma_start([0, 0], [0, 0], [0, 0]) == 0.0
        got = tune_gamma([0, 0], [0, 0], [0, 0], lambda g: 1.0)
        assert got == 0.0

    def test_start_formula(self):
        assert gamma_start([60, 40], [99, 1], [100, 0]) == pytest.approx(0.99)

    def test_start_ignores_classes_without_data(self):
        # a pair never measured together starts from its strings' totals
        assert gamma_start([5, 5], [5, 5], [0, 0]) == pytest.approx(0.9)

    def test_returns_in_range_gamma(self):
        # acceptance increasing in gamma with a window reachable by the
        # multiplicative updates
        def pilot(g):
            return 0.6 * g

        got = tune_gamma([10, 10], [10, 10], [10, 10], pilot)
        assert 0.25 <= pilot(got) <= 0.40

    def test_always_in_unit_interval(self):
        for pilot in (lambda g: 0.0, lambda g: 1.0, lambda g: 0.3):
            g = tune_gamma([5, 5], [5, 5], [5, 5], pilot)
            assert 0.0 <= g < 1.0


class TestInitChain:
    def test_zero_counts_uniform(self):
        psi = init_chain([0, 0], [0, 0], [0, 0])
        assert np.allclose(np.abs(psi), 0.5)

    def test_concentrated_counts(self):
        n = 200
        psi = init_chain([n, 0], [n, 0], [n, 0])
        assert abs(psi[0]) ** 2 > 0.9

    def test_init_state_in_region(self, rng):
        for _ in range(10):
            s_i = rng.integers(0, 6, size=2)
            s_j = rng.integers(0, 6, size=2)
            s_ij = rng.integers(0, 6, size=2)
            assert in_region(state_to_probs(init_chain(s_i, s_j, s_ij)), tol=1e-8)


def start_cases(d):
    """Random small tallies, and large tallies with zero classes like those of
    the d_P = 6 mixed register (a string whose outcomes fill only some classes)."""
    rng = np.random.default_rng([41, d])
    cases = [tuple(rng.integers(0, 12, size=d) for _ in range(3)) for _ in range(10)]
    for _ in range(10):
        cases.append(tuple(rng.integers(0, 1500, size=d) * (rng.random(d) < 0.5) for _ in range(3)))
    return cases


@pytest.mark.parametrize("d", [2, 3, 6])
def test_mode_start_certified_within_one_nat(d):
    for s_i, s_j, s_ij in start_cases(d):
        psi = init_chain(s_i, s_j, s_ij)
        logp, gap = start_score(psi, s_i, s_j, s_ij)
        assert gap <= 1.0 + 1e-6
        # a long ascent from the start finds no point more than the bound above it
        e = np.concatenate([s_i, s_j, s_ij]).astype(float)
        amat = _prob_matrix(d)
        p = np.abs(psi) ** 2
        for _ in range(3000):
            p *= amat @ np.divide(e, p @ amat, out=np.zeros_like(e), where=e > 0) / e.sum()
        best = float(_log_density((p @ amat)[None, :], e)[0])
        assert best - logp <= gap + 1e-6


@pytest.mark.parametrize("d", [2, 3, 6])
def test_mode_start_not_below_bisection_start(d):
    for k, (s_i, s_j, s_ij) in enumerate(start_cases(d)):
        logp, gap = start_score(init_chain(s_i, s_j, s_ij), s_i, s_j, s_ij)
        ref, _ = start_score(bisection_start(s_i, s_j, s_ij), s_i, s_j, s_ij)
        # where the empirical theta_ij is feasible the bisection start can sit
        # closer to the mode than the one-nat certificate asks for
        assert logp + gap >= ref
        if k >= 10:  # zero-class tallies: the bisection start misses the mode
            assert logp >= ref


def array_geweke(chain) -> float:
    """``bayes._geweke`` on one sequence, in the oracle's scalar form."""
    return float(bayes._geweke(np.asarray(chain, dtype=float)))


def array_r_hat(chains) -> float:
    """``bayes._r_hat`` on one set of chains, in the oracle's scalar form."""
    return float(bayes._r_hat(np.asarray(chains, dtype=float)))


# each case runs through the production array pass and the scalar oracle
DIAGNOSTICS = pytest.mark.parametrize(
    "geweke, r_hat", [(array_geweke, array_r_hat), (geweke_z, gelman_rubin)], ids=["array", "oracle"]
)


class TestDiagnostics:
    @DIAGNOSTICS
    def test_constant_chains(self, geweke, r_hat):
        x = np.ones(200)
        assert geweke(x) == 0.0
        assert r_hat([x, x, x]) == 1.0

    @DIAGNOSTICS
    def test_offset_chain_detected(self, geweke, r_hat):
        rng = np.random.default_rng(0)
        chains = [rng.normal(size=400) for _ in range(4)]
        chains[0] = chains[0] + 10.0
        assert r_hat(chains) > 1.1

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            geweke_z(np.ones(10))
        with pytest.raises(ValueError):
            gelman_rubin([np.ones(10), np.ones(10)])

    @DIAGNOSTICS
    def test_iid_calibration(self, geweke, r_hat):
        rng = np.random.default_rng(123)
        n_trials = 1000
        z_pass = 0
        r_pass = 0
        for _ in range(n_trials):
            x = rng.normal(size=2000)
            if abs(geweke(x)) <= 2.0:
                z_pass += 1
            chains = rng.normal(size=(4, 500))
            if r_hat(list(chains)) <= 1.1:
                r_pass += 1
        assert z_pass / n_trials >= 0.95
        assert r_pass / n_trials >= 0.95


def diagnostic_case(rng) -> np.ndarray:
    """One seeded (parts, chains, n) input of the stopping rule: AR(1) chains
    with phi in [-0.5, 0.95], optionally with one chain offset, some rows
    held constant, or every chain constant."""
    parts = int(rng.integers(1, 3))
    chains = int(rng.integers(1, 9))
    n = int(np.exp(rng.uniform(np.log(50), np.log(4001))))
    phi = rng.uniform(-0.5, 0.95)
    noise = rng.normal(size=(parts, chains, n))
    x = np.empty_like(noise)
    x[..., 0] = noise[..., 0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[..., t] = phi * x[..., t - 1] + noise[..., t]
    kind = rng.integers(0, 4)
    if kind == 1:  # one chain offset from the rest
        x[:, int(rng.integers(0, chains))] += rng.uniform(0.5, 10.0)
    elif kind == 2:  # some rows constant
        rows = rng.random((parts, chains)) < 0.4
        x[rows] = rng.normal(size=(int(rows.sum()), 1))
    elif kind == 3:  # every chain constant: R-hat 1 for equal values, infinite otherwise
        # quarter-integer values have exact means, so W is exactly 0
        x[:] = rng.integers(-2, 3, size=(parts, chains, 1)) / 4.0
    return x


def test_diagnostics_match_scalar_oracles():
    """The array Geweke and R-hat passes agree with the scalar oracles on 400
    seeded cases, within 1e-12 relative and exactly at 0 and infinity."""
    for seed in range(400):
        x = diagnostic_case(np.random.default_rng([7, seed]))
        parts, chains, _ = x.shape
        want_z = np.array([[geweke_z(x[p, c]) for c in range(chains)] for p in range(parts)])
        want_r = np.array([gelman_rubin(x[p]) if chains > 1 else 1.0 for p in range(parts)])
        np.testing.assert_allclose(bayes._geweke(x), want_z, rtol=1e-12, atol=0, err_msg=f"seed {seed}")
        np.testing.assert_allclose(bayes._r_hat(x), want_r, rtol=1e-12, atol=0, err_msg=f"seed {seed}")


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_prob_matrix_equals_loop_construction(d):
    """Row i d + j of the probability matrix marks theta_i's cell i,
    theta_j's cell j and theta_ij's cell (j - i) mod d."""
    want = np.zeros((d * d, 3 * d))
    for i in range(d):
        for j in range(d):
            want[i * d + j, [i, d + j, 2 * d + (j - i) % d]] = 1.0
    assert np.array_equal(_prob_matrix(d), want)


def small_cfg(**kw):
    base = dict(n_chains=4, min_samples=400, max_samples=1600)
    base.update(kw)
    return MCMCConfig(**base)


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_pair_covariance_prior_mean_is_zero(d):
    """Under the Dirichlet(1) prior on the d^2 cells of |psi|^2, E[Q] = 0
    exactly, so a pair without data needs no chains.  Q is linear in theta_ij
    and bilinear in (theta_i, theta_j), so its mean follows from the prior's
    exact first and second moments."""
    amat = _prob_matrix(d)
    n = d * d
    mean = np.full(n, 1.0 / n)
    second = (np.eye(n) + 1.0) / (n * (n + 1.0))  # E[p_k p_l]
    assert second.sum() == pytest.approx(1.0, abs=1e-15)
    omega = roots_of_unity(d)
    t_i, t_j, t_ij = amat[:, :d] @ omega.conj(), amat[:, d : 2 * d] @ omega, amat[:, 2 * d :] @ omega
    # the same Q as _q_values on any |psi|^2
    p = np.random.default_rng(d).dirichlet(np.ones(n))
    assert _q_values(p @ amat, d) == pytest.approx(p @ t_ij - (p @ t_i) * (p @ t_j), abs=1e-14)
    assert abs(mean @ t_ij - t_i @ second @ t_j) <= 1e-12


class TestCovarianceMCMC:
    def test_zero_counts_near_zero(self):
        est = covariance_mcmc([0, 0], [0, 0], [0, 0], 2, small_cfg(), seed=0)
        assert abs(est.value) <= 3 * est.mc_std_error + 1e-9

    def test_deterministic_limit(self):
        # the posterior mean retains an O(1/N) prior-regularization offset;
        # the chain must match the quadrature oracle and shrink with N
        n = 50
        want = quadrature_q_d2((n, 0), (n, 0), (n, 0))
        est = covariance_mcmc([n, 0], [n, 0], [n, 0], 2, small_cfg(), seed=1)
        assert abs(est.value.real - want) <= 3 * est.mc_std_error
        assert abs(est.value) < 0.06
        est_small = covariance_mcmc([5, 0], [5, 0], [5, 0], 2, small_cfg(), seed=1)
        assert abs(est.value) < abs(est_small.value)

    def test_matches_quadrature_oracle(self):
        s_i, s_j, s_ij = (2, 1), (1, 2), (2, 1)
        want = quadrature_q_d2(s_i, s_j, s_ij)
        est = covariance_mcmc(s_i, s_j, s_ij, 2, small_cfg(min_samples=800, max_samples=3200), seed=2)
        assert abs(est.value.real - want) <= 3 * est.mc_std_error
        assert abs(est.value.imag) < 1e-9

    def test_anticorrelated_counts_negative_q(self):
        # i and j nearly deterministic but opposite: product outcomes pile on mu=1
        est = covariance_mcmc([12, 0], [0, 12], [0, 12], 2, small_cfg(), seed=3)
        assert est.value.real < 0

    def test_determinism(self):
        a = covariance_mcmc([3, 1], [2, 2], [1, 3], 2, small_cfg(), seed=7, pair_id=5)
        b = covariance_mcmc([3, 1], [2, 2], [1, 3], 2, small_cfg(), seed=7, pair_id=5)
        assert a.value == b.value and a.mc_std_error == b.mc_std_error

    def test_qutrit_zero_counts(self):
        est = covariance_mcmc([0] * 3, [0] * 3, [0] * 3, 3, small_cfg(), seed=4)
        assert abs(est.value) <= 3 * est.mc_std_error + 1e-9

    def test_flat_target_matches_direct_haar(self):
        from scipy.stats import ks_2samp

        est, trace = covariance_mcmc([0, 0], [0, 0], [0, 0], 2, small_cfg(), seed=5, collect=True)
        burn = trace["burn_in"]
        chain_ti = trace["theta"][:, burn:, 0].reshape(-1)
        rng = np.random.default_rng(17)
        direct = np.array([state_to_probs(haar_state(4, rng)).theta_i[0] for _ in range(3000)])
        assert ks_2samp(chain_ti, direct).pvalue > 0.01

    def test_samples_respect_bounds(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            s_i = rng.integers(0, 8, size=d)
            s_j = rng.integers(0, 8, size=d)
            s_ij = rng.integers(0, 8, size=d)
            est, trace = covariance_mcmc(s_i, s_j, s_ij, d, small_cfg(), seed=8, collect=True)
            assert np.all(trace["state_prob_min"] >= -1e-12)
            assert np.all(trace["state_prob_max"] <= 1 + 1e-12)
            th = trace["theta"]
            if d == 2:
                ti0, tj0, tij0 = th[..., 0], th[..., 2], th[..., 4]
                lo = np.abs(1 - ti0 - tj0)
                hi = 1 - np.abs(ti0 - tj0)
                assert np.all(tij0 >= lo - 1e-10) and np.all(tij0 <= hi + 1e-10)

    def test_reports_diagnostics(self):
        est = covariance_mcmc([5, 3], [4, 4], [6, 2], 2, small_cfg(), seed=9)
        assert len(est.geweke_z) == 4
        assert est.n_samples > 0
        assert 0.0 <= est.acceptance_rate <= 1.0


def reference_walk(s_i, s_j, s_ij, d_p, cfg, seed, pair_id, gamma):
    """Per-step main-chain walk of covariance_mcmc, kept as the oracle of its
    block kernel: one proposal, one acceptance and one Q evaluation per step,
    from the init_chain start with the given gamma and the per-chain streams
    (seed, pair_id, c).  Returns the trace arrays and the final chain length."""
    s_i, s_j, s_ij = (np.asarray(v, dtype=float) for v in (s_i, s_j, s_ij))
    exps = np.concatenate([s_i, s_j, s_ij])
    amat = _prob_matrix(d_p)
    d2 = d_p * d_p

    n_chains = cfg.n_chains
    rngs = [np.random.default_rng([seed, pair_id, c]) for c in range(n_chains)]
    psis = np.tile(init_chain(s_i, s_j, s_ij), (n_chains, 1))
    thetas = (np.abs(psis) ** 2) @ amat
    logp = _log_density(thetas, exps)

    mix = np.sqrt(1.0 - gamma * gamma)
    omega = np.exp(2j * np.pi * np.arange(d_p) / d_p)
    omega_conj = omega.conj()
    active = exps > 0
    e_act = exps[active]
    q_hist, acc_hist, theta_hist, pmin_hist, pmax_hist = [], [], [], [], []

    n_done = 0
    target = min(cfg.min_samples, cfg.max_samples)
    converged = False
    while True:
        t_block = target - n_done
        normals = np.stack([r.standard_normal((t_block, d2, 2)) for r in rngs])
        log_unifs = np.log(np.stack([r.random(t_block) for r in rngs]) + 1e-300)
        for t in range(t_block):
            raw = normals[:, t]
            chi = raw[:, :, 0] + 1j * raw[:, :, 1]
            chi_norm = np.sqrt((raw * raw).sum(axis=(1, 2)))
            prop = gamma * psis + (mix / chi_norm)[:, None] * chi
            pr = prop.real ** 2 + prop.imag ** 2
            s2 = pr.sum(axis=1)
            pr /= s2[:, None]
            prop /= np.sqrt(s2)[:, None]
            th = pr @ amat
            if e_act.size:
                lp = np.log(np.maximum(th[:, active], 1e-300)) @ e_act
            else:
                lp = np.zeros(n_chains)
            accept = log_unifs[:, t] < lp - logp
            psis[accept] = prop[accept]
            logp[accept] = lp[accept]
            thetas[accept] = th[accept]
            q_hist.append(
                thetas[:, 2 * d_p :] @ omega - (thetas[:, :d_p] @ omega_conj) * (thetas[:, d_p : 2 * d_p] @ omega)
            )
            acc_hist.append(accept)
            cur = np.abs(psis) ** 2
            theta_hist.append(thetas.copy())
            pmin_hist.append(cur.min(axis=1))
            pmax_hist.append(cur.max(axis=1))
        n_done = target

        burn = int(bayes.BURN_IN * n_done)
        retained = np.stack(q_hist, axis=1)[:, burn:]
        if retained.shape[1] >= 50:
            gz = []
            for c in range(n_chains):
                z_re = geweke_z(retained[c].real)
                z_im = geweke_z(retained[c].imag) if d_p > 2 else 0.0
                gz.append(max(abs(z_re), abs(z_im)))
            if n_chains >= 2:
                grub = gelman_rubin([retained[c].real for c in range(n_chains)])
                if d_p > 2:
                    grub = max(grub, gelman_rubin([retained[c].imag for c in range(n_chains)]))
            else:
                grub = 1.0
            converged = all(z <= bayes.GEWEKE_THRESHOLD for z in gz) and grub <= bayes.GELMAN_RUBIN_THRESHOLD
        if converged or n_done >= cfg.max_samples:
            break
        target = min(2 * n_done, cfg.max_samples)

    trace = {
        "q": np.stack(q_hist, axis=1),
        "accepted": np.stack(acc_hist, axis=1),
        "theta": np.stack(theta_hist, axis=1),
        "state_prob_min": np.stack(pmin_hist, axis=1),
        "state_prob_max": np.stack(pmax_hist, axis=1),
    }
    return trace, n_done


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("geweke_threshold", [2.0, 1e-3])  # the second never converges: doubles to max
def test_block_kernel_matches_reference_walk(monkeypatch, d, geweke_threshold):
    monkeypatch.setattr(bayes, "GEWEKE_THRESHOLD", geweke_threshold)
    rng = np.random.default_rng([31, d])
    random_tallies = [rng.integers(0, 12, size=d) for _ in range(3)]
    zero_tallies = [np.zeros(d, dtype=int)] * 3  # gamma 0: the independence sampler
    cfg = small_cfg(min_samples=100, max_samples=800)
    for tallies in (random_tallies, zero_tallies):
        _, trace = covariance_mcmc(*tallies, d, cfg, seed=11, pair_id=4, collect=True)
        if tallies is zero_tallies:
            assert trace["gamma"] == 0.0
        want, n_done = reference_walk(*tallies, d, cfg, 11, 4, trace["gamma"])
        assert trace["q"].shape[1] == n_done
        if geweke_threshold < 1:
            assert n_done == cfg.max_samples
        assert np.array_equal(trace["accepted"], want["accepted"])
        for key in ("q", "theta", "state_prob_min", "state_prob_max"):
            assert np.max(np.abs(trace[key] - want[key])) <= 1e-12, key


def stepwise_mh_block(psi, logp, theta, gamma, normals, log_u, amat2, exps, collect=False):
    """Step-by-step form of ``_mh_block``, the oracle of its window pass at
    every gamma: one proposal, one norm, one score and one accept test per
    step, for all rows at once.  Same arguments, in-place updates and return
    values as ``_mh_block``."""
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
    prop = np.empty_like(x)
    for t in range(n_steps):
        np.multiply(x, gamma, out=prop)
        prop += noise[t]
        sq = prop * prop
        s2 = sq.sum(axis=1, keepdims=True)
        sq /= s2
        lp = np.log(np.maximum(np.matmul(sq, amat2, out=props[t + 1]), 1e-300)) @ exps
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


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.97, 0.999])
def test_block_kernel_bit_identical_to_stepwise_loop(d, gamma):
    """Every return value and in-place state of ``_mh_block`` equals the
    per-step loop's exactly, from random starts and randomness, over row
    counts, tally sizes (acceptance from ~1 down to ~0) and block lengths
    that end windows mid-block."""
    rng = np.random.default_rng([7, d, int(gamma * 1000)])
    amat = _prob_matrix(d)
    amat2 = np.repeat(amat, 2, axis=0)
    for rows in (1, 2, 8):
        for high in (0, 4, 400):  # zero, small and large tallies
            for collect in (False, True):
                exps = rng.integers(0, high + 1, size=3 * d).astype(float)
                n_steps = int(rng.choice([1, 7, 100, 257]))
                psi0 = np.stack([haar_state(d * d, rng) for _ in range(rows)])
                theta0 = (np.abs(psi0) ** 2) @ amat
                logp0 = np.log(np.maximum(theta0, 1e-300)) @ exps
                normals = rng.standard_normal((rows, n_steps, d * d, 2))
                log_u = np.log(rng.random((rows, n_steps)) + 1e-300)
                runs = []
                for kernel in (stepwise_mh_block, bayes._mh_block):
                    state = (psi0.copy(), logp0.copy(), theta0.copy())
                    out = kernel(*state, gamma, normals, log_u, amat2, exps, collect)
                    runs.append((out, state))
                (want, want_state), (got, got_state) = runs
                case = (rows, high, collect, n_steps)
                for name, a, b in zip(("held", "accepted", "probs"), want, got):
                    assert (a is None and b is None) or np.array_equal(a, b), (name, case)
                for name, a, b in zip(("psi", "logp", "theta"), want_state, got_state):
                    assert np.array_equal(a, b), (name, case)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_start_score_matches_log_density(monkeypatch, d):
    """The chain start is scored with the step expression of ``_mh_block``;
    on starts whose positive-exponent cells are all > 0 it equals the
    masked log density."""
    starts = []
    block = bayes._mh_block

    def spy(psi, logp, theta, *args, **kwargs):
        starts.append((logp.copy(), theta.copy()))
        return block(psi, logp, theta, *args, **kwargs)

    monkeypatch.setattr(bayes, "_mh_block", spy)
    cfg = small_cfg(n_chains=1, min_samples=100, max_samples=100)
    for s_i, s_j, s_ij in start_cases(d):
        starts.clear()
        covariance_mcmc(s_i, s_j, s_ij, d, cfg, seed=3)
        logp, theta = starts[0]  # the pilot's first block enters from the start
        e = np.concatenate([s_i, s_j, s_ij]).astype(float)
        assert np.all(theta[:, e > 0] > 0)
        assert logp == pytest.approx(_log_density(theta, e), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        {"n_chains": 0},
        {"n_chains": 2.5},
        {"min_samples": 0},
        {"min_samples": 600, "max_samples": 500},
        {"min_samples": 10, "max_samples": 60},  # 48 samples left after burn-in
    ],
)
def test_mcmc_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        MCMCConfig(**bad)


def test_mcmc_config_accepts_fifty_retained_samples():
    assert MCMCConfig(min_samples=10, max_samples=62).max_samples == 62  # 62 - 12 = 50 retained


@pytest.mark.parametrize("d", [2, 3])
def test_block_randomness_matches_the_old_draws(d):
    # the pilot round's and the chain block's draws before they shared
    # _block_randomness: one (1, 100) pilot block, then doubling chain blocks
    def streams():
        return [np.random.default_rng([5, 1, c]) for c in range(4)]

    new, old = streams(), streams()
    for n_steps in (100, 50, 100):
        normals, log_u = bayes._block_randomness(new[:1], n_steps, d * d)
        assert np.array_equal(normals, old[0].standard_normal((n_steps, d * d, 2))[None])
        assert np.array_equal(log_u, np.log(old[0].random((1, n_steps)) + 1e-300))
    for n_steps in (50, 50, 100):
        normals, log_u = bayes._block_randomness(new, n_steps, d * d)
        assert np.array_equal(normals, np.stack([r.standard_normal((n_steps, d * d, 2)) for r in old]))
        assert np.array_equal(log_u, np.log(np.stack([r.random(n_steps) for r in old]) + 1e-300))
