import math
from functools import reduce

import numpy as np
import pytest

from quditmeas.clifford import CliffordCircuit, Gate
from quditmeas.paulis import DEFAULT_DIM_CAP, PauliString, QuditRegister
from quditmeas.simulator import StateVector
from quditmeas.spin import pauli_expansion, spin_matrix

PRIMES = (2, 3, 5)


def random_register(rng, max_q=3, dims=PRIMES):
    q = int(rng.integers(1, max_q + 1))
    return QuditRegister(tuple(int(rng.choice(dims)) for _ in range(q)))


def random_string(rng, register, with_phase=True):
    exps = tuple((int(rng.integers(0, d)), int(rng.integers(0, d))) for d in register.dims)
    tau = int(rng.integers(0, 2 * register.d_p)) if with_phase else 0
    return PauliString(register, exps, tau)


def random_clifford_circuit(register: QuditRegister, n_gates: int, rng) -> CliffordCircuit:
    """Random circuit over the full gate set."""
    dims = register.dims
    gates = []
    same_dim_pairs = [
        (a, b)
        for a in range(register.q)
        for b in range(register.q)
        if a != b and dims[a] == dims[b]
    ]
    for _ in range(n_gates):
        if same_dim_pairs and rng.random() < 0.3:
            a, b = same_dim_pairs[int(rng.integers(0, len(same_dim_pairs)))]
            gates.append(Gate("CSUM", (a, b), dims[a]))
        else:
            k = int(rng.integers(0, register.q))
            kind = str(rng.choice(["H", "H_inv", "S", "S_inv", "X", "Z"]))
            gates.append(Gate(kind, (k,), dims[k]))
    return CliffordCircuit(tuple(gates), register)


def spin_coefficients(d_s: int, axis: str) -> tuple[tuple[tuple[int, int], complex], ...]:
    """A spin operator's expansion ``((r, s), c)`` over the local Paulis ``X^r Z^s``."""
    coeffs, exps = pauli_expansion(spin_matrix(d_s, axis), (d_s,))
    return tuple(zip(map(tuple, exps[:, 0].tolist()), coeffs.tolist()))


def gate_unitary(g: Gate) -> np.ndarray:
    """Dense matrix of a single gate on its own qudit(s), the oracle of the
    gate actions of ``clifford.gate_action``."""
    d = g.dim
    if g.kind in ("H", "H_inv"):
        j, i = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        h = np.exp(2j * np.pi / d) ** (j * i) / np.sqrt(d)
        m = h.T  # H|j> = (1/sqrt d) sum_i omega^{ji} |i>
        return m if g.kind == "H" else m.conj().T
    if g.kind in ("S", "S_inv"):
        j = np.arange(d)
        # diag(1, i) at d = 2, where omega^{j(j-1)/2} would be the identity
        diag = np.array([1.0, 1j]) if d == 2 else np.exp(2j * np.pi / d) ** (j * (j - 1) // 2)
        return np.diag(diag if g.kind == "S" else diag.conj())
    if g.kind == "X":
        return np.roll(np.eye(d, dtype=complex), 1, axis=0)  # X|j> = |j+1>
    if g.kind == "Z":
        return np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    # CSUM: |i>|j> -> |i>|(i+j) mod d>
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i * d + (i + j) % d, i * d + j] = 1.0
    return m


def _embed_gate(g: Gate, dims: tuple[int, ...]) -> np.ndarray:
    total = int(np.prod(dims))
    if not g.is_entangling:
        mats = [gate_unitary(g) if k == g.qudits[0] else np.eye(d, dtype=complex) for k, d in enumerate(dims)]
        return reduce(np.kron, mats)
    c, t = g.qudits
    d = g.dim
    m = np.zeros((total, total), dtype=complex)
    idx = np.arange(total)
    digits = list(np.unravel_index(idx, dims))
    digits[t] = (digits[t] + digits[c]) % d
    m[np.ravel_multi_index(digits, dims), idx] = 1.0
    return m


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense unitary of the whole circuit, the oracle of gate-by-gate code."""
    dims = circuit.register.dims
    total = circuit.register.total_dim
    if total > DEFAULT_DIM_CAP:
        raise ValueError(f"total dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
    u = np.eye(total, dtype=complex)
    for g in circuit.gates:
        u = _embed_gate(g, dims) @ u
    return u


def basis_state(register: QuditRegister, digits) -> StateVector:
    vec = np.zeros(register.total_dim, dtype=complex)
    vec[np.ravel_multi_index(tuple(digits), register.dims)] = 1.0
    return StateVector(register, vec)


def is_clique(graph, vertices) -> bool:
    """Every pair of ``vertices`` is joined in the commutation graph."""
    vs = list(vertices)
    return all(graph.adjacency[a, b] for k, a in enumerate(vs) for b in vs[k + 1 :])


def add_vertex_counts(t, i: int, counts) -> None:
    """Add one string's outcome counts, as a one-member batch would."""
    none = np.zeros(0, dtype=np.int64)
    t.add_batch(np.array([i]), none, np.array([i * (t.p + 1)]), np.asarray(counts)[None])


def add_pair_counts(t, i: int, j: int, counts) -> None:
    """Add the product-string counts of pair (i, j), i != j, as a batch
    measuring both strings would."""
    i, j = min(i, j), max(i, j)
    t.add_batch(np.zeros(0, dtype=np.int64), np.array([i * t.p + j]), np.array([i * t.p + j, j * t.p + i]), np.asarray(counts)[None])


def validate_tallies(t) -> None:
    """Raise if a pair has more joint shots than either string or if the
    product-string counts disagree with the joint shot counts."""
    over = np.argwhere(np.triu(t.pair_m > np.minimum.outer(t.m, t.m), 1))
    if over.size:
        i, j = over[0]
        raise AssertionError(f"pair ({i},{j}) has m_ij={t.pair_m[i, j]} above min(m_i, m_j)")
    if not np.array_equal(t.pair_s.sum(axis=2), np.triu(t.pair_m, 1)):
        raise AssertionError("pair count total mismatch")


def identity_string(register: QuditRegister) -> PauliString:
    """The identity string on ``register``: every exponent and the phase zero."""
    return PauliString(register, tuple((0, 0) for _ in register.dims), 0)


# -- scalar convergence diagnostics, the oracles of bayes._geweke and bayes._r_hat


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
