"""Dense statevector backend for mixed-dimension registers.

Includes shot sampling under the whole-circuit error model (one Bernoulli
draw per shot with probability ``xi(C)``, on error the outcome is replaced by
uniform random digits) and stabilizer probes used for error awareness.  A
probe's circuit maps basis states to basis states, so its error flag has a
closed-form law and is drawn without simulating the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import CliffordCircuit, Gate, gate_action
from .observables import json_complex_rows, json_field, json_object, json_register
from .paulis import DEFAULT_DIM_CAP, QuditRegister, ps_matrix


@dataclass(frozen=True)
class StateVector:
    register: QuditRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.register.total_dim:
            raise ValueError(f"amplitude count {amps.size} does not match register dimension {self.register.total_dim}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} is not 1")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate error rates of the circuit-level depolarizing model."""

    xi_loc: float = 0.0
    xi_ent: float = 0.0
    xi_detect: float = 0.0

    def __post_init__(self):
        for name in ("xi_loc", "xi_ent", "xi_detect"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def prepare_product_state(register: QuditRegister, qudit_amplitudes) -> StateVector:
    """Normalized tensor product of per-qudit amplitude lists."""
    if len(qudit_amplitudes) != register.q:
        raise ValueError(f"expected {register.q} per-qudit amplitude lists")
    if register.total_dim > DEFAULT_DIM_CAP:  # checked before the first kron allocates the state
        raise ValueError(f"total dimension {register.total_dim} exceeds cap {DEFAULT_DIM_CAP}")
    vec = np.array([1.0], dtype=complex)
    for d, amps in zip(register.dims, qudit_amplitudes):
        a = np.asarray(amps, dtype=complex).reshape(-1)
        if a.size != d:
            raise ValueError(f"qudit amplitude list of length {a.size}, expected {d}")
        n = np.linalg.norm(a)
        if n == 0:
            raise ValueError("zero amplitude vector")
        vec = np.kron(vec, a / n)
    return StateVector(register, vec)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """The gate's action (:func:`gate_action`) on the amplitudes over its qudits."""
    k = gate.qudits
    source, phase, fourier = gate_action(gate.kind, gate.dim)
    moved = np.moveaxis(state.amplitudes.reshape(state.register.dims), k, range(len(k)))
    t = phase[:, None] * moved.reshape(source.size, -1)[source]
    if fourier is not None:
        t = fourier @ t
    return StateVector(state.register, np.moveaxis(t.reshape(moved.shape), range(len(k)), k).reshape(-1))


def apply_circuit(state: StateVector, circuit: CliffordCircuit) -> StateVector:
    """Gate-by-gate application; no dense circuit matrix is built."""
    if circuit.register != state.register:
        raise ValueError("circuit and state registers differ")
    if state.register.total_dim > DEFAULT_DIM_CAP:
        raise ValueError(f"total dimension {state.register.total_dim} exceeds cap {DEFAULT_DIM_CAP}")
    for g in circuit.gates:
        state = apply_gate(state, g)
    return state


def circuit_error_prob(circuit: CliffordCircuit, noise: NoiseModel) -> float:
    """Complement of the probability that no error occurs anywhere in the circuit."""
    return 1.0 - (
        (1.0 - noise.xi_detect)
        * (1.0 - noise.xi_ent) ** circuit.n_entangling
        * (1.0 - noise.xi_loc) ** circuit.n_local
    )


# largest distance of the outcome probabilities' sum from 1, as Generator.choice allows
PROB_SUM_TOL = math.sqrt(np.finfo(float).eps)


@lru_cache(maxsize=None)
def _digit_table(dims: tuple[int, ...]) -> np.ndarray:
    """Read-only ``(D, q)`` digits of every flat outcome index of a register."""
    table = np.stack(np.unravel_index(np.arange(math.prod(dims)), dims), axis=1)
    table.setflags(write=False)
    return table


def sample_shot(
    probs: np.ndarray, circuit: CliffordCircuit, noise: NoiseModel | None, rng, n: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` preparation-and-measurement repetitions through ``circuit``.

    ``probs`` is the normalized outcome distribution ``|U psi|^2`` of the
    circuit's final state.  Each outcome is drawn from it by inverse CDF,
    ``searchsorted`` of ``n`` uniforms on the normalized cumulative sum, the
    draw ``rng.choice(D, n, p=probs)`` makes, and, with probability
    ``xi(C)``, replaced by uniformly random digits.  Returns the ``(n, q)``
    outcome digits and the per-shot flags of injected errors.  A NaN or
    negative entry, or a sum off 1 by more than ``PROB_SUM_TOL``, is a
    ValueError.
    """
    probs = np.asarray(probs, dtype=float)
    dims = circuit.register.dims
    if probs.shape != (circuit.register.total_dim,):
        raise ValueError(f"outcome probabilities of shape {probs.shape} for a register of dims {dims}")
    cdf = probs.cumsum()
    if not abs(cdf[-1] - 1.0) <= PROB_SUM_TOL:  # a NaN fails here too
        raise ValueError(f"outcome probabilities sum to {cdf[-1]!r}, not 1")
    if (probs < 0).any():
        raise ValueError("outcome probabilities have a negative entry")
    cdf /= cdf[-1]
    flat = cdf.searchsorted(rng.random(n), side="right")
    bad = np.zeros(n, dtype=bool)
    if noise is not None:
        bad = rng.random(n) < circuit_error_prob(circuit, noise)
        n_bad = int(bad.sum())
        if n_bad:
            flat[bad] = rng.integers(0, probs.size, size=n_bad)
    return _digit_table(dims)[flat], bad


def stabilizer_probe(circuit: CliffordCircuit, noise: NoiseModel | None, rng) -> bool:
    """Error flag of one computational-in/computational-out probe of a circuit.

    The probe pads each Fourier gate to ``H^4 = 1`` (three extra local
    gates), which leaves a permutation of basis states up to phases: a
    noiseless probe always hits its target.  With probability ``xi`` of the
    padded circuit the output is replaced by uniform digits, which miss the
    target unless they collide with it (probability ``1/D``), so the flag is
    Bernoulli(xi (1 - 1/D)) and is drawn as such.
    """
    if noise is None:
        return False
    xi = 1.0 - (1.0 - circuit_error_prob(circuit, noise)) * (1.0 - noise.xi_loc) ** (3 * circuit.n_fourier)
    return bool(rng.random() < xi * (1.0 - 1.0 / circuit.register.total_dim))


# -- expectation oracle and JSON ------------------------------------------------


def expectation(obs, state: StateVector) -> complex:
    """Dense <psi|O|psi> against an Observable (verification helper)."""
    psi = state.amplitudes
    out = 0.0 + 0.0j
    for c, p in obs.terms:
        out += c * (psi.conj() @ (ps_matrix(p) @ psi))
    return complex(out)


def state_to_json(qudit_amplitudes, dims) -> dict:
    return {
        "dims": list(dims),
        "qudits": [[[float(np.real(a)), float(np.imag(a))] for a in amps] for amps in qudit_amplitudes],
    }


def state_from_json(data: dict) -> StateVector:
    """Product state from JSON; unknown keys and wrong-typed values are
    rejected with their key path."""
    data = json_object(data, ("dims", "qudits"), "state")
    register = json_register(data, "state")
    return prepare_product_state(register, json_complex_rows(json_field(data, "qudits", list, "state"), "state.qudits"))
