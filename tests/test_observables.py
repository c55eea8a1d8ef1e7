import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from quditmeas.observables import (
    Observable,
    SpinPolynomial,
    SpinTerm,
    decompose_matrix,
    decompose_spin,
    observable_from_json,
    observable_to_json,
    spin_poly_from_json,
)
from quditmeas.paulis import PauliString, QuditRegister, ps_matrix
from quditmeas.simulator import StateVector, expectation
from quditmeas.spin import AXES, spin_matrix
from .conftest import random_register, random_string


def observable_matrix(obs: Observable) -> np.ndarray:
    """Dense matrix sum_i c_i P_i of an observable."""
    return sum(c * ps_matrix(p) for c, p in obs.terms)


def test_decompose_single_qubit_z():
    reg = QuditRegister((2,))
    obs = decompose_matrix(np.diag([1.0, -1.0]).astype(complex), reg)
    assert obs.p == 1
    (c, p), = obs.terms
    assert c == pytest.approx(1.0)
    assert p.exps == ((0, 1),)


def test_decompose_hadamard_like():
    reg = QuditRegister((2,))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    obs = decompose_matrix((x + z) / np.sqrt(2), reg)
    coeffs = {p.exps: c for c, p in obs.terms}
    assert coeffs[(1, 0),] == pytest.approx(1 / np.sqrt(2))
    assert coeffs[(0, 1),] == pytest.approx(1 / np.sqrt(2))
    assert obs.hermitian


def test_decompose_spin_zz_qutrits():
    poly = SpinPolynomial((3, 3), (((1.0 + 0j), (SpinTerm("z", 0), SpinTerm("z", 1))),))
    obs = decompose_spin(poly)
    assert obs.p == 4
    for _, p in obs.terms:
        assert p.is_diagonal()
    # reconstruction against the dense kron of the two spin matrices
    from quditmeas.spin import spin_matrix

    want = np.kron(spin_matrix(3, "z"), spin_matrix(3, "z"))
    assert np.max(np.abs(observable_matrix(obs) - want)) <= 1e-10


def test_decompose_spin_same_qudit_product():
    # S_x * S_y on one qubit = i Z
    poly = SpinPolynomial((2,), ((1.0 + 0j, (SpinTerm("x", 0), SpinTerm("y", 0))),))
    obs = decompose_spin(poly)
    want = spinxy = np.array([[1j, 0], [0, -1j]])
    assert np.max(np.abs(observable_matrix(obs) - want)) <= 1e-12
    assert not obs.hermitian


@pytest.mark.parametrize("seed", range(30))
def test_decompose_spin_matches_dense_oracle(seed):
    """Each term is its coefficient times the in-order product of its
    factors' weighted spin matrices, each embedded in the whole register."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.choice([2, 3, 5, 7], size=int(rng.integers(1, 4))))

    def factor(qudit):
        return SpinTerm(str(rng.choice(AXES)), qudit, float(rng.choice([1.0, 0.5, -2.0])))

    terms, want = [], np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for k in range(int(rng.integers(1, 4))):
        coeff = complex(rng.normal(), rng.normal()) if rng.random() < 0.5 else float(rng.normal())
        factors = [factor(int(rng.integers(len(dims)))) for _ in range(int(rng.integers(0, 4)))]
        if k == 0:  # several factors on one qudit, between the others
            q = int(rng.integers(len(dims)))
            factors[1:1] = [factor(q), factor(q)]
        term = np.eye(len(want), dtype=complex)
        for f in factors:
            term = term @ reduce(np.kron, [f.weight * spin_matrix(d, f.axis) if j == f.qudit else np.eye(d) for j, d in enumerate(dims)])
        want += coeff * term
        terms.append((coeff, tuple(factors)))
    obs = decompose_spin(SpinPolynomial(dims, tuple(terms)))
    assert np.max(np.abs(observable_matrix(obs) - want)) <= 1e-10


def test_decompose_spin_peak_memory_is_independent_of_d_to_the_fourth():
    poly = SpinPolynomial((2, 61), ((1.0, (SpinTerm("y", 0), SpinTerm("x", 1), SpinTerm("z", 1))),))
    tracemalloc.start()
    try:
        obs = decompose_spin(poly)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert obs.p == 2 * 61  # S_y = Y on the qubit; S_x S_z has r in {1, 60} and every s


def test_decompose_matrix_at_the_largest_admitted_qudit(rng):
    # D = 2062 is within the cap of the total dimension
    reg = QuditRegister((2, 1031))
    obs = decompose_matrix(np.diag(rng.normal(size=2062)).astype(complex), reg)
    assert obs.p == 2 * 1031
    assert all(p.is_diagonal() for _, p in obs.terms)


def test_roundtrip_random_hermitian(rng):
    for _ in range(20):
        reg = random_register(rng, max_q=2)
        n = reg.total_dim
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = a + a.conj().T
        obs = decompose_matrix(h, reg)
        assert obs.hermitian
        assert np.max(np.abs(observable_matrix(obs) - h)) <= 1e-10


def test_decompose_dimension_mismatch():
    with pytest.raises(ValueError):
        decompose_matrix(np.eye(3, dtype=complex), QuditRegister((2,)))


def test_observable_merges_duplicates_and_phases():
    reg = QuditRegister((2,))
    x = PauliString(reg, ((1, 0),))
    x_phased = PauliString(reg, ((1, 0),), 2)  # omega_4^2 = -1 times X
    obs = Observable(reg, [(1.0, x), (1.0, x_phased), (0.5, x)])
    (c, p), = obs.terms
    assert c == pytest.approx(0.5)  # 1 - 1 + 0.5
    assert p.phase_exp == 0


def test_coefficients_are_one_read_only_array(rng):
    reg = QuditRegister((2, 3))
    strings = {random_string(rng, reg, with_phase=False).exps for _ in range(5)}
    obs = Observable(reg, [(complex(rng.normal(), rng.normal()), PauliString(reg, e)) for e in strings])
    coeffs = obs.coefficients()
    assert coeffs is obs.coefficients()
    assert not coeffs.flags.writeable
    assert coeffs.dtype == complex
    assert coeffs.tolist() == [c for c, _ in obs.terms]


def test_observable_term_order_deterministic(rng):
    reg = QuditRegister((2, 2))
    strings = [random_string(rng, reg, with_phase=False) for _ in range(6)]
    coeffs = rng.normal(size=6)
    a = Observable(reg, list(zip(coeffs, strings)))
    b = Observable(reg, list(zip(coeffs[::-1], strings[::-1])))
    assert [p.exps for _, p in a.terms] == [p.exps for _, p in b.terms]
    flat = [tuple(v for pair in p.exps for v in pair) for _, p in a.terms]
    assert flat == sorted(flat)


def test_hermitian_flag_checked_not_assumed():
    reg = QuditRegister((2,))
    y_like = PauliString(reg, ((1, 1),))  # XZ, anti-hermitian up to phase
    assert not Observable(reg, [(1.0, y_like)]).hermitian
    assert Observable(reg, [(1j, y_like)]).hermitian  # i*XZ = -Y
    zero_sum = Observable(reg, [(1.0, y_like), (-1.0, y_like)])
    assert zero_sum.p == 0 and zero_sum.hermitian


def test_exact_expectation_matches_dense(rng):
    for _ in range(10):
        reg = random_register(rng, max_q=2)
        n = reg.total_dim
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        obs = decompose_matrix(a + a.conj().T, reg)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        want = psi.conj() @ ((a + a.conj().T) @ psi)
        assert expectation(obs, StateVector(reg, psi)) == pytest.approx(complex(want), abs=1e-10)


def test_observable_json_roundtrip(rng):
    reg = random_register(rng, max_q=2)
    n = reg.total_dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    obs = decompose_matrix(a + a.conj().T, reg)
    blob = json.dumps(observable_to_json(obs))
    back = observable_from_json(json.loads(blob))
    assert back.register == obs.register
    assert all(abs(c1 - c2) < 1e-12 and p1 == p2 for (c1, p1), (c2, p2) in zip(obs.terms, back.terms))


@pytest.mark.parametrize(
    "data, name",
    [
        ({"dims": [2], "terms": [{"Re": 0.5, "paulis": [[0, 1]]}]}, "'Re'"),
        ({"dims": [2], "terms": [], "dimz": [2]}, "'dimz'"),
    ],
)
def test_observable_json_rejects_unknown_keys(data, name):
    with pytest.raises(ValueError, match=name):
        observable_from_json(data)


def test_observable_json_accepts_decompose_output():
    data = {"dims": [2], "terms": [{"re": 1.0, "im": 0.0, "paulis": [[0, 1]]}], "hermitian": True}
    assert observable_from_json(data).p == 1


def test_spin_poly_json():
    data = {
        "dims": [2, 3],
        "terms": [
            {"coeff": 0.5, "factors": [{"qudit": 0, "axis": "z"}, {"qudit": 1, "axis": "z"}]},
            {"coeff": {"re": 0.0, "im": 1.0}, "factors": [{"qudit": 0, "axis": "x", "weight": 2.0}]},
        ],
    }
    poly = spin_poly_from_json(data)
    obs = decompose_spin(poly)
    assert obs.register.dims == (2, 3)
    assert obs.p > 0
