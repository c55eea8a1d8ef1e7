import json

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
