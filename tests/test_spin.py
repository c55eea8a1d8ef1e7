import numpy as np
import pytest

from quditmeas.paulis import local_matrix
from quditmeas.spin import sigma_mu, spin_matrix

from .conftest import spin_coefficients


def reconstruct(d_s, axis):
    out = np.zeros((d_s, d_s), dtype=complex)
    for (r, s), c in spin_coefficients(d_s, axis):
        out += c * local_matrix(d_s, r, s)
    return out


class TestSpinMatrix:
    def test_qubit_operators(self):
        assert sigma_mu(2, 0) == pytest.approx(1.0)
        assert np.allclose(spin_matrix(2, "x"), [[0, 1], [1, 0]])
        assert np.allclose(spin_matrix(2, "y"), [[0, -1j], [1j, 0]])
        assert np.allclose(spin_matrix(2, "z"), [[1, 0], [0, -1]])

    def test_qutrit_z(self):
        assert np.allclose(spin_matrix(3, "z"), np.diag([2.0, 0.0, -2.0]))

    @pytest.mark.parametrize("d_s", range(2, 8))
    def test_x_real_symmetric(self, d_s):
        m = spin_matrix(d_s, "x")
        assert np.allclose(m.imag, 0)
        assert np.allclose(m, m.T)

    @pytest.mark.parametrize("d_s", range(2, 8))
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian(self, d_s, axis):
        m = spin_matrix(d_s, axis)
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spin_matrix(1, "x")
        with pytest.raises(ValueError):
            spin_matrix(3, "w")


class TestSpinCoefficients:
    def test_qubit_z_is_pauli_z(self):
        assert dict(spin_coefficients(2, "z")) == {(0, 1): pytest.approx(1.0)}

    def test_qubit_x_is_pauli_x(self):
        assert dict(spin_coefficients(2, "x")) == {(1, 0): pytest.approx(1.0)}

    def test_qutrit_z_reconstruction(self):
        assert np.max(np.abs(reconstruct(3, "z") - np.diag([2.0, 0.0, -2.0]))) <= 1e-12

    @pytest.mark.parametrize("d_s", range(2, 8))
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_reconstruction_and_counts(self, d_s, axis):
        assert np.max(np.abs(reconstruct(d_s, axis) - spin_matrix(d_s, axis))) <= 1e-12
        bound = d_s if axis == "z" else 2 * d_s
        assert len(spin_coefficients(d_s, axis)) <= bound

    @pytest.mark.parametrize("d_s", range(2, 8))
    def test_x_y_support_on_shift_exponents(self, d_s):
        # ladder terms live entirely on r = 1 and r = d_s - 1
        for axis in ("x", "y"):
            for (r, _), _ in spin_coefficients(d_s, axis):
                assert r in (1 % d_s, (d_s - 1) % d_s)
