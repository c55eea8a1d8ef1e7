import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmeas.paulis import (
    PauliString,
    QuditRegister,
    commutation_matrix,
    grid_phase,
    local_matrix,
    ps_dagger,
    ps_matrix,
    ps_multiply,
    spectral_offset,
)
from .conftest import random_register, random_string


def is_identity(p: PauliString) -> bool:
    """Whether every exponent of ``p`` vanishes (the phase may not)."""
    return all(r == 0 and s == 0 for r, s in p.exps)


def qubit(*pairs, phase=0):
    return PauliString(QuditRegister((2,) * len(pairs)), tuple(pairs), phase)


class TestRegister:
    def test_basic_fields(self):
        reg = QuditRegister((2, 3, 5))
        assert reg.q == 3
        assert reg.d_p == 30
        assert reg.total_dim == 30

    @pytest.mark.parametrize("dims", [(4,), (2, 6), (1,), (9, 2)])
    def test_rejects_composite_or_trivial(self, dims):
        with pytest.raises(ValueError):
            QuditRegister(dims)

    def test_dimension_cap(self):
        assert QuditRegister((4093,)).dims == (4093,)  # the largest prime below the cap
        with pytest.raises(ValueError, match="exceeds the cap"):
            QuditRegister((4099,))

    def test_huge_prime_rejected_at_once(self):
        # 2^61 - 1 is prime: trial division up to its square root would run for minutes
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap"):
            QuditRegister((2, 2305843009213693951))
        assert time.perf_counter() - t0 < 1.0


class TestLocalMatrix:
    def test_pauli_x(self):
        # standard Pauli X at d=2
        assert np.array_equal(local_matrix(2, 1, 0), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_identity_qutrit(self):
        assert np.allclose(local_matrix(3, 0, 0), np.eye(3))

    def test_xz_product(self):
        want = local_matrix(2, 1, 0) @ local_matrix(2, 0, 1)
        assert np.allclose(local_matrix(2, 1, 1), want)
        assert np.allclose(local_matrix(2, 1, 1), np.array([[0, -1], [1, 0]]))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitary(self, d, rng):
        r, s = int(rng.integers(0, d)), int(rng.integers(0, d))
        m = local_matrix(d, r, s)
        assert np.allclose(m @ m.conj().T, np.eye(d), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            local_matrix(2, 2, 0)
        with pytest.raises(ValueError):
            local_matrix(3, 0, -1)


class TestPsMatrix:
    def test_identity_mixed(self):
        reg = QuditRegister((2, 3))
        assert np.allclose(ps_matrix(PauliString.identity(reg)), np.eye(6))

    def test_kron_structure(self):
        p = qubit((1, 0), (0, 1))
        want = np.kron(local_matrix(2, 1, 0), local_matrix(2, 0, 1))
        assert np.allclose(ps_matrix(p), want)

    def test_qutrit_phase(self):
        reg = QuditRegister((3,))
        p = PauliString(reg, ((0, 1),), 2)
        want = np.exp(2j * np.pi / 6) ** 2 * local_matrix(3, 0, 1)
        assert np.allclose(ps_matrix(p), want, atol=1e-12)

    def test_dim_cap(self):
        reg = QuditRegister((2,) * 13)
        with pytest.raises(ValueError):
            ps_matrix(PauliString.identity(reg))


@pytest.mark.parametrize("d_p", [2, 3, 6, 30])
def test_grid_phase_matches_written_out_phase(d_p):
    # the expression each caller wrote out before grid_phase: Python ints
    # at the scalar sites, integer arrays at the vectorized ones
    o = np.arange(-4 * d_p, 4 * d_p + 1)
    for k in o.tolist():
        want = np.exp(1j * np.pi * (k % (2 * d_p)) / d_p)
        assert np.complex128(grid_phase(k, d_p)).tobytes() == want.tobytes()
        if 0 <= k < 2 * d_p:  # the unreduced form of Observable and ps_matrix
            assert np.complex128(grid_phase(k, d_p)).tobytes() == np.exp(1j * np.pi * k / d_p).tobytes()
    want = np.exp(1j * np.pi * (np.asarray(o) % (2 * d_p)) / d_p)
    assert grid_phase(o, d_p).tobytes() == want.tobytes()
    offsets = o % 2  # spectral offsets, as ps_mean read them unreduced
    assert grid_phase(offsets, d_p).tobytes() == np.exp(1j * np.pi * np.asarray(offsets) / d_p).tobytes()


def test_ps_matrix_phase_matches_written_out_phase(rng):
    for _ in range(40):
        reg = random_register(rng, max_q=3)
        p = random_string(rng, reg)
        mats = [local_matrix(d, r, s) for d, (r, s) in zip(reg.dims, p.exps)]
        want = np.exp(1j * np.pi * p.phase_exp / reg.d_p) * reduce(np.kron, mats)
        assert np.abs(ps_matrix(p) - want).max() <= 1e-15


class TestMultiply:
    def test_xz_canonical_order(self):
        x, z = qubit((1, 0)), qubit((0, 1))
        prod = ps_multiply(x, z)
        assert prod.exps == ((1, 1),)
        assert prod.phase_exp == 0

    def test_zx_picks_up_sign(self):
        x, z = qubit((1, 0)), qubit((0, 1))
        prod = ps_multiply(z, x)
        assert prod.exps == ((1, 1),)
        assert prod.phase_exp == 2  # omega_4^2 = -1
        assert np.allclose(ps_matrix(prod), ps_matrix(z) @ ps_matrix(x), atol=1e-12)

    def test_inverse_pair_qutrit(self):
        reg = QuditRegister((3,))
        x = PauliString(reg, ((1, 0),))
        prod = ps_multiply(ps_dagger(x), x)
        assert is_identity(prod) and prod.phase_exp == 0

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            ps_multiply(qubit((1, 0)), PauliString(QuditRegister((3,)), ((1, 0),)))

    def test_random_pairs_match_dense(self, rng):
        for _ in range(200):
            reg = random_register(rng)
            a, b = random_string(rng, reg), random_string(rng, reg)
            got = ps_matrix(ps_multiply(a, b))
            want = ps_matrix(a) @ ps_matrix(b)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestDagger:
    def test_qubit_x_self_adjoint(self):
        x = qubit((1, 0))
        assert ps_dagger(x) == x

    def test_qutrit_z(self):
        reg = QuditRegister((3,))
        z = PauliString(reg, ((0, 1),))
        zd = ps_dagger(z)
        assert zd.exps == ((0, 2),)
        assert np.allclose(ps_matrix(zd), ps_matrix(z).conj().T, atol=1e-12)

    def test_identity(self):
        reg = QuditRegister((2, 5))
        ident = PauliString.identity(reg)
        assert ps_dagger(ident) == ident

    def test_random_match_dense(self, rng):
        for _ in range(200):
            reg = random_register(rng)
            p = random_string(rng, reg)
            assert np.max(np.abs(ps_matrix(ps_dagger(p)) - ps_matrix(p).conj().T)) <= 1e-12

    def test_involution(self, rng):
        for _ in range(50):
            reg = random_register(rng)
            p = random_string(rng, reg)
            assert ps_dagger(ps_dagger(p)) == p


def commutes_general(a: PauliString, b: PauliString) -> bool:
    """Pairwise oracle: ``a b = omega_{d_P}^k b a`` with ``k = sum_j
    (d_P/d_j)(s_{a,j} r_{b,j} - s_{b,j} r_{a,j})``; they commute iff
    ``k = 0 (mod d_P)``."""
    d_p = a.register.d_p
    k = sum((d_p // d) * (sa * rb - sb * ra) for d, (ra, sa), (rb, sb) in zip(a.register.dims, a.exps, b.exps))
    return k % d_p == 0


def commutes_bitwise(a: PauliString, b: PauliString) -> bool:
    """Pairwise oracle: every per-qudit factor pair commutes."""
    return all((sa * rb - sb * ra) % d == 0 for d, (ra, sa), (rb, sb) in zip(a.register.dims, a.exps, b.exps))


def _commute(ma, mb) -> bool:
    return np.max(np.abs(ma @ mb - mb @ ma)) <= 1e-10


def dense_commutation(strings, mode) -> np.ndarray:
    """Commutation matrix from dense commutators: of the whole strings in
    general mode, of every per-qudit factor pair in bitwise mode."""
    if mode == "general":
        mats = [ps_matrix(p) for p in strings]
        return np.array([[_commute(a, b) for b in mats] for a in mats])
    factors = [[local_matrix(d, r, s) for d, (r, s) in zip(p.register.dims, p.exps)] for p in strings]
    return np.array([[all(_commute(x, y) for x, y in zip(fa, fb)) for fb in factors] for fa in factors])


def commutes(mode, *strings) -> np.ndarray:
    return commutation_matrix([p.exps for p in strings], strings[0].register, mode)


class TestCommutation:
    def test_xx_zz_general(self):
        xx = qubit((1, 0), (1, 0))
        zz = qubit((0, 1), (0, 1))
        assert commutes("general", xx, zz)[0, 1]
        assert not commutes("bitwise", xx, zz)[0, 1]

    def test_x_z_anticommute(self):
        assert not commutes("general", qubit((1, 0)), qubit((0, 1)))[0, 1]

    def test_qutrit_pair(self):
        reg = QuditRegister((3, 3))
        a = PauliString(reg, ((1, 0), (1, 0)))
        b = PauliString(reg, ((0, 1), (0, 2)))
        assert commutes("general", a, b)[0, 1]

    def test_disjoint_supports_bitwise(self):
        a = qubit((1, 0), (0, 0))
        b = qubit((0, 0), (0, 1))
        assert commutes("bitwise", a, b)[0, 1]

    def test_diagonal_bitwise(self):
        reg = QuditRegister((3, 3))
        a = PauliString(reg, ((0, 1), (0, 1)))
        b = PauliString(reg, ((0, 2), (0, 0)))
        assert commutes("bitwise", a, b)[0, 1]

    def test_random_matches_matrix_level(self, rng):
        for _ in range(200):
            reg = random_register(rng)
            a, b = random_string(rng, reg), random_string(rng, reg)
            assert commutes("general", a, b)[0, 1] == _commute(ps_matrix(a), ps_matrix(b))

    def test_bitwise_implies_general(self, rng):
        seen = 0
        for _ in range(500):
            reg = random_register(rng)
            a, b = random_string(rng, reg), random_string(rng, reg)
            if commutes("bitwise", a, b)[0, 1]:
                seen += 1
                assert commutes("general", a, b)[0, 1]
        assert seen > 0

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3, 3, 3), (2, 2, 2, 2, 3), (2, 3, 5), (5,)])
    def test_matrix_matches_pairwise_oracle(self, rng, dims):
        reg = QuditRegister(dims)
        strings = [random_string(rng, reg) for _ in range(60)]
        for mode, oracle in (("general", commutes_general), ("bitwise", commutes_bitwise)):
            got = commutes(mode, *strings)
            want = np.array([[oracle(a, b) for b in strings] for a in strings])
            assert got.dtype == bool and got.shape == (60, 60)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3), (3, 5), (2, 5)])
    def test_matrix_matches_dense_commutators(self, rng, dims):
        reg = QuditRegister(dims)
        strings = [random_string(rng, reg) for _ in range(12)]
        # powers and products of one string keep commuting pairs in the sample
        strings += [ps_multiply(strings[0], strings[0]), ps_dagger(strings[1])]
        for mode in ("general", "bitwise"):
            got = commutes(mode, *strings)
            np.testing.assert_array_equal(got, dense_commutation(strings, mode))
            assert got[~np.eye(len(strings), dtype=bool)].any()


class TestSpectralOffset:
    def test_qubit_y_grid(self):
        y_like = qubit((1, 1))
        assert spectral_offset(y_like) == 1
        eig = np.linalg.eigvals(ps_matrix(y_like))
        assert sorted(np.round(np.angle(eig) / np.pi, 6)) == [-0.5, 0.5]  # +-i

    def test_offsets_match_spectrum(self, rng):
        # every eigenvalue must sit on the grid omega_{2 d_P}^o * omega_{d_P}^mu
        for _ in range(100):
            reg = random_register(rng)
            p = random_string(rng, reg)
            o = spectral_offset(p)
            d_p = reg.d_p
            eig = np.linalg.eigvals(ps_matrix(p))
            ang = np.angle(eig) / (np.pi / d_p)  # exponent in omega_{2 d_P} units
            exps = np.round(ang).astype(int) % (2 * d_p)
            assert np.max(np.abs(ang - np.round(ang))) < 1e-8
            assert set(exps % 2) == {o}

    def test_order_divides_d_p(self, rng):
        for _ in range(50):
            reg = random_register(rng)
            p = random_string(rng, reg, with_phase=False)
            acc = p
            for _ in range(reg.d_p - 1):
                acc = ps_multiply(acc, p)
            assert is_identity(acc)


@st.composite
def string_pairs(draw):
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2)))
    reg = QuditRegister(dims)
    def one():
        exps = tuple((draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))) for d in dims)
        return PauliString(reg, exps, draw(st.integers(0, 2 * reg.d_p - 1)))
    return one(), one()


@settings(max_examples=60, deadline=None)
@given(string_pairs())
def test_multiply_matches_dense_property(pair):
    a, b = pair
    assert np.max(np.abs(ps_matrix(ps_multiply(a, b)) - ps_matrix(a) @ ps_matrix(b))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(string_pairs())
def test_dagger_reverses_products(pair):
    a, b = pair
    assert ps_dagger(ps_multiply(a, b)) == ps_multiply(ps_dagger(b), ps_dagger(a))
