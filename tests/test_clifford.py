import numpy as np
import pytest

from quditmeas import clifford
from quditmeas.clifford import (
    CliffordCircuit,
    Gate,
    circuit_to_json,
    conjugate_ps,
    diagonalize_clique,
    gate_unitary,
)
from quditmeas.paulis import PauliString, QuditRegister, ps_matrix
from .conftest import circuit_unitary, random_clifford_circuit, random_register, random_string


def circuit_from_json(data: dict) -> CliffordCircuit:
    """Inverse of ``circuit_to_json``."""
    register = QuditRegister(tuple(int(d) for d in data["dims"]))
    gates = tuple(Gate(g["kind"], tuple(int(k) for k in g["qudits"]), int(g["dim"])) for g in data["gates"])
    return CliffordCircuit(gates, register)


def ps(dims, exps, phase=0):
    return PauliString(QuditRegister(tuple(dims)), tuple(exps), phase)


class TestGateUnitary:
    def test_h2_is_hadamard(self):
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(gate_unitary(Gate("H", (0,), 2)), want)

    def test_s2_is_qubit_phase_gate(self):
        # the omega^{j(j-1)/2} formula degenerates to the identity at d=2;
        # the standard diag(1, i) phase gate is used instead so Y-type
        # strings stay diagonalizable
        assert np.allclose(gate_unitary(Gate("S", (0,), 2)), np.diag([1, 1j]))

    def test_s3_phase_pattern(self):
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(gate_unitary(Gate("S", (0,), 3)), np.diag([1, 1, w]))

    def test_csum3_action(self):
        u = gate_unitary(Gate("CSUM", (0, 1), 3))
        vec = np.zeros(9)
        vec[1 * 3 + 2] = 1.0  # |1>|2>
        out = u @ vec
        assert out[1 * 3 + 0] == pytest.approx(1.0)  # |1>|0>

    @pytest.mark.parametrize("kind", ["H", "H_inv", "S", "S_inv", "X", "Z"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitarity(self, kind, d):
        u = gate_unitary(Gate(kind, (0,), d))
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    def test_inverses(self):
        for d in (2, 3, 5):
            h = gate_unitary(Gate("H", (0,), d))
            hi = gate_unitary(Gate("H_inv", (0,), d))
            assert np.allclose(h @ hi, np.eye(d), atol=1e-12)
            s = gate_unitary(Gate("S", (0,), d))
            si = gate_unitary(Gate("S_inv", (0,), d))
            assert np.allclose(s @ si, np.eye(d), atol=1e-12)


class TestConjugation:
    def test_h_swaps_x_and_z(self):
        reg = QuditRegister((2,))
        circ = CliffordCircuit((Gate("H", (0,), 2),), reg)
        x, z = ps((2,), [(1, 0)]), ps((2,), [(0, 1)])
        assert conjugate_ps(circ, x).exps == ((0, 1),)
        got = conjugate_ps(circ, z)
        u = gate_unitary(Gate("H", (0,), 2))
        assert np.allclose(ps_matrix(got), u @ ps_matrix(z) @ u.conj().T, atol=1e-12)

    def test_cnot_spreads_x(self):
        reg = QuditRegister((2, 2))
        circ = CliffordCircuit((Gate("CSUM", (0, 1), 2),), reg)
        xi = ps((2, 2), [(1, 0), (0, 0)])
        assert conjugate_ps(circ, xi).exps == ((1, 0), (1, 0))

    def test_identity_circuit(self):
        reg = QuditRegister((3, 2))
        circ = CliffordCircuit((), reg)
        p = ps((3, 2), [(1, 2), (1, 1)], 5)
        assert conjugate_ps(circ, p) == p

    def test_register_mismatch(self):
        circ = CliffordCircuit((), QuditRegister((2,)))
        with pytest.raises(ValueError):
            conjugate_ps(circ, ps((3,), [(1, 0)]))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits_match_dense_with_phase(self, seed):
        rng = np.random.default_rng(seed)
        reg = random_register(rng)
        circ = random_clifford_circuit(reg, int(rng.integers(1, 12)), rng)
        p = random_string(rng, reg)
        got = ps_matrix(conjugate_ps(circ, p))
        u = circuit_unitary(circ)
        want = u @ ps_matrix(p) @ u.conj().T
        assert np.max(np.abs(got - want)) <= 1e-10


def _check_diagonalizes(strings, circ):
    u = circuit_unitary(circ)
    items = list(strings)
    from quditmeas.paulis import ps_dagger, ps_multiply

    for i, a in enumerate(items):
        for b in items[i:]:
            prod = ps_multiply(ps_dagger(a), b)
            for p in ([a] if a is b else [a, b, prod]):
                conj = conjugate_ps(circ, p)
                assert conj.is_diagonal()
                dense = u @ ps_matrix(p) @ u.conj().T
                off = dense - np.diag(np.diag(dense))
                assert np.max(np.abs(off)) <= 1e-10
                assert np.max(np.abs(ps_matrix(conj) - dense)) <= 1e-10


class TestDiagonalizeClique:
    def test_already_diagonal(self):
        strings = [ps((2, 2), [(0, 1), (0, 1)]), ps((2, 2), [(0, 0), (0, 1)])]
        circ = diagonalize_clique(strings, "general")
        assert circ.gates == ()

    def test_single_x_needs_one_h(self):
        circ = diagonalize_clique([ps((2,), [(1, 0)])], "general")
        assert [g.kind for g in circ.gates] == ["H"]

    def test_xx_zz_entangling(self):
        strings = [ps((2, 2), [(1, 0), (1, 0)]), ps((2, 2), [(0, 1), (0, 1)])]
        circ = diagonalize_clique(strings, "general")
        assert circ.n_entangling >= 1
        _check_diagonalizes(strings, circ)

    def test_qubit_y_singleton(self):
        strings = [ps((2,), [(1, 1)])]
        circ = diagonalize_clique(strings, "general")
        _check_diagonalizes(strings, circ)

    def test_bitwise_local_only(self):
        strings = [ps((2, 3), [(1, 0), (0, 0)]), ps((2, 3), [(0, 0), (1, 2)])]
        circ = diagonalize_clique(strings, "bitwise")
        assert circ.n_entangling == 0
        assert circ.depth == 1
        _check_diagonalizes(strings, circ)

    def test_bitwise_rejects_general_only_clique(self):
        strings = [ps((2, 2), [(1, 0), (1, 0)]), ps((2, 2), [(0, 1), (0, 1)])]
        with pytest.raises(ValueError):
            diagonalize_clique(strings, "bitwise")

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_clique([ps((2,), [(1, 0)]), ps((2,), [(0, 1)])], "general")

    def test_determinism(self):
        strings = [ps((3, 3), [(1, 0), (1, 0)]), ps((3, 3), [(0, 1), (0, 2)])]
        c1 = diagonalize_clique(strings, "general")
        c2 = diagonalize_clique(strings, "general")
        assert c1.gates == c2.gates

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (5,), (2, 3), (2, 2, 3), (2, 5)])
    def test_random_cliques(self, dims, rng):
        reg = QuditRegister(dims)
        for trial in range(15):
            # random commuting set: conjugate random diagonal strings
            circ0 = random_clifford_circuit(reg, 8, rng)
            size = int(rng.integers(1, 4))
            strings = []
            for _ in range(size):
                exps = tuple((0, int(rng.integers(0, d))) for d in dims)
                tau = int(rng.integers(0, 2 * reg.d_p))
                strings.append(conjugate_ps(circ0, PauliString(reg, exps, tau)))
            circ = diagonalize_clique(strings, "general")
            _check_diagonalizes(strings, circ)

    def test_bitwise_random(self, rng):
        reg = QuditRegister((2, 3, 2))
        for _ in range(10):
            # random bitwise-commuting set: local conjugation of diagonals
            gates = []
            for k, d in enumerate(reg.dims):
                for kind in rng.choice(["H", "S", "S_inv", "H_inv"], size=2):
                    gates.append(Gate(str(kind), (k,), d))
            circ0 = CliffordCircuit(tuple(gates), reg)
            strings = []
            for _ in range(int(rng.integers(1, 4))):
                exps = tuple((0, int(rng.integers(0, d))) for d in reg.dims)
                strings.append(conjugate_ps(circ0, PauliString(reg, exps)))
            circ = diagonalize_clique(strings, "bitwise")
            assert circ.n_entangling == 0
            _check_diagonalizes(strings, circ)


# -- the two elimination loops the single routine replaced, kept as its oracle --


def oracle_rref(mat: np.ndarray, d: int) -> np.ndarray:
    """Reduced row echelon form over F_d; returns the nonzero rows."""
    mat = mat.copy() % d
    rows, cols = mat.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if mat[i, c] % d:
                piv = i
                break
        if piv is None:
            continue
        mat[[r, piv]] = mat[[piv, r]]
        mat[r] = (mat[r] * pow(int(mat[r, c]), -1, d)) % d
        for i in range(rows):
            if i != r and mat[i, c] % d:
                mat[i] = (mat[i] - mat[i, c] * mat[r]) % d
        r += 1
        if r == rows:
            break
    return mat[:r]


def oracle_x_block_rref(tab: np.ndarray, n: int, d: int):
    """Row-reduce so the X block becomes an identity on its pivot columns."""
    tab = tab.copy() % d
    rows = tab.shape[0]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, rows):
            if tab[i, c] % d:
                piv = i
                break
        if piv is None:
            continue
        tab[[r, piv]] = tab[[piv, r]]
        tab[r] = (tab[r] * pow(int(tab[r, c]), -1, d)) % d
        for i in range(rows):
            if i != r and tab[i, c] % d:
                tab[i] = (tab[i] - tab[i, c] * tab[r]) % d
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tab, pivots


def oracle_eliminate(mat, d, limit):
    """The old pair behind the merged routine's signature: a full-width
    elimination returns the basis rows, a narrower one the X-block form."""
    if limit < mat.shape[1]:
        return oracle_x_block_rref(mat, limit, d)
    red = oracle_rref(mat, d)
    return red, [int(np.flatnonzero(row)[0]) for row in red]


def random_clique(rng, reg, mode):
    """Strings that commute under ``mode``: random diagonal strings conjugated
    by a random circuit (local gates only in bitwise mode)."""
    if mode == "general":
        circ0 = random_clifford_circuit(reg, 10, rng)
    else:
        gates = [Gate(str(kind), (k,), d) for k, d in enumerate(reg.dims) for kind in rng.choice(["H", "S", "S_inv", "H_inv"], size=2)]
        circ0 = CliffordCircuit(tuple(gates), reg)
    strings = []
    for _ in range(int(rng.integers(1, 5))):
        exps = tuple((0, int(rng.integers(0, d))) for d in reg.dims)
        strings.append(conjugate_ps(circ0, PauliString(reg, exps, int(rng.integers(0, 2 * reg.d_p)))))
    return strings


@pytest.mark.parametrize("d", [2, 3, 5])
def test_eliminate_matches_old_pair(d, rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        mat = rng.integers(0, d, size=(int(rng.integers(0, 6)), 2 * n))
        for limit in (2 * n, n):
            got, pivots = clifford._eliminate(mat, d, limit)
            want, want_pivots = oracle_eliminate(mat, d, limit)
            assert pivots == want_pivots
            assert np.array_equal(got[: len(want)], want)


@pytest.mark.parametrize("mode", ["general", "bitwise"])
def test_merged_elimination_keeps_circuits(mode, rng, monkeypatch):
    """diagonalize_clique emits the same gates with the old elimination pair."""
    cases = []
    for dims in [(2, 3, 2), (3, 2, 3), (2, 2, 3, 3), (3, 5, 3), (2, 5, 2, 5)]:
        reg = QuditRegister(dims)
        cases += [random_clique(rng, reg, mode) for _ in range(12)]
    new = [diagonalize_clique(strings, mode).gates for strings in cases]
    monkeypatch.setattr(clifford, "_eliminate", oracle_eliminate)
    old = [diagonalize_clique(strings, mode).gates for strings in cases]
    assert new == old
    assert sum(len(g) for g in new) > 0


class TestCircuitMeta:
    def test_counts_and_depth(self):
        reg = QuditRegister((2, 2))
        gates = (
            Gate("S", (0,), 2),
            Gate("S", (0,), 2),
            Gate("H", (0,), 2),
            Gate("CSUM", (0, 1), 2),
            Gate("H", (1,), 2),
        )
        circ = CliffordCircuit(gates, reg)
        assert circ.n_local == 4
        assert circ.n_entangling == 1
        assert circ.depth == 3  # local block, CSUM, trailing local

    def test_json_roundtrip(self):
        reg = QuditRegister((2, 3, 3))
        circ = CliffordCircuit((Gate("H", (0,), 2), Gate("CSUM", (1, 2), 3)), reg)
        back = circuit_from_json(circuit_to_json(circ))
        assert back == circ

    def test_gate_dim_validation(self):
        reg = QuditRegister((2, 3))
        with pytest.raises(ValueError):
            CliffordCircuit((Gate("H", (0,), 3),), reg)


# -- the per-qudit basis change bitwise mode ran before it shared the block
# elimination, kept as its oracle --


def oracle_diagonalize_bitwise(exps: np.ndarray, register) -> list[Gate]:
    """One local basis change per qudit.  The members' factors on a qudit
    commute pairwise, so over F_d they are multiples of one vector
    (alpha, beta); S^k_s then H maps it onto Z."""
    gates = []
    for k, d in enumerate(register.dims):
        nonzero = exps[:, k][exps[:, k].any(axis=1)]
        if not nonzero.size or nonzero[0, 0] == 0:
            continue  # identity or already diagonal
        alpha, beta = (int(x) for x in nonzero[0])
        k_s = (-beta * pow(alpha, -1, d)) % d
        gates.extend(Gate("S", (k,), d) for _ in range(k_s))
        gates.append(Gate("H", (k,), d))
    return gates


def test_bitwise_matches_local_basis_change_oracle(rng):
    """Bitwise mode's one-qudit eliminations emit the old local basis changes."""
    cliques = []
    for dims in [(2, 3, 2), (3, 5), (2, 2, 3, 3), (5, 7, 2), (7,), (3, 5, 3, 2, 7)]:
        reg = QuditRegister(dims)
        cliques += [random_clique(rng, reg, "bitwise") for _ in range(100)]
    gates = [diagonalize_clique(strings, "bitwise").gates for strings in cliques]
    want = [
        tuple(oracle_diagonalize_bitwise(np.array([p.exps for p in strings], dtype=np.int64), strings[0].register))
        for strings in cliques
    ]
    assert gates == want
    assert sum(len(g) for g in gates) > 0
