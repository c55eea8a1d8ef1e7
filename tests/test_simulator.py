import numpy as np
import pytest

from quditmeas.clifford import CliffordCircuit, Gate
from quditmeas.observables import decompose_matrix
from quditmeas.paulis import PauliString, QuditRegister
from quditmeas.simulator import (
    NoiseModel,
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_error_prob,
    expectation,
    prepare_product_state,
    sample_shot,
    stabilizer_probe,
    state_from_json,
    state_to_json,
)
from .conftest import basis_state, circuit_unitary, random_clifford_circuit, random_register
from .test_engine import outcome_to_eigenindex


def outcome_probs(state, circuit):
    probs = apply_circuit(state, circuit).probabilities()
    return probs / probs.sum()


def pad_fourier(circuit):
    """The probe circuit: each Fourier gate padded to H^4 = 1."""
    gates = [h for g in circuit.gates for h in ([g] * 4 if g.kind in ("H", "H_inv") else [g])]
    return CliffordCircuit(tuple(gates), circuit.register)


def reference_sample(probs, dims, n, circuit, noise, rng):
    """Reference stream for sample_shot: same draws, digits peeled off by hand."""
    total = int(np.prod(dims))
    flat = rng.choice(total, size=n, p=probs)
    bad = np.zeros(n, dtype=bool)
    if noise is not None:
        xi = circuit_error_prob(circuit, noise)
        bad = rng.random(n) < xi
        n_bad = int(bad.sum())
        if n_bad:
            flat[bad] = rng.integers(0, total, size=n_bad)
    out = np.empty((n, len(dims)), dtype=np.int64)
    rem = flat.astype(np.int64)
    for j in range(len(dims) - 1, -1, -1):
        out[:, j] = rem % dims[j]
        rem //= dims[j]
    return out, bad


class TestStates:
    def test_plus_state(self):
        st = prepare_product_state(QuditRegister((2,)), [[1, 1]])
        assert np.allclose(st.amplitudes, np.full(2, 1 / np.sqrt(2)))

    def test_pbc_uniform_27(self):
        # three qutrits, (|0>+|1>+|2>)/sqrt(3) each
        reg = QuditRegister((3, 3, 3))
        st = prepare_product_state(reg, [[1, 1, 1]] * 3)
        assert st.amplitudes.shape == (27,)
        assert np.allclose(st.amplitudes, np.full(27, 27 ** -0.5))

    def test_obc_product_state(self):
        # |1 0 1 0> on qubits times (|0>+|1>)/sqrt(2) on the qutrit
        reg = QuditRegister((2, 2, 2, 2, 3))
        st = prepare_product_state(reg, [[0, 1], [1, 0], [0, 1], [1, 0], [1, 1, 0]])
        want = np.zeros(48)
        base = ((1 * 2 + 0) * 2 + 1) * 2 + 0  # digits 1,0,1,0
        want[base * 3 + 0] = want[base * 3 + 1] = 1 / np.sqrt(2)
        assert np.allclose(st.amplitudes, want)

    def test_bad_inputs(self):
        reg = QuditRegister((2, 2))
        with pytest.raises(ValueError):
            prepare_product_state(reg, [[1, 0]])
        with pytest.raises(ValueError):
            prepare_product_state(reg, [[1, 0, 0], [1, 0]])
        with pytest.raises(ValueError):
            prepare_product_state(reg, [[0, 0], [1, 0]])

    def test_json_roundtrip(self):
        data = state_to_json([[1, 1j], [1, 0, 0]], (2, 3))
        st = state_from_json(data)
        assert st.register.dims == (2, 3)
        assert st.amplitudes[0] == pytest.approx(1 / np.sqrt(2))


class TestApplyCircuit:
    def test_empty_circuit(self):
        st = prepare_product_state(QuditRegister((2, 3)), [[1, 0], [0, 1, 0]])
        out = apply_circuit(st, CliffordCircuit((), st.register))
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_h_makes_plus(self):
        reg = QuditRegister((2,))
        out = apply_circuit(basis_state(reg, (0,)), CliffordCircuit((Gate("H", (0,), 2),), reg))
        assert np.allclose(out.amplitudes, np.full(2, 2 ** -0.5))

    def test_csum3(self):
        reg = QuditRegister((3, 3))
        circ = CliffordCircuit((Gate("CSUM", (0, 1), 3),), reg)
        out = apply_circuit(basis_state(reg, (1, 2)), circ)
        want = np.zeros(9)
        want[1 * 3 + 0] = 1.0
        assert np.allclose(out.amplitudes, want)

    def test_register_mismatch_and_cap(self):
        reg = QuditRegister((2,))
        other = QuditRegister((3,))
        with pytest.raises(ValueError):
            apply_circuit(basis_state(other, (0,)), CliffordCircuit((), reg))
        big = QuditRegister((2,) * 13)
        with pytest.raises(ValueError):
            apply_circuit(basis_state(big, (0,) * 13), CliffordCircuit((), big))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_unitary(self, seed):
        rng = np.random.default_rng(seed)
        reg = random_register(rng)
        circ = random_clifford_circuit(reg, 10, rng)
        amps = rng.normal(size=reg.total_dim) + 1j * rng.normal(size=reg.total_dim)
        amps /= np.linalg.norm(amps)
        st = StateVector(reg, amps)
        out = apply_circuit(st, circ)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out.amplitudes - circuit_unitary(circ) @ amps)) <= 1e-10


def oracle_csum(state, gate):
    """The np.roll CSUM update apply_gate ran before every gate went through
    its unitary: control digit i shifts the target axis by i."""
    c, tg = gate.qudits
    moved = np.moveaxis(state.amplitudes.reshape(state.register.dims), (c, tg), (0, 1))
    out = np.empty_like(moved)
    for i in range(gate.dim):
        out[i] = np.roll(moved[i], shift=i, axis=0)
    return StateVector(state.register, np.moveaxis(out, (0, 1), (c, tg)).reshape(-1))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_csum_unitary_matches_roll_oracle(d, rng):
    """A CSUM unitary is a 0/1 permutation matrix, so its contraction copies
    every amplitude exactly."""
    for dims in [(d, d), (d, 2, d), (3, d, 5, d)]:
        reg = QuditRegister(dims)
        pairs = [(a, b) for a in range(reg.q) for b in range(reg.q) if a != b and dims[a] == dims[b] == d]
        for c, t in pairs:  # both control-target orders of each pair
            for _ in range(5):
                amps = rng.normal(size=reg.total_dim) + 1j * rng.normal(size=reg.total_dim)
                state = StateVector(reg, amps / np.linalg.norm(amps))
                gate = Gate("CSUM", (c, t), d)
                assert np.array_equal(apply_gate(state, gate).amplitudes, oracle_csum(state, gate).amplitudes)


class TestNoise:
    def test_zero_noise(self):
        reg = QuditRegister((2,))
        circ = CliffordCircuit((Gate("H", (0,), 2),), reg)
        assert circuit_error_prob(circ, NoiseModel()) == 0.0

    def test_single_entangling_gate(self):
        reg = QuditRegister((2, 2))
        circ = CliffordCircuit((Gate("CSUM", (0, 1), 2),), reg)
        assert circuit_error_prob(circ, NoiseModel(xi_ent=0.1)) == pytest.approx(0.1)

    def test_reported_hardware_rates(self):
        reg = QuditRegister((2, 2))
        gates = tuple([Gate("H", (0,), 2)] * 4) + tuple([Gate("CSUM", (0, 1), 2)] * 2)
        circ = CliffordCircuit(gates, reg)
        noise = NoiseModel(xi_loc=0.0041, xi_ent=0.079)
        want = 1 - (1 - 0.0041) ** 4 * (1 - 0.079) ** 2
        assert circuit_error_prob(circ, noise) == pytest.approx(want)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(xi_loc=1.5)


class TestSampling:
    def test_deterministic_zero_state(self):
        reg = QuditRegister((2, 3))
        rng = np.random.default_rng(0)
        circ = CliffordCircuit((), reg)
        digits, injected = sample_shot(outcome_probs(basis_state(reg, (0, 0)), circ), circ, None, rng, 20)
        assert digits.shape == (20, 2)
        assert not digits.any()
        assert not injected.any()

    def test_eigenstate_after_diagonalization(self):
        # |+> measured through H always lands on digit 0
        reg = QuditRegister((2,))
        st = prepare_product_state(reg, [[1, 1]])
        circ = CliffordCircuit((Gate("H_inv", (0,), 2),), reg)
        rng = np.random.default_rng(1)
        digits, _ = sample_shot(outcome_probs(st, circ), circ, None, rng, 30)
        assert not digits.any()

    def test_full_error_is_uniform(self):
        from scipy.stats import chisquare

        reg = QuditRegister((3,))
        circ = CliffordCircuit((), reg)
        noise = NoiseModel(xi_detect=1.0)
        rng = np.random.default_rng(7)
        digits, injected = sample_shot(outcome_probs(basis_state(reg, (0,)), circ), circ, noise, rng, 10_000)
        assert injected.all()
        assert chisquare(np.bincount(digits[:, 0], minlength=3)).pvalue > 0.01

    def test_seed_determinism(self):
        reg = QuditRegister((2, 3))
        st = prepare_product_state(reg, [[1, 1], [1, 1, 1]])
        circ = CliffordCircuit((Gate("H", (0,), 2),), reg)
        noise = NoiseModel(xi_loc=0.3)
        probs = outcome_probs(st, circ)
        runs = [sample_shot(probs, circ, noise, np.random.default_rng(42), 25) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_sampling_consistency_mean(self):
        # noiseless empirical mean of omega^mu matches the dense expectation
        rng = np.random.default_rng(3)
        reg = QuditRegister((2,))
        st = prepare_product_state(reg, [[0.8, 0.6]])
        circ = CliffordCircuit((), reg)
        n = 100_000
        digits, _ = sample_shot(outcome_probs(st, circ), circ, None, rng, n)
        mean = np.mean((-1.0) ** digits[:, 0])
        want = 0.8 ** 2 - 0.6 ** 2
        sigma = np.sqrt((1 - want ** 2) / n)
        assert abs(mean - want) < 4 * sigma

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2, 2, 3)], ids=str)
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_matches_reference_stream(self, dims, noisy):
        # same seed, same draws: the outcome stream is bit-identical to the oracle's
        rng = np.random.default_rng(sum(dims) + noisy)
        reg = QuditRegister(dims)
        circ = random_clifford_circuit(reg, 12, rng)
        amps = rng.normal(size=reg.total_dim) + 1j * rng.normal(size=reg.total_dim)
        probs = outcome_probs(StateVector(reg, amps / np.linalg.norm(amps)), circ)
        noise = NoiseModel(xi_loc=0.05, xi_ent=0.1, xi_detect=0.02) if noisy else None
        rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 7, 500):
            digits, injected = sample_shot(probs, circ, noise, rng_new, n)
            want_digits, want_injected = reference_sample(probs, dims, n, circ, noise, rng_ref)
            assert digits.dtype == want_digits.dtype
            assert np.array_equal(digits, want_digits)
            assert np.array_equal(injected, want_injected)
        assert noisy == bool(injected.any())
        assert rng_new.random() == rng_ref.random()


    @pytest.mark.parametrize(
        "bad",
        [[0.5, np.nan, 0.25, 0.25], [0.5, -0.25, 0.5, 0.25], [0.5, 0.2, 0.2, 0.2], [0.25, 0.25, 0.25, 0.25 + 1e-7]],
        ids=["nan", "negative", "sum-0.9", "sum-1+1e-7"],
    )
    def test_rejects_invalid_probabilities(self, bad):
        # the checks Generator.choice made: no NaN, no negative entry, a sum within sqrt(eps) of 1
        reg = QuditRegister((2, 2))
        circ = CliffordCircuit((), reg)
        with pytest.raises(ValueError):
            sample_shot(np.array(bad), circ, None, np.random.default_rng(0), 5)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(4, size=5, p=np.array(bad))

    def test_accepts_a_sum_within_tolerance(self):
        reg = QuditRegister((2, 2))
        probs = np.array([0.25, 0.25, 0.25, 0.25 + 1e-9])
        digits, _ = sample_shot(probs, CliffordCircuit((), reg), None, np.random.default_rng(0), 5)
        assert digits.shape == (5, 2)


# outcome_to_eigenindex is the per-shot oracle of record_batch's tallies
class TestEigenindex:
    def test_qubit_z(self):
        reg = QuditRegister((2,))
        z = PauliString(reg, ((0, 1),))
        assert outcome_to_eigenindex((0,), z) == (0, 0)
        assert outcome_to_eigenindex((1,), z) == (1, 0)

    def test_qutrit_z_squared(self):
        reg = QuditRegister((3,))
        z2 = PauliString(reg, ((0, 2),))
        mu, _ = outcome_to_eigenindex((2,), z2)
        assert mu == 1  # 2*2 mod 3

    def test_phase_passthrough_and_errors(self):
        reg = QuditRegister((2,))
        with pytest.raises(ValueError):
            outcome_to_eigenindex((0,), PauliString(reg, ((1, 0),)))
        p = PauliString(reg, ((0, 1),), 3)
        assert outcome_to_eigenindex((1,), p) == (1, 3)


class TestProbes:
    def test_padding_preserves_counts_plus_fourier(self):
        # the closed-form probe's premise: padding leaves a basis-state permutation
        rng = np.random.default_rng(13)
        for _ in range(20):
            circ = random_clifford_circuit(random_register(rng), int(rng.integers(1, 12)), rng)
            probe = pad_fourier(circ)
            n_fourier = sum(g.kind in ("H", "H_inv") for g in circ.gates)
            assert probe.n_local == circ.n_local + 3 * n_fourier
            assert probe.n_entangling == circ.n_entangling
            mag = np.abs(circuit_unitary(probe))
            nonzero = mag > 1e-9
            assert (nonzero.sum(axis=0) == 1).all()
            assert np.allclose(mag[nonzero], 1.0)

    def test_noiseless_probe_never_errs(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            reg = random_register(rng)
            circ = random_clifford_circuit(reg, 6, rng)
            # a noiseless padded run maps a basis input to one fixed output
            digits_in = tuple(int(rng.integers(0, d)) for d in reg.dims)
            probe = pad_fourier(circ)
            digits, _ = sample_shot(outcome_probs(basis_state(reg, digits_in), probe), probe, None, rng, 10)
            assert (digits == digits[0]).all()
            for noise in (None, NoiseModel()):
                for _ in range(10):
                    assert not stabilizer_probe(circ, noise, rng)

    def test_detect_one_collision_rate(self):
        reg = QuditRegister((2,))
        circ = CliffordCircuit((), reg)
        noise = NoiseModel(xi_detect=1.0)
        rng = np.random.default_rng(5)
        n = 4000
        errs = sum(stabilizer_probe(circ, noise, rng) for _ in range(n))
        p = 1 - 1 / 2
        assert abs(errs / n - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_error_frequency_matches_xi(self):
        reg = QuditRegister((2, 2))
        circ = CliffordCircuit((Gate("H", (0,), 2), Gate("CSUM", (0, 1), 2)), reg)
        noise = NoiseModel(xi_loc=0.02, xi_ent=0.1)
        probe = pad_fourier(circ)
        want = circuit_error_prob(probe, noise) * (1 - 1 / 4)
        rng = np.random.default_rng(9)
        n = 10_000
        tol = 3 * np.sqrt(want * (1 - want) / n)
        errs = sum(stabilizer_probe(circ, noise, rng) for _ in range(n))
        assert abs(errs / n - want) < tol
        # the simulated padded run: a miss is any output off the noiseless target
        start = basis_state(reg, (1, 0))
        target = np.unravel_index(int(np.argmax(outcome_probs(start, probe))), reg.dims)
        digits, _ = sample_shot(outcome_probs(start, probe), probe, noise, rng, n)
        misses = np.any(digits != np.array(target), axis=1).mean()
        assert abs(misses - want) < tol


def test_expectation_oracle(rng):
    for _ in range(5):
        reg = random_register(rng, max_q=2)
        n = reg.total_dim
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        obs = decompose_matrix(a + a.conj().T, reg)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        st = StateVector(reg, amps)
        want = amps.conj() @ ((a + a.conj().T) @ amps)
        assert expectation(obs, st) == pytest.approx(complex(want), abs=1e-10)
