"""Qudit Clifford gates, tableau-style conjugation, and clique diagonalization.

The gate set is the generalized Hadamard (discrete Fourier transform), the
phase gate, the controlled-SUM, and the Pauli shift/phase gates.  Conjugation
of Pauli strings is done purely on exponents with exact phase bookkeeping in
``omega_{2d}`` units per gate; states are acted on by :func:`gate_action`,
and no gate is built as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .paulis import PauliString, QuditRegister, commutation_matrix, roots_of_unity

LOCAL_KINDS = ("H", "H_inv", "S", "S_inv", "X", "Z")
GATE_KINDS = LOCAL_KINDS + ("CSUM",)


@dataclass(frozen=True)
class Gate:
    kind: str
    qudits: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n = 2 if self.kind == "CSUM" else 1
        if len(self.qudits) != n:
            raise ValueError(f"{self.kind} acts on {n} qudit(s), got {self.qudits}")
        if self.kind == "CSUM" and self.qudits[0] == self.qudits[1]:
            raise ValueError("CSUM control and target must differ")

    @property
    def is_entangling(self) -> bool:
        return self.kind == "CSUM"


def _phase_diag(d: int) -> np.ndarray:
    """Diagonal of the phase gate S_d.

    For odd d this is ``omega_d^{j(j-1)/2}``.  That formula degenerates to the
    identity at d = 2 (``j(j-1)/2 = 0`` for j in {0,1}), which would leave the
    single-qubit Clifford group unable to map Y-type strings onto Z; for
    qubits we therefore use the standard phase gate diag(1, i).
    """
    if d == 2:
        return np.array([1.0, 1j], dtype=complex)
    j = np.arange(d)
    return roots_of_unity(d)[(j * (j - 1) // 2) % d]


@lru_cache(maxsize=None)
def gate_action(kind: str, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(source, phase, fourier)``: a gate maps the flattened amplitudes
    ``a`` over its qudits to ``phase * a[source]``, then multiplies H's by
    the DFT ``F[i, j] = omega_d^{ij} / sqrt(d)`` and H_inv's by its inverse.
    So ``X|j> = |j+1>``, ``Z|j> = omega_d^j |j>``, S is :func:`_phase_diag`
    and CSUM maps ``|i>|j>`` (control first) to ``|i>|i+j>``.  Read-only."""
    source = np.arange(d * d if kind == "CSUM" else d)
    phase, fourier = np.ones(source.size, dtype=complex), None
    if kind == "X":
        source = (source - 1) % d
    elif kind == "Z":
        phase = roots_of_unity(d)
    elif kind in ("S", "S_inv"):
        phase = _phase_diag(d) if kind == "S" else _phase_diag(d).conj()
    elif kind == "CSUM":
        i, j = np.divmod(source, d)
        source = i * d + (j - i) % d
    else:
        fourier = roots_of_unity(d)[np.outer(source, source) % d] / np.sqrt(d)
        fourier = fourier if kind == "H" else fourier.conj()  # F is symmetric: its inverse is its conjugate
        fourier.setflags(write=False)
    source.setflags(write=False)
    phase.setflags(write=False)
    return source, phase, fourier


@dataclass(frozen=True)
class CliffordCircuit:
    gates: tuple[Gate, ...]
    register: QuditRegister

    def __post_init__(self):
        dims = self.register.dims
        for g in self.gates:
            for k in g.qudits:
                if not 0 <= k < len(dims):
                    raise ValueError(f"gate qudit {k} out of range")
                if dims[k] != g.dim:
                    raise ValueError(f"gate dimension {g.dim} does not match qudit {k} (d={dims[k]})")

    # gate counts, computed once: cached_property bypasses the frozen __setattr__
    @cached_property
    def n_local(self) -> int:
        return len(self.gates) - self.n_entangling

    @cached_property
    def n_entangling(self) -> int:
        return sum(g.is_entangling for g in self.gates)

    @cached_property
    def n_fourier(self) -> int:
        """Number of H and H_inv gates."""
        return sum(g.kind in ("H", "H_inv") for g in self.gates)

    @property
    def depth(self) -> int:
        """Layered depth; consecutive local gates on one qudit share a layer.

        A maximal run of single-qudit gates compiles to one local unitary, so
        bitwise-mode circuits report depth 1 regardless of how many primitive
        S gates build the local basis change.
        """
        level = [0] * self.register.q
        local_open = [False] * self.register.q
        depth = 0
        for g in self.gates:
            if g.is_entangling:
                a, b = g.qudits
                lvl = max(level[a], level[b]) + 1
                level[a] = level[b] = lvl
                local_open[a] = local_open[b] = False
            else:
                (k,) = g.qudits
                if local_open[k]:
                    lvl = level[k]
                else:
                    lvl = level[k] + 1
                    level[k] = lvl
                    local_open[k] = True
            depth = max(depth, lvl)
        return depth


def conjugate_ps(circuit: CliffordCircuit, p: PauliString) -> PauliString:
    """Exact conjugation ``U P U^dag`` by symplectic per-gate updates.

    Exponent maps per gate (phase increments in omega_{2d} units, scaled by
    d_P/d into the string's global omega_{2 d_P} exponent):

    =========  ====================  ==================
    gate       (r, s) ->             phase increment
    =========  ====================  ==================
    H          (-s, r)               -2 r s
    H_inv      (s, -r)               -2 r s
    S          (r, s + r)            r(r-1)  [d odd], r  [d = 2]
    S_inv      (r, s - r)            -r(r-1) [d odd], -r [d = 2]
    X          (r, s)                -2 s
    Z          (r, s)                +2 r
    CSUM(c,t)  control (r_c, s_c - s_t), target (r_c + r_t, s_t); no phase
    =========  ====================  ==================
    """
    if circuit.register != p.register:
        raise ValueError("circuit and string registers differ")
    dims = p.register.dims
    d_p = p.register.d_p
    exps = list(p.exps)
    tau = p.phase_exp
    for g in circuit.gates:
        if g.is_entangling:
            c, t = g.qudits
            d = g.dim
            rc, sc = exps[c]
            rt, st = exps[t]
            exps[c] = (rc, (sc - st) % d)
            exps[t] = ((rc + rt) % d, st)
            continue
        (k,) = g.qudits
        d = dims[k]
        unit = d_p // d
        r, s = exps[k]
        if g.kind == "H":
            exps[k] = ((-s) % d, r)
            tau += unit * (-2 * r * s)
        elif g.kind == "H_inv":
            exps[k] = (s, (-r) % d)
            tau += unit * (-2 * r * s)
        elif g.kind == "S":
            exps[k] = (r, (s + r) % d)
            tau += unit * (r if d == 2 else r * (r - 1))
        elif g.kind == "S_inv":
            exps[k] = (r, (s - r) % d)
            tau -= unit * (r if d == 2 else r * (r - 1))
        elif g.kind == "X":
            tau += unit * (-2 * s)
        elif g.kind == "Z":
            tau += unit * (2 * r)
    return PauliString(p.register, tuple(exps), tau)


# -- clique diagonalization ----------------------------------------------------


def diagonalize_clique(strings, mode: str) -> CliffordCircuit:
    """Synthesize a circuit mapping every clique string (and every pairwise
    product) to a diagonal string.

    Both modes run symplectic Gaussian elimination independently per block
    of qudits.  General mode takes one block per prime: commutation
    factorizes over the distinct prime dimensions, so blocks never need to
    interact.  Bitwise mode takes one block per qudit, where the members'
    factors are multiples of one vector (alpha, beta): the elimination emits
    S^(-beta/alpha) then H, a local basis change (depth 1, no entangling
    gates), and nothing on a qudit that carries only Z factors.
    """
    strings = list(strings)
    if not strings:
        raise ValueError("empty clique")
    register = strings[0].register
    if any(p.register != register for p in strings):
        raise ValueError("clique strings live on different registers")
    exps = np.array([p.exps for p in strings], dtype=np.int64)  # (k, q, 2)
    clash = np.argwhere(~commutation_matrix(exps, register, mode))
    if clash.size:
        i, j = clash[0]  # row-major, so i < j is the first clashing pair
        raise ValueError(f"strings {i} and {j} do not commute under {mode} mode")

    dims = register.dims
    if mode == "bitwise":
        blocks = [[k] for k in range(register.q)]
    else:
        blocks = [[k for k, dk in enumerate(dims) if dk == d] for d in sorted(set(dims))]
    gates = [g for block in blocks for g in _diagonalize_block(exps, block, dims[block[0]])]
    return CliffordCircuit(tuple(gates), register)


def _diagonalize_block(exps: np.ndarray, block: list[int], d: int) -> list[Gate]:
    """Symplectic elimination on a block of qudits of one prime dimension.

    Works on a basis of the group spanned by the clique's exponent vectors:
    a circuit that diagonalizes a basis diagonalizes every product as well.
    """
    n = len(block)
    rows = np.concatenate([exps[:, block, 0], exps[:, block, 1]], axis=1)
    # a basis of the spanned group, then row operations that leave its X
    # block an identity on the pivot columns (pure-Z rows sink to the bottom)
    tab, pivots = _eliminate(rows, d, 2 * n)
    if not pivots:
        return []
    tab, pivots = _eliminate(tab[: len(pivots)], d, n)
    x, z = tab[:, :n], tab[:, n:]
    gates: list[Gate] = []

    def csum(c, t, times):
        times %= d
        if times == 0:
            return
        gates.extend(Gate("CSUM", (block[c], block[t]), d) for _ in range(times))
        x[:, t] = (x[:, t] + times * x[:, c]) % d
        z[:, c] = (z[:, c] - times * z[:, t]) % d

    # phase 1: leave each pivot row with a single X entry at its pivot column
    for i, c in enumerate(pivots):
        for l in range(n):
            if l != c and x[i, l] % d:
                csum(c, l, d - int(x[i, l]))

    # phase 2a: clear the Z sub-block on pivot columns (symmetric by commutation)
    for i, c in enumerate(pivots):
        k_s = (d - int(z[i, c])) % d
        if k_s:
            gates.extend(Gate("S", (block[c],), d) for _ in range(k_s))
            z[:, c] = (z[:, c] + k_s * x[:, c]) % d
    for i in range(len(pivots)):
        for j in range(i + 1, len(pivots)):
            ci, cj = pivots[i], pivots[j]
            if int(z[i, cj]) != int(z[j, ci]):
                raise AssertionError("commutation-symmetry breach in Z sub-block")
            times = int(z[i, cj]) % d
            if times:
                # H(t) CSUM(c,t)^times H_inv(t) realises the symmetric phase
                # coupling z_c -= times*x_t, z_t -= times*x_c
                gates.append(Gate("H", (block[cj],), d))
                gates.extend(Gate("CSUM", (block[ci], block[cj]), d) for _ in range(times))
                gates.append(Gate("H_inv", (block[cj],), d))
                z[:, cj] = (z[:, cj] - times * x[:, ci]) % d
                z[:, ci] = (z[:, ci] - times * x[:, cj]) % d

    # phase 2b: rotate X pivots into Z
    for i, c in enumerate(pivots):
        gates.append(Gate("H", (block[c],), d))
        xc = x[:, c].copy()
        x[:, c] = (-z[:, c]) % d
        z[:, c] = xc

    if np.any(x % d):
        raise AssertionError("block elimination failed to clear all X exponents")
    return gates


def _eliminate(mat: np.ndarray, d: int, limit: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination over F_d on the first ``limit`` columns.

    Each pivot row is scaled to a leading 1 and its column cleared in every
    other row; rows without a pivot end up below the pivot rows.  Row
    operations act on whole rows.  Returns the reduced matrix (all rows) and
    the pivot columns.
    """
    mat = mat % d
    pivots: list[int] = []
    for c in range(limit):
        r = len(pivots)
        if r == mat.shape[0]:
            break
        nonzero = np.flatnonzero(mat[r:, c])
        if nonzero.size == 0:
            continue
        mat[[r, r + nonzero[0]]] = mat[[r + nonzero[0], r]]
        mat[r] = (mat[r] * pow(int(mat[r, c]), -1, d)) % d
        factors = mat[:, c].copy()
        factors[r] = 0
        mat = (mat - np.outer(factors, mat[r])) % d
        pivots.append(c)
    return mat, pivots


# -- serialization -------------------------------------------------------------


def circuit_to_json(circuit: CliffordCircuit) -> dict:
    return {
        "dims": list(circuit.register.dims),
        "gates": [{"kind": g.kind, "qudits": list(g.qudits), "dim": g.dim} for g in circuit.gates],
        "n_loc": circuit.n_local,
        "n_ent": circuit.n_entangling,
        "depth": circuit.depth,
    }
