"""Exact algebra of generalized Pauli operators on prime-dimensional qudit registers.

A Pauli string is a tensor product of local operators ``X_d^r Z_d^s`` acting on
qudits of (possibly different) prime dimensions, together with an exact global
phase.  The global phase is tracked as an integer exponent of ``omega_{2*d_P}``
where ``d_P = lcm(dims)``: for registers containing qubits, products such as
``XZ`` have eigenvalues ``+-i``, so ``d_P``-th roots of unity are not enough.

All operations here are pure and exact (integer arithmetic for exponents and
phases); dense matrices appear only as oracles behind :func:`ps_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

# Largest dimension for which a dense matrix or statevector is built (the
# total dimension of a register), and so also the largest qudit dimension.
DEFAULT_DIM_CAP = 4096


@lru_cache(maxsize=None)
def roots_of_unity(d: int) -> np.ndarray:
    """The d-th roots of unity ``omega_d^mu``, mu = 0..d-1 (cached, read-only)."""
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    omega.setflags(write=False)
    return omega


def grid_phase(o, d_p: int):
    """Phase ``omega_{2 d_P}^o = exp(i pi (o mod 2 d_P) / d_P)`` of the
    eigenvalue grid ``omega_{2 d_P}^o omega_{d_P}^mu``, elementwise over ``o``,
    with numpy's arithmetic for a scalar and an array alike."""
    return np.exp(1j * np.pi * (np.asarray(o) % (2 * d_p)) / d_p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for k in range(2, int(math.isqrt(n)) + 1):
        if n % k == 0:
            return False
    return True


@dataclass(frozen=True)
class QuditRegister:
    """Ordered collection of qudit dimensions.

    Parameters
    ----------
    dims : tuple[int, ...]
        Dimension of each qudit.  Every dimension must be a prime >= 2:
        general-commutation diagonalization relies on per-prime-block
        symplectic elimination, which breaks down for composite dimensions.
        A dimension above ``DEFAULT_DIM_CAP`` is rejected before the
        trial-division primality test, which would take too long on it.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("register needs at least one qudit")
        for d in dims:
            if d < 2:
                raise ValueError(f"qudit dimension {d} < 2")
            if d > DEFAULT_DIM_CAP:
                raise ValueError(f"qudit dimension {d} exceeds the cap {DEFAULT_DIM_CAP}")
            if not _is_prime(d):
                raise ValueError(f"qudit dimension {d} is composite; only prime dimensions are supported")
        object.__setattr__(self, "dims", dims)

    @property
    def q(self) -> int:
        """Number of qudits."""
        return len(self.dims)

    @property
    def d_p(self) -> int:
        """Least common multiple of the qudit dimensions."""
        return math.lcm(*self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of local Paulis ``X^r Z^s`` with an exact global phase.

    Parameters
    ----------
    register : QuditRegister
    exps : tuple[tuple[int, int], ...]
        One ``(r_j, s_j)`` pair per qudit; reduced modulo ``d_j`` on construction.
    phase_exp : int
        Global phase exponent ``tau``; the string carries the scalar
        ``omega_{2*d_P}^tau``.  Reduced modulo ``2*d_P``.
    """

    register: QuditRegister
    exps: tuple[tuple[int, int], ...]
    phase_exp: int = 0

    def __post_init__(self):
        dims = self.register.dims
        if len(self.exps) != len(dims):
            raise ValueError(f"expected {len(dims)} exponent pairs, got {len(self.exps)}")
        exps = tuple((int(r) % d, int(s) % d) for (r, s), d in zip(self.exps, dims))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "phase_exp", int(self.phase_exp) % (2 * self.register.d_p))

    def is_diagonal(self) -> bool:
        """True iff every X exponent vanishes (only Z powers and a phase)."""
        return all(r == 0 for r, _ in self.exps)


def _check_same_register(a: PauliString, b: PauliString) -> None:
    if a.register != b.register:
        raise ValueError("Pauli strings live on different registers")


@lru_cache(maxsize=None)
def _local_matrix_cached(d: int, r: int, s: int) -> np.ndarray:
    mu = np.arange(d)
    m = np.zeros((d, d), dtype=complex)
    m[(mu + r) % d, mu] = roots_of_unity(d)[(s * mu) % d]
    m.setflags(write=False)
    return m


def local_matrix(d: int, r: int, s: int) -> np.ndarray:
    """Dense matrix of the single-qudit operator ``X_d^r Z_d^s``.

    ``X_d |mu> = |(mu+1) mod d>`` and ``Z_d |mu> = omega_d^mu |mu>``, so the
    product acts as ``sum_mu |(mu+r) mod d> omega_d^{s mu} <mu|``.
    """
    if not (0 <= r < d and 0 <= s < d):
        raise ValueError(f"exponents (r={r}, s={s}) out of range for dimension {d}")
    return _local_matrix_cached(int(d), int(r), int(s))


def ps_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string, global phase included.

    Intended as a test oracle; total dimension is capped at ``DEFAULT_DIM_CAP``.
    """
    total = p.register.total_dim
    if total > DEFAULT_DIM_CAP:
        raise ValueError(f"total dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
    mats = [local_matrix(d, r, s) for d, (r, s) in zip(p.register.dims, p.exps)]
    return grid_phase(p.phase_exp, p.register.d_p) * reduce(np.kron, mats)


def ps_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product ``a * b`` in canonical ``X^r Z^s`` form.

    Per qudit, ``Z^s X^r = omega_d^{r s} X^r Z^s``; commuting the Z block of
    ``a`` past the X block of ``b`` contributes ``omega_{d_j}^{s_a r_b}``,
    i.e. ``2 (d_P/d_j) s_a r_b`` in ``omega_{2 d_P}`` units.
    """
    _check_same_register(a, b)
    d_p = a.register.d_p
    tau = a.phase_exp + b.phase_exp
    exps = []
    for d, (ra, sa), (rb, sb) in zip(a.register.dims, a.exps, b.exps):
        tau += 2 * (d_p // d) * sa * rb
        exps.append(((ra + rb) % d, (sa + sb) % d))
    return PauliString(a.register, tuple(exps), tau)


def ps_dagger(p: PauliString) -> PauliString:
    """Conjugate transpose in canonical form.

    ``(X^r Z^s)^dag = Z^{-s} X^{-r} = omega_d^{r s} X^{-r} Z^{-s}``.
    """
    d_p = p.register.d_p
    tau = -p.phase_exp
    exps = []
    for d, (r, s) in zip(p.register.dims, p.exps):
        tau += 2 * (d_p // d) * r * s
        exps.append(((-r) % d, (-s) % d))
    return PauliString(p.register, tuple(exps), tau)


def commutation_matrix(exps, register: QuditRegister, mode: str) -> np.ndarray:
    """(n, n) boolean matrix of which strings commute, from their (n, q, 2)
    exponent array ``exps`` of ``(r_j, s_j)`` pairs.

    Strings a and b have per-qudit terms ``t_j = s_{a,j} r_{b,j} -
    r_{a,j} s_{b,j} (mod d_j)``.  Under ``"general"`` mode
    ``a b = omega_{d_P}^k b a`` with ``k = sum_j (d_P/d_j) t_j``, so they
    commute iff ``k = 0 (mod d_P)``; under ``"bitwise"`` mode every per-qudit
    factor pair must commute, i.e. every ``t_j = 0``.
    """
    if mode not in ("general", "bitwise"):
        raise ValueError(f"unknown mode {mode!r}")
    exps = np.asarray(exps, dtype=np.int64)
    r, s = exps[..., 0], exps[..., 1]
    dims = np.array(register.dims, dtype=np.int64)
    terms = (s[:, None] * r[None] - r[:, None] * s[None]) % dims  # (n, n, q)
    if mode == "bitwise":
        return ~terms.any(axis=-1)
    d_p = register.d_p
    return terms @ (d_p // dims) % d_p == 0


def spectral_offset(p: PauliString) -> int:
    """Exponent ``o`` such that the spectrum of ``p`` lies on the grid
    ``omega_{2 d_P}^o * omega_{d_P}^mu``.

    For a bare string the grid parity comes from the qubit factors only:
    ``(X Z)^2 = -I`` on a qubit, so each ``r s = 1`` qubit factor flips the
    sign of ``p^{d_P}``.  Odd-prime factors satisfy ``(X^r Z^s)^d = I``
    exactly.  The global phase shifts the grid by its own exponent.

    Outcome indices tallied against this offset are circuit-independent: a
    measured eigenvalue ``omega_{2 d_P}^e`` has ``e = o (mod 2)`` and maps to
    ``mu = (e - o)/2 mod d_P``.  Only the parity of ``o`` is physical, so the
    canonical representative is 0 or 1.
    """
    o = p.phase_exp
    for d, (r, s) in zip(p.register.dims, p.exps):
        if d == 2:
            o += r * s
    return o % 2
