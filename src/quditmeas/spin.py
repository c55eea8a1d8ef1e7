"""Higher-dimensional spin operators and their generalized-Pauli expansions."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .paulis import roots_of_unity

AXES = ("x", "y", "z")

# |c| at or below this is numerical noise of a trace transform.
DECOMP_TOL = 1e-12


def sigma_mu(d_s: int, mu: int) -> float:
    """Ladder coefficient for the spin-((d_s-1)/2) raising/lowering structure."""
    return math.sqrt(2.0 * ((d_s + 1) / 2.0) * (mu + 1) - (mu + 1) * (mu + 2))


def spin_matrix(d_s: int, axis: str) -> np.ndarray:
    """Dense matrix of the d_s-dimensional spin operator along ``axis``.

    S_x = sum_mu sigma_mu (|mu+1><mu| + |mu><mu+1|),
    S_y = i sum_mu sigma_mu (|mu+1><mu| - |mu><mu+1|),
    S_z = 2 sum_mu ((d_s-1)/2 - mu) |mu><mu|.
    """
    if d_s < 2:
        raise ValueError(f"spin dimension {d_s} < 2")
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    m = np.zeros((d_s, d_s), dtype=complex)
    if axis == "z":
        for mu in range(d_s):
            m[mu, mu] = 2.0 * ((d_s - 1) / 2.0 - mu)
        return m
    for mu in range(d_s - 1):
        s = sigma_mu(d_s, mu)
        if axis == "x":
            m[mu + 1, mu] += s
            m[mu, mu + 1] += s
        else:
            m[mu + 1, mu] += 1j * s
            m[mu, mu + 1] -= 1j * s
    return m


@lru_cache(maxsize=None)
def _conjugated_basis(d: int) -> np.ndarray:
    """Read-only ``(d*d, d, d)`` stack of ``conj(X_d^r Z_d^s)`` at index ``r*d + s``."""
    r, s, mu = np.ix_(range(d), range(d), range(d))
    w = np.zeros((d * d, d, d), dtype=complex)
    w[r * d + s, (mu + r) % d, mu] = roots_of_unity(d)[(s * mu) % d].conj()
    w.setflags(write=False)
    return w


def pauli_expansion(mat: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n,)`` coefficients ``c = tr(P^dag O) / prod(dims)`` with
    ``|c| > DECOMP_TOL`` of a dense matrix over the Pauli strings ``P`` of
    ``dims``, and their ``(n, q, 2)`` exponents in row-major order of the
    per-qudit indices ``r*d + s``.  The transform factorizes per qudit, at
    cost O(D^2 sum d_j^2) instead of O(D^4)."""
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    for j, d in enumerate(dims):
        # after j steps the leading axis is the next row index and the
        # matching column index sits right after the remaining row axes
        t = np.tensordot(t, _conjugated_basis(d), axes=([0, len(dims) - j], [1, 2]))
    coeffs = t.reshape(-1) / math.prod(dims)
    keep = np.flatnonzero(np.abs(coeffs) > DECOMP_TOL)
    flat = np.stack(np.unravel_index(keep, [d * d for d in dims]), axis=1)  # (n, q)
    return coeffs[keep], np.stack(np.divmod(flat, dims), axis=-1)


@lru_cache(maxsize=None)
def spin_coefficients(d_s: int, axis: str) -> tuple[tuple[tuple[int, int], complex], ...]:
    """Expansion of a spin operator over local Paulis: S = sum c^{r,s} X^r Z^s.

    Coefficients come from :func:`pauli_expansion`.  For dimension d_s the
    nonzero counts are at most 2*d_s (x), 2*d_s (y) and d_s (z): the ladder
    structure puts x and y entirely on r in {1, d_s-1} and z on r = 0.
    """
    coeffs, exps = pauli_expansion(spin_matrix(d_s, axis), (d_s,))
    return tuple((tuple(e), c) for c, (e,) in zip(coeffs.tolist(), exps.tolist()))
