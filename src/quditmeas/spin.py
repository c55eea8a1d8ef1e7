"""Higher-dimensional spin operators and their generalized-Pauli expansions."""

from __future__ import annotations

import math

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


def pauli_expansion(mat: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n,)`` coefficients ``c = tr(P^dag O) / prod(dims)`` with
    ``|c| > DECOMP_TOL`` of a dense matrix over the Pauli strings ``P`` of
    ``dims``, and their ``(n, q, 2)`` exponents in row-major order of the
    per-qudit indices ``r*d + s``.

    ``X^r Z^s`` holds ``omega^{s mu}`` at ``((mu + r) mod d, mu)``, so per
    qudit the transform gathers the r-th cyclic diagonals of that qudit's
    row and column axes and multiplies them by the conjugate d x d DFT
    matrix: O(D^2 sum d_j) time and O(D^2) memory."""
    q = len(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    for j, d in enumerate(dims):
        # after j steps the leading axis is the next row index and the
        # matching column index sits right after the remaining row axes
        r, mu = np.ix_(range(d), range(d))
        t = np.moveaxis(t, (0, q - j), (-2, -1))[..., (mu + r) % d, mu]  # the diagonals
        t = t @ roots_of_unity(d)[r * mu % d].conj()
    coeffs = t.reshape(-1)
    coeffs /= math.prod(dims)  # t is the last product, never the caller's matrix
    keep = np.flatnonzero(np.abs(coeffs) > DECOMP_TOL)
    flat = np.stack(np.unravel_index(keep, [d * d for d in dims]), axis=1)  # (n, q)
    return coeffs[keep], np.stack(np.divmod(flat, dims), axis=-1)
