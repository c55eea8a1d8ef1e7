"""Higher-dimensional spin operators and their generalized-Pauli expansions."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .paulis import local_matrix

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
def spin_coefficients(d_s: int, axis: str) -> tuple[tuple[tuple[int, int], complex], ...]:
    """Expansion of a spin operator over local Paulis: S = sum c^{r,s} X^r Z^s.

    Coefficients are trace inner products c^{r,s} = tr((X^r Z^s)^dag S)/d_s;
    only the nonzero ones are returned.  For dimension d_s the nonzero counts
    are at most 2*d_s (x), 2*d_s (y) and d_s (z): the ladder structure puts x
    and y entirely on r in {1, d_s-1} and z on r = 0.
    """
    mat = spin_matrix(d_s, axis)
    out = []
    for r in range(d_s):
        for s in range(d_s):
            c = complex(np.trace(local_matrix(d_s, r, s).conj().T @ mat)) / d_s
            if abs(c) > DECOMP_TOL:
                out.append(((r, s), c))
    return tuple(out)
