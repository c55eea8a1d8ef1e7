"""Commutation graph, overlapping clique covers, tallies, and the estimator.

The graph's vertices are the observable's Pauli strings; edges join commuting
pairs under the chosen rule (general or bitwise).  Tallies hold canonical
eigenvalue-index counts for every vertex and difference-class counts for
every jointly measured pair, so data from different cliques and circuits
merge without phase ambiguity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .observables import Observable
from .paulis import commutation_matrix, spectral_offset

IMAG_WARN_TOL = 1e-9


@dataclass
class Clique:
    vertices: tuple[int, ...]
    circuit: object | None = None  # CliffordCircuit once synthesized
    readout: object | None = field(default=None, compare=False, repr=False)  # ReadoutPlan once recorded


class TallyStore:
    """Outcome counts for vertices and jointly measured pairs, as arrays.

    ``s[i, mu]`` counts canonical eigenvalue indices of string i.  For i < j,
    ``pair_s[i, j, mu]`` counts the difference classes of the (1,1) product
    string; entries with i >= j stay zero.  ``pair_m`` is symmetric: its
    (i, j) entry is the number of joint shots of the pair and its diagonal
    the shot count ``m`` of each string.
    """

    def __init__(self, p: int, d_p: int):
        self.p = p
        self.d_p = d_p
        self.s = np.zeros((p, d_p), dtype=np.int64)
        self.pair_s = np.zeros((p, p, d_p), dtype=np.int64)
        self.pair_m = np.zeros((p, p), dtype=np.int64)

    @property
    def m(self) -> np.ndarray:
        """Shot count of every string (a read-only view of ``pair_m``'s diagonal)."""
        return self.pair_m.diagonal()

    def add_batch(self, vertices, pair_rows, cells, counts) -> None:
        """Add one batch's ``(rows, d_P)`` counts, whose rows all hold the
        batch's shots: the first ``len(vertices)`` rows to those strings, the
        rest to the rows ``pair_rows`` of ``pair_s`` viewed as
        ``(p * p, d_P)``.  Every flat cell of ``pair_m`` in ``cells`` gains
        the batch's shot count.  All indices must be distinct."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != self.d_p or (counts < 0).any():
            raise ValueError("invalid count block")
        k = len(vertices)
        self.s[vertices] += counts[:k]
        self.pair_s.reshape(-1, self.d_p)[pair_rows] += counts[k:]
        self.pair_m.reshape(-1)[cells] += counts[0].sum()


class CommutationGraph:
    def __init__(self, observable: Observable, mode: str):
        self.observable = observable
        self.mode = mode
        strings = observable.strings()
        self.adjacency = commutation_matrix([s.exps for s in strings], observable.register, mode)
        self.offsets = np.array([spectral_offset(s) for s in strings], dtype=np.int64)
        coeffs = observable.coefficients()
        # conj(c_i) c_j on the adjacency, 0 elsewhere: the coefficient factor
        # of every pair weight
        self.pair_coeffs = np.where(self.adjacency, np.conj(coeffs)[:, None] * coeffs, 0.0)
        self.pair_coeffs.setflags(write=False)
        self.cliques = []

    @property
    def p(self) -> int:
        return self.observable.p

    @cached_property
    def tallies(self) -> TallyStore:
        """The run's tallies, allocated on first read: planning never reads
        them, and their (p, p, d_P) pair counts need not fit in memory then."""
        return TallyStore(self.p, self.observable.register.d_p)

    def edges(self) -> list[tuple[int, int]]:
        """Commuting pairs (i, j), i < j, in row-major order."""
        return [tuple(e) for e in np.argwhere(np.triu(self.adjacency, 1)).tolist()]

    @property
    def cliques(self) -> list[Clique]:
        """The clique cover.  Setting it also sets ``membership``, the (C, p)
        boolean matrix whose row k marks the vertices of clique k."""
        return self._cliques

    @cliques.setter
    def cliques(self, cliques: list[Clique]) -> None:
        member = np.zeros((len(cliques), self.p), dtype=bool)
        for k, clique in enumerate(cliques):
            member[k, list(clique.vertices)] = True
        member.setflags(write=False)
        self._cliques = cliques
        self.membership = member


def build_graph(obs: Observable, mode: str) -> CommutationGraph:
    if obs.p < 1:
        raise ValueError("observable has no terms")
    return CommutationGraph(obs, mode)


def clique_cover(graph: CommutationGraph) -> list[Clique]:
    """Deterministic greedy cover with overlaps.

    Vertices are processed by decreasing |c| (ties: lowest index).  Every
    still-uncovered vertex seeds a clique grown greedily by the largest-|c|
    compatible vertex; a second pass seeds one clique at every vertex to
    create overlaps.  Duplicates are removed and the list capped at 3p.
    """
    p = graph.p
    coeffs = np.abs(graph.observable.coefficients())
    order = sorted(range(p), key=lambda i: (-coeffs[i], i))

    def grow(seed: int) -> tuple[int, ...]:
        members = [seed]
        fits = graph.adjacency[seed].copy()  # commutes with every member so far
        for cand in order:
            if fits[cand] and cand not in members:
                members.append(cand)
                fits &= graph.adjacency[cand]
        return tuple(sorted(members))

    seen: set[tuple[int, ...]] = set()
    cliques: list[Clique] = []
    covered = np.zeros(p, dtype=bool)
    for v in order:
        if covered[v]:
            continue
        members = grow(v)
        covered[list(members)] = True
        if members not in seen:
            seen.add(members)
            cliques.append(Clique(members))
    for v in order:
        members = grow(v)
        if members not in seen:
            seen.add(members)
            cliques.append(Clique(members))
        if len(cliques) >= 3 * p:
            break
    graph.cliques = cliques
    return cliques


def scaled_covariance(m_i, m_j, m_ij, q_ij):
    """(m_ij + 2) / ((m_i + 2)(m_j + 2)) times the covariance estimate
    (elementwise on arrays)."""
    return (m_ij + 2.0) / ((m_i + 2.0) * (m_j + 2.0)) * q_ij


@dataclass
class EdgeEstimates:
    """Point estimates feeding the estimator.

    ``p_means[i]`` is the mean of string i.  ``q`` is the Hermitian (p, p)
    covariance matrix with the strings' spectral phases included: the
    self-covariances sit on its diagonal.  Every entry starts at 0, the
    prior mean of a pair covariance at every d_P.  The estimator reads the
    pair weights ``graph.pair_coeffs * q``, so ``q`` is the only state.
    """

    p_means: np.ndarray
    q: np.ndarray

    @classmethod
    def zeros(cls, p: int) -> "EdgeEstimates":
        return cls(p_means=np.zeros(p, dtype=complex), q=np.zeros((p, p), dtype=complex))


def _pair_weights(graph: CommutationGraph, est: EdgeEstimates) -> np.ndarray:
    """conj(c_i) c_j q_ij over edges (and the diagonal), 0 elsewhere."""
    return graph.pair_coeffs * est.q


def estimate_observable(graph: CommutationGraph, est: EdgeEstimates) -> tuple[complex, float]:
    """Point estimate and estimation variance from current edge estimates.

    The variance is the conjugate-bilinear combination
    ``sum_ij conj(c_i) c_j scaled_covariance(i, j)``; with the conjugate on
    the first coefficient the diagonal carries |c_i|^2 (as in the graph's
    self-edge weights) and the total stays nonnegative for hermitian
    observables even when Pauli strings are hermitian only up to phase.
    """
    t = graph.tallies
    o_est = complex((graph.observable.coefficients() * est.p_means).sum())
    m = t.m
    var = complex(scaled_covariance(m[:, None], m, t.pair_m, _pair_weights(graph, est)).sum())
    if graph.observable.hermitian:
        if abs(o_est.imag) > IMAG_WARN_TOL * max(1.0, abs(o_est.real)):
            warnings.warn(f"hermitian observable produced imaginary mean {o_est.imag:.3e}")
        if abs(var.imag) > IMAG_WARN_TOL * max(1.0, abs(var.real)):
            warnings.warn(f"hermitian observable produced imaginary variance {var.imag:.3e}")
        o_est = complex(o_est.real, 0.0)
    return o_est, float(var.real)


def variance_decrease(graph: CommutationGraph, est: EdgeEstimates, batch: int) -> np.ndarray:
    """Variance drop from granting ``batch`` extra shots to each clique of the
    cover, as a (C,) array.

    All covariance estimates are held fixed; only the (m+2) scalings move.
    With real pair weights w, a = 1/(m+2) and W = w (m_ij + 2), the variance
    is a W a^T.  Clique k moves a to a' = 1/(m + b M_k + 2), b = ``batch``,
    and adds b M_ki M_kj to every joint count, so with delta = a' - a its
    drop is ``-(2 delta W a^T + delta W delta^T) - b (M_k a') w (M_k a')^T``,
    where the first term is ``delta W (a + a')^T`` since W is symmetric.
    The drop is formed directly, never as the difference of two summed
    variances, which would cancel to rounding noise above the allocation's
    tie tolerance; pairs with no member inside a clique add exactly zero.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    t = graph.tallies
    w = _pair_weights(graph, est).real
    m2 = t.m + 2.0
    a = 1.0 / m2
    a_new = 1.0 / (m2 + batch * graph.membership)  # (C, p)
    inside = a_new * graph.membership
    rescaled = ((a_new - a) @ (w * (t.pair_m + 2.0)) * (a_new + a)).sum(axis=1)  # a' W a'^T - a W a^T
    joint = ((inside @ w) * inside).sum(axis=1)  # the new joint shots' term, over b
    return -rescaled - batch * joint


def graph_to_json(graph: CommutationGraph) -> dict:
    return {
        "mode": graph.mode,
        "dims": list(graph.observable.register.dims),
        "vertices": [
            {"index": i, "re": float(c.real), "im": float(c.imag), "paulis": [[r, s] for r, s in p.exps]}
            for i, (c, p) in enumerate(graph.observable.terms)
        ],
        "edges": [[i, j] for i, j in graph.edges()],
        "cliques": [list(c.vertices) for c in graph.cliques],
    }
