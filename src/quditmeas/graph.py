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

import numpy as np

from .observables import Observable
from .paulis import commutes_bitwise, commutes_general, spectral_offset

MODES = ("general", "bitwise")
IMAG_WARN_TOL = 1e-9


@dataclass
class Clique:
    vertices: tuple[int, ...]
    circuit: object | None = None  # CliffordCircuit once synthesized
    readout: object | None = field(default=None, compare=False, repr=False)  # ReadoutPlan once recorded

    @property
    def n_local(self) -> int:
        return self.circuit.n_local if self.circuit is not None else 0

    @property
    def n_entangling(self) -> int:
        return self.circuit.n_entangling if self.circuit is not None else 0


class TallyStore:
    """Outcome counts for vertices and jointly measured pairs, as arrays.

    ``s[i, mu]`` counts canonical eigenvalue indices of string i.  For i < j,
    ``pair_s[i, j, mu]`` counts the difference classes of the (1,1) product
    string; entries with i >= j stay zero.  ``pair_m`` is symmetric: its
    (i, j) entry is the number of joint shots of the pair and its diagonal
    the shot count ``m`` of each string.  Priors default to 1.
    """

    def __init__(self, p: int, d_p: int, priors: np.ndarray | None = None):
        self.p = p
        self.d_p = d_p
        self.s = np.zeros((p, d_p), dtype=np.int64)
        self.pair_s = np.zeros((p, p, d_p), dtype=np.int64)
        self.pair_m = np.zeros((p, p), dtype=np.int64)
        self.priors = np.ones((p, d_p)) if priors is None else np.asarray(priors, dtype=float)
        if self.priors.shape != (p, d_p):
            raise ValueError("prior array shape mismatch")

    @property
    def m(self) -> np.ndarray:
        """Shot count of every string (a read-only view of ``pair_m``'s diagonal)."""
        return self.pair_m.diagonal()

    def _checked(self, counts) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim == 0 or counts.shape[-1] != self.d_p or np.any(counts < 0):
            raise ValueError("invalid count vector")
        return counts

    def add_vertex_counts(self, i, counts) -> None:
        """Add counts to string i; ``i`` may be an array of distinct indices
        with one row of ``counts`` each."""
        counts = self._checked(counts)
        self.s[i] += counts
        self.pair_m[i, i] += counts.sum(axis=-1)

    def add_pair_counts(self, i, j, counts) -> None:
        """Add product-string counts to pair (i, j); like ``add_vertex_counts``
        it takes arrays of distinct pairs too."""
        if np.any(np.asarray(i) == np.asarray(j)):
            raise ValueError("pair counts need distinct vertices")
        counts = self._checked(counts)
        i, j = np.minimum(i, j), np.maximum(i, j)
        n = counts.sum(axis=-1)
        self.pair_s[i, j] += counts
        self.pair_m[i, j] += n
        self.pair_m[j, i] += n

    def validate(self) -> None:
        over = np.argwhere(np.triu(self.pair_m > np.minimum.outer(self.m, self.m), 1))
        if over.size:
            i, j = over[0]
            raise AssertionError(f"pair ({i},{j}) has m_ij={self.pair_m[i, j]} above min(m_i, m_j)")
        if not np.array_equal(self.pair_s.sum(axis=2), np.triu(self.pair_m, 1)):
            raise AssertionError("pair count total mismatch")


class CommutationGraph:
    def __init__(self, observable: Observable, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.observable = observable
        self.mode = mode
        p = observable.p
        strings = observable.strings()
        check = commutes_general if mode == "general" else commutes_bitwise
        adj = np.eye(p, dtype=bool)
        for i in range(p):
            for j in range(i + 1, p):
                adj[i, j] = adj[j, i] = check(strings[i], strings[j])
        self.adjacency = adj
        self.offsets = np.array([spectral_offset(s) for s in strings], dtype=np.int64)
        self.cliques: list[Clique] = []
        self.tallies = TallyStore(p, observable.register.d_p)

    @property
    def p(self) -> int:
        return self.observable.p

    def edges(self):
        p = self.p
        for i in range(p):
            for j in range(i + 1, p):
                if self.adjacency[i, j]:
                    yield (i, j)

    def is_clique(self, vertices) -> bool:
        vs = list(vertices)
        return all(self.adjacency[a, b] for k, a in enumerate(vs) for b in vs[k + 1 :])


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
        for cand in order:
            if cand in members:
                continue
            if all(graph.adjacency[cand, m] for m in members):
                members.append(cand)
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
    self-covariances sit on its diagonal, and NaN marks a pair that has not
    been estimated yet.
    """

    p_means: np.ndarray
    q: np.ndarray

    @classmethod
    def unestimated(cls, p: int) -> "EdgeEstimates":
        return cls(p_means=np.zeros(p, dtype=complex), q=np.full((p, p), np.nan, dtype=complex))


def _pair_weights(graph: CommutationGraph, est: EdgeEstimates) -> np.ndarray:
    """conj(c_i) c_j q_ij over estimated edges (and the diagonal), 0 elsewhere."""
    coeffs = graph.observable.coefficients()
    known = graph.adjacency & ~np.isnan(est.q)
    return np.conj(coeffs)[:, None] * coeffs * np.where(known, est.q, 0.0)


def estimate_observable(graph: CommutationGraph, est: EdgeEstimates) -> tuple[complex, float]:
    """Point estimate and estimation variance from current edge estimates.

    The variance is the conjugate-bilinear combination
    ``sum_ij conj(c_i) c_j scaled_covariance(i, j)``; with the conjugate on
    the first coefficient the diagonal carries |c_i|^2 (as in the graph's
    self-edge weights) and the total stays nonnegative for hermitian
    observables even when Pauli strings are hermitian only up to phase.
    """
    t = graph.tallies
    missing = graph.adjacency & np.isnan(est.q) & (t.pair_m > 0)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise ValueError(f"measured pair ({i},{j}) has no covariance estimate")
    o_est = complex(np.sum(graph.observable.coefficients() * est.p_means))
    m = t.m
    var = complex(np.sum(scaled_covariance(m[:, None], m, t.pair_m, _pair_weights(graph, est))))
    if graph.observable.hermitian:
        if abs(o_est.imag) > IMAG_WARN_TOL * max(1.0, abs(o_est.real)):
            warnings.warn(f"hermitian observable produced imaginary mean {o_est.imag:.3e}")
        if abs(var.imag) > IMAG_WARN_TOL * max(1.0, abs(var.real)):
            warnings.warn(f"hermitian observable produced imaginary variance {var.imag:.3e}")
        o_est = complex(o_est.real, 0.0)
    return o_est, float(var.real)


def variance_decrease(graph: CommutationGraph, est: EdgeEstimates, clique: Clique, batch: int) -> float:
    """Variance drop from granting ``batch`` extra shots to one clique.

    All covariance estimates are held fixed; only the (m+2) scalings move,
    so pairs with no member inside the clique contribute exactly zero.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    t = graph.tallies
    bump = np.zeros(graph.p)
    bump[list(clique.vertices)] = batch
    m = t.m + 2.0
    m_new = m + bump
    joint = t.pair_m + 2.0
    drop = joint / np.outer(m, m) - (joint + np.outer(bump, bump) / batch) / np.outer(m_new, m_new)
    return float(np.sum(_pair_weights(graph, est).real * drop))


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
