import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmeas.bayes import MCMCConfig, covariance_mcmc
from quditmeas.engine import update_vertex_estimates
from quditmeas.graph import (
    Clique,
    EdgeEstimates,
    build_graph,
    clique_cover,
    estimate_observable,
    graph_to_json,
    scaled_covariance,
    variance_decrease,
)
from quditmeas.observables import Observable
from quditmeas.paulis import PauliString, QuditRegister


def make_obs(dims, terms):
    reg = QuditRegister(tuple(dims))
    return Observable(reg, [(c, PauliString(reg, tuple(exps))) for c, exps in terms])


def estimates(p_means, q_diag, pairs=None) -> EdgeEstimates:
    """Estimates with the given self-covariances and (i, j) -> q_ij pair
    entries (the (j, i) entry is the conjugate); every other pair is NaN."""
    q = np.full((len(q_diag), len(q_diag)), np.nan, dtype=complex)
    np.fill_diagonal(q, q_diag)
    for (i, j), v in (pairs or {}).items():
        q[i, j], q[j, i] = v, np.conj(v)
    return EdgeEstimates(p_means=np.asarray(p_means, dtype=complex), q=q)


def vertex_estimates(g) -> EdgeEstimates:
    return update_vertex_estimates(g, EdgeEstimates.unestimated(g.p))


# -- the dict-keyed estimator the array code replaced, kept as its oracle -------


def as_dicts(graph, est):
    """``est.q`` as a self-covariance vector plus a dict of the estimated
    edges (i < j), the form the oracles below read."""
    q_pairs = {(i, j): est.q[i, j] for i, j in graph.edges() if not np.isnan(est.q[i, j])}
    return np.diagonal(est.q).copy(), q_pairs


def oracle_estimate_observable(graph, p_means, q_diag, q_pairs):
    coeffs = graph.observable.coefficients()
    t = graph.tallies
    o_est = complex(np.sum(coeffs * p_means))
    var = 0.0 + 0.0j
    for i in range(graph.p):
        var += abs(coeffs[i]) ** 2 * scaled_covariance(t.m[i], t.m[i], t.m[i], q_diag[i])
    for i, j in graph.edges():
        if (i, j) not in q_pairs:
            if t.pair_m[i, j] > 0:
                raise ValueError(f"measured pair ({i},{j}) has no covariance estimate")
            continue
        contrib = np.conj(coeffs[i]) * coeffs[j] * q_pairs[(i, j)]
        var += 2.0 * scaled_covariance(t.m[i], t.m[j], t.pair_m[i, j], contrib.real)
    if graph.observable.hermitian:
        o_est = complex(o_est.real, 0.0)
    return o_est, float(var.real)


def oracle_variance_decrease(graph, q_diag, q_pairs, clique, batch):
    inside = set(clique.vertices)
    coeffs = graph.observable.coefficients()
    t = graph.tallies
    delta = 0.0

    def scale(m_i, m_j, m_ij):
        return (m_ij + 2.0) / ((m_i + 2.0) * (m_j + 2.0))

    for i in range(graph.p):
        if i not in inside:
            continue
        m_i = t.m[i]
        q = q_diag[i].real * abs(coeffs[i]) ** 2
        delta += q * (scale(m_i, m_i, m_i) - scale(m_i + batch, m_i + batch, m_i + batch))
    for i, j in graph.edges():
        if i not in inside and j not in inside:
            continue
        q_ij = q_pairs.get((i, j))
        if q_ij is None:
            continue
        w = 2.0 * (np.conj(coeffs[i]) * coeffs[j] * q_ij).real
        m_i, m_j, m_ij = t.m[i], t.m[j], t.pair_m[i, j]
        bi = batch if i in inside else 0
        bj = batch if j in inside else 0
        bij = batch if (i in inside and j in inside) else 0
        delta += w * (scale(m_i, m_j, m_ij) - scale(m_i + bi, m_j + bj, m_ij + bij))
    return float(delta)


XZ_OBS = make_obs((2,), [(1.0, [(1, 0)]), (0.5, [(0, 1)])])
XX_ZZ_XI = make_obs(
    (2, 2),
    [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)]), (0.5, [(1, 0), (0, 0)])],
)


class TestBuildGraph:
    def test_x_z_disconnected(self):
        for mode in ("general", "bitwise"):
            g = build_graph(XZ_OBS, mode)
            assert g.p == 2
            assert not g.adjacency[0, 1]
            assert g.adjacency[0, 0] and g.adjacency[1, 1]  # self-edges

    def test_general_vs_bitwise_edges(self):
        g = build_graph(XX_ZZ_XI, "general")
        idx = {p.exps: i for i, (c, p) in enumerate(g.observable.terms)}
        xx = idx[((1, 0), (1, 0))]
        zz = idx[((0, 1), (0, 1))]
        xi = idx[((1, 0), (0, 0))]
        assert g.adjacency[xx, zz]
        assert g.adjacency[xx, xi]  # X-type strings always commute
        assert not g.adjacency[zz, xi]
        gb = build_graph(XX_ZZ_XI, "bitwise")
        # XX-ZZ survives only under general commutation
        assert not gb.adjacency[xx, zz]
        assert gb.adjacency[xx, xi]
        assert not gb.adjacency[zz, xi]

    def test_tallies_zeroed(self):
        g = build_graph(XZ_OBS, "general")
        assert g.tallies.s.sum() == 0 and g.tallies.m.sum() == 0
        assert g.cliques == []


class TestCliqueCover:
    def test_edgeless_gives_singletons(self):
        g = build_graph(XZ_OBS, "general")
        cover = clique_cover(g)
        assert sorted(c.vertices for c in cover) == [(0,), (1,)]

    def test_complete_graph_single_clique(self):
        obs = make_obs((2,), [(1.0, [(0, 1)]), (0.5, [(0, 0)])])  # Z and I commute
        g = build_graph(obs, "general")
        cover = clique_cover(g)
        assert cover[0].vertices == (0, 1)

    def test_every_vertex_covered_and_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            reg = QuditRegister((2, 2))
            terms = []
            seen = set()
            while len(terms) < 6:
                exps = tuple((int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(2))
                if exps in seen or all(r == 0 and s == 0 for r, s in exps):
                    continue
                seen.add(exps)
                terms.append((float(rng.normal()), exps))
            obs = make_obs((2, 2), terms)
            for mode in ("general", "bitwise"):
                g = build_graph(obs, mode)
                cover = clique_cover(g)
                covered = set()
                for c in cover:
                    assert g.is_clique(c.vertices)
                    covered.update(c.vertices)
                assert covered == set(range(g.p))
                assert len(cover) <= 3 * g.p

    def test_overlapping_cover_on_chain_structure(self):
        # a path-like commutation structure forces overlaps when every vertex
        # seeds its own greedy clique
        obs = make_obs(
            (2, 2, 2),
            [
                (1.0, [(1, 0), (1, 0), (0, 0)]),  # XXI
                (0.9, [(0, 1), (0, 1), (0, 0)]),  # ZZI
                (0.8, [(0, 0), (1, 0), (1, 0)]),  # IXX
                (0.7, [(0, 0), (0, 1), (0, 1)]),  # IZZ
                (0.6, [(1, 0), (0, 0), (1, 0)]),  # XIX
                (0.5, [(0, 1), (0, 0), (0, 1)]),  # ZIZ
                (0.4, [(1, 0), (1, 0), (1, 0)]),  # XXX
            ],
        )
        g = build_graph(obs, "general")
        cover = clique_cover(g)
        counts = np.zeros(g.p, dtype=int)
        for c in cover:
            for v in c.vertices:
                counts[v] += 1
        assert counts.max() >= 2  # some vertex sits in two cliques

    def test_deterministic(self):
        g1 = build_graph(XX_ZZ_XI, "general")
        g2 = build_graph(XX_ZZ_XI, "general")
        assert [c.vertices for c in clique_cover(g1)] == [c.vertices for c in clique_cover(g2)]


class TestScaledCovariance:
    def test_unmeasured_pair_keeps_prior_scale(self):
        assert scaled_covariance(4, 9, 0, 1.0) == pytest.approx(2.0 / (6 * 11))

    def test_all_zero_counts(self):
        assert scaled_covariance(0, 0, 0, 1.0) == pytest.approx(0.5)

    def test_diagonal_case(self):
        m = 7
        assert scaled_covariance(m, m, m, 1.0) == pytest.approx(1.0 / (m + 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
def test_scaled_covariance_properties(m_i, m_j, extra):
    # joint count never exceeds either marginal; the scale grows with m_ij
    m_ij = min(m_i, m_j)
    lo = scaled_covariance(m_i, m_j, 0, 1.0)
    hi = scaled_covariance(m_i, m_j, m_ij, 1.0)
    assert 0 < lo.real <= hi.real
    assert scaled_covariance(m_i + extra, m_i + extra, m_i + extra, 1.0).real <= 1 / (m_i + extra + 2) + 1e-15


class TestEstimateObservable:
    def test_single_term(self):
        obs = make_obs((2,), [(1.0, [(0, 1)])])
        g = build_graph(obs, "general")
        g.tallies.add_vertex_counts(0, np.array([2, 0]))
        est = estimates([0.5], [0.75])
        o, var = estimate_observable(g, est)
        assert o == pytest.approx(0.5)
        assert var == pytest.approx(0.75 / 4)

    def test_zero_term_observable(self):
        reg = QuditRegister((2,))
        obs = Observable(reg, [])
        with pytest.raises(ValueError):
            build_graph(obs, "general")

    def test_uncorrelated_pairs_add(self):
        obs = make_obs((2,), [(1.0, [(0, 1)]), (1.0, [(0, 0)])])
        g = build_graph(obs, "general")
        est = estimates(np.zeros(2), [0.5, 0.25], {(0, 1): 0.0})
        _, var = estimate_observable(g, est)
        assert var == pytest.approx(0.5 / 2 + 0.25 / 2)

    def test_missing_measured_pair_estimate(self):
        obs = make_obs((2,), [(1.0, [(0, 1)]), (1.0, [(0, 0)])])
        g = build_graph(obs, "general")
        g.tallies.add_vertex_counts(0, np.array([1, 0]))
        g.tallies.add_vertex_counts(1, np.array([1, 0]))
        g.tallies.add_pair_counts(0, 1, np.array([1, 0]))
        est = estimates(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            estimate_observable(g, est)
        with pytest.raises(ValueError):
            oracle_estimate_observable(g, est.p_means, *as_dicts(g, est))

    def test_vertex_order_invariance(self):
        rng = np.random.default_rng(3)
        terms = [(0.7, [(0, 1), (0, 1)]), (0.4, [(1, 0), (1, 0)]), (0.2, [(0, 1), (0, 0)])]
        obs = make_obs((2, 2), terms)
        obs_rev = make_obs((2, 2), terms[::-1])
        # canonical ordering makes both observables identical term-for-term
        assert [p.exps for _, p in obs.terms] == [p.exps for _, p in obs_rev.terms]

    def test_y_like_term_variance_nonnegative(self):
        # i * XZ is hermitian; the |c|^2 diagonal keeps its variance positive
        obs = make_obs((2,), [(1j, [(1, 1)])])
        assert obs.hermitian
        g = build_graph(obs, "general")
        g.tallies.add_vertex_counts(0, np.array([3, 1]))
        est = vertex_estimates(g)
        o, var = estimate_observable(g, est)
        assert var >= 0
        assert abs(o.imag) < 1e-12


class TestVarianceDecrease:
    def _graph_with_estimates(self):
        # canonical order puts Z=(0,1) at vertex 0 (|c|=0.5), X=(1,0) at 1
        g = build_graph(XZ_OBS, "general")
        return g, estimates(np.zeros(2), [0.8, 0.6])

    def test_disjoint_clique_no_gain(self):
        obs = make_obs((2,), [(1.0, [(0, 1)]), (0.0001, [(0, 0)])])
        g = build_graph(obs, "general")
        est = estimates(np.zeros(2), [0.5, 0.0], {(0, 1): 0.0})
        assert variance_decrease(g, est, Clique((1,)), 5) == pytest.approx(0.0, abs=1e-9)

    def test_singleton_closed_form(self):
        g, est = self._graph_with_estimates()
        b = 7
        m = 3
        g.tallies.add_vertex_counts(0, np.array([2, 1]))
        want = 0.5 ** 2 * 0.8 * (1 / (m + 2) - 1 / (m + b + 2))
        assert variance_decrease(g, est, Clique((0,)), b) == pytest.approx(want)

    def test_larger_weight_wins(self):
        g, est = self._graph_with_estimates()
        np.fill_diagonal(est.q, 0.5)
        d_z = variance_decrease(g, est, Clique((0,)), 4)  # |c|=0.5
        d_x = variance_decrease(g, est, Clique((1,)), 4)  # |c|=1.0
        assert d_x > d_z

    def test_nonnegative_for_dominant_diagonal(self):
        rng = np.random.default_rng(11)
        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.7, [(0, 1), (0, 1)])])
        g = build_graph(obs, "general")
        for _ in range(50):
            q01 = complex(rng.uniform(-0.5, 0.5), 0)
            est = estimates(np.zeros(2), [0.6, 0.55], {(0, 1): q01})  # diagonal dominates |q01|
            np.fill_diagonal(g.tallies.pair_m, rng.integers(0, 30, size=2))
            d = variance_decrease(g, est, Clique((0, 1)), int(rng.integers(1, 10)))
            assert d >= -1e-12


class TestTallyMerging:
    def test_two_batches_equal_one_double_batch(self):
        obs = make_obs((2,), [(1.0, [(0, 1)]), (1.0, [(0, 0)])])
        g1 = build_graph(obs, "general")
        g2 = build_graph(obs, "general")
        c1 = np.array([3, 1])
        for g, reps in ((g1, 2), (g2, 1)):
            for _ in range(reps):
                k = (2 // reps)
                g.tallies.add_vertex_counts(0, c1 * k // 2 if reps == 1 else c1 // 2 + np.array([1, 0]))
        # direct equality check instead: two b-shot updates equal one 2b-shot update
        ga = build_graph(obs, "general")
        gb = build_graph(obs, "general")
        batch = np.array([2, 1])
        ga.tallies.add_vertex_counts(0, batch)
        ga.tallies.add_vertex_counts(0, batch)
        gb.tallies.add_vertex_counts(0, 2 * batch)
        assert np.array_equal(ga.tallies.s, gb.tallies.s)
        assert np.array_equal(ga.tallies.m, gb.tallies.m)
        ga.tallies.add_pair_counts(0, 1, batch)
        ga.tallies.add_pair_counts(0, 1, batch)
        gb.tallies.add_pair_counts(0, 1, 2 * batch)
        assert np.array_equal(ga.tallies.pair_s, gb.tallies.pair_s)
        assert np.array_equal(ga.tallies.pair_m, gb.tallies.pair_m)

    def test_validate_catches_overcount(self):
        g = build_graph(XZ_OBS, "general")
        g.tallies.add_pair_counts(0, 1, np.array([5, 0]))
        with pytest.raises(AssertionError):
            g.tallies.validate()


def test_graph_json_export():
    g = build_graph(XX_ZZ_XI, "general")
    clique_cover(g)
    data = graph_to_json(g)
    assert data["mode"] == "general"
    assert len(data["vertices"]) == 3
    assert all(len(e) == 2 for e in data["edges"])
    assert data["cliques"]


def test_variance_nonnegative_with_mcmc_estimates(rng):
    """Estimation variance stays nonnegative when pair estimates come from
    the MCMC and diagonals from the Dirichlet moments (spot check; the
    large randomized sweep lives in the acceptance suite)."""
    obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.8, [(0, 1), (0, 1)])])
    g = build_graph(obs, "general")
    cfg = MCMCConfig(n_chains=2, min_samples=150, max_samples=300, seed=3)
    for trial in range(25):
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        n_joint = int(rng.integers(0, 40))
        n_solo = int(rng.integers(0, 20))
        g.tallies = type(g.tallies)(g.p, 2)
        draws = rng.multinomial(n_joint, joint.reshape(-1)).reshape(2, 2)
        s_i = draws.sum(axis=1)
        s_j = draws.sum(axis=0)
        s_ij = np.array([draws[0, 0] + draws[1, 1], draws[0, 1] + draws[1, 0]])
        g.tallies.add_vertex_counts(0, s_i)
        g.tallies.add_vertex_counts(1, s_j)
        g.tallies.add_pair_counts(0, 1, s_ij)
        extra = rng.multinomial(n_solo, joint.sum(axis=1))
        g.tallies.add_vertex_counts(0, extra)
        est = vertex_estimates(g)
        mc = covariance_mcmc(g.tallies.s[0], g.tallies.s[1], g.tallies.pair_s[0, 1], 2, cfg, pair_id=trial)
        phase = np.exp(1j * np.pi * ((g.offsets[1] - g.offsets[0]) % 4) / 2)
        est.q[0, 1] = phase * mc.value
        est.q[1, 0] = np.conj(est.q[0, 1])
        _, var = estimate_observable(g, est)
        assert var >= -1e-10


@pytest.mark.parametrize("p", range(1, 9))
def test_array_estimator_matches_dict_oracle(p):
    """The masked array sums equal the dict-keyed loops on random Hermitian
    covariances with unestimated (NaN) pairs and consistent tallies."""
    rng = np.random.default_rng(100 + p)
    reg = QuditRegister((2, 2, 3))
    for trial in range(10):
        terms, seen = [], set()
        while len(terms) < p:
            exps = tuple((int(rng.integers(0, d)), int(rng.integers(0, d))) for d in reg.dims)
            if exps not in seen:
                seen.add(exps)
                terms.append((complex(rng.normal(), rng.normal()), exps))
        obs = make_obs(reg.dims, terms)
        g = build_graph(obs, "general" if trial % 2 else "bitwise")
        clique_cover(g)
        m = rng.integers(0, 50, size=p)
        pair_m = np.minimum.outer(m, m) - rng.integers(0, 10, size=(p, p))
        pair_m = np.triu(np.maximum(pair_m, 0) * g.adjacency, 1)
        a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        q = a @ a.conj().T
        unestimated = np.triu(rng.random((p, p)) < 0.3, 1) & (pair_m == 0)
        q[unestimated | unestimated.T] = np.nan
        g.tallies.pair_m[...] = pair_m + pair_m.T + np.diag(m)
        est = EdgeEstimates(p_means=rng.normal(size=p) + 1j * rng.normal(size=p), q=q)
        q_diag, q_pairs = as_dicts(g, est)

        o, var = estimate_observable(g, est)
        o_ref, var_ref = oracle_estimate_observable(g, est.p_means, q_diag, q_pairs)
        assert abs(o - o_ref) <= 1e-12 * max(1.0, abs(o_ref))
        assert abs(var - var_ref) <= 1e-12 * max(1.0, abs(var_ref))
        for clique in g.cliques:
            batch = int(rng.integers(1, 40))
            got = variance_decrease(g, est, clique, batch)
            want = oracle_variance_decrease(g, q_diag, q_pairs, clique, batch)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
