import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmeas.bayes import MCMCConfig, covariance_mcmc
from quditmeas.engine import select_clique, update_vertex_estimates
from quditmeas.graph import (
    Clique,
    EdgeEstimates,
    _pair_weights,
    build_graph,
    clique_cover,
    estimate_observable,
    graph_to_json,
    scaled_covariance,
    variance_decrease,
)
from quditmeas.observables import Observable
from quditmeas.paulis import PauliString, QuditRegister
from .conftest import add_pair_counts, add_vertex_counts, is_clique, validate_tallies


def make_obs(dims, terms):
    reg = QuditRegister(tuple(dims))
    return Observable(reg, [(c, PauliString(reg, tuple(exps))) for c, exps in terms])


def estimates(p_means, q_diag, pairs=None) -> EdgeEstimates:
    """Estimates with the given self-covariances and (i, j) -> q_ij pair
    entries (the (j, i) entry is the conjugate); every other pair is 0."""
    q = np.zeros((len(q_diag), len(q_diag)), dtype=complex)
    np.fill_diagonal(q, q_diag)
    for (i, j), v in (pairs or {}).items():
        q[i, j], q[j, i] = v, np.conj(v)
    return EdgeEstimates(p_means=np.asarray(p_means, dtype=complex), q=q)


def vertex_estimates(g) -> EdgeEstimates:
    return update_vertex_estimates(g, EdgeEstimates.zeros(g.p))


# -- the dict-keyed estimator the array code replaced, kept as its oracle -------


def as_dicts(graph, est):
    """``est.q`` as a self-covariance vector plus a dict of the edges
    (i < j), the form the oracles below read."""
    q_pairs = {(i, j): est.q[i, j] for i, j in graph.edges()}
    return np.diagonal(est.q).copy(), q_pairs


def oracle_estimate_observable(graph, p_means, q_diag, q_pairs):
    coeffs = graph.observable.coefficients()
    t = graph.tallies
    o_est = complex(np.sum(coeffs * p_means))
    var = 0.0 + 0.0j
    for i in range(graph.p):
        var += abs(coeffs[i]) ** 2 * scaled_covariance(t.m[i], t.m[i], t.m[i], q_diag[i])
    for i, j in graph.edges():
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
        w = 2.0 * (np.conj(coeffs[i]) * coeffs[j] * q_pairs[(i, j)]).real
        m_i, m_j, m_ij = t.m[i], t.m[j], t.pair_m[i, j]
        bi = batch if i in inside else 0
        bj = batch if j in inside else 0
        bij = batch if (i in inside and j in inside) else 0
        delta += w * (scale(m_i, m_j, m_ij) - scale(m_i + bi, m_j + bj, m_ij + bij))
    return float(delta)


def oracle_pair_drop(graph, est, batch):
    """The (C, p, p) per-pair drop that the matrix-product gain replaced,
    summed per clique."""
    t = graph.tallies
    bump = batch * graph.membership  # (C, p)
    m_new = t.m + bump
    joint_new = t.pair_m + bump[:, :, None] * bump[:, None, :] / batch
    drop = scaled_covariance(t.m[:, None], t.m, t.pair_m, 1.0) - scaled_covariance(
        m_new[:, :, None], m_new[:, None, :], joint_new, 1.0
    )
    return np.sum(_pair_weights(graph, est).real * drop, axis=(1, 2))


def oracle_select(gains):
    """The first clique within 1e-12 * max |gain| of the best, on numpy."""
    tol = 1e-12 * np.abs(gains).max()
    return int(np.argmax(gains >= gains.max() - tol))


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

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'pairwise'"):
            build_graph(XZ_OBS, "pairwise")

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
                    assert is_clique(g, c.vertices)
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

    def test_membership_set_with_the_cover(self):
        def rows(cliques, p):
            return np.array([[v in c.vertices for v in range(p)] for c in cliques], dtype=bool).reshape(-1, p)

        g = build_graph(XX_ZZ_XI, "general")
        assert g.membership.shape == (0, g.p)
        cover = clique_cover(g)
        np.testing.assert_array_equal(g.membership, rows(cover, g.p))
        g.cliques = [Clique((0, 2)), Clique((1,))]  # a hand-set cover takes the same path
        np.testing.assert_array_equal(g.membership, rows(g.cliques, g.p))
        assert g.membership is g.membership  # read, not rebuilt
        assert not g.membership.flags.writeable


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
        add_vertex_counts(g.tallies, 0, np.array([2, 0]))
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
        add_vertex_counts(g.tallies, 0, np.array([3, 1]))
        est = vertex_estimates(g)
        o, var = estimate_observable(g, est)
        assert var >= 0
        assert abs(o.imag) < 1e-12


class TestVarianceDecrease:
    def _graph_with_estimates(self):
        # canonical order puts Z=(0,1) at vertex 0 (|c|=0.5), X=(1,0) at 1
        g = build_graph(XZ_OBS, "general")
        g.cliques = [Clique((0,)), Clique((1,))]
        return g, estimates(np.zeros(2), [0.8, 0.6])

    def test_disjoint_clique_no_gain(self):
        obs = make_obs((2,), [(1.0, [(0, 1)]), (0.0001, [(0, 0)])])
        g = build_graph(obs, "general")
        g.cliques = [Clique((1,))]
        est = estimates(np.zeros(2), [0.5, 0.0], {(0, 1): 0.0})
        assert variance_decrease(g, est, 5) == pytest.approx([0.0], abs=1e-9)

    def test_singleton_closed_form(self):
        g, est = self._graph_with_estimates()
        b = 7
        m = 3
        add_vertex_counts(g.tallies, 0, np.array([2, 1]))
        want = 0.5 ** 2 * 0.8 * (1 / (m + 2) - 1 / (m + b + 2))
        assert variance_decrease(g, est, b)[0] == pytest.approx(want)

    def test_larger_weight_wins(self):
        g, est = self._graph_with_estimates()
        np.fill_diagonal(est.q, 0.5)
        d_z, d_x = variance_decrease(g, est, 4)  # |c| = 0.5 and 1.0
        assert d_x > d_z

    def test_nonnegative_for_dominant_diagonal(self):
        rng = np.random.default_rng(11)
        obs = make_obs((2, 2), [(1.0, [(1, 0), (1, 0)]), (0.7, [(0, 1), (0, 1)])])
        g = build_graph(obs, "general")
        g.cliques = [Clique((0, 1))]
        for _ in range(50):
            q01 = complex(rng.uniform(-0.5, 0.5), 0)
            est = estimates(np.zeros(2), [0.6, 0.55], {(0, 1): q01})  # diagonal dominates |q01|
            np.fill_diagonal(g.tallies.pair_m, rng.integers(0, 30, size=2))
            (d,) = variance_decrease(g, est, int(rng.integers(1, 10)))
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
                add_vertex_counts(g.tallies, 0, c1 * k // 2 if reps == 1 else c1 // 2 + np.array([1, 0]))
        # direct equality check instead: two b-shot updates equal one 2b-shot update
        ga = build_graph(obs, "general")
        gb = build_graph(obs, "general")
        batch = np.array([2, 1])
        add_vertex_counts(ga.tallies, 0, batch)
        add_vertex_counts(ga.tallies, 0, batch)
        add_vertex_counts(gb.tallies, 0, 2 * batch)
        assert np.array_equal(ga.tallies.s, gb.tallies.s)
        assert np.array_equal(ga.tallies.m, gb.tallies.m)
        add_pair_counts(ga.tallies, 0, 1, batch)
        add_pair_counts(ga.tallies, 0, 1, batch)
        add_pair_counts(gb.tallies, 0, 1, 2 * batch)
        assert np.array_equal(ga.tallies.pair_s, gb.tallies.pair_s)
        assert np.array_equal(ga.tallies.pair_m, gb.tallies.pair_m)

    @pytest.mark.parametrize("counts", [[[2, -1]], [[1, 1, 0]], [1, 1]], ids=["negative", "wide", "1-d"])
    def test_add_batch_rejects_a_bad_count_block(self, counts):
        g = build_graph(XZ_OBS, "general")
        with pytest.raises(ValueError, match="invalid count block"):
            g.tallies.add_batch(np.array([0]), np.zeros(0, dtype=np.int64), np.array([0]), counts)
        assert not g.tallies.s.any() and not g.tallies.pair_m.any()

    def test_validate_catches_overcount(self):
        g = build_graph(XZ_OBS, "general")
        add_pair_counts(g.tallies, 0, 1, np.array([5, 0]))
        with pytest.raises(AssertionError):
            validate_tallies(g.tallies)


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
    cfg = MCMCConfig(n_chains=2, min_samples=150, max_samples=300)
    for trial in range(25):
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        n_joint = int(rng.integers(0, 40))
        n_solo = int(rng.integers(0, 20))
        g.tallies = type(g.tallies)(g.p, 2)
        draws = rng.multinomial(n_joint, joint.reshape(-1)).reshape(2, 2)
        s_i = draws.sum(axis=1)
        s_j = draws.sum(axis=0)
        s_ij = np.array([draws[0, 0] + draws[1, 1], draws[0, 1] + draws[1, 0]])
        add_vertex_counts(g.tallies, 0, s_i)
        add_vertex_counts(g.tallies, 1, s_j)
        add_pair_counts(g.tallies, 0, 1, s_ij)
        extra = rng.multinomial(n_solo, joint.sum(axis=1))
        add_vertex_counts(g.tallies, 0, extra)
        est = vertex_estimates(g)
        mc = covariance_mcmc(g.tallies.s[0], g.tallies.s[1], g.tallies.pair_s[0, 1], 2, cfg, seed=3, pair_id=trial)
        phase = np.exp(1j * np.pi * ((g.offsets[1] - g.offsets[0]) % 4) / 2)
        est.q[0, 1] = phase * mc.value
        est.q[1, 0] = np.conj(est.q[0, 1])
        _, var = estimate_observable(g, est)
        assert var >= -1e-10


@pytest.mark.parametrize("p", range(1, 9))
def test_array_estimator_matches_dict_oracle(p):
    """The masked array sums equal the dict-keyed loops on random Hermitian
    covariances and consistent tallies."""
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
        g.tallies.pair_m[...] = pair_m + pair_m.T + np.diag(m)
        est = EdgeEstimates(p_means=rng.normal(size=p) + 1j * rng.normal(size=p), q=q)
        q_diag, q_pairs = as_dicts(g, est)

        o, var = estimate_observable(g, est)
        o_ref, var_ref = oracle_estimate_observable(g, est.p_means, q_diag, q_pairs)
        assert abs(o - o_ref) <= 1e-12 * max(1.0, abs(o_ref))
        assert abs(var - var_ref) <= 1e-12 * max(1.0, abs(var_ref))
        batch = int(rng.integers(1, 40))
        gains = variance_decrease(g, est, batch)
        assert gains.shape == (len(g.cliques),)
        for got, clique in zip(gains, g.cliques):
            want = oracle_variance_decrease(g, q_diag, q_pairs, clique, batch)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def random_estimation_state(rng, p):
    """A graph with its cover, consistent random tallies and a random
    Hermitian covariance matrix, on p distinct random strings."""
    reg = QuditRegister((2, 2, 3))
    terms, seen = [], set()
    while len(terms) < p:
        exps = tuple((int(rng.integers(0, d)), int(rng.integers(0, d))) for d in reg.dims)
        if exps not in seen:
            seen.add(exps)
            terms.append((complex(rng.normal(), rng.normal()), exps))
    g = build_graph(make_obs(reg.dims, terms), "general" if rng.random() < 0.5 else "bitwise")
    clique_cover(g)
    m = rng.integers(0, 50, size=p)
    pair_m = np.minimum.outer(m, m) - rng.integers(0, 10, size=(p, p))
    pair_m = np.triu(np.maximum(pair_m, 0) * g.adjacency, 1)
    g.tallies.pair_m[...] = pair_m + pair_m.T + np.diag(m)
    a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    return g, EdgeEstimates(p_means=np.zeros(p, dtype=complex), q=a @ a.conj().T)


@pytest.mark.parametrize("trial", range(60))
def test_matrix_gain_matches_pair_drop_oracle(trial):
    """The matrix-product gains equal the (C, p, p) per-pair drop to 1e-12
    of the largest gain, and the allocation picks the oracle's clique, also
    when the best cliques tie to 1e-13 or differ by just over the tolerance."""
    rng = np.random.default_rng(700 + trial)
    g, est = random_estimation_state(rng, int(rng.integers(3, 9)))
    batch = int(rng.integers(1, 40))
    gains = variance_decrease(g, est, batch)
    want = oracle_pair_drop(g, est, batch)
    assert np.abs(gains - want).max() <= 1e-12 * np.abs(want).max()
    assert select_clique(g, est, batch) == oracle_select(want)

    # near-ties: singleton cliques of vertices u, v with no pair weight, the
    # same shot count and weights in the ratio 1 + rel, scored above the rest
    u, v = rng.choice(g.p, size=2, replace=False)
    for k in (u, v):
        est.q[k, :] = est.q[:, k] = 0.0
    g.tallies.pair_m[v, v] = g.tallies.pair_m[u, u]
    c = g.observable.coefficients()
    est.q[u, u] = 1e3 * np.abs(est.q).max()
    rel = rng.choice([1e-13, -1e-13, 3e-12, -3e-12])
    est.q[v, v] = est.q[u, u] * abs(c[u]) ** 2 / abs(c[v]) ** 2 * (1.0 + rel)
    rest = [cl for cl in g.cliques if u not in cl.vertices and v not in cl.vertices]
    pair = [Clique((int(u),)), Clique((int(v),))]
    g.cliques = rest[: len(rest) // 2] + pair + rest[len(rest) // 2 :]
    gains = variance_decrease(g, est, batch)
    want = oracle_pair_drop(g, est, batch)
    assert np.abs(gains - want).max() <= 1e-12 * np.abs(want).max()
    first = len(rest) // 2
    assert oracle_select(want) == (first + 1 if rel > 1e-12 else first)
    assert select_clique(g, est, batch) == oracle_select(want)
