"""Property-based invariants (hypothesis) across random graphs: push mass
bounds, SimPush's underestimation guarantee, and estimator sanity for all
baselines on arbitrary simple digraphs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_simrank
from repro.core.params import SimPushParams
from repro.core.simpush_local import simpush_local
from repro.graphs.csr import from_edges
from tests import helpers

SQRT_C = np.sqrt(0.6)


def _random_graph(draw, n_max=24, m_max=90):
    n = draw(st.integers(4, n_max))
    m = draw(st.integers(2, m_max))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return from_edges(np.array(src), np.array(dst), n=n)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_push_mass_never_exceeds_sqrt_c(data):
    g = _random_graph(data.draw)
    h = np.zeros(g.n)
    h[data.draw(st.integers(0, g.n - 1))] = 1.0
    total = 1.0
    for _ in range(4):
        h = g.push_to_in_neighbors(h, SQRT_C)
        assert h.sum() <= total * SQRT_C + 1e-12
        total = h.sum()
        assert (h >= 0).all()


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_simpush_never_overestimates(data):
    g = _random_graph(data.draw)
    u = data.draw(st.integers(0, g.n - 1))
    eps = data.draw(st.sampled_from([0.3, 0.1, 0.05]))
    s = exact_simrank(g)
    p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
    res = simpush_local(g, u, eps=eps, L_override=p.L_star)
    diff = s[u] - res.scores
    assert diff.min() >= -1e-9          # underestimate...
    assert diff.max() <= eps + 1e-12    # ...within the Theorem-1 bound
    assert res.scores[u] == 1.0


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_gamma_valid_on_random_graphs(data):
    from repro.core.hitting import attention_hitting_matrix
    from repro.core.last_meeting import gammas
    from repro.core.source_push import source_push
    g = _random_graph(data.draw)
    u = data.draw(st.integers(0, g.n - 1))
    eps_h = data.draw(st.sampled_from([0.2, 0.05, 0.02, 0.005]))
    L = data.draw(st.integers(1, 6))
    gu, att = source_push(g, u, eps_h=eps_h, L=L, sqrt_c=SQRT_C)
    if att.size == 0:
        return
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    gam = gammas(hAA, att, gu.L)
    assert (gam >= 0).all() and (gam <= 1).all()
    assert (hAA >= 0).all() and (hAA <= 1 + 1e-12).all()
    # Alg. 3 against Definition 5, with sinks inside G_u and nodes that
    # sit on several levels.
    np.testing.assert_allclose(
        hAA, helpers.gu_hitting_reference(g, gu, att, SQRT_C), atol=1e-12)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_hitting_matches_dense_block_reference(data):
    """Pushing only seeded target columns and nonzero child rows gives
    exactly what the dense all-targets block gives."""
    from repro.core.hitting import attention_hitting_matrix
    from repro.core.source_push import source_push
    g = _random_graph(data.draw)
    u = data.draw(st.integers(0, g.n - 1))
    eps_h = data.draw(st.sampled_from([0.2, 0.05, 0.02, 0.005]))
    L = data.draw(st.integers(1, 6))
    gu, att = source_push(g, u, eps_h=eps_h, L=L, sqrt_c=SQRT_C)
    np.testing.assert_array_equal(
        attention_hitting_matrix(g, gu, att, SQRT_C),
        helpers.hitting_dense_reference(g, gu, att, SQRT_C))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_reverse_push_matches_per_level_reference(data):
    """The one carried residue vector gives exactly what one vector per
    level gives, untruncated and with a threshold that drops nodes."""
    from repro.core.reverse_push import reverse_push
    from repro.core.source_push import source_push
    g = _random_graph(data.draw)
    u = data.draw(st.integers(0, g.n - 1))
    _, att = source_push(g, u, eps_h=data.draw(st.sampled_from([0.2, 0.02])),
                         L=data.draw(st.integers(1, 6)), sqrt_c=SQRT_C)
    if att.size == 0:
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = att.h * rng.random(att.size)
    # At sqrt(c) times the median seed, seeds below the median push only
    # when a residue pushed onto them lifts them over the threshold.
    for eps_h in (0.0, SQRT_C * np.median(r)):
        np.testing.assert_array_equal(
            reverse_push(g, att, r, u, eps_h, SQRT_C),
            helpers.reverse_push_reference(g, att, r, u, eps_h, SQRT_C))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_walk_sampler_stays_on_graph(seed):
    g = from_edges(np.array([0, 1, 2, 3, 1]), np.array([1, 2, 3, 0, 3]),
                   n=4)
    rng = np.random.default_rng(seed)
    pos = g.sqrt_c_walks(np.full(200, 0, dtype=np.int64), SQRT_C, 5, rng)
    for step in range(1, 6):
        prev, cur = pos[:, step - 1], pos[:, step]
        ok = cur >= 0
        for p, c_ in zip(prev[ok], cur[ok]):
            assert c_ in g.in_neighbors(int(p))
